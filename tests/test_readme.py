"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the examples write files relative to the working directory
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
