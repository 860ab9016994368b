"""Every file the package reads or writes is UTF-8, whatever the host locale."""

import os
import subprocess
import sys
from pathlib import Path

from sofai_gc import parse_dimacs_instance, verdict

SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI = "import sys\nfrom sofai_gc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
# The C locale with neither locale coercion nor UTF-8 mode, so the default text encoding is ASCII.
# The standard streams stay UTF-8, so only the package's own files are under test.
C_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
# Any text-mode open that leaves the encoding to the locale raises EncodingWarning, an error here.
NO_DEFAULT_ENCODING = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")

ROUND_TRIP = """
import sys
from sofai_gc import Graph
from sofai_gc.generate import Dataset, GenSpec, InstanceRecord, load_dataset, write_dataset
graph = Graph(("\\u00fc", "b"), (("\\u00fc", "b"),))
record = InstanceRecord(id="umlaut", graph=graph, n=2, p=1.0, seed=0, chi=2, k=2, label="SAT")
write_dataset(Dataset(spec=GenSpec(n=2, p=1.0, count=1, seed=0), instances=(record,), complete=True), sys.argv[1])
(loaded,) = load_dataset(sys.argv[1])
assert loaded == record, loaded
"""


def run(code: str, *args: str, flags: tuple[str, ...] = (), env: dict[str, str] | None = None):
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": SRC, **(env or {})}, timeout=60,
    )


class TestAsciiLocale:
    def test_a_dataset_with_a_non_ascii_vertex_round_trips(self, tmp_path):
        proc = run(ROUND_TRIP, str(tmp_path), env=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        text = (tmp_path / "instances" / "umlaut.col").read_bytes().decode("utf-8")
        assert "e ü b" in text.splitlines()

    def test_solve_reads_a_utf8_instance(self, tmp_path):
        instance = tmp_path / "umlaut.col"
        instance.write_bytes("p edge 2 1\ne ü b\n".encode("utf-8"))
        proc = run(CLI, "solve", "--solver", "S2", "--k", "2", "--instance", str(instance), env=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        pairs = [line.strip("()").split() for line in proc.stdout.splitlines()]
        graph, _, _ = parse_dimacs_instance(instance.read_text(encoding="utf-8"))
        assert verdict(graph, {v: int(c) for v, c in pairs}, 2).valid


def test_no_command_leaves_a_file_encoding_to_the_locale(tmp_path):
    dataset, results, memory = tmp_path / "ds", tmp_path / "results.jsonl", tmp_path / "memory.jsonl"
    commands = [
        ["gen", "--n", "5", "--p", "0.5", "--mix", "50,50", "--count", "2", "--seed", "3", "--out", str(dataset)],
        ["solve", "--solver", "S2", "--instance", str(dataset / "instances" / "er_n5_p0.5_0000.col")],
        ["bench", "--solver", "SOFAI-v2", "--proposer", "mock", "--dataset", str(dataset), "--trials", "1",
         "--memory", str(memory), "--out", str(results)],
        ["report", "--in", str(results)],
    ]
    for args in commands:
        proc = run(CLI, *args, flags=NO_DEFAULT_ENCODING)
        assert proc.returncode == 0, (args[0], proc.stderr)
    assert len(results.read_bytes().splitlines()) == 2
    assert len(memory.read_bytes().splitlines()) == 1  # the SAT instance's colouring
