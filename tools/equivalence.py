#!/usr/bin/env python3
"""Check that the working tree behaves exactly as a git revision does.

Usage: python3 tools/equivalence.py [REV]        (REV defaults to HEAD)

REV must be 60c2fb7 or later: the S2 lines read SolveOutcome.nodes.

Exports REV's src/ with `git archive` into a temporary directory, so the
repository and its .git are left untouched, and runs one fixed matrix of
`sofai-gc` commands (each cli call's comment in run_matrix gives its purpose)
on REV, under PYTHONHASHSEED=0, and on the working tree, under
PYTHONHASHSEED=1, so an output that depends on hash order differs.  The two
sides run at once, each in its own thread, output directory and endpoint.
S1_ENDPOINT, S1_API_KEY and S1_MODEL are removed from every command's
environment.  Each command runs in a fresh interpreter (RUNNER) that wraps
the package to append what it does to one log, a JSON line
[key, kind, item] per observation, whose key names the call that made it:
the command's key, then a bench trial's instance id and trial number, or a
gen sweep's position.  The two sides must be equal, item for item and in
order, on:

- the dataset files, byte for byte;
- of every such file the matrix wrote, the trial records except wall_time,
  each as [key, record] under its trial's key in the log (`bench solver
  instance_id trial`, from the record's own fields), and the memory records
  except timestamp, each as [file name, record];
- one stream per kind of log line, each item [key, item]: the sha256 of every
  rendered prompt (the mock proposer ignores prompt text, so nothing else
  would see it change); the S1 rounds of every solve call, each
  IterationRecord without elapsed; S2's answers per k, `k status nodes
  digest` for each dsatur._solve call, so for every top-level S2 call and
  every k of a chromatic-number sweep (digest is the first 12 hex digits of
  the sha256 of the Sat assignment as sorted JSON, `-` with no assignment);
- S2's statuses per k: the `k status` of each S2 answer, so a change to S2's
  search that moves nodes or colorings shows every answer unchanged.

One rule compares every stream: its two sides' items are aligned by longest
common subsequence (difflib, autojunk off) on their canonical texts,
sorted-key JSON with bytes as hex, so items compare whole and type-exact, an
item one side drops or adds shifts nothing after it, and equal items of
different calls (the [] rounds of two memory answers) differ by their keys.
Prints per stream the equal items and, on a mismatch, the counts and first
SHOWN differing runs: changed, only at REV or only in the tree, each item's
repr cut to 100 characters (of a changed record or S1 round, the keys that
differ); then src/*.py lines per side.
Exits 0 if every stream is equal, 1 if one is not, and 2 if a command
fails, after printing its side, arguments and output tail.  Stdlib only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from difflib import SequenceMatcher
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sofai_gc.generate import gen_erdos_renyi  # noqa: E402
from sofai_gc.graphs import serialize_dimacs  # noqa: E402
from sofai_gc.metacognition import PRESETS  # noqa: E402

GEN = ["gen", "--p", "0.5", "--mix", "50,50", "--count", "12", "--seed", "5"]
BENCH = [
    "bench", "--proposer", "mock", "--noise", "0.15", "--noise-decay", "0.7", "--unsat-rate", "0.2",
    "--trials", "3", "--workers", "1", "--seed", "9",
]

SOLVE = [
    "solve", "--solver", "SOFAI-v2", "--proposer", "mock", "--noise", "1", "--noise-decay", "0.5", "--seed", "3",
]
DEFAULT_SOLVE = [arg for arg in SOLVE if arg not in ("--proposer", "mock")]  # the CLI's default --proposer auto
# Removed from every command's environment, so no endpoint of the shell's is read.
S1_VARIABLES = ("S1_ENDPOINT", "S1_API_KEY", "S1_MODEL")
# Letter labels, a `c vertices` line, and edges written high to low, out of order, unlike every generated
# graph.  A, B and C have the highest degrees, so they make the worked example.
LETTERS = """c k 3
c vertices A B C D E F G H
p edge 8 13
e G C
e C B
e H E
e E A
e B A
e F B
e H D
e G F
e C A
e D A
e H G
e F C
e E B
"""
# S2-only solve lines: instance file name, then G(n, p) seed and k (see run_matrix).
S2_LINES = (("g60-k9.col", 60, 0.5, 1, 9), ("g60-k10.col", 60, 0.5, 1, 10), ("g18-k8.col", 18, 0.8, 4, 8))
# LETTERS with its edge lines in reverse order: equal counts, another Graph.
TWIN = "\n".join([*LETTERS.splitlines()[:3], *LETTERS.splitlines()[:2:-1]]) + "\n"
# LETTERS with vertex A labeled A(1): a label with parentheses, which a reply's pairs still name.
PARENS = "".join(" ".join("A(1)" if t == "A" else t for t in line.split()) + "\n" for line in LETTERS.splitlines())
# The scripted endpoint's replies to LETTERS, in order: no pairs, four of eight vertices, every vertex with
# one conflict (G and C), a proper 3-coloring.  Each scores strictly higher, so the loop reaches the fourth.
REMOTE_REPLIES = (
    "I cannot see a coloring of this graph yet.",
    "(A 1)\n(B 2)\n(C 3)\n(D 2)",
    "(A 1)\n(B 2)\n(C 3)\n(D 2)\n(E 3)\n(F 1)\n(G 3)\n(H 1)",
    "(A 1)\n(B 2)\n(C 3)\n(D 2)\n(E 3)\n(F 1)\n(G 2)\n(H 1)",
)

ANSWERS = "S2 answers per k (k, status, nodes, coloring digest)"
STATUSES = "S2 statuses per k (k, status)"  # compare derives it from ANSWERS
# Each kind of line RUNNER logs: the label of the stream its items make.
KINDS = {
    "prompt": "prompt texts equal by sha256",
    "rounds": "S1 rounds of each solve call, each without elapsed",
    "s2": ANSWERS,
}
SHOWN = 10  # differing runs printed per comparison

# `python -c RUNNER OUT KEY ARGS...`: sofai_gc.cli.main(ARGS), appending to OUT/log.jsonl a line
# [key, kind, item] for each rendered prompt's sha256, each solve call's S1 rounds as a list of dicts and
# `k status nodes digest` for each S2 answer.  key is KEY, then in a bench trial its instance id and trial,
# in a gen sweep its position.
RUNNER = """
import dataclasses, hashlib, itertools, json, sys
from sofai_gc import bench, cli, dsatur, generate, metacognition

render, solve, search = metacognition.render_prompt, bench.solve, dsatur._solve
command = key = sys.argv[2]

def write(kind, item):
    with open(f"{sys.argv[1]}/log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps([key, kind, item], default=sorted) + "\\n")

def keyed(function, name):
    def call(*args, **kwargs):
        global key
        key = f"{command} {name(*args)}"
        try:
            return function(*args, **kwargs)
        finally:
            key = command
    return call

def recording(*args, **kwargs):
    prompt = render(*args, **kwargs)
    write("prompt", hashlib.sha256(prompt.text.encode()).hexdigest())
    return prompt

def recording_rounds(*args, **kwargs):
    outcome, trace = solve(*args, **kwargs)
    rounds = [dataclasses.asdict(it) for it in trace.iterations]
    for row in rounds:
        del row["elapsed"]
    write("rounds", rounds)
    return outcome, trace

def recording_s2(graph, k, deadline):
    outcome = search(graph, k, deadline)
    coloring = outcome.assignment
    digest = "-" if coloring is None else hashlib.sha256(json.dumps(coloring, sort_keys=True).encode()).hexdigest()[:12]
    write("s2", f"{k} {outcome.status} {outcome.nodes} {digest}")
    return outcome

positions = itertools.count()
bench._run_trial = keyed(bench._run_trial, lambda job: f"{job.instance.id} {job.trial}")
generate.chromatic_number = keyed(generate.chromatic_number, lambda graph: next(positions))
metacognition.render_prompt = recording
bench.solve = cli.solve = recording_rounds
dsatur._solve = recording_s2
sys.exit(cli.main(sys.argv[3:]))
"""


class ScriptedChat(BaseHTTPRequestHandler):
    """A chat-completions endpoint that answers each request with the next of its server's replies, then ""."""

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        replies = self.server.replies
        content = replies.pop(0) if replies else ""
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


@contextmanager
def scripted_endpoint():
    """The URL of a ScriptedChat server on 127.0.0.1 that serves REMOTE_REPLIES once, from the first."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedChat)
    server.replies = list(REMOTE_REPLIES)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def run_matrix(src: Path, out: Path, hash_seed: str, side: str) -> dict[str, list]:
    """Run the matrix on the package in src under PYTHONHASHSEED=hash_seed, writing to out.

    Returns every comparison's items.  A failing command ends the process with exit 2, after
    printing side (the name of the side it ran on), its arguments and the tail of its output.
    """
    env = {name: value for name, value in os.environ.items() if name not in S1_VARIABLES}
    env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
    out.mkdir(parents=True)  # gen's S2 calls log their answers before it writes its dataset

    def cli(*args: str, key: str) -> None:
        run = subprocess.run([sys.executable, "-c", RUNNER, str(out), key, *args], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, encoding="utf-8")
        if run.returncode:
            tail = "\n".join(run.stdout.splitlines()[-20:])
            print(f"at {side}, `sofai-gc {' '.join(args)}` exited {run.returncode}:\n{tail}", file=sys.stderr)
            raise SystemExit(2)

    # Two labeled datasets.  The G(30, 0.5) one is labeled only: its chromatic numbers take real S2
    # sweeps, which n = 12 graphs barely need.
    data = out / "data"
    cli(*GEN, "--n", "12", "--out", str(data), key="gen data")
    cli(*GEN, "--n", "30", "--out", str(out / "dense"), key="gen dense")
    # Every roster id, the rows of the tree's PRESETS, benched on the n = 12 dataset, with a fresh
    # memory file for each row that reads memory.
    for solver, preset in PRESETS.items():
        memory = ["--memory", str(out / f"{solver}.memory.jsonl")] if preset.memory else []
        cli(*BENCH, "--solver", solver, "--dataset", str(data), "--out", str(out / f"{solver}.trials.jsonl"),
            *memory, key=f"bench {solver}")
    letters, twin, parens = out / "letters.col", out / "twin.col", out / "parens.col"
    letters.write_text(LETTERS, encoding="utf-8")
    twin.write_text(TWIN, encoding="utf-8")
    parens.write_text(PARENS, encoding="utf-8")
    # SOFAI-v2 on LETTERS: its first round fails, so later prompts carry a worked example.  Then again on
    # the memory file the first wrote, which holds LETTERS: a memory answer, with no S1 round and no prompt,
    # whose coloring is the stored one read back from JSONL.
    solve = [*SOLVE, "--instance", str(letters), "--memory", str(out / "solve.memory.jsonl")]
    cli(*solve, key="solve")
    cli(*solve, key="again")
    # On one fresh memory file: TWIN, then LETTERS twice.  The first LETTERS solve is shown TWIN's record,
    # read back from JSONL and rendered from a parsed graph.  The store then holds both graphs, the twin
    # first, at equal n, e, density and k, so the last solve shows that the lookup finds LETTERS' own record,
    # not the twin: a memory answer, with no S1 round and no prompt.
    tied = ["--memory", str(out / "twin.memory.jsonl")]
    cli(*SOLVE, "--instance", str(twin), *tied, key="twin")
    # A copy of TWIN's memory file with the first half of its last line appended without a newline, as an
    # append cut short: the store skips the torn line and holds TWIN alone, so LETTERS runs S1 rounds shown
    # TWIN's record, and the append that records LETTERS mends the file first.
    torn = out / "torn.memory.jsonl"
    lines = (out / "twin.memory.jsonl").read_bytes().splitlines(keepends=True)
    torn.write_bytes(b"".join(lines) + lines[-1][: len(lines[-1]) // 2])
    cli(*SOLVE, "--instance", str(letters), "--memory", str(torn), key="torn")
    cli(*SOLVE, "--instance", str(letters), *tied, key="shown twin")
    cli(*SOLVE, "--instance", str(letters), *tied, key="tied")
    # A label that holds a pair of parentheses, in prompts, S1 rounds and memory lines: PARENS, on a fresh
    # memory file.
    cli(*SOLVE, "--instance", str(parens), "--memory", str(out / "parens.memory.jsonl"), key="parens")
    # No --proposer: the CLI's default auto path picks the mock with no S1_ENDPOINT, so the config the CLI
    # builds from flags and environment is compared too.
    cli(*DEFAULT_SOLVE, "--instance", str(letters), "--memory", str(out / "default.memory.jsonl"), key="default")
    # The remote proposer against REMOTE_REPLIES, replies the mock never sends: this compares the reply
    # parser, verdict's partial path, and the unparseable and uncolored feedback.
    with scripted_endpoint() as endpoint:
        cli("solve", "--solver", "SOFAI-v2", "--proposer", "remote", "--endpoint", endpoint, "--instance",
            str(letters), "--memory", str(out / "remote.memory.jsonl"), key="remote")
    # S2 on G(60, 0.5) seed 1 at k = 9 and 10, long searches (22,418 and 34,001 nodes), and G(18, 0.8)
    # seed 4 at k = 8, an Unsat proof whose saturations reach 8, so its counts need a fourth bit plane.
    # The dataset lines' searches are short; these run where saturation counting does most of its work.
    for name, n, p, seed, k in S2_LINES:
        instance = out / name
        instance.write_text(serialize_dimacs(gen_erdos_renyi(n, p, seed), k), encoding="utf-8")
        cli("solve", "--solver", "S2", "--instance", str(instance), key=f"S2 {name}")
    return outputs(out)


def outputs(out: Path) -> dict[str, list]:
    """Every comparison's items, read from the dataset directories, record files and log the matrix wrote to out."""
    streams = {label: [] for label in KINDS.values()}
    for key, kind, item in map(json.loads, (out / "log.jsonl").read_text(encoding="utf-8").splitlines()):
        streams[KINDS[kind]].append([key, item])
    return {
        "dataset files byte-identical": [
            (p.relative_to(out).as_posix(), p.read_bytes())
            for root in (out / "data", out / "dense") for p in sorted(root.rglob("*")) if p.is_file()
        ],
        # A trial record's key is its trial's key in the log.
        "trial records equal except wall_time": records(out, "*.trials.jsonl", "wall_time",
                                                        "bench {solver} {instance_id} {trial}"),
        "memory records equal except timestamp": records(out, "*.memory.jsonl", "timestamp", "{file}"),
        **streams,
    }


def records(out: Path, pattern: str, ignored: str, key: str) -> list[list]:
    """[key, JSON object less its ignored field] for each line of the files in out that pattern matches, by name.

    key is formatted with the object's fields and file, its file's name.
    """
    rows = [(path.name, json.loads(line)) for path in sorted(out.glob(pattern))
            for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    for _, row in rows:
        row.pop(ignored, None)
    return [[key.format_map({**row, "file": name}), row] for name, row in rows]


def canonical(item) -> str:
    """item as sorted-key JSON with bytes as hex: two items, types too, are equal when their texts are."""
    return json.dumps(item, sort_keys=True, default=bytes.hex)


def differing(item, other):
    """item less what other shares: of dicts, the keys other lacks or holds otherwise; of equal-length lists, each."""
    if isinstance(item, dict) and isinstance(other, dict):
        return {key: value for key, value in sorted(item.items())
                if key not in other or canonical(value) != canonical(other[key])}
    if isinstance(item, list) and isinstance(other, list) and len(item) == len(other):
        return [differing(a, b) for a, b in zip(item, other)]
    return item


def brief(run: list, other: list) -> str:
    """A run's repr (one item alone) as it differs from the other side's run, each item's cut to 100 characters."""
    shown = differing(*(items[0] if len(items) == 1 else items for items in (run, other)))
    texts = [text if len(text) <= 100 else text[:97] + "..." for text in map(repr, [shown] if len(run) == 1 else shown)]
    return texts[0] if len(run) == 1 else f"[{', '.join(texts)}]"


def compare(old: dict[str, list], new: dict[str, list], rev: str) -> bool:
    """Print how far REV's side (old) and the tree's (new) agree, comparison by comparison; True if on all.

    Items are aligned on canonical texts, and a changed run counts its items at REV.  STATUSES is added
    to each side, the first two fields of each of its ANSWERS lines.
    """
    old, new = ({**side, STATUSES: [[key, " ".join(line.split()[:2])] for key, line in side[ANSWERS]]}
                for side in (old, new))
    labels = {"replace": "changed", "delete": f"only at {rev}", "insert": "only in the tree"}
    passed = True
    for name, items in old.items():
        theirs = new[name]
        texts = ([canonical(item) for item in side] for side in (items, theirs))
        found = [op for op in SequenceMatcher(None, *texts, autojunk=False).get_opcodes() if op[0] != "equal"]
        passed &= not found
        count = {tag: sum(i2 - i1 or j2 - j1 for t, i1, i2, j1, j2 in found if t == tag) for tag in labels}
        tally = ", ".join(f"{count[tag]} {label}" for tag, label in labels.items())
        print(f"  {name}: {len(items) - count['replace'] - count['delete']}/{len(items)}"
              + (f"  MISMATCH (the tree has {len(theirs)}; {tally})" if found else ""))
        for tag, i1, i2, j1, j2 in found[:SHOWN]:
            ours, other = items[i1:i2], theirs[j1:j2]
            print(f"    {labels[tag]}, {rev}[{i1}:{i2}] tree[{j1}:{j2}]: {brief(ours, other)} at {rev}, "
                  f"{brief(other, ours)} in the tree")
        if len(found) > SHOWN:
            print(f"    ... and {len(found) - SHOWN} more runs")
    return passed


def py_lines(src: Path) -> int:
    """Total lines of the *.py files under src."""
    return sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py"))


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
        if archive.returncode:
            return 2  # git has printed why
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        with ThreadPoolExecutor(2) as pool:  # the sides share no file, port or process
            old, new = pool.map(run_matrix, (base / "src", ROOT / "src"), (base / "rev", base / "tree"), ("0", "1"),
                                (rev, "the tree"))
        lines = [py_lines(base / "src"), py_lines(ROOT / "src")]
    print(f"working tree vs {rev}, {len(PRESETS)} solver ids:")
    passed = compare(old, new, rev)
    print(f"  src/ lines of *.py: {lines[0]} at {rev}, {lines[1]} in the tree ({lines[1] - lines[0]:+d})")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
