#!/usr/bin/env python3
"""Check that the working tree behaves exactly as a git revision does.

Usage: python3 tools/equivalence.py [REV]        (REV defaults to HEAD)

Exports REV's src/ with `git archive` into a temporary directory, so the
repository and its .git are left untouched.  Then, on REV and on the
working tree alike, it runs

    sofai-gc gen --n 12 --p 0.5 --mix 50,50 --count 12 --seed 5
    sofai-gc gen --n 30 --p 0.5 --mix 50,50 --count 12 --seed 5
    sofai-gc bench --proposer mock --noise 0.15 --noise-decay 0.7 \\
        --unsat-rate 0.2 --trials 3 --workers 1 --seed 9 --solver ID

and the bench line on the n = 12 dataset for every roster id, the rows
of the tree's metacognition.PRESETS, with a fresh --memory file for each
row that reads memory.  The G(30, 0.5)
dataset is labeled only: its chromatic numbers take real S2 sweeps, which
n = 12 graphs barely need.  Every generated graph is labeled 1..n with
each edge written low to high, so last it runs

    sofai-gc solve --solver SOFAI-v2 --proposer mock --noise 1 \
        --noise-decay 0.5 --seed 3 --instance letters.col --memory ...

on LETTERS, an instance written here with letter labels, a `c vertices`
line and its edges written high to low, out of order; its first round
fails, so later prompts carry a worked example.  Then it runs that line
again against the memory file the first one wrote, so its prompts carry
an example read back from JSONL, rendered from a parsed graph.  Last,
on a fresh memory file, it runs the solve line on TWIN, LETTERS with its
edges in another order (the same n, e, density and k, another graph),
then on LETTERS, then on LETTERS again: the store then holds both
graphs, the twin first, so the last solve's memory hit shows which of
two tied records retrieval ranks first.  Then it copies the memory file
the TWIN solve wrote, appends the first half of its last line without a
newline, as an append cut short, and runs the LETTERS solve on that
copy: the store skips the torn line, and the append that records
LETTERS mends the file first.  After those, on another fresh memory file, it
runs the solve line on PARENS, LETTERS with A written A(1), so prompts,
S1 rounds and memory lines are compared for a label that holds a pair
of parentheses.  Last, on another fresh memory file, it runs the solve
line on LETTERS without --proposer mock: the CLI's default auto path,
which picks the mock with no S1_ENDPOINT, so prompts, S1 rounds and
memory lines are compared for the config the CLI builds from flags and
environment as well.  Then, on another fresh memory file, it runs
SOFAI-v2 on LETTERS with --proposer remote and --endpoint set to a
chat-completions server this tool starts on 127.0.0.1 for each side.
The server answers with a fixed script: prose with no color pairs, a
partial coloring, a coloring with one conflict, then a proper coloring,
each scoring higher than the last, so the loop reaches its fourth round.
The mock never sends such replies, so this line compares the reply
parser, verdict's partial path, and the unparseable and uncolored
feedback, through prompts, S1 rounds and memory lines.  After those, it runs

    sofai-gc solve --solver S2 --instance FILE

on three instance files written here from the generator, as LETTERS is
written: G(60, 0.5) seed 1 at k = 9 and at k = 10, long searches
(22,418 and 34,001 nodes), and G(18, 0.8) seed 4 at k = 8, an Unsat
proof whose saturations reach 8, so its counts need a fourth bit plane.
The dataset lines' searches are short, so these compare node counts
where S2's saturation counting does most of its work.  Every command
runs with S1_ENDPOINT, S1_API_KEY and S1_MODEL removed from its
environment, so the shell's settings do not reach either side, and
with PYTHONHASHSEED set, to 0 on REV's side and 1 on the tree's, so an
output that depends on hash order differs on every run.  The
datasets must be byte-identical, every trial record must be equal
except wall_time, every memory record of the bench and solve lines must
be equal except timestamp, and every prompt the bench
lines and the solve lines render must have the same text, compared by
sha256 in the order rendered (the mock proposer ignores prompt text, so nothing else
would see it change).  The S1 rounds of every solve call, each round's
IterationRecord as a dict without its elapsed time, and the memory
records must be equal on the keys that both sides write: a field one
side dropped or added is listed, not counted as a mismatch, so a change
to the record's fields can still be checked on every fact the two sides
share.  Every top-level S2 call
(the controller's solve_decision, gen's chromatic_number) must visit the
same number of search nodes, call for call, so a change to how S2
branches or backtracks shows which searches it changed.  Each command
runs in-process in a fresh interpreter that first wraps
metacognition.render_prompt to record those digests, bench.solve and
cli.solve (the bench lines and the solve lines look a roster id up
through one of them) to record those rounds, and dsatur.select_vertex,
which the search calls once per node with any arguments, to count those
nodes.  It counts there, not from SolveOutcome.nodes, because a revision
from before that field still has to run, and because chromatic_number
returns only its k, not the outcomes of its sweep.  It also wraps memory.EpisodicRecord.make and
memory.MemoryStore.append, to count the records each side builds and the
appends the store refuses; those two counts are printed per side for
information, as the keys are, and are not compared.  Prints the
counts and the keys compared, and each S2 call whose node count differs
(its index, name and both counts), and exits 1 on any mismatch.  Last it
prints the total lines of the *.py files under REV's src/ and the
tree's, and the difference.  Standard library only.
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
from contextlib import contextmanager
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
# A, B and C have the highest degrees, so they make the worked example.
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
# S2-only solve lines: instance file name, then G(n, p) seed and k (see the module docstring).
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


# `python -c RUNNER DIGESTS ROUNDS NODES MEMORY ARGS...`: sofai_gc.cli.main(ARGS)
# with each rendered prompt's sha256 appended to the file DIGESTS, each solve
# call's S1 rounds appended to ROUNDS as one JSON list of dicts, each
# top-level S2 call's name and search nodes appended to NODES as one line,
# and the process's EpisodicRecord.make calls and refused MemoryStore
# appends appended to MEMORY as one line of two counts.
RUNNER = """
import dataclasses, hashlib, json, sys
from sofai_gc import bench, cli, dsatur, generate, memory, metacognition

render, solve, select = metacognition.render_prompt, bench.solve, dsatur.select_vertex
make, append = memory.EpisodicRecord.make, memory.MemoryStore.append
nodes = [0]
made = [0, 0]  # records built, appends refused

def recording(*args, **kwargs):
    prompt = render(*args, **kwargs)
    with open(sys.argv[1], "a") as fh:
        fh.write(hashlib.sha256(prompt.text.encode()).hexdigest() + "\\n")
    return prompt

def recording_rounds(*args, **kwargs):
    outcome, trace = solve(*args, **kwargs)
    rounds = [dataclasses.asdict(it) for it in trace.iterations]
    for row in rounds:
        del row["elapsed"]
    with open(sys.argv[2], "a") as fh:
        fh.write(json.dumps(rounds, default=sorted) + "\\n")
    return outcome, trace

def counting(*args):
    nodes[0] += 1
    return select(*args)

def counting_s2(name, search):
    def call(*args, **kwargs):
        nodes[0] = 0
        try:
            return search(*args, **kwargs)
        finally:
            with open(sys.argv[3], "a") as fh:
                fh.write(f"{name} {nodes[0]}\\n")
    return call

def counting_make(*args, **kwargs):
    made[0] += 1
    return make(*args, **kwargs)

def counting_append(store, record):
    try:
        return append(store, record)
    except memory.MemoryRejected:
        made[1] += 1
        raise

metacognition.render_prompt = recording
bench.solve = cli.solve = recording_rounds
dsatur.select_vertex = counting
metacognition.solve_decision = counting_s2("solve_decision", metacognition.solve_decision)
generate.chromatic_number = counting_s2("chromatic_number", generate.chromatic_number)
memory.EpisodicRecord.make = staticmethod(counting_make)
memory.MemoryStore.append = counting_append
try:
    status = cli.main(sys.argv[5:])
finally:
    with open(sys.argv[4], "a") as fh:
        fh.write(f"{made[0]} {made[1]}\\n")
sys.exit(status)
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


ROUNDS = "S1 rounds of each solve call, equal on the keys both sides write"
RECORDS = "memory records equal except timestamp, on the keys both sides write"
NODES = "S2 nodes per call"
MEMORY = "records built and appends refused"


def run_matrix(src: Path, out: Path, hash_seed: str) -> dict[str, list]:
    """Run the matrix on the package in src under PYTHONHASHSEED=hash_seed, writing to out.

    Returns what the two sides must share, and MEMORY.
    """
    digests, solve_digests = out / "prompts.sha256", out / "solve-prompts.sha256"
    again_digests, rounds, nodes = out / "solve-again-prompts.sha256", out / "rounds.jsonl", out / "s2-nodes.txt"
    twin_digests, tied_digests = out / "twin-prompts.sha256", out / "tied-prompts.sha256"
    torn_digests, parens_digests = out / "torn-prompts.sha256", out / "parens-prompts.sha256"
    default_digests, remote_digests = out / "default-prompts.sha256", out / "remote-prompts.sha256"
    env = {name: value for name, value in os.environ.items() if name not in S1_VARIABLES}
    env["PYTHONHASHSEED"] = hash_seed
    made = out / "memory-counts.txt"
    out.mkdir(parents=True)  # gen's S2 calls write their nodes before it writes its dataset

    def cli(*args: str, digests: Path = digests) -> None:
        subprocess.run(
            [sys.executable, "-c", RUNNER, str(digests), str(rounds), str(nodes), str(made), *args],
            env={**env, "PYTHONPATH": str(src)},
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    data, dense = out / "data", out / "dense"
    cli(*GEN, "--n", "12", "--out", str(data))
    cli(*GEN, "--n", "30", "--out", str(dense))
    for solver, preset in PRESETS.items():
        memory = ["--memory", str(out / f"{solver}.memory.jsonl")] if preset.memory else []
        cli(*BENCH, "--solver", solver, "--dataset", str(data), "--out", str(out / f"{solver}.jsonl"), *memory)
    letters, twin, parens = out / "letters.col", out / "twin.col", out / "parens.col"
    letters.write_text(LETTERS)
    twin.write_text(TWIN)
    parens.write_text(PARENS)
    solve = [*SOLVE, "--instance", str(letters), "--memory", str(out / "solve.memory.jsonl")]
    cli(*solve, digests=solve_digests)
    cli(*solve, digests=again_digests)
    tied = ["--memory", str(out / "twin.memory.jsonl")]
    cli(*SOLVE, "--instance", str(twin), *tied, digests=twin_digests)
    torn = out / "torn.memory.jsonl"
    lines = (out / "twin.memory.jsonl").read_bytes().splitlines(keepends=True)
    torn.write_bytes(b"".join(lines) + lines[-1][: len(lines[-1]) // 2])
    cli(*SOLVE, "--instance", str(letters), "--memory", str(torn), digests=torn_digests)
    cli(*SOLVE, "--instance", str(letters), *tied, digests=twin_digests)
    cli(*SOLVE, "--instance", str(letters), *tied, digests=tied_digests)
    cli(*SOLVE, "--instance", str(parens), "--memory", str(out / "parens.memory.jsonl"), digests=parens_digests)
    cli(*DEFAULT_SOLVE, "--instance", str(letters), "--memory", str(out / "default.memory.jsonl"),
        digests=default_digests)
    with scripted_endpoint() as endpoint:
        cli("solve", "--solver", "SOFAI-v2", "--proposer", "remote", "--endpoint", endpoint, "--instance",
            str(letters), "--memory", str(out / "remote.memory.jsonl"), digests=remote_digests)
    for name, n, p, seed, k in S2_LINES:
        instance = out / name
        instance.write_text(serialize_dimacs(gen_erdos_renyi(n, p, seed), k))
        cli("solve", "--solver", "S2", "--instance", str(instance))
    memory_files = [*(f"{solver}.memory.jsonl" for solver in PRESETS), "solve.memory.jsonl", "twin.memory.jsonl",
                    "torn.memory.jsonl", "parens.memory.jsonl", "default.memory.jsonl", "remote.memory.jsonl"]
    return {
        "dataset files byte-identical": [
            (p.relative_to(out).as_posix(), p.read_bytes())
            for root in (data, dense) for p in sorted(root.rglob("*")) if p.is_file()
        ],
        "trial records equal except wall_time": [
            row for solver in PRESETS for row in records(out / f"{solver}.jsonl", "wall_time")
        ],
        RECORDS: [row for name in memory_files for row in records(out / name, "timestamp")],
        "prompt texts equal by sha256": digests.read_text().split(),
        "solve on letters.col, prompt texts equal by sha256": solve_digests.read_text().split(),
        "solve again from its memory file, prompt texts equal by sha256": again_digests.read_text().split(),
        "solve on TWIN, then on letters.col, one memory file, prompt texts equal by sha256":
            twin_digests.read_text().split(),
        "solve letters.col again, TWIN stored ahead of it, prompt texts equal by sha256":
            tied_digests.read_text().split(),
        "solve letters.col on TWIN's memory file with a torn final line, prompt texts equal by sha256":
            torn_digests.read_text().split(),
        "solve on PARENS, LETTERS with A written A(1), fresh memory file, prompt texts equal by sha256":
            parens_digests.read_text().split(),
        "solve on letters.col without --proposer (auto, the mock), fresh memory file, prompt texts equal by sha256":
            default_digests.read_text().split(),
        "solve on letters.col with the remote proposer and a scripted endpoint, fresh memory file, prompt texts "
        "equal by sha256": remote_digests.read_text().split(),
        ROUNDS: [json.loads(line) for line in rounds.read_text().splitlines()],
        NODES: nodes.read_text().splitlines(),
        MEMORY: [sum(int(line.split()[i]) for line in made.read_text().splitlines()) for i in (0, 1)],
    }


def records(path: Path, ignored: str) -> list[dict]:
    """The JSON objects of a JSONL file (none if it is absent), each without its ignored key."""
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    for row in rows:
        row.pop(ignored, None)
    return rows


def shared_only(row: dict, keys: list[set]) -> dict:
    """row restricted to the keys both sides write, keys[0] & keys[1], in sorted order."""
    return {key: row.get(key) for key in sorted(keys[0] & keys[1])}


def py_lines(src: Path) -> int:
    """Total lines of the *.py files under src."""
    return sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py"))


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        old = run_matrix(base / "src", base / "rev", hash_seed="0")
        new = run_matrix(ROOT / "src", base / "tree", hash_seed="1")
        lines = [py_lines(base / "src"), py_lines(ROOT / "src")]
    print(f"working tree vs {rev}, {len(PRESETS)} solver ids:")
    made = [side.pop(MEMORY) for side in (old, new)]
    round_keys = [{key for call in side[ROUNDS] for row in call for key in row} for side in (old, new)]
    record_keys = [{key for row in side[RECORDS] for key in row} for side in (old, new)]
    for side in (old, new):
        side[ROUNDS] = [[shared_only(row, round_keys) for row in call] for call in side[ROUNDS]]
        side[RECORDS] = [shared_only(row, record_keys) for row in side[RECORDS]]
    failed = False
    for name, rows in old.items():
        same = sum(a == b for a, b in zip(rows, new[name]))
        ok = same == len(rows) == len(new[name])
        failed |= not ok
        print(f"  {name}: {same}/{len(rows)}" + ("" if ok else f"  MISMATCH (the tree has {len(new[name])})"))
        if name == NODES and not ok:
            for i, (a, b) in enumerate(zip(rows, new[name])):
                if a != b:
                    print(f"    call {i}: {a} nodes at {rev}, {b} nodes in the tree")
    for what, keys in (("S1 round", round_keys), ("memory record", record_keys)):
        shared = keys[0] & keys[1]
        print(f"  {what} keys compared: {', '.join(sorted(shared))}")
        print(f"    only {rev} writes: {', '.join(sorted(keys[0] - shared)) or '-'}")
        print(f"    only the tree writes: {', '.join(sorted(keys[1] - shared)) or '-'}")
    print(f"  EpisodicRecord.make calls: {made[0][0]} at {rev}, {made[1][0]} in the tree")
    print(f"  appends MemoryStore refused: {made[0][1]} at {rev}, {made[1][1]} in the tree")
    print(f"  src/ lines of *.py: {lines[0]} at {rev}, {lines[1]} in the tree ({lines[1] - lines[0]:+d})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
