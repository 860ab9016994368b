"""Benchmark harness: run solver configurations over labeled datasets.

Each instance is attempted `trials` times under a per-instance wall
clock limit; trials stream to a JSONL file as they finish.  Aggregation
follows the best-of-n protocol: an instance counts as solved if any
trial succeeds, and its time is the minimum successful trial time.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .dsatur import DEFAULT_TIME_LIMIT, SolveOutcome
from .generate import InstanceRecord, load_dataset, read_manifest_meta
from .graphs import Graph
from .memory import MemoryStore, check_json_types, read_jsonl
from .metacognition import MEMORYLESS_ERROR, PRESETS, OrchestratorConfig, SolveTrace, run_preset, solve_sofai_v2
from .proposer import ProposerConfig

# The interpreter's own SHA-256, as CPython's random module takes its SHA-512:
# hashlib would map OpenSSL's libcrypto, 3.5 MB resident, for the same bytes.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SOLVERS = tuple(PRESETS)


@dataclass(frozen=True)
class RunConfig:
    solver: str
    dataset: str
    time_limit: float = DEFAULT_TIME_LIMIT
    trials: int = 3
    workers: Optional[int] = None
    proposer: ProposerConfig = ProposerConfig()
    out: Optional[str] = None
    seed: int = 0
    memory_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver not in PRESETS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if not self.time_limit > 0:  # NaN too
            raise ValueError("time_limit must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.memory_path and not PRESETS[self.solver].memory:
            raise ValueError(MEMORYLESS_ERROR.format(solver=self.solver))


@dataclass(frozen=True)
class TrialResult:
    instance_id: str
    solver: str
    trial: int
    status: str  # sat | unsat | timeout | failure
    correct: bool
    wall_time: float
    s1_iterations: int
    s2_invoked: bool
    n: int
    p: float
    mix: str
    label: str
    error: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "TrialResult":
        """Parse one JSONL line; a missing or extra key, or a value of the wrong type, raises TypeError."""
        obj = json.loads(line)
        row = cls(**obj)
        check_json_types(obj, cls.__annotations__)
        return row


def _trace_columns(trace: SolveTrace) -> dict:
    """TrialResult's fields that come from a trial's trace."""
    return {"s1_iterations": trace.s1_calls, "s2_invoked": trace.s2_invoked}


# A crashed trial's trace: it ran no S1 round and did not reach S2.
_NO_TRACE = SolveTrace(iterations=(), s2_invoked=False, source=None)


def derive_seed(root_seed: int, instance_id: str, trial: int) -> int:
    """Per-trial seed from the root seed, instance, and trial index.

    The solver id is deliberately not part of the derivation: every
    solver sees the same proposer randomness on the same trial, so
    iteration-budget comparisons are prefix comparisons, not reruns.
    """
    digest = sha256(f"{root_seed}:{instance_id}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def solve(solver: str, graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """Run one roster solver on one instance: its row of PRESETS, through run_preset.

    An unknown id, and a store for an id that reads no memory, raise ValueError.
    """
    # SOFAI-v2 goes through this module's solve_sofai_v2, looked up on each call:
    # perfbench's answer check swaps bench.solve_sofai_v2 to see every trial's answer.
    if solver == "SOFAI-v2":
        return solve_sofai_v2(graph, k, cfg)
    return run_preset(solver, graph, k, cfg)


@dataclass(frozen=True)
class _Trial:
    """One trial's inputs.  A store in cfg is shared by reference, so it forces one worker."""

    solver: str
    instance: InstanceRecord
    mix: str
    cfg: OrchestratorConfig  # its proposer already seeded for this trial
    trial: int


def _run_trial(job: _Trial) -> TrialResult:
    inst = job.instance
    start = time.monotonic()
    error = None
    try:
        outcome, trace = solve(job.solver, inst.graph, inst.k, job.cfg)
        status = outcome.status
    except Exception as exc:  # a crashed trial is data, not a crashed run
        status, trace = "failure", _NO_TRACE
        error = f"{type(exc).__name__}: {exc}"
    wall = time.monotonic() - start
    correct = (status == "sat" and inst.label == "SAT") or (status == "unsat" and inst.label == "UNSAT")
    return TrialResult(
        instance_id=inst.id,
        solver=job.solver,
        trial=job.trial,
        status=status,
        correct=correct,
        wall_time=wall,
        n=inst.n,
        p=inst.p,
        mix=job.mix,
        label=inst.label,
        error=error,
        **_trace_columns(trace),
    )


def _finished(jobs: list[_Trial], workers: int) -> Iterator[TrialResult]:
    """Each trial's result as it finishes: in job order on one worker, else from a process pool."""
    if workers == 1:
        yield from map(_run_trial, jobs)
        return
    # Imported here, not at the top: multiprocessing costs memory in every one-worker run.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for fut in as_completed([pool.submit(_run_trial, job) for job in jobs]):
            yield fut.result()


def run_benchmark(cfg: RunConfig) -> list[TrialResult]:
    """Run cfg.trials trials of cfg.solver on every dataset instance.

    Trials are independent and seeded, so results are reproducible for
    any worker count.  A shared persistent memory store is an ordering
    dependency, so it forces sequential execution; it is loaded once and
    every trial reads and appends to the same store.
    """
    records = load_dataset(cfg.dataset)
    meta = read_manifest_meta(cfg.dataset)
    mix = meta.get("mix", "")
    store = MemoryStore(cfg.memory_path) if cfg.memory_path else None
    jobs = [
        _Trial(
            solver=cfg.solver,
            instance=rec,
            mix=mix,
            cfg=OrchestratorConfig(
                proposer=dataclasses.replace(cfg.proposer, seed=derive_seed(cfg.seed, rec.id, trial)),
                time_limit=cfg.time_limit,
                store=store,
            ),
            trial=trial,
        )
        for rec in records
        for trial in range(1, cfg.trials + 1)
    ]

    workers = 1 if store is not None else cfg.workers or max(1, (os.cpu_count() or 2) - 1)

    results: list[TrialResult] = []
    with open(cfg.out, "w", encoding="utf-8") if cfg.out else nullcontext() as sink:
        for result in _finished(jobs, workers):
            results.append(result)
            if sink:
                sink.write(result.to_json() + "\n")
                sink.flush()
    results.sort(key=lambda r: (r.instance_id, r.trial))
    return results


@dataclass(frozen=True)
class AggregateRow:
    n: int
    p: float
    mix: str
    solver: str
    success_pct: float
    avg_time_s: Optional[float]
    instances: int


def aggregate(results: Sequence[TrialResult]) -> list[AggregateRow]:
    """Fold trial results into per-cell success rates and solve times, best-of-n.

    An instance succeeds if any trial was correct, and its
    time is the minimum over its correct trials.  Cell success rate is
    the percentage of its instances that succeeded; average time is over
    succeeding instances only (None when there are none).
    """
    if not results:
        raise ValueError("results must be nonempty")
    by_instance: dict[tuple[str, str], list[TrialResult]] = {}
    for r in results:
        by_instance.setdefault((r.instance_id, r.solver), []).append(r)

    cells: dict[tuple[int, float, str, str], list[Optional[float]]] = {}
    for (_, solver), trials in by_instance.items():
        successful = [t.wall_time for t in trials if t.correct]
        best = min(successful) if successful else None
        first = trials[0]
        key = (first.n, first.p, first.mix, solver)
        cells.setdefault(key, []).append(best)

    rows = []
    for (n, p, mix, solver), times in sorted(cells.items()):
        solved = [t for t in times if t is not None]
        rate = 100.0 * len(solved) / len(times)
        avg = sum(solved) / len(solved) if solved else None
        rows.append(AggregateRow(n, p, mix, solver, rate, avg, len(times)))
    return rows


_COLUMNS = ("n", "p", "mix", "solver", "success_pct", "avg_time_s", "instances")
REPORT_FORMATS = ("table", "csv")  # the first is the default


def report(rows: Sequence[AggregateRow], format: str = REPORT_FORMATS[0]) -> str:
    """Render aggregate rows as an aligned table or CSV text."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")

    def cell(row: AggregateRow, col: str) -> str:
        value = getattr(row, col)
        if col == "avg_time_s":
            return "" if value is None else f"{value:.3f}"
        if col == "success_pct":
            return f"{value:.1f}"
        if col == "p":
            return f"{value:g}"
        return str(value)

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for r in rows:
            writer.writerow([cell(r, c) for c in _COLUMNS])
        return buf.getvalue().rstrip("\n")

    table_cells = [[cell(r, c) or "-" for c in _COLUMNS] for r in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table_cells)) if table_cells else len(col)
        for i, col in enumerate(_COLUMNS)
    ]
    out = ["  ".join(col.ljust(w) for col, w in zip(_COLUMNS, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for line in table_cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(out)


def load_results(path: str | Path) -> list[TrialResult]:
    """Read a JSONL trial-results file back into TrialResult rows.

    A torn final line (a run killed mid-write) is skipped; any other line
    that is not a trial result raises ValueError naming path:line.
    """
    return read_jsonl(Path(path), TrialResult.from_json)
