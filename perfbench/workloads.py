"""The two workloads: how each sets up, labels and decides, and how answers are checked.

Every call into the package goes through a module attribute (for example
`generate.build_dataset`), so the tracer's wrappers see it.  Why each
workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import random
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from time import perf_counter

from sofai_gc import bench, dsatur, generate
from sofai_gc.proposer import ProposerConfig

import instances
from instances import Instance, is_proper

TIME_LIMIT = 30.0  # seconds per labeling op and per trial; no op comes near it


class WrongAnswer(Exception):
    """The package returned an answer the benchmark's own check refutes."""


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], list[Instance]]
    exact_labels: bool  # label by chi (build_dataset); else time an S2 SAT search at k
    trials: int
    noise: float
    noise_decay: float = 1.0
    memory_file: bool = False


def _dense(rng: random.Random) -> list[Instance]:
    return instances.er_instances(rng) + instances.known_chi_instances()


WORKLOADS = {
    "er-exact": Workload(_dense, exact_labels=True, trials=1, noise=0.1),
    "s1-memory": Workload(instances.sparse_instances, exact_labels=False, trials=3, noise=0.02, noise_decay=0.5,
                          memory_file=True),
}


@dataclass
class Round:
    """What one set-up, label and decide round over the workload's instances measured."""

    setup_s: float = 0.0
    label_times: dict[str, float] = field(default_factory=dict)  # instance id -> seconds
    label_failed: int = 0
    trials: list = field(default_factory=list)
    decide_clock: float = 0.0
    wall: float = 0.0

    @property
    def trials_failed(self) -> int:
        return sum(t.status in ("timeout", "failure") for t in self.trials)


def setup(workload: Workload, seed: int, dataset_dir: Path) -> list[Instance]:
    """Generate the seed's instances and write them as a dataset the harness can load."""
    if dataset_dir.exists():
        shutil.rmtree(dataset_dir)
    insts = workload.make(random.Random(seed))
    records = tuple(
        generate.InstanceRecord(
            id=inst.id, graph=inst.graph, n=len(inst.graph.vertices), p=round(inst.graph.density, 4),
            seed=inst.instance_seed or 0, chi=inst.chi or 0, k=inst.k,
            label="SAT" if inst.expect_sat else "UNSAT",
        )
        for inst in insts
    )
    spec = generate.GenSpec(n=records[0].n, p=records[0].p, count=len(records), seed=seed, mix=(50, 50))
    generate.write_dataset(generate.Dataset(spec, records, complete=True), dataset_dir)
    return insts


def _label_exact(inst: Instance) -> bool:
    """Label inst the `sofai-gc gen` way; False on timeout, WrongAnswer on a wrong chi."""
    mix = (100, 0) if inst.expect_sat else (0, 100)
    spec = generate.GenSpec(n=instances.ER_N, p=instances.ER_P, count=1, seed=inst.spec_seed, mix=mix)
    dataset = generate.build_dataset(spec, time_limit_per_instance=TIME_LIMIT)
    if not dataset.instances:
        return False
    rec = dataset.instances[0]
    if rec.seed != inst.instance_seed or rec.graph.edges != inst.graph.edges:
        raise WrongAnswer(f"{inst.id}: build_dataset drew another graph than the pinned one")
    if rec.chi != inst.chi or rec.k != inst.k:
        raise WrongAnswer(f"{inst.id}: labeled chi={rec.chi} k={rec.k}, expected chi={inst.chi} k={inst.k}")
    return True


def _label_by_s2(inst: Instance) -> bool:
    """Time an S2 SAT search at inst's k and check its coloring.

    chi is out of reach on the sparse graphs, and their SAT label already
    rests on the benchmark's own greedy certificate, so this is not a
    labeling the package does: it is what the label_* metrics measure there.
    """
    outcome = dsatur.solve_decision(inst.graph, inst.k, time_limit=TIME_LIMIT)
    if outcome.status in ("timeout", "failure"):
        return False
    if outcome.status != "sat" or not is_proper(inst, outcome.assignment):
        raise WrongAnswer(f"{inst.id}: S2 returned {outcome.status} without a proper {inst.k}-coloring")
    return True


def _fingerprint(graph, k: int) -> tuple:
    edges = graph.edges
    return (len(graph.vertices), len(edges), edges[:1], edges[-1:], k)


@contextmanager
def capturing_answers(log: list):
    """Keep a fingerprint and the outcome of every SOFAI-v2 trial, so answers can be checked.

    TrialResult carries no coloring, so this one wrapper per trial stays in
    place in untraced runs too.  It keeps no graph, so that peak memory is
    the package's own.
    """
    original = bench.__dict__["solve_sofai_v2"]

    def capture(graph, k, cfg):
        outcome, trace = original(graph, k, cfg)
        log.append((_fingerprint(graph, k), outcome))
        return outcome, trace

    bench.solve_sofai_v2 = capture
    try:
        yield log
    finally:
        bench.solve_sofai_v2 = original


def check_trials(insts: list[Instance], trials_each: int, answers: list, trials: list) -> None:
    """Refute every SAT answer without a proper coloring and every UNSAT answer on a colorable instance.

    With one worker the harness runs the dataset's instances in order, each
    `trials_each` times; a trial that failed before answering leaves a gap,
    which the fingerprints reveal.
    """
    expected = iter(inst for inst in insts for _ in range(trials_each))
    checked = 0
    for fingerprint, outcome in answers:
        inst = next((i for i in expected if _fingerprint(i.graph, i.k) == fingerprint), None)
        if inst is None:
            raise WrongAnswer(f"a trial answered an instance the benchmark did not pose: {fingerprint[:2]}")
        if outcome.status == "sat":
            ok = inst.expect_sat and is_proper(inst, outcome.assignment)
        elif outcome.status == "unsat":
            ok = not inst.expect_sat
        else:
            continue
        if not ok:
            raise WrongAnswer(f"{inst.id}: answered {outcome.status}, expected {'SAT' if inst.expect_sat else 'UNSAT'}")
        checked += 1
    answered = sum(t.status in ("sat", "unsat") for t in trials)
    if checked != answered:
        raise WrongAnswer(f"{answered} trials answered but {checked} answers reached the check")


def run_round(workload: Workload, seed: int, dataset_dir: Path, memory_path: Path) -> Round:
    """Set up, label every instance that needs it, then decide all of them with SOFAI-v2."""
    result = Round()
    start = perf_counter()
    insts = setup(workload, seed, dataset_dir)
    result.setup_s = perf_counter() - start

    label = _label_exact if workload.exact_labels else _label_by_s2
    # Known-chi graphs carry literature labels; only the ER suite is labeled.
    to_label = [inst for inst in insts if inst.spec_seed is not None] if workload.exact_labels else insts
    for inst in to_label:
        t0 = perf_counter()
        ok = label(inst)
        result.label_times[inst.id] = perf_counter() - t0
        result.label_failed += not ok

    if memory_path.exists():
        memory_path.unlink()
    cfg = bench.RunConfig(
        solver="SOFAI-v2",
        dataset=str(dataset_dir),
        time_limit=TIME_LIMIT,
        trials=workload.trials,
        workers=1,
        proposer=ProposerConfig(kind="mock", noise=workload.noise, noise_decay=workload.noise_decay),
        seed=seed,
        memory_path=str(memory_path) if workload.memory_file else None,
    )
    answers: list = []
    with capturing_answers(answers):
        t0 = perf_counter()
        result.trials = bench.run_benchmark(cfg)
        result.decide_clock = perf_counter() - t0
    result.wall = perf_counter() - start
    check_trials(insts, workload.trials, answers, result.trials)
    return result
