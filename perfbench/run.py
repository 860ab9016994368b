"""Seeded benchmark of labeling and deciding; run from the repository root.

    python3 perfbench/run.py --workload er-exact --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed and repeats rounds of set-up,
labeling and deciding while another round fits in --seconds.  The machine's
speed drifts by up to 2x from minute to minute, so each instance's time is
the mean of its rounds (README.md says why).  With --trace 1 it runs untraced
rounds for half the time, then one traced round, and reports per-layer
numbers instead.  Every answer is checked; a wrong one exits with status 3
and no result.  The last line of standard output is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "label_s_p50": "s",
    "label_s_p90": "s",
    "labels_per_s": "1/s",
    "decide_s_p50": "s",
    "decide_s_p90": "s",
    "decisions_per_s": "1/s",
    "answered_pct": "%",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    """HEAD's commit id when run from a git checkout, else "unknown"."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2


def _mean_by_key(pairs) -> list[float]:
    """The mean of each key's samples."""
    samples: dict = {}
    for key, seconds in pairs:
        samples.setdefault(key, []).append(seconds)
    return [statistics.fmean(v) for v in samples.values()]


def end_to_end(rounds: list) -> tuple[dict, dict]:
    """End-to-end metrics as name -> (value, unit), and their sample counts."""
    labels = _mean_by_key(item for r in rounds for item in r.label_times.items())
    decides = _mean_by_key(((t.instance_id, t.trial), t.wall_time) for r in rounds for t in r.trials)
    label_ops = sum(len(r.label_times) for r in rounds)
    trials = sum(len(r.trials) for r in rounds)
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "label_s_p50": statistics.median(labels),
        "label_s_p90": _p90(labels),
        "labels_per_s": label_ops / sum(sum(r.label_times.values()) for r in rounds),
        "decide_s_p50": statistics.median(decides),
        "decide_s_p90": _p90(decides),
        "decisions_per_s": trials / sum(r.decide_clock for r in rounds),
        "answered_pct": 100.0 * (1.0 - _failed(rounds) / _attempted(rounds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(rounds)
    labeled = f"{len(labels)} instances x {n} rounds"
    decided = f"{len(decides)} trials x {n} rounds"
    samples = {
        "setup_s": f"{n} rounds",
        "label_s_p50": labeled, "label_s_p90": labeled, "labels_per_s": labeled,
        "decide_s_p50": decided, "decide_s_p90": decided, "decisions_per_s": decided,
        "answered_pct": f"{_attempted(rounds)} ops",
        "peak_rss_mb": "1",
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, samples


def _attempted(rounds) -> int:
    return sum(len(r.label_times) + len(r.trials) for r in rounds)


def _failed(rounds) -> int:
    return sum(r.label_failed + r.trials_failed for r in rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sofai-gc labeling and deciding benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sofai_gc").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'sofai_gc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # A terminated run still removes its working directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    dataset_dir, memory_path = run_dir / "dataset", run_dir / "memory.jsonl"
    try:
        window = args.seconds / 2 if args.trace else args.seconds
        rounds = []
        start = perf_counter()
        # Start a round only if a typical round still fits in the window.
        while not rounds or perf_counter() - start + statistics.median(r.wall for r in rounds) <= window:
            rounds.append(workloads.run_round(workload, args.seed, dataset_dir, memory_path))

        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = workloads.run_round(workload, args.seed, dataset_dir, memory_path)
            if tracer.missing:
                print("perfbench: not traced, gone from the package: " + ", ".join(tracer.missing), file=sys.stderr)
            metrics = tracing.layer_metrics(tracer, traced.wall, traced.trials)
            untraced = statistics.fmean(r.wall for r in rounds)
            metrics["trace.overhead_pct"] = (100.0 * (traced.wall / untraced - 1.0), "%")
            samples = {name: "1 traced round" for name in metrics}
            rounds.append(traced)
            tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", args.workload)
        else:
            metrics, samples = end_to_end(rounds)
    except workloads.WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER on {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = [r.wall for r in rounds]
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "rounds": len(rounds), "round_wall_s": [round(w, 3) for w in walls],
        "round_spread": round(_spread(walls), 4),
    }
    result = {
        "correct": True,
        "attempted": _attempted(rounds),
        "failed": _failed(rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = [
        {"setup_s": r.setup_s, "decide_clock": r.decide_clock,
         "label_s": r.label_times, "decide_s": {f"{t.instance_id}/{t.trial}": t.wall_time for t in r.trials}}
        for r in rounds
    ]
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "samples": samples, **result, "rounds": raw}) + "\n"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={samples[name]}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
