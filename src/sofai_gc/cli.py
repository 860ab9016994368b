"""Command-line front end: gen, solve, bench, and report subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import REPORT_FORMATS, SOLVERS, RunConfig, aggregate, load_results, report, run_benchmark, solve
from .dsatur import DEFAULT_TIME_LIMIT
from .generate import GenSpec, build_dataset, write_dataset
from .graphs import parse_dimacs_instance
from .memory import MemoryStore
from .metacognition import PRESETS, OrchestratorConfig
from .proposer import NOT_SOLVABLE, ProposerConfig, format_assignment

# The ProposerConfig fields that are flags of their own (noise_decay is --noise-decay), with their help.
_KNOBS = {
    "temperature": None,
    "noise": "mock: per-vertex corruption probability",
    "noise_decay": "mock: noise multiplier per feedback round",
    "unsat_rate": "mock: probability of declaring NOT SOLVABLE",
    "seed": "solve: the mock's RNG seed; bench: the root seed each trial's proposer seed is derived from",
}


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags that solve and bench share: solver, time limit, memory and the proposer group."""
    parser.add_argument("--solver", choices=SOLVERS, required=True)
    parser.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    memoryless = " or ".join(solver for solver, preset in PRESETS.items() if not preset.memory)
    parser.add_argument(
        "--memory", help=f"episodic memory JSONL path; a bench run with it is sequential (not for {memoryless})"
    )
    group = parser.add_argument_group("proposer")
    group.add_argument(
        "--proposer",
        choices=("auto", "mock", "remote"),
        default="auto",
        help="proposer backend; auto picks remote when --endpoint or S1_ENDPOINT is set (default: auto)",
    )
    group.add_argument("--endpoint", help="chat-completions URL (overrides S1_ENDPOINT)")
    group.add_argument("--model", help="model name (overrides S1_MODEL)")
    for field, text in _KNOBS.items():
        default = getattr(ProposerConfig, field)
        group.add_argument("--" + field.replace("_", "-"), type=type(default), default=default, help=text)


def _proposer_config(args: argparse.Namespace) -> ProposerConfig:
    """The proposer for args.solver, from its flags and the S1_ENDPOINT, S1_API_KEY and S1_MODEL variables.

    A row with no S1 round reads no proposer flag.  --proposer mock reads no environment.  --endpoint and
    --model win over their variables.  The kind is remote under --proposer remote or when an endpoint is set.
    """
    if PRESETS[args.solver].rounds == 0:
        return ProposerConfig()
    knobs = {field: getattr(args, field) for field in _KNOBS}
    if args.proposer == "mock":
        return ProposerConfig(kind="mock", **knobs)
    endpoint = args.endpoint or os.environ.get("S1_ENDPOINT")
    return ProposerConfig(
        kind="remote" if args.proposer == "remote" or endpoint else "mock",
        endpoint=endpoint,
        api_key=os.environ.get("S1_API_KEY"),
        model=args.model or os.environ.get("S1_MODEL"),
        **knobs,
    )


def _parse_mix(text: str) -> tuple[int, int]:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("mix must be 'a,b' with integer percentages") from None
    return a, b


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(n=args.n, p=args.p, count=args.count, seed=args.seed, mix=args.mix)
    dataset = build_dataset(spec, time_limit_per_instance=args.time_limit)
    manifest = write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.instances)} instances to {manifest.parent}")
    if not dataset.complete:
        print("warning: some instances were dropped (labeling timed out)", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    text = Path(args.instance).read_text(encoding="utf-8")
    graph, file_k, _ = parse_dimacs_instance(text)
    k = args.k if args.k is not None else file_k
    if k is None:
        raise ValueError("no color bound: pass --k or use an instance with a 'c k' comment")

    store = MemoryStore(args.memory) if args.memory else None
    cfg = OrchestratorConfig(proposer=_proposer_config(args), time_limit=args.time_limit, store=store)
    outcome, _ = solve(args.solver, graph, k, cfg)
    if outcome.is_sat:
        if graph.vertices:  # a graph with no vertices prints no line
            print(format_assignment(outcome.assignment, graph.vertices))
        return 0
    if outcome.is_unsat:
        print(NOT_SOLVABLE)
        return 0
    if outcome.is_timeout:
        print("TIMEOUT")
        return 2
    print(f"FAILURE: {outcome.reason}")
    return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        solver=args.solver,
        dataset=args.dataset,
        time_limit=args.time_limit,
        trials=args.trials,
        workers=args.workers,
        proposer=_proposer_config(args),
        out=args.out,
        seed=args.seed,
        memory_path=args.memory,
    )
    results = run_benchmark(cfg)
    correct = sum(1 for r in results if r.correct)
    print(f"{len(results)} trials, {correct} correct", file=sys.stderr)
    if not args.out:
        for r in results:
            print(r.to_json())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = getattr(args, "in")
    try:
        results = load_results(path)
    except FileNotFoundError:
        raise ValueError(f"no such trial results file: {path}") from None
    if not results:
        raise ValueError(f"no trial results in {path}")
    print(report(aggregate(results), format=args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sofai-gc",
        description="Graph coloring with a fast proposer, an exact solver, and a metacognitive loop",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled random-graph dataset")
    gen.add_argument("--n", type=int, required=True, help="vertices per graph")
    gen.add_argument("--p", type=float, required=True, help="edge probability")
    mix = "%d,%d" % GenSpec.mix
    gen.add_argument("--mix", type=_parse_mix, default=GenSpec.mix, help=f"SAT,UNSAT percentages (default {mix})")
    gen.add_argument("--count", type=int, required=True, help="instances to generate")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT, help="labeling budget per instance (s)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--instance", required=True, help="DIMACS-style instance file")
    solve.add_argument("--k", type=int, help="color bound (default: the instance's 'c k' comment)")
    _add_run_args(solve)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a solver over a dataset")
    bench.add_argument("--dataset", required=True, help="dataset directory (with manifest.csv)")
    bench.add_argument("--trials", type=int, default=RunConfig.trials)
    bench.add_argument("--workers", type=int, help="parallel workers (default: cores - 1)")
    bench.add_argument("--out", help="trial results JSONL path (default: print to stdout)")
    _add_run_args(bench)
    bench.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report", help="aggregate trial results into a table")
    rep.add_argument("--in", required=True, help="trial results JSONL path")
    rep.add_argument("--format", choices=REPORT_FORMATS, default=REPORT_FORMATS[0])
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input, a DIMACS error or an unreadable file ends in one line, not a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"sofai-gc: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
