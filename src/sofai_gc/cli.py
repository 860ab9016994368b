"""Command-line front end: gen, solve, bench, and report subcommands."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import SOLVERS, RunConfig, aggregate, load_results, report, run_benchmark, solve
from .generate import GenSpec, build_dataset, write_dataset
from .graphs import parse_dimacs_instance
from .memory import MemoryStore
from .metacognition import PRESETS, OrchestratorConfig
from .proposer import NOT_SOLVABLE, ProposerConfig, format_assignment


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags that solve and bench share: solver, time limit, memory and the proposer group."""
    parser.add_argument("--solver", choices=SOLVERS, required=True)
    parser.add_argument("--time-limit", type=float, default=200.0)
    memoryless = " or ".join(solver for solver, preset in PRESETS.items() if not preset.memory)
    parser.add_argument(
        "--memory", help=f"episodic memory JSONL path; a bench run with it is sequential (not for {memoryless})"
    )
    group = parser.add_argument_group("proposer")
    group.add_argument(
        "--proposer",
        choices=("auto", "mock", "remote"),
        default="auto",
        help="proposer backend; auto picks remote when S1_ENDPOINT is set (default: auto)",
    )
    group.add_argument("--endpoint", help="chat-completions URL (overrides S1_ENDPOINT)")
    group.add_argument("--model", help="model name (overrides S1_MODEL)")
    group.add_argument("--temperature", type=float, default=0.0)
    group.add_argument("--noise", type=float, default=0.0, help="mock: per-vertex corruption probability")
    group.add_argument("--noise-decay", type=float, default=1.0, help="mock: noise multiplier per feedback round")
    group.add_argument("--unsat-rate", type=float, default=0.0, help="mock: probability of declaring NOT SOLVABLE")
    group.add_argument("--seed", type=int, default=0, help="proposer RNG seed")


def _proposer_config(args: argparse.Namespace) -> ProposerConfig:
    """The proposer for args.solver; a solver with no S1 round reads no proposer flag, and checks none."""
    if PRESETS[args.solver].rounds == 0:
        return ProposerConfig()
    overrides = dict(
        temperature=args.temperature,
        noise=args.noise,
        noise_decay=args.noise_decay,
        unsat_rate=args.unsat_rate,
        seed=args.seed,
    )
    if args.proposer == "mock":
        return ProposerConfig(kind="mock", **overrides)
    if args.proposer == "remote":
        overrides["kind"] = "remote"
    if args.endpoint:
        overrides["endpoint"] = args.endpoint
    if args.model:
        overrides["model"] = args.model
    return ProposerConfig.from_env(**overrides)


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
    text = Path(args.instance).read_text()
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
    gen.add_argument("--mix", type=_parse_mix, default=(100, 0), help="SAT,UNSAT percentages (default 100,0)")
    gen.add_argument("--count", type=int, required=True, help="instances to generate")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--time-limit", type=float, default=200.0, help="labeling budget per instance (s)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--instance", required=True, help="DIMACS-style instance file")
    solve.add_argument("--k", type=int, help="color bound (default: the instance's 'c k' comment)")
    _add_run_args(solve)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a solver over a dataset")
    bench.add_argument("--dataset", required=True, help="dataset directory (with manifest.csv)")
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--workers", type=int, help="parallel workers (default: cores - 1)")
    bench.add_argument("--out", help="trial results JSONL path (default: print to stdout)")
    _add_run_args(bench)
    bench.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report", help="aggregate trial results into a table")
    rep.add_argument("--in", required=True, help="trial results JSONL path")
    rep.add_argument("--format", choices=("table", "csv"), default="table")
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
