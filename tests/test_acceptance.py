"""Acceptance gate: one test per top-level requirement, at the stated tolerances.

Each test is independently runnable; together they exercise the exact solver,
the generator's labels, the scoring oracle, the feedback templates, the
orchestration modes, and the benchmark protocol end to end.
"""

import random
import time

import pytest

from conftest import complete_graph, cycle_graph, myciel
from oracles import brute_force_colorable, product_scan_colorable, score_by_edge_enumeration
from sofai_gc.bench import RunConfig, TrialResult, aggregate, run_benchmark
from sofai_gc.dsatur import chromatic_number, solve_decision
from sofai_gc.generate import Dataset, GenSpec, InstanceRecord, build_dataset, gen_erdos_renyi, write_dataset
from sofai_gc.graphs import Graph, verdict
from sofai_gc.metacognition import (
    OrchestratorConfig,
    format_feedback,
    solve_mc_s1_iN,
    solve_sofai_v2,
)
from sofai_gc.proposer import ProposerConfig

PERFECT_MOCK = ProposerConfig(kind="mock")
ALWAYS_INVALID = ProposerConfig(kind="mock", unsat_rate=1.0)


@pytest.fixture(scope="module")
def dataset_dir_factory(tmp_path_factory):
    def build(spec: GenSpec, name: str):
        dataset = build_dataset(spec, time_limit_per_instance=60.0)
        assert dataset.complete
        out = tmp_path_factory.mktemp(name)
        write_dataset(dataset, out)
        return dataset, out

    return build


def test_criterion_01_solver_matches_brute_force_on_500_random_graphs():
    started = time.monotonic()
    checked = 0
    graphs = 0
    for n in range(2, 8):
        for p in (0.2, 0.5, 0.8):
            for seed in range(28):
                graph = gen_erdos_renyi(n, p, seed=100_000 * n + 1_000 * int(p * 10) + seed)
                graphs += 1
                for k in (2, 3, 4):
                    outcome = solve_decision(graph, k, time_limit=30.0)
                    expected = brute_force_colorable(graph, k)
                    assert outcome.is_sat == expected, (n, p, seed, k)
                    assert outcome.is_unsat == (not expected)
                    checked += 1
    elapsed = time.monotonic() - started
    assert graphs >= 500
    assert checked == graphs * 3
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_known_chromatic_numbers():
    for n in range(1, 7):
        assert chromatic_number(complete_graph(n)) == n
    for n in (4, 6, 8):
        assert chromatic_number(cycle_graph(n)) == 2
    for n in (3, 5, 7, 9):
        assert chromatic_number(cycle_graph(n)) == 3

    outer = [(str(i), str(i % 5 + 1)) for i in range(1, 6)]
    spokes = [(str(i), str(i + 5)) for i in range(1, 6)]
    inner = [(str(i + 5), str((i + 1) % 5 + 6)) for i in range(1, 6)]
    petersen = Graph(tuple(str(i) for i in range(1, 11)), tuple(outer + spokes + inner))
    assert chromatic_number(petersen) == 3
    # Independent confirmation by exhaustive assignment scan (3^10 and 2^10).
    assert product_scan_colorable(petersen, 3)
    assert not product_scan_colorable(petersen, 2)


def test_criterion_03_small_graph_success_rates_are_100_percent(dataset_dir_factory):
    for n in (5, 10):
        for mix in ((100, 0), (0, 100)):
            spec = GenSpec(n=n, p=0.5, count=100, seed=40 + n + mix[0] // 100, mix=mix)
            _, out = dataset_dir_factory(spec, f"sanity_n{n}_m{mix[0]}")
            results = run_benchmark(
                RunConfig(solver="S2", dataset=out, time_limit=200.0, trials=3, workers=1)
            )
            rows = aggregate(results)
            assert len(rows) == 1
            assert rows[0].success_pct == 100.0, (n, mix, rows[0])
            assert rows[0].instances == 100


def test_criterion_04_dataset_labels_verified_independently():
    for n, seed in ((5, 202), (8, 203)):
        spec = GenSpec(n=n, p=0.5, count=40, seed=seed, mix=(50, 50))
        dataset = build_dataset(spec, time_limit_per_instance=60.0)
        assert dataset.complete
        labels = [rec.label for rec in dataset.instances]
        assert labels == ["SAT"] * 20 + ["UNSAT"] * 20

        for rec in dataset.instances:
            colorable = brute_force_colorable(rec.graph, rec.k)
            if rec.label == "SAT":
                assert colorable, rec.id
                assert rec.k == rec.chi
            else:
                assert not colorable, rec.id
                assert rec.k == rec.chi - 1


def test_criterion_05_score_equals_edge_enumeration_on_1000_pairs():
    empty = Graph((), ())
    assert verdict(empty, {}, 2).score == score_by_edge_enumeration(empty, {})

    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(1, 8)
        graph = gen_erdos_renyi(n, rng.choice((0.2, 0.5, 0.8)), seed=rng.getrandbits(32))
        k = rng.randint(1, 5)
        assignment = {
            v: rng.randint(1, 5) for v in graph.vertices if rng.random() < 0.8
        }
        assert verdict(graph, assignment, k).score == score_by_edge_enumeration(graph, assignment)


def test_criterion_06_feedback_templates_byte_exact():
    graph = Graph(("A", "B", "C", "D", "E"), (("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")))

    conflict_items = format_feedback(graph, {"A": 1, "B": 1, "C": 2, "D": 2, "E": 1}, k=3)
    assert [item.message for item in conflict_items] == [
        "Error: Vertices A and B are adjacent but have the same color.",
        "Error: Vertices C and D are adjacent but have the same color.",
    ]

    over_color_items = format_feedback(graph, {"A": 1, "B": 2, "C": 3, "D": 4, "E": 1}, k=3)
    assert [item.message for item in over_color_items] == [
        "Error: Only 3 colors are allowed. 4 colors were used.",
    ]


def _sat_50_dataset():
    dataset = build_dataset(
        GenSpec(n=5, p=0.5, count=50, seed=17, mix=(100, 0)), time_limit_per_instance=60.0
    )
    assert dataset.complete
    return dataset


def _mixed_50_dataset():
    dataset = build_dataset(
        GenSpec(n=6, p=0.5, count=50, seed=0, mix=(50, 50)), time_limit_per_instance=60.0
    )
    assert dataset.complete
    return dataset


def test_criterion_07a_perfect_mock_solves_every_sat_instance_first_try():
    started = time.monotonic()
    cfg = OrchestratorConfig(proposer=PERFECT_MOCK, time_limit=30.0)
    for rec in _sat_50_dataset().instances:
        outcome, trace = solve_sofai_v2(rec.graph, rec.k, cfg)
        assert outcome.is_sat, rec.id
        assert not trace.s2_invoked, rec.id
        assert len(trace.iterations) == 1, rec.id
        assert trace.source == "S1"
    assert time.monotonic() - started < 40.0


def test_criterion_07b_always_invalid_mock_escalates_and_matches_exact_solver():
    started = time.monotonic()
    cfg = OrchestratorConfig(proposer=ALWAYS_INVALID, time_limit=30.0)
    for rec in _mixed_50_dataset().instances:
        outcome, trace = solve_sofai_v2(rec.graph, rec.k, cfg)
        reference = solve_decision(rec.graph, rec.k, time_limit=30.0)
        assert trace.s2_invoked, rec.id
        assert len(trace.iterations) <= 5, rec.id
        assert outcome.status == reference.status, rec.id
        if outcome.is_sat:
            assert verdict(rec.graph, outcome.assignment, rec.k).valid
    assert time.monotonic() - started < 40.0


def test_criterion_07c_capped_three_iteration_mode_fails_after_exactly_three():
    started = time.monotonic()
    cfg = OrchestratorConfig(proposer=ALWAYS_INVALID, time_limit=30.0)
    for rec in _mixed_50_dataset().instances:
        outcome, trace = solve_mc_s1_iN(rec.graph, rec.k, cfg, 3)
        assert outcome.is_failure, rec.id
        assert outcome.reason == "s1-exhausted"
        assert len(trace.iterations) == 3, rec.id
        assert not trace.s2_invoked
    assert time.monotonic() - started < 40.0


def _trial(instance_id, trial, correct, wall_time, status="sat"):
    return TrialResult(
        instance_id=instance_id,
        solver="S2",
        trial=trial,
        status=status,
        correct=correct,
        wall_time=wall_time,
        s1_iterations=0,
        s2_invoked=True,
        n=5,
        p=0.5,
        mix="100,0",
        label="SAT",
    )


class TestCriterion08HarnessProtocol:
    def test_best_of_three_takes_any_success_and_minimum_time(self):
        rows = aggregate(
            [
                _trial("a", 0, False, 7.0, status="failure"),
                _trial("a", 1, True, 3.2),
                _trial("a", 2, True, 4.1),
            ]
        )
        assert rows[0].success_pct == 100.0
        assert rows[0].avg_time_s == 3.2

    def test_success_rate_is_fraction_of_instances(self):
        results = []
        for i in range(10):
            results.append(_trial(f"i{i:02d}", 0, i < 7, 1.0, status="sat" if i < 7 else "failure"))
        rows = aggregate(results)
        assert rows[0].success_pct == 70.0

    def test_zero_success_cell_has_no_average_time(self):
        rows = aggregate([_trial("a", 0, False, 1.0, status="timeout")])
        assert rows[0].success_pct == 0.0
        assert rows[0].avg_time_s is None

    def test_timeout_enforcement_bound_on_slow_instance(self, tmp_path):
        graph = myciel(6)
        record = InstanceRecord(
            id="myciel6_k6", graph=graph, n=95, p=graph.density, seed=0,
            chi=7, k=6, label="UNSAT",
        )
        spec = GenSpec(n=95, p=graph.density, count=1, seed=0, mix=(0, 100))
        write_dataset(Dataset(spec=spec, instances=(record,), complete=True), tmp_path)

        results = run_benchmark(
            RunConfig(solver="S2", dataset=tmp_path, time_limit=0.3, trials=3, workers=1)
        )
        assert len(results) == 3
        for r in results:
            assert r.status == "timeout"
            assert r.wall_time <= 0.3 + 1.0


def test_criterion_09_success_monotone_in_iteration_cap(dataset_dir_factory):
    spec = GenSpec(n=6, p=0.5, count=100, seed=29, mix=(100, 0))
    _, out = dataset_dir_factory(spec, "monotone")

    proposer = ProposerConfig(kind="mock", noise=0.9, noise_decay=0.5)
    for root_seed in (0, 1, 2):
        rates = []
        for cap in range(1, 6):
            results = run_benchmark(
                RunConfig(
                    solver=f"MC-S1-I{cap}",
                    dataset=out,
                    time_limit=30.0,
                    trials=1,
                    workers=1,
                    proposer=proposer,
                    seed=root_seed,
                )
            )
            rates.append(sum(r.correct for r in results) / len(results))
        assert rates == sorted(rates), (root_seed, rates)
        assert rates[-1] > rates[0], (root_seed, rates)
