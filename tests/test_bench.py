import os
import subprocess
import sys
from pathlib import Path

import pytest

from sofai_gc import (
    AggregateRow,
    EpisodicRecord,
    GenSpec,
    Graph,
    MemoryStore,
    OrchestratorConfig,
    ProposerConfig,
    RunConfig,
    TrialResult,
    aggregate,
    build_dataset,
    derive_seed,
    report,
    run_benchmark,
    write_dataset,
)
from sofai_gc import bench
from sofai_gc.bench import SOLVERS, load_results
from sofai_gc.generate import Dataset, InstanceRecord

from conftest import myciel


def make_trial(instance_id, solver="S2", trial=1, status="sat", correct=True,
               wall=1.0, n=5, p=0.5, mix="100,0", label="SAT"):
    return TrialResult(
        instance_id=instance_id, solver=solver, trial=trial, status=status,
        correct=correct, wall_time=wall, s1_iterations=0, s2_invoked=True,
        n=n, p=p, mix=mix, label=label,
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    ds = build_dataset(GenSpec(n=5, p=0.5, count=6, seed=12, mix=(50, 50)), 30)
    write_dataset(ds, out)
    return out


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "x", 1) == derive_seed(0, "x", 1)

    def test_varies_by_inputs(self):
        seeds = {
            derive_seed(0, "x", 1),
            derive_seed(0, "x", 2),
            derive_seed(0, "y", 1),
            derive_seed(1, "x", 1),
        }
        assert len(seeds) == 4

    def test_sha256_is_the_standard_digest(self):
        # FIPS 180-2, appendix B.1
        assert bench.sha256(b"abc").hexdigest() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

    def test_hashlib_fallback_gives_the_same_seeds(self):
        # Without the interpreter's own SHA-256 modules the package takes hashlib's, and derives the seeds
        # this process's import does.
        cases = [(0, "x", 1), (7, "er_n12_p0.5_0000", 2)]
        code = (
            'import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
            "import hashlib\n"
            "from sofai_gc import bench\n"
            f"print(bench.sha256 is hashlib.sha256, *(bench.derive_seed(*case) for case in {cases!r}))"
        )
        src = str(Path(bench.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        seeds = ["3243668993462905595", "8079881352595103521"]
        assert [str(derive_seed(*case)) for case in cases] == seeds
        assert proc.stdout.split() == ["True", *seeds]


class TestRunConfig:
    def test_solver_validation(self):
        with pytest.raises(ValueError, match="unknown solver"):
            RunConfig(solver="S3", dataset="x")

    def test_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(solver="S2", dataset="x", time_limit=0)
        with pytest.raises(ValueError):
            RunConfig(solver="S2", dataset="x", trials=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            RunConfig(solver="S2", dataset="x", workers=0)

    def test_memory_path_rejected_for_memoryless_solvers(self, tmp_path):
        memory = tmp_path / "memory.jsonl"
        for solver in ("S2", "SOFAI-v1"):
            with pytest.raises(ValueError, match=f"--memory is not used by {solver}, which reads no"):
                RunConfig(solver=solver, dataset="x", memory_path=str(memory))
        assert RunConfig(solver="SOFAI-v2", dataset="x", memory_path=str(memory)).memory_path
        assert not memory.exists()

    def test_solver_roster(self):
        assert SOLVERS == (
            "S1", "S2", "SOFAI-v1", "SOFAI-v2",
            "MC-S1-I1", "MC-S1-I2", "MC-S1-I3", "MC-S1-I4", "MC-S1-I5",
        )


@pytest.mark.parametrize("solver", ["S2", "SOFAI-v1"])
def test_solve_rejects_a_store_for_solvers_without_memory(solver, tmp_path):
    path = tmp_path / "memory.jsonl"
    store = MemoryStore(path)
    cfg = OrchestratorConfig(proposer=ProposerConfig(kind="mock"), store=store)
    with pytest.raises(ValueError, match=f"--memory is not used by {solver}, which reads no"):
        bench.solve(solver, Graph(("A", "B"), (("A", "B"),)), 2, cfg)
    assert len(store) == 0 and not path.exists()


class TestLoadResults:
    GOOD = [make_trial("a").to_json(), make_trial("b").to_json()]

    @pytest.mark.parametrize("bad", [
        EpisodicRecord.make(Graph(("A", "B"), (("A", "B"),)), 2, {"A": 1, "B": 2}, "S2").to_json(),
        '{"instance_id": "a", "extra": 1}',
        "[1, 2]",
        '{"instance_id": "a", "solv',
    ], ids=["memory-record", "other-keys", "json-list", "torn-mid-file"])
    def test_bad_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join([self.GOOD[0], bad, self.GOOD[1]]) + "\n")
        with pytest.raises(ValueError, match=r"results\.jsonl:2: "):
            load_results(path)

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(self.GOOD[0] + "\n" + self.GOOD[1] + "\n" + self.GOOD[1][:27])
        assert [r.instance_id for r in load_results(path)] == ["a", "b"]


def test_import_leaves_the_network_stack_and_the_process_pool_unloaded():
    # Both are imported where they are used, so a run that needs neither pays no memory for them;
    # SHA-256 comes from the interpreter, not from hashlib's OpenSSL
    unused = ["ssl", "http.client", "urllib.request", "multiprocessing", "hashlib", "_hashlib"]
    src = str(Path(bench.__file__).resolve().parents[1])
    for module in ("sofai_gc", "sofai_gc.cli"):  # the package and the console entry point
        code = f"import sys, {module}; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code, *unused], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == [], module


class TestRunBenchmark:
    def test_s2_all_correct(self, small_dataset):
        cfg = RunConfig(solver="S2", dataset=str(small_dataset), time_limit=30,
                        trials=3, workers=1)
        results = run_benchmark(cfg)
        assert len(results) == 18  # 6 instances x 3 trials
        assert all(r.correct for r in results)
        assert all(r.s2_invoked and r.s1_iterations == 0 for r in results)

    def test_sofai_v2_statuses_match_labels(self, small_dataset):
        cfg = RunConfig(solver="SOFAI-v2", dataset=str(small_dataset), time_limit=30,
                        trials=2, workers=1, proposer=ProposerConfig(kind="mock"))
        results = run_benchmark(cfg)
        assert all(r.correct for r in results)

    def test_parallel_equals_sequential(self, small_dataset):
        base = dict(solver="SOFAI-v2", dataset=str(small_dataset), time_limit=30,
                    trials=2, proposer=ProposerConfig(kind="mock", noise=0.5, noise_decay=0.5))
        key = lambda results: [
            (r.instance_id, r.trial, r.status, r.correct, r.s1_iterations, r.s2_invoked)
            for r in results
        ]
        seq = run_benchmark(RunConfig(workers=1, **base))
        par = run_benchmark(RunConfig(workers=3, **base))
        assert key(seq) == key(par)

    def test_results_streamed_to_jsonl(self, small_dataset, tmp_path):
        out = tmp_path / "results.jsonl"
        cfg = RunConfig(solver="S2", dataset=str(small_dataset), time_limit=30,
                        trials=1, workers=1, out=str(out))
        results = run_benchmark(cfg)
        loaded = load_results(out)
        assert sorted(r.instance_id for r in loaded) == sorted(r.instance_id for r in results)
        assert loaded[0] == TrialResult.from_json(loaded[0].to_json())

    def test_out_file_keeps_finished_trials_when_run_aborts(self, small_dataset, tmp_path, monkeypatch):
        import sofai_gc.bench as bench
        real = bench._run_trial

        def abort_on_second(job):
            if job.trial == 2:
                raise RuntimeError("aborted")
            return real(job)

        monkeypatch.setattr(bench, "_run_trial", abort_on_second)
        out = tmp_path / "results.jsonl"
        cfg = RunConfig(solver="S2", dataset=str(small_dataset), time_limit=30,
                        trials=2, workers=1, out=str(out))
        with pytest.raises(RuntimeError, match="aborted"):
            run_benchmark(cfg)
        lines = out.read_text().splitlines()
        assert [TrialResult.from_json(line).trial for line in lines] == [1]

    def test_degenerate_time_limit_all_timeout(self, small_dataset):
        cfg = RunConfig(solver="S2", dataset=str(small_dataset), time_limit=1e-6,
                        trials=1, workers=1)
        results = run_benchmark(cfg)
        assert all(r.status == "timeout" and not r.correct for r in results)

    def test_timeout_overshoot_bounded_on_slow_instance(self, tmp_path):
        # an instance the exact solver cannot finish quickly: the k=6
        # decision on myciel6 neither finds a coloring nor exhausts
        graph = myciel(6)
        rec = InstanceRecord(id="slow_0000", graph=graph, n=95, p=graph.density, seed=0,
                             chi=7, k=6, label="UNSAT")
        spec = GenSpec(n=95, p=graph.density, count=1, seed=0)
        write_dataset(Dataset(spec=spec, instances=(rec,), complete=True), tmp_path)
        limit = 0.3
        cfg = RunConfig(solver="S2", dataset=str(tmp_path), time_limit=limit,
                        trials=2, workers=1)
        results = run_benchmark(cfg)
        assert all(r.status == "timeout" for r in results)
        assert all(r.wall_time <= limit + 1.0 for r in results)

    def test_s1_solo_accepts_unsat_declarations(self, small_dataset):
        cfg = RunConfig(solver="S1", dataset=str(small_dataset), time_limit=30,
                        trials=1, workers=1,
                        proposer=ProposerConfig(kind="mock", unsat_rate=1.0))
        results = run_benchmark(cfg)
        for r in results:
            assert r.status == "unsat"
            assert r.correct == (r.label == "UNSAT")
            assert not r.s2_invoked

    def test_crashing_solver_recorded_not_raised(self, small_dataset, tmp_path, no_retries):
        # an unreachable remote endpoint: trials complete with failures
        cfg = RunConfig(solver="MC-S1-I1", dataset=str(small_dataset), time_limit=5,
                        trials=1, workers=1,
                        proposer=ProposerConfig(kind="remote", endpoint="http://127.0.0.1:1/v1"))
        results = run_benchmark(cfg)
        assert all(r.status == "failure" and not r.correct for r in results)

    def test_raising_preset_recorded_as_a_failure(self, small_dataset, tmp_path, monkeypatch):
        # a preset that raises, not one that gets no reply: the trial records the
        # exception, no S1 round and no S2, and its line loads back as written
        def crash(graph, k, cfg):
            raise RuntimeError("preset crashed")

        monkeypatch.setattr(bench, "solve_sofai_v2", crash)
        out = tmp_path / "trials.jsonl"
        cfg = RunConfig(solver="SOFAI-v2", dataset=str(small_dataset), time_limit=5, trials=2, workers=1,
                        proposer=ProposerConfig(kind="mock"), out=str(out))
        results = run_benchmark(cfg)
        assert len(results) == 12
        for r in results:
            assert (r.status, r.correct, r.error) == ("failure", False, "RuntimeError: preset crashed")
            assert r.s1_iterations == 0 and r.s2_invoked is False
        assert sorted(load_results(out), key=lambda r: (r.instance_id, r.trial)) == results

    def test_shared_memory_store_runs_and_persists(self, small_dataset, tmp_path):
        mem = tmp_path / "memory.jsonl"
        cfg = RunConfig(solver="SOFAI-v2", dataset=str(small_dataset), time_limit=30,
                        trials=1, workers=4, proposer=ProposerConfig(kind="mock"),
                        memory_path=str(mem), seed=1)
        results = run_benchmark(cfg)
        assert all(r.correct for r in results)
        assert mem.exists() and mem.read_text().strip()

    def test_memory_store_loaded_once_per_run(self, small_dataset, tmp_path, monkeypatch):
        import sofai_gc.bench as bench
        built = []

        class CountingStore(bench.MemoryStore):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench, "MemoryStore", CountingStore)
        cfg = RunConfig(solver="SOFAI-v2", dataset=str(small_dataset), time_limit=30,
                        trials=3, workers=1, proposer=ProposerConfig(kind="mock"),
                        memory_path=str(tmp_path / "memory.jsonl"))
        results = run_benchmark(cfg)
        assert len(results) == 18 and all(r.correct for r in results)
        assert len(built) == 1


class TestAggregate:
    def test_best_of_three_worked_example(self):
        trials = [
            make_trial("i1", trial=1, status="timeout", correct=False, wall=200.0),
            make_trial("i1", trial=2, status="sat", correct=True, wall=3.2),
            make_trial("i1", trial=3, status="sat", correct=True, wall=4.1),
        ]
        row = aggregate(trials)[0]
        assert row.success_pct == 100.0
        assert row.avg_time_s == pytest.approx(3.2)

    def test_seven_of_ten_is_seventy_pct(self):
        trials = []
        for i in range(10):
            ok = i < 7
            trials.append(make_trial(f"i{i}", status="sat" if ok else "timeout", correct=ok))
        row = aggregate(trials)[0]
        assert row.success_pct == pytest.approx(70.0)
        assert row.instances == 10

    def test_zero_successes_leaves_time_undefined(self):
        trials = [make_trial("i1", status="timeout", correct=False)]
        row = aggregate(trials)[0]
        assert row.success_pct == 0.0
        assert row.avg_time_s is None

    def test_unsolved_instances_excluded_from_time_average(self):
        trials = [
            make_trial("i1", status="sat", correct=True, wall=2.0),
            make_trial("i2", status="timeout", correct=False, wall=200.0),
        ]
        row = aggregate(trials)[0]
        assert row.success_pct == 50.0
        assert row.avg_time_s == pytest.approx(2.0)

    def test_order_independence(self):
        trials = [
            make_trial(f"i{i}", trial=t, status="sat", correct=(i + t) % 2 == 0, wall=float(t))
            for i in range(4) for t in (1, 2, 3)
        ]
        shuffled = list(reversed(trials))
        assert aggregate(trials) == aggregate(shuffled)

    def test_cells_split_by_solver_and_sorted(self):
        trials = [
            make_trial("i1", solver="SOFAI-v2"),
            make_trial("i1", solver="S2"),
        ]
        rows = aggregate(trials)
        assert [r.solver for r in rows] == ["S2", "SOFAI-v2"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestReport:
    def test_csv_shape_and_quoting(self):
        rows = [AggregateRow(5, 0.5, "50,50", "S2", 100.0, 0.0123, 6)]
        text = report(rows, "csv")
        lines = text.splitlines()
        assert lines[0] == "n,p,mix,solver,success_pct,avg_time_s,instances"
        assert lines[1] == '5,0.5,"50,50",S2,100.0,0.012,6'

    def test_csv_empty_input_is_header_only(self):
        assert report([], "csv") == "n,p,mix,solver,success_pct,avg_time_s,instances"

    def test_blank_time_for_unsolved_cell(self):
        rows = [AggregateRow(5, 0.5, "0,100", "S1", 0.0, None, 10)]
        assert ',0.0,,10' in report(rows, "csv")
        assert "-" in report(rows, "table")

    def test_table_alignment(self):
        rows = [
            AggregateRow(5, 0.5, "100,0", "S2", 100.0, 0.001, 10),
            AggregateRow(10, 0.5, "100,0", "SOFAI-v2", 95.0, 1.25, 10),
        ]
        text = report(rows, "table")
        lines = text.splitlines()
        assert lines[0].startswith("n ")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report([], "json")


class TestProtocolProperties:
    def test_v2_success_dominates_s2_alone(self, small_dataset):
        base = dict(dataset=str(small_dataset), time_limit=30, trials=2, workers=1,
                    proposer=ProposerConfig(kind="mock"))
        s2 = aggregate(run_benchmark(RunConfig(solver="S2", **base)))
        v2 = aggregate(run_benchmark(RunConfig(solver="SOFAI-v2", **base)))
        assert v2[0].success_pct >= s2[0].success_pct
