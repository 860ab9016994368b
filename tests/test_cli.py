import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sofai_gc import ProposerConfig, dsatur, parse_dimacs_instance, verdict
from sofai_gc.cli import _proposer_config, build_parser, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    rc = main([
        "gen", "--n", "5", "--p", "0.5", "--mix", "50,50",
        "--count", "4", "--seed", "3", "--out", str(out), "--time-limit", "30",
    ])
    assert rc == 0
    return out


class TestGen:
    def test_writes_manifest_and_instances(self, dataset_dir, capsys):
        assert (dataset_dir / "manifest.csv").exists()
        cols = sorted((dataset_dir / "instances").glob("*.col"))
        assert len(cols) == 4

    def test_a_slot_that_times_out_is_dropped(self, tmp_path, capsys):
        # deterministic: the first search node, or the peel's deadline check, already sees the deadline passed
        rc = main(["gen", "--n", "20", "--p", "0.5", "--count", "2", "--seed", "1", "--time-limit", "1e-9",
                   "--out", str(tmp_path / "ds")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == f"wrote 0 instances to {tmp_path / 'ds'}"
        assert captured.err.strip() == "warning: some instances were dropped (labeling timed out)"
        assert "# complete: false\n" in (tmp_path / "ds" / "manifest.csv").read_text()

    def test_a_graph_too_large_to_search_is_a_one_line_error(self, tmp_path, monkeypatch):
        # gen_erdos_renyi draws every vertex pair, so the bound is lowered rather than passed
        monkeypatch.setattr(dsatur, "MAX_SEARCH_VERTICES", 4)
        with pytest.raises(SystemExit, match=r"^sofai-gc: 5 vertices, more than the 4 S2 may search$"):
            main(["gen", "--n", "5", "--p", "0.5", "--count", "1", "--out", str(tmp_path / "ds")])

    def test_mix_argument_validation(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--n", "5", "--p", "0.5", "--mix", "fifty,fifty",
                  "--count", "1", "--out", str(tmp_path)])


class TestSolve:
    def test_s2_prints_assignment(self, dataset_dir, capsys):
        sat_file = dataset_dir / "instances" / "er_n5_p0.5_0000.col"
        rc = main(["solve", "--solver", "S2", "--instance", str(sat_file)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("(") and line.endswith(")") for line in lines)

    def test_unsat_instance_prints_not_solvable(self, dataset_dir, capsys):
        unsat_file = dataset_dir / "instances" / "er_n5_p0.5_0003.col"
        rc = main(["solve", "--solver", "S2", "--instance", str(unsat_file)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "NOT SOLVABLE"

    def test_k_flag_overrides_instance_comment(self, dataset_dir, capsys):
        unsat_file = dataset_dir / "instances" / "er_n5_p0.5_0003.col"
        rc = main(["solve", "--solver", "S2", "--instance", str(unsat_file), "--k", "5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() != "NOT SOLVABLE"

    @staticmethod
    def solve_huge_k(instance: Path, *args: str) -> None:
        """Run solve at k = 10**12 under a 1 GiB address-space cap, so memory sized by k fails fast."""
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from sofai_gc.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, "solve", *args, "--instance", str(instance), "--k", str(10**12)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        graph, _, _ = parse_dimacs_instance(instance.read_text())
        pairs = [line.strip("()").split() for line in proc.stdout.splitlines()]
        assignment = {v: int(c) for v, c in pairs}
        assert verdict(graph, assignment, 10**12).valid

    def test_s2_answers_a_huge_k(self, dataset_dir):
        self.solve_huge_k(dataset_dir / "instances" / "er_n5_p0.5_0003.col", "--solver", "S2")

    def test_a_noisy_mock_answers_a_huge_k(self, dataset_dir):
        # every mock color is drawn from 1..k, up to 10**12
        self.solve_huge_k(dataset_dir / "instances" / "er_n5_p0.5_0003.col",
                          "--solver", "SOFAI-v2", "--proposer", "mock", "--noise", "1")

    def test_missing_k_is_an_error(self, tmp_path, capsys):
        inst = tmp_path / "bare.col"
        inst.write_text("p edge 2 1\ne A B\n")
        with pytest.raises(SystemExit, match="no color bound"):
            main(["solve", "--solver", "S2", "--instance", str(inst)])

    def test_sofai_v2_with_mock(self, dataset_dir, capsys):
        sat_file = dataset_dir / "instances" / "er_n5_p0.5_0000.col"
        rc = main([
            "solve", "--solver", "SOFAI-v2", "--proposer", "mock",
            "--instance", str(sat_file),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("backend", ["remote", "auto"])
    def test_endpoint_flag_selects_remote_backend(self, backend, monkeypatch):
        monkeypatch.delenv("S1_ENDPOINT", raising=False)
        args = build_parser().parse_args([
            "solve", "--solver", "SOFAI-v2", "--instance", "x.col",
            "--proposer", backend, "--endpoint", "http://127.0.0.1:1/v1",
        ])
        cfg = _proposer_config(args)
        assert cfg.kind == "remote"
        assert cfg.endpoint == "http://127.0.0.1:1/v1"

    def test_s2_reads_no_proposer_flags(self, dataset_dir, monkeypatch, capsys):
        monkeypatch.delenv("S1_ENDPOINT", raising=False)
        sat_file = dataset_dir / "instances" / "er_n5_p0.5_0000.col"
        rc = main(["solve", "--solver", "S2", "--proposer", "remote", "--instance", str(sat_file)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_an_s1_only_row_that_gets_no_answer_is_a_failure(self, dataset_dir, capsys):
        sat_file = dataset_dir / "instances" / "er_n5_p0.5_0000.col"
        rc = main(["solve", "--solver", "MC-S1-I1", "--proposer", "mock", "--unsat-rate", "1",
                   "--instance", str(sat_file)])
        assert rc == 2
        assert capsys.readouterr().out.strip() == "FAILURE: s1-exhausted"

    def test_unknown_solver_rejected(self, dataset_dir):
        with pytest.raises(SystemExit):
            main(["solve", "--solver", "S9", "--instance", "x.col"])

    def test_timeout_exit_code(self, tmp_path, capsys):
        from sofai_gc import serialize_dimacs
        from conftest import myciel
        inst = tmp_path / "slow.col"
        inst.write_text(serialize_dimacs(myciel(6), k=6) + "\n")
        rc = main(["solve", "--solver", "S2", "--instance", str(inst),
                   "--time-limit", "0.2"])
        assert rc == 2
        assert capsys.readouterr().out.strip() == "TIMEOUT"


@pytest.mark.parametrize("solver", ["S2", "SOFAI-v1"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_memory_flag_rejected_for_solvers_without_memory(command, solver, dataset_dir, tmp_path):
    memory = tmp_path / "memory.jsonl"
    target = (
        ["--instance", str(dataset_dir / "instances" / "er_n5_p0.5_0000.col")]
        if command == "solve"
        else ["--dataset", str(dataset_dir), "--trials", "1", "--workers", "1"]
    )
    with pytest.raises(SystemExit, match=f"--memory is not used by {solver}") as exc:
        main([command, "--solver", solver, "--memory", str(memory), *target])
    assert "\n" not in str(exc.value.code)
    assert not memory.exists()


class TestBenchAndReport:
    def test_bench_writes_results_and_report_renders(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main([
            "bench", "--dataset", str(dataset_dir), "--solver", "SOFAI-v2",
            "--proposer", "mock", "--time-limit", "30", "--trials", "2",
            "--workers", "1", "--out", str(out), "--seed", "5",
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8  # 4 instances x 2 trials
        assert all(json.loads(line)["solver"] == "SOFAI-v2" for line in lines)
        capsys.readouterr()

        rc = main(["report", "--in", str(out), "--format", "table"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "SOFAI-v2" in table and "success_pct" in table

        rc = main(["report", "--in", str(out), "--format", "csv"])
        csv_text = capsys.readouterr().out
        assert csv_text.startswith("n,p,mix,solver,")

    def test_a_memory_bench_answers_repeat_trials_from_memory(self, dataset_dir, tmp_path, capsys):
        # The memory file starts empty.  A SAT instance's first trial stores its answer, so its later trials
        # run no S1 round and no S2; an UNSAT instance is never stored, so each of its trials runs S1.
        out, memory = tmp_path / "r.jsonl", tmp_path / "memory.jsonl"
        rc = main([
            "bench", "--dataset", str(dataset_dir), "--solver", "SOFAI-v2", "--proposer", "mock",
            "--noise", "0.5", "--time-limit", "30", "--trials", "3", "--workers", "1", "--out", str(out),
            "--seed", "5", "--memory", str(memory),
        ])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12 and all(row["correct"] for row in rows)
        for row in rows:
            repeat = row["label"] == "SAT" and row["trial"] > 1
            assert (row["s1_iterations"] == 0) == repeat
            assert not (repeat and row["s2_invoked"])
        assert len(memory.read_text().splitlines()) == 2
        capsys.readouterr()

    def test_bench_stdout_when_no_out(self, dataset_dir, capsys, monkeypatch):
        monkeypatch.delenv("S1_ENDPOINT", raising=False)
        rc = main([
            "bench", "--dataset", str(dataset_dir), "--solver", "S2",
            "--time-limit", "30", "--trials", "1", "--workers", "1",
            "--proposer", "remote",  # read by no S2 trial, so not an error
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 4

    def test_report_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no trial results"):
            main(["report", "--in", str(empty)])

    def test_report_skips_a_torn_final_line(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        main(["bench", "--dataset", str(dataset_dir), "--solver", "S2", "--time-limit", "30",
              "--trials", "1", "--workers", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:3]) + "\n" + lines[3][:27])  # a run killed mid-write
        capsys.readouterr()
        assert main(["report", "--in", str(out), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",3")

    def test_report_on_a_memory_file_is_a_one_line_error(self, tmp_path):
        inst, memory = tmp_path / "triangle.col", tmp_path / "memory.jsonl"
        inst.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        main(["solve", "--solver", "SOFAI-v2", "--proposer", "mock", "--k", "3",
              "--memory", str(memory), "--instance", str(inst)])
        with pytest.raises(SystemExit, match=r"memory\.jsonl:1: TypeError") as exc:
            main(["report", "--in", str(memory)])
        assert "\n" not in str(exc.value.code)

    def test_report_on_a_value_of_the_wrong_type_is_a_one_line_error(self, dataset_dir, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["bench", "--dataset", str(dataset_dir), "--solver", "S2", "--time-limit", "30",
              "--trials", "1", "--workers", "1", "--out", str(out)])
        row = json.loads(out.read_text().splitlines()[0])
        out.write_text(json.dumps({**row, "wall_time": "fast"}) + "\n")
        with pytest.raises(SystemExit, match=r"^sofai-gc: .*r\.jsonl:1: TypeError: wall_time ") as exc:
            main(["report", "--in", str(out)])
        assert "\n" not in str(exc.value.code)

    def test_report_on_missing_file_is_a_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trial results file") as exc:
            main(["report", "--in", str(tmp_path / "missing.jsonl")])
        assert "\n" not in str(exc.value.code)


@pytest.mark.parametrize("command, flags, fragment", [
    ("solve", ["--k", "0"], "k must be >= 1"),
    ("solve", ["--time-limit", "0"], "time_limit must be positive"),
    ("solve", ["--time-limit", "nan"], "time_limit must be positive"),
    ("bench", ["--time-limit", "nan"], "time_limit must be positive"),
    ("bench", ["--trials", "0"], "trials must be >= 1"),
    ("bench", ["--workers", "0"], "workers must be >= 1"),
    ("gen", ["--n", "0"], "n must be >= 1"),
    ("solve", ["--instance", "dup.col"], "duplicate edge"),
    ("solve", ["--instance", "missing.col"], "No such file"),
    ("gen", ["--time-limit", "0"], "time_limit_per_instance must be positive"),
    ("gen", ["--time-limit", "nan"], "time_limit_per_instance must be positive"),
    ("gen", ["--n", "1", "--mix", "0,100"], "mix 0,100 has an UNSAT slot"),
    ("gen", ["--p", "0", "--mix", "50,50"], "mix 50,50 has an UNSAT slot"),
    ("solve", ["--solver", "SOFAI-v2", "--proposer", "remote"], "remote proposer requires an endpoint"),
    ("solve", ["--instance", "bare.col"], "no color bound"),
    ("report", ["--in", "missing.jsonl"], "no such trial results file"),
    ("report", ["--in", "empty.jsonl"], "no trial results in"),
    ("bench", ["--dataset", "no-column"], "manifest.csv: row 1 has no 'filename' field"),
    ("bench", ["--dataset", "short-row"], "manifest.csv: row 1 has no 'chi' field"),
    ("bench", ["--dataset", "bad-value"], "manifest.csv: row 1 has a malformed 'p' field: 'x'"),
    ("bench", ["--dataset", "zero-k"], "manifest.csv: row 1 has k 0, below 1"),
    ("solve", ["--instance", "paren.col"], "vertex label 'v(1' is not one DIMACS token"),
    ("bench", ["--dataset", "bad-instance"],
     "bad-instance/instances/er_n5_p0.5_0000.col: line 5: edge ('v(1', '6') references unknown vertex"),
    ("bench", ["--dataset", "huge-field"], "manifest.csv: row 1 is malformed: field larger than field limit"),
    ("solve", ["--instance", "huge-header.col"], "problem line implies 3000000 isolated vertices, more than the"),
], ids=[
    "k-0", "time-limit-0", "time-limit-nan", "bench-time-limit-nan", "trials-0", "workers-0", "n-0", "duplicate-edge",
    "missing-instance", "gen-time-limit-0", "gen-time-limit-nan", "gen-unsat-one-vertex", "gen-unsat-no-edges",
    "remote-without-endpoint", "no-color-bound", "missing-results", "empty-results",
    "manifest-missing-column", "manifest-short-row", "manifest-bad-value", "manifest-zero-k", "unpaired-paren-label",
    "instance-bad-edge", "manifest-huge-field", "dimacs-huge-fill-in",
])
def test_input_errors_end_in_one_line(command, flags, fragment, dataset_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("S1_ENDPOINT", raising=False)
    (tmp_path / "dup.col").write_text("c k 2\np edge 2 2\ne A B\ne B A\n")
    (tmp_path / "bare.col").write_text("p edge 2 1\ne A B\n")
    (tmp_path / "paren.col").write_text("p edge 2 1\ne v(1 B\n")
    (tmp_path / "huge-header.col").write_text("c k 3\np edge 3000000 0\n")
    (tmp_path / "empty.jsonl").write_text("")
    lines = (dataset_dir / "manifest.csv").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    first = lines[header + 1].split(",")
    for name, manifest in [
        ("no-column", lines[:header] + [line.rsplit(",", 1)[0] for line in lines[header:]]),
        ("short-row", lines[:header + 1] + [",".join(lines[header + 1].split(",")[:4])]),
        ("bad-value", lines[:header + 1] + [",".join([*first[:2], "x", *first[3:]])]),  # a p of x
        ("zero-k", lines[:header + 1] + [",".join([*first[:5], "0", *first[6:]])]),
        ("bad-instance", lines[:header + 2]),
        ("huge-field", lines[:header + 1] + [",".join(['"' + "x" * 200_000 + '"', *first[1:]])]),
    ]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.csv").write_text("\n".join(manifest) + "\n")
    instance = dataset_dir / "instances" / "er_n5_p0.5_0000.col"
    col = instance.read_text().splitlines()  # line 5 is its first edge
    (tmp_path / "bad-instance" / "instances").mkdir()
    (tmp_path / "bad-instance" / "instances" / instance.name).write_text("\n".join([*col[:4], "e v(1 6", *col[5:]]))
    base = {
        "solve": ["--solver", "S2", "--instance", str(dataset_dir / "instances" / "er_n5_p0.5_0000.col")],
        "bench": ["--solver", "S2", "--dataset", str(dataset_dir)],
        "gen": ["--n", "5", "--p", "0.5", "--count", "1", "--out", "ds"],
        "report": [],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *base, *flags])  # a repeated flag's last value wins
    message = str(exc.value.code)
    assert message.startswith("sofai-gc: ") and fragment in message
    assert "\n" not in message


# The proposer config the CLI builds from --proposer, its flags and the S1_*
# environment, over every combination of the rows below.
ENVIRONMENTS = {
    "no-env": {},
    "endpoint-env": {"S1_ENDPOINT": "http://env.test/v1"},
    "all-env": {"S1_ENDPOINT": "http://env.test/v1", "S1_API_KEY": "sk-env", "S1_MODEL": "env-model"},
    "key-model-env": {"S1_API_KEY": "sk-env", "S1_MODEL": "env-model"},
    "empty-endpoint-env": {"S1_ENDPOINT": ""},
}
FLAGS = {
    "no-flag": [],
    "endpoint-flag": ["--endpoint", "http://flag.test/v1"],
    "model-flag": ["--model", "flag-model"],
    "mock-knobs": ["--noise", "0.3", "--seed", "4", "--temperature", "0.5"],
}


def expected_proposer(backend, flags, env, solver):
    """The config (or ValueError text) the rule in README's Remote proposer section gives."""
    if solver == "S2":  # no S1 round: no proposer flag and no variable is read
        return ProposerConfig()
    knobs = dict(noise=0.3, seed=4, temperature=0.5) if flags == "mock-knobs" else {}
    if backend == "mock":
        return ProposerConfig(kind="mock", **knobs)
    endpoint = "http://flag.test/v1" if flags == "endpoint-flag" else ENVIRONMENTS[env].get("S1_ENDPOINT")
    model = "flag-model" if flags == "model-flag" else ENVIRONMENTS[env].get("S1_MODEL")
    if backend == "remote" and not endpoint:
        return "remote proposer requires an endpoint"
    return ProposerConfig(
        kind="remote" if endpoint else "mock",
        endpoint=endpoint,
        api_key=ENVIRONMENTS[env].get("S1_API_KEY"),
        model=model,
        **knobs,
    )


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("solver", ["SOFAI-v2", "S2"])
@pytest.mark.parametrize("env", ENVIRONMENTS)
@pytest.mark.parametrize("flags", FLAGS)
@pytest.mark.parametrize("backend", [None, "mock", "remote", "auto"])
def test_proposer_config_matrix(backend, flags, env, solver, command, monkeypatch):
    for name in ("S1_ENDPOINT", "S1_API_KEY", "S1_MODEL"):
        monkeypatch.delenv(name, raising=False)
    for name, value in ENVIRONMENTS[env].items():
        monkeypatch.setenv(name, value)
    target = ["--instance", "x.col"] if command == "solve" else ["--dataset", "ds"]
    chosen = [] if backend is None else ["--proposer", backend]
    args = build_parser().parse_args([command, "--solver", solver, *target, *chosen, *FLAGS[flags]])
    expected = expected_proposer(backend, flags, env, solver)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            _proposer_config(args)
        assert str(exc.value) == expected
    else:
        assert _proposer_config(args) == expected
