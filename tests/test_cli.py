import json

import pytest

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

    def test_report_on_missing_file_is_a_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trial results file") as exc:
            main(["report", "--in", str(tmp_path / "missing.jsonl")])
        assert "\n" not in str(exc.value.code)


@pytest.mark.parametrize("command, flags, fragment", [
    ("solve", ["--k", "0"], "k must be >= 1"),
    ("solve", ["--time-limit", "0"], "time_limit must be positive"),
    ("bench", ["--trials", "0"], "trials must be >= 1"),
    ("gen", ["--n", "0"], "n must be >= 1"),
    ("solve", ["--instance", "dup.col"], "duplicate edge"),
    ("solve", ["--instance", "missing.col"], "No such file"),
    ("gen", ["--time-limit", "0"], "time_limit_per_instance must be positive"),
    ("solve", ["--solver", "SOFAI-v2", "--proposer", "remote"], "remote proposer requires an endpoint"),
], ids=[
    "k-0", "time-limit-0", "trials-0", "n-0", "duplicate-edge", "missing-instance", "gen-time-limit-0",
    "remote-without-endpoint",
])
def test_input_errors_end_in_one_line(command, flags, fragment, dataset_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("S1_ENDPOINT", raising=False)
    (tmp_path / "dup.col").write_text("c k 2\np edge 2 2\ne A B\ne B A\n")
    base = {
        "solve": ["--solver", "S2", "--instance", str(dataset_dir / "instances" / "er_n5_p0.5_0000.col")],
        "bench": ["--solver", "S2", "--dataset", str(dataset_dir)],
        "gen": ["--n", "5", "--p", "0.5", "--count", "1", "--out", "ds"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *base, *flags])  # a repeated flag's last value wins
    message = str(exc.value.code)
    assert message.startswith("sofai-gc: ") and fragment in message
    assert "\n" not in message
