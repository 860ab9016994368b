import hashlib

import pytest

from sofai_gc import (
    GenSpec,
    build_dataset,
    gen_erdos_renyi,
    load_dataset,
    solve_decision,
    write_dataset,
)
from sofai_gc.generate import PRNG_NAME, read_manifest_meta

from oracles import brute_force_colorable


class TestGenErdosRenyi:
    def test_deterministic_for_seed(self):
        a = gen_erdos_renyi(10, 0.5, seed=123)
        b = gen_erdos_renyi(10, 0.5, seed=123)
        assert a == b
        assert a != gen_erdos_renyi(10, 0.5, seed=124)

    def test_vertex_names_and_edge_order(self):
        graph = gen_erdos_renyi(4, 1.0, seed=0)
        assert graph.vertices == ("1", "2", "3", "4")
        assert graph.edges == (
            ("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"),
        )

    def test_probability_extremes(self):
        assert gen_erdos_renyi(6, 0.0, seed=1).edges == ()
        assert len(gen_erdos_renyi(6, 1.0, seed=1).edges) == 15

    @pytest.mark.parametrize("args, edges, digest", [
        ((12, 0.5, 5), 32, "6a590d012883"),
        ((300, 0.03, 0), 1396, "ea52be7c03a4"),
    ], ids=str)
    def test_draws_the_pinned_stream(self, args, edges, digest):
        # datasets and perfbench's pinned er_suite.json name graphs by (n, p, seed)
        graph = gen_erdos_renyi(*args)
        assert len(graph.edges) == edges
        assert hashlib.sha256(repr(graph.edges).encode()).hexdigest()[:12] == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(0, 0.5, seed=1)
        with pytest.raises(ValueError):
            gen_erdos_renyi(3, 1.5, seed=1)


class TestGenSpec:
    def test_mix_must_sum_to_100(self):
        with pytest.raises(ValueError, match="sum to 100"):
            GenSpec(n=5, p=0.5, count=10, seed=0, mix=(60, 50))
        with pytest.raises(ValueError):
            GenSpec(n=5, p=0.5, count=10, seed=0, mix=(-10, 110))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, p=0.5, count=1, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=5, p=2.0, count=1, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=5, p=0.5, count=0, seed=0)


class TestBuildDataset:
    def test_mix_proportions_exact(self):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=10, seed=0, mix=(50, 50)), 30)
        labels = [r.label for r in ds.instances]
        assert labels == ["SAT"] * 5 + ["UNSAT"] * 5

    def test_all_sat_mix(self):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=6, seed=0), 30)
        assert all(r.label == "SAT" and r.k == r.chi for r in ds.instances)

    def test_unsat_k_is_chi_minus_one(self):
        ds = build_dataset(GenSpec(n=6, p=0.5, count=4, seed=1, mix=(0, 100)), 30)
        assert all(r.label == "UNSAT" and r.k == r.chi - 1 and r.k >= 1 for r in ds.instances)

    def test_labels_are_ground_truth(self):
        ds = build_dataset(GenSpec(n=6, p=0.5, count=8, seed=2, mix=(50, 50)), 30)
        for rec in ds.instances:
            if rec.label == "SAT":
                assert solve_decision(rec.graph, rec.k).is_sat
                assert brute_force_colorable(rec.graph, rec.k)
            else:
                assert solve_decision(rec.graph, rec.k).is_unsat
                assert not brute_force_colorable(rec.graph, rec.k)

    def test_deterministic(self):
        spec = GenSpec(n=5, p=0.5, count=6, seed=9, mix=(50, 50))
        a, b = build_dataset(spec, 30), build_dataset(spec, 30)
        assert a == b

    def test_unsat_slot_redraws_single_color_graphs(self):
        # p=0.05 at n=3 draws mostly edgeless (chi=1) graphs; UNSAT slots
        # must keep redrawing until chi >= 2
        ds = build_dataset(GenSpec(n=3, p=0.05, count=3, seed=0, mix=(0, 100)), 30)
        assert all(r.chi >= 2 for r in ds.instances)

    def test_unsat_impossible_raises(self):
        # p=0 or a single vertex can never produce chi >= 2; refused before any draw
        with pytest.raises(ValueError, match="mix 0,100 has an UNSAT slot"):
            GenSpec(n=3, p=0.0, count=1, seed=0, mix=(0, 100))
        with pytest.raises(ValueError, match="UNSAT slot"):
            GenSpec(n=1, p=0.5, count=4, seed=0, mix=(99, 1))
        assert GenSpec(n=1, p=0.0, count=1, seed=0).mix == (100, 0)  # SAT-only needs no edge

    def test_unsat_exhaustion_raises(self):
        # Possible but 1000 draws in a row without the one edge
        with pytest.raises(ValueError, match="UNSAT slot after 1000 attempts"):
            build_dataset(GenSpec(n=2, p=1e-12, count=1, seed=0, mix=(0, 100)), 30)

    def test_ids_are_stable(self):
        ds = build_dataset(GenSpec(n=5, p=0.25, count=2, seed=3), 30)
        assert [r.id for r in ds.instances] == ["er_n5_p0.25_0000", "er_n5_p0.25_0001"]


class TestDatasetIO:
    def test_write_load_round_trip(self, tmp_path):
        ds = build_dataset(GenSpec(n=6, p=0.5, count=6, seed=4, mix=(50, 50)), 30)
        manifest = write_dataset(ds, tmp_path)
        assert manifest == tmp_path / "manifest.csv"
        loaded = load_dataset(tmp_path)
        assert [(r.id, r.n, r.p, r.seed, r.chi, r.k, r.label) for r in loaded] == [
            (r.id, r.n, r.p, r.seed, r.chi, r.k, r.label) for r in ds.instances
        ]
        assert all(a.graph == b.graph for a, b in zip(loaded, ds.instances))

    def test_manifest_metadata(self, tmp_path):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=4, seed=7, mix=(50, 50)), 30)
        write_dataset(ds, tmp_path)
        meta = read_manifest_meta(tmp_path)
        assert meta["generator"] == "erdos-renyi"
        assert meta["prng"] == PRNG_NAME
        assert meta["n"] == "5"
        assert meta["mix"] == "50,50"
        assert meta["seed"] == "7"
        assert meta["complete"] == "true"

    def test_instance_files_carry_k_and_label(self, tmp_path):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=2, seed=0), 30)
        write_dataset(ds, tmp_path)
        text = (tmp_path / "instances" / "er_n5_p0.5_0000.col").read_text()
        assert text.startswith(f"c k {ds.instances[0].k}\nc label SAT\n")

    @pytest.mark.parametrize("edit", ["instance_k", "manifest_n"])
    def test_load_rejects_manifest_disagreement(self, tmp_path, edit):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=1, seed=0), 30)
        write_dataset(ds, tmp_path)
        if edit == "instance_k":
            path, old, new = tmp_path / "instances" / "er_n5_p0.5_0000.col", f"c k {ds.instances[0].k}", "c k 99"
        else:  # the row's n, 5, becomes 6
            path, old, new = tmp_path / "manifest.csv", "er_n5_p0.5_0000,5,", "er_n5_p0.5_0000,6,"
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValueError, match="disagrees with the manifest"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("comment", ["c k", "c label"])
    def test_load_rejects_an_instance_without_its_k_or_label(self, tmp_path, comment):
        ds = build_dataset(GenSpec(n=5, p=0.5, count=1, seed=0), 30)
        write_dataset(ds, tmp_path)
        path = tmp_path / "instances" / "er_n5_p0.5_0000.col"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(comment + " ")))
        assert len(path.read_text().splitlines()) == len(lines) - 1
        with pytest.raises(ValueError, match="instance er_n5_p0.5_0000 is missing its k or label comment"):
            load_dataset(tmp_path)

    def test_load_rejects_a_repeated_instance_id(self, tmp_path):
        # two rows, two files, one id: a report would merge them into one instance
        ds = build_dataset(GenSpec(n=5, p=0.5, count=2, seed=0), 30)
        manifest = write_dataset(ds, tmp_path)
        manifest.write_text(manifest.read_text().replace("er_n5_p0.5_0001,", "er_n5_p0.5_0000,"))
        with pytest.raises(ValueError, match=r"manifest\.csv: row 2 repeats instance id 'er_n5_p0\.5_0000'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("k", [0, -2])
    def test_load_rejects_a_row_with_k_below_one(self, tmp_path, k):
        # the row and its file agree, so only the k check stops every trial of it failing in bench
        ds = build_dataset(GenSpec(n=5, p=0.5, count=2, seed=0), 30)
        manifest = write_dataset(ds, tmp_path)
        second = ds.instances[1]
        path = tmp_path / "instances" / f"{second.id}.col"
        path.write_text(path.read_text().replace(f"c k {second.k}\n", f"c k {k}\n"))
        row = f"{second.id},{second.n},{second.p},{second.seed},{second.chi},"
        assert row + f"{second.k}," in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(row + f"{second.k},", row + f"{k},"))
        with pytest.raises(ValueError, match=rf"manifest\.csv: row 2 has k {k}, below 1"):
            load_dataset(tmp_path)
