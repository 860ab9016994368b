import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofai_gc import (
    EpisodicRecord,
    Graph,
    MemoryRejected,
    MemoryStore,
    OrchestratorConfig,
    ProposerConfig,
    gen_erdos_renyi,
    parse_dimacs,
    retrieve_memory,
    serialize_dimacs,
    solve_sofai_v2,
)

from oracles import reference_retrieval
from strategies import er_graphs


def record_for(graph, k, solution, solver="S2", timestamp=0.0):
    return dataclasses.replace(EpisodicRecord.make(graph, k, solution, solver), timestamp=timestamp)


def greedy(graph):
    """A proper coloring of graph: first fit in vertex order (three colors for triangle, fig2_graph and petersen)."""
    return graph.first_fit(range(len(graph.vertices)))


# One memory file line, byte for byte: the JSONL format must not drift.
FROZEN_LINE = (
    '{"density": 0.5, "dimacs": "c vertices A B C D\\np edge 4 3\\ne A B\\ne B C\\ne A C", '
    '"e": 3, "k": 3, "n": 4, "solution": {"A": 1, "B": 2, "C": 3, "D": 1}, '
    '"solver": "S2", "timestamp": 0.0}'
)
# The same record as written while each line carried an id, a digest that no reader uses; files hold such lines.
ID_LINE = (
    '{"density": 0.5, "dimacs": "c vertices A B C D\\np edge 4 3\\ne A B\\ne B C\\ne A C", '
    '"e": 3, "id": "248afda8ddeea7ed", "k": 3, "n": 4, "solution": {"A": 1, "B": 2, "C": 3, "D": 1}, '
    '"solver": "S2", "timestamp": 0.0}'
)


class TestEpisodicRecord:
    def test_attributes(self, fig2_graph):
        rec = record_for(fig2_graph, 3, greedy(fig2_graph))
        assert (rec.n, rec.e, rec.k) == (5, 5, 3)
        assert rec.density == fig2_graph.density

    def test_json_round_trip(self, triangle):
        rec = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}, solver="S1")
        assert EpisodicRecord.from_json(rec.to_json()) == rec
        roomy = record_for(triangle, 4, {"A": 4, "B": 1, "C": 2}, timestamp=1.5)
        assert EpisodicRecord.from_json(roomy.to_json()) == roomy

    def test_json_line_is_frozen(self):
        graph = Graph(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("A", "C")))
        rec = record_for(graph, 3, {"A": 1, "B": 2, "C": 3, "D": 1})
        assert rec.to_json() == FROZEN_LINE
        assert EpisodicRecord.from_json(FROZEN_LINE) == rec
        assert EpisodicRecord.from_json(ID_LINE) == rec  # an older line's id is not read

    def test_solver_validation(self, triangle):
        with pytest.raises(ValueError, match="solver"):
            record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}, solver="S3")


class TestAppend:
    def test_append_then_retrieve_identical(self, triangle):
        # the appended instance is found by lookup; retrieval, which seeds prompts, shows it to other graphs only
        store = MemoryStore()
        rec = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(rec)
        assert store.lookup(triangle, 3) is rec
        assert retrieve_memory(store, triangle, 3) is None
        assert retrieve_memory(store, Graph(triangle.vertices, triangle.edges[::-1]), 3) is rec

    def test_invalid_solution_rejected(self, triangle):
        store = MemoryStore()
        with pytest.raises(MemoryRejected, match="invalid solution"):
            store.append(record_for(triangle, 3, {"A": 1, "B": 1, "C": 2}))
        assert len(store) == 0

    def test_over_budget_solution_rejected(self, triangle):
        with pytest.raises(MemoryRejected):
            MemoryStore().append(record_for(triangle, 2, {"A": 1, "B": 2, "C": 3}))

    def test_duplicate_instance_rejected(self, triangle):
        store = MemoryStore()
        rec = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(rec)
        with pytest.raises(MemoryRejected, match="duplicate"):
            store.append(record_for(triangle, 3, {"A": 3, "B": 1, "C": 2}))

    def test_duplicate_rejected_before_verify(self, triangle, monkeypatch):
        import sofai_gc.memory as memory
        store = MemoryStore()
        rec = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(rec)
        checked = []
        monkeypatch.setattr(memory, "verdict", lambda *args: checked.append(args))
        with pytest.raises(MemoryRejected, match="duplicate"):
            store.append(rec)
        assert checked == [] and len(store) == 1

    def test_lookup_finds_an_equal_graph_at_its_k_whatever_the_id(self, petersen):
        store = MemoryStore()
        record = record_for(petersen, 3, greedy(petersen))
        store.append(record)
        # the twin has petersen's n, e, density and vertices, in another edge order: another instance
        twin = Graph(petersen.vertices, petersen.edges[::-1])
        assert store.lookup(parse_dimacs(serialize_dimacs(petersen)), 3) is record
        assert store.lookup(petersen, 4) is None
        assert store.lookup(twin, 3) is None
        with pytest.raises(MemoryRejected, match="duplicate"):  # append refuses what lookup finds, not a line's id
            store.append(EpisodicRecord.from_json(json.dumps({**json.loads(record.to_json()), "id": "0" * 16})))
        theirs = record_for(twin, 3, greedy(petersen))
        store.append(theirs)
        assert store.lookup(twin, 3) is theirs and store.lookup(petersen, 3) is record and len(store) == 2

    def test_persistence_failure_propagates(self, tmp_path, triangle):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        store = MemoryStore()  # in-memory load, then break the path
        store.path = blocker / "memory.jsonl"
        with pytest.raises(OSError):
            store.append(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}))


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path, triangle, fig2_graph):
        path = tmp_path / "memory.jsonl"
        store = MemoryStore(path)
        store.append(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}))
        store.append(record_for(fig2_graph, 3, {"A": 1, "B": 2, "C": 3, "D": 1, "E": 2}))

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)

        reopened = MemoryStore(path)
        assert reopened.records() == store.records()

    @pytest.mark.parametrize("label", ["a b", "", "a\tb", " a"])
    def test_label_dimacs_cannot_carry_is_rejected_before_writing(self, tmp_path, label):
        # Graph refuses the label, so no record of it can reach the file
        path = tmp_path / "memory.jsonl"
        with pytest.raises(ValueError, match="not one DIMACS token"):
            MemoryStore(path).append(record_for(Graph((label, "c"), ((label, "c"),)), 2, {label: 1, "c": 2}))
        assert not path.exists()

    @pytest.mark.parametrize("vertices, edges, k, solution, error, fragment", [
        (("a b", "c"), (("a b", "c"),), 2, {"a b": 1, "c": 2}, ValueError, "not one DIMACS token"),
        (("A", "B", "C"), (("A", "B"), ("B", "C"), ("A", "C")), 3, {"A": 1, "B": 1, "C": 2}, MemoryRejected,
         "invalid solution"),
        (("A", "B", "C"), (("A", "B"), ("B", "C"), ("A", "C")), 0, {"A": 1, "B": 2, "C": 3}, ValueError,
         "k must be >= 1"),
        (("A", "B"), (("A", "B"),), 2, {"A": True, "B": 2}, ValueError, "must be an integer >= 1, got True"),
        (("v(1", "c"), (("v(1", "c"),), 2, {"v(1": 1, "c": 2}, ValueError, r"label 'v\(1' is not one DIMACS token"),
    ], ids=["spaced-label", "improper", "zero-k", "bool-color", "unpaired-paren-label"])
    def test_a_record_the_file_could_not_hold_is_refused_when_built(self, tmp_path, triangle, vertices, edges, k,
                                                                   solution, error, fragment):
        # append writes what it is given, so only a record that checked itself keeps the file loadable;
        # a label DIMACS cannot carry is refused already by the Graph the record would hold
        path = tmp_path / "memory.jsonl"
        store = MemoryStore(path)
        known = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(known)
        with pytest.raises(error, match=fragment):
            store.append(EpisodicRecord.make(Graph(vertices, edges), k, solution, "S2"))
        with pytest.raises(error, match=fragment):  # nor by copying a valid record
            dataclasses.replace(known, graph=Graph(vertices, edges), k=k, solution=solution)
        with pytest.raises(error, match=fragment):
            EpisodicRecord(k, Graph(vertices, edges), solution, "S2", 0.0)
        assert store.records() == MemoryStore(path).records() == (known,)

    def test_solving_a_graph_with_a_spaced_label_leaves_the_file_loadable(self, tmp_path, triangle):
        path = tmp_path / "memory.jsonl"
        store = MemoryStore(path)
        known = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(known)
        cfg = OrchestratorConfig(proposer=ProposerConfig(kind="mock"), store=store)
        with pytest.raises(ValueError, match="not one DIMACS token"):  # no trial starts on such a graph
            solve_sofai_v2(Graph(("a b", "c"), (("a b", "c"),)), 2, cfg)
        assert MemoryStore(path).records() == (known,)

    def test_torn_final_line_skipped_then_cut_off(self, tmp_path, triangle, fig2_graph, petersen):
        path = tmp_path / "memory.jsonl"
        first = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        MemoryStore(path).append(first)
        cut = record_for(fig2_graph, 3, greedy(fig2_graph)).to_json()
        with path.open("a") as fh:
            fh.write(cut[: len(cut) // 2])  # an append cut short before its newline
        store = MemoryStore(path)
        assert store.records() == (first,)
        third = record_for(petersen, 3, greedy(petersen))
        store.append(third)
        assert MemoryStore(path).records() == (first, third)

    def test_unterminated_final_record_kept(self, tmp_path, triangle, petersen):
        path = tmp_path / "memory.jsonl"
        first = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        path.write_text(first.to_json())  # complete, but its newline never landed
        store = MemoryStore(path)
        assert store.records() == (first,)
        second = record_for(petersen, 3, greedy(petersen))
        store.append(second)
        assert MemoryStore(path).records() == (first, second)

    def test_a_torn_line_another_store_cut_off_stays_cut(self, tmp_path, triangle, fig2_graph, petersen):
        path = tmp_path / "memory.jsonl"
        first = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        MemoryStore(path).append(first)
        cut = record_for(fig2_graph, 3, greedy(fig2_graph)).to_json()
        with path.open("a") as fh:
            fh.write(cut[: len(cut) // 2])
        mine, theirs = MemoryStore(path), MemoryStore(path)
        second = record_for(fig2_graph, 3, greedy(fig2_graph))
        theirs.append(second)  # cuts the torn line off
        third = record_for(petersen, 3, greedy(petersen))
        mine.append(third)  # the file it finds ends cleanly, so it must not cut the second record off
        assert MemoryStore(path).records() == (first, second, third)

    def test_append_after_the_file_is_gone_writes_only_its_line(self, tmp_path, triangle, fig2_graph, petersen):
        path = tmp_path / "memory.jsonl"
        MemoryStore(path).append(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}))
        cut = record_for(fig2_graph, 3, greedy(fig2_graph)).to_json()
        with path.open("a") as fh:
            fh.write(cut[: len(cut) // 2])
        store = MemoryStore(path)
        path.unlink()
        second = record_for(petersen, 3, greedy(petersen))
        store.append(second)  # a truncate to the old offset would pad the new file with NUL bytes
        assert path.read_bytes() == second.to_json().encode() + b"\n"
        assert MemoryStore(path).records() == (second,)

    def test_a_line_torn_after_loading_is_cut_off(self, tmp_path, triangle, fig2_graph, petersen):
        path = tmp_path / "memory.jsonl"
        first = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        MemoryStore(path).append(first)
        store = MemoryStore(path)  # loads a clean file
        cut = record_for(fig2_graph, 3, greedy(fig2_graph)).to_json()
        with path.open("a") as fh:
            fh.write(cut[:40])  # another writer's append cut short
        third = record_for(petersen, 3, greedy(petersen))
        store.append(third)
        assert MemoryStore(path).records() == (first, third)
        assert path.read_bytes() == (first.to_json() + "\n" + third.to_json() + "\n").encode()

    def test_a_record_unterminated_after_loading_is_kept(self, tmp_path, triangle, fig2_graph, petersen):
        path = tmp_path / "memory.jsonl"
        first = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        MemoryStore(path).append(first)
        store = MemoryStore(path)  # loads a clean file
        second = record_for(fig2_graph, 3, greedy(fig2_graph))
        with path.open("a") as fh:
            fh.write(second.to_json())  # another writer's record, its newline never landed
        third = record_for(petersen, 3, greedy(petersen))
        store.append(third)
        assert MemoryStore(path).records() == (first, second, third)

    def test_bad_line_mid_file_names_its_line(self, tmp_path, triangle, petersen):
        path = tmp_path / "memory.jsonl"
        good = [record_for(triangle, 3, greedy(triangle)).to_json(), record_for(petersen, 3, greedy(petersen)).to_json()]
        path.write_text(good[0] + "\n" + good[1][:40] + "\n" + good[1] + "\n")
        with pytest.raises(ValueError, match=r"memory\.jsonl:2: "):
            MemoryStore(path)

    def test_bad_terminated_final_line_raises(self, tmp_path, triangle):
        path = tmp_path / "memory.jsonl"
        path.write_text(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}).to_json() + "\n\n" + '{"id": "x"}\n')
        with pytest.raises(ValueError, match=r"memory\.jsonl:3: "):
            MemoryStore(path)

    @pytest.mark.parametrize("changes, error, fragment", [
        ({"solver": "S9"}, ValueError, "solver must be one of"),
        ({"solution": {"A": 1, "B": 1, "C": 1}}, ValueError, "invalid solution"),
        ({"k": 2}, ValueError, "invalid solution"),  # three colours over a budget of two
        ({"solution": {"A": 1, "B": 2, "C": 3, "Z": 1}}, ValueError, "unknown vertex 'Z'"),
        ({"k": 2.9}, TypeError, "k must be int, not float"),  # not truncated to 2
        ({"solution": {"A": True, "B": 2, "C": 3}}, ValueError, "vertex 'A' must be an integer >= 1, got True"),
        ({"solution": {"A": 1, "B": 2.7, "C": 3}}, ValueError, "vertex 'B' must be an integer >= 1, got 2.7"),
        ({"timestamp": "1e3"}, TypeError, "timestamp must be float, not str"),
        ({"k": -3}, ValueError, "k must be >= 1"),  # the solution is proper, so only the k check refuses it
        ({"solution": None}, TypeError, "solution must be dict, not NoneType"),
        ({"dimacs": "p edge 2 1\ne v(1 B"}, ValueError, r"label 'v\(1' is not one DIMACS token"),
    ], ids=["unknown-solver", "improper", "over-budget", "unknown-vertex", "float-k", "bool-color", "float-color",
            "string-timestamp", "non-positive-k", "null-solution", "unpaired-paren-label"])
    def test_line_no_append_would_accept_is_refused(self, tmp_path, triangle, petersen, changes, error, fragment):
        obj = json.loads(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}).to_json())
        obj.update(changes)
        bad = json.dumps(obj)
        with pytest.raises(error, match=fragment):
            EpisodicRecord.from_json(bad)
        path = tmp_path / "memory.jsonl"
        good = record_for(petersen, 3, greedy(petersen))
        path.write_text(good.to_json() + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=rf"memory\.jsonl:2: \w+: .*{fragment}"):
            MemoryStore(path)
        path.write_text(good.to_json() + "\n" + bad)  # as a torn final line it is skipped
        assert MemoryStore(path).records() == (good,)

    def test_a_file_of_lines_with_ids_loads_and_grows_without_them(self, tmp_path, triangle):
        path = tmp_path / "memory.jsonl"
        path.write_text(ID_LINE + "\n")
        store = MemoryStore(path)
        (old,) = store.records()
        graph = Graph(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("A", "C")))
        assert (old.k, old.graph, old.solution, old.solver, old.timestamp) == (
            3, graph, {"A": 1, "B": 2, "C": 3, "D": 1}, "S2", 0.0)
        new = record_for(triangle, 3, {"A": 1, "B": 2, "C": 3})
        store.append(new)
        assert path.read_text().splitlines() == [ID_LINE, new.to_json()]
        assert "id" not in json.loads(new.to_json())
        assert MemoryStore(path).records() == (old, new)

    def test_an_instance_two_stores_appended_loads_once(self, tmp_path):
        # each store holds only what it loaded or appended, so both write the instance; loading keeps the first
        path = tmp_path / "memory.jsonl"
        path.write_text("")
        graph = gen_erdos_renyi(12, 0.5, 0)
        a, b = MemoryStore(path), MemoryStore(path)
        first = record_for(graph, 12, {v: i for i, v in enumerate(graph.vertices, 1)}, timestamp=1.0)
        a.append(first)
        b.append(record_for(graph, 12, greedy(graph), timestamp=2.0))
        assert len(path.read_text().splitlines()) == 2
        store = MemoryStore(path)
        assert len(store) == 1 and store.records() == (first,)

    def test_reopened_store_still_rejects_duplicates(self, tmp_path, triangle):
        path = tmp_path / "memory.jsonl"
        MemoryStore(path).append(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}))
        with pytest.raises(MemoryRejected, match="duplicate"):
            MemoryStore(path).append(record_for(triangle, 3, {"A": 1, "B": 2, "C": 3}))


@st.composite
def stores_and_queries(draw):
    """A query (graph, k) and a small store holding the graph at k and at other k, its edge-reversed twin and
    other graphs."""
    graph = draw(er_graphs(max_n=6))
    k = draw(st.integers(1, 6))
    store = MemoryStore()
    for kind in draw(st.lists(st.sampled_from(["own", "own-other-k", "twin", "other"]), max_size=8)):
        if kind.startswith("own"):  # the query's own object, or an equal graph
            stored = draw(st.sampled_from([graph, parse_dimacs(serialize_dimacs(graph))]))
        elif kind == "twin":  # the same n, e, density and vertices: a tie at distance 0 when k is equal
            stored = Graph(graph.vertices, graph.edges[::-1])
        else:
            stored = draw(er_graphs(max_n=6))
        coloring = greedy(stored)
        used = len(set(coloring.values()))
        if kind == "own":  # at the query's k, when greedy's coloring fits it
            stored_k = max(used, k)
        elif kind == "own-other-k":
            stored_k = max(used, k) + draw(st.integers(1, 3))
        else:
            stored_k = max(used, draw(st.sampled_from([k, k + 1, 1, 2, 3, 4])))
        if store.lookup(stored, stored_k) is None:
            store.append(record_for(stored, stored_k, coloring))
    return store, graph, k


class TestRetrieveMemory:
    def test_empty_store(self, triangle):
        assert retrieve_memory(MemoryStore(), triangle, 3) is None

    def test_identical_instance_distance_zero(self, petersen):
        # petersen's own record is at distance 0 (1/12 at k=4), yet no prompt for petersen is shown it;
        # the edge-reversed twin, also at distance 0, is
        store = MemoryStore()
        rec = record_for(petersen, 3, greedy(petersen))
        store.append(rec)
        for query, k in ((petersen, 3), (parse_dimacs(serialize_dimacs(petersen)), 3), (petersen, 4)):
            assert retrieve_memory(store, query, k) is None
        assert retrieve_memory(store, Graph(petersen.vertices, petersen.edges[::-1]), 3) is rec

    def test_far_instance_excluded(self, triangle):
        store = MemoryStore()
        big = Graph(tuple(str(i) for i in range(1, 31)), (("1", "2"),))
        store.append(record_for(big, 2, greedy(big)))
        # n differs by the full observed range: d >= |3-30|/30 / 4 = 0.225
        assert retrieve_memory(store, triangle, 3) is None

    @pytest.mark.parametrize("n, hit", [(7, True), (6, False)])
    def test_the_bound_is_a_distance_below_a_tenth(self, n, hit):
        # ten isolated vertices at k=1: only n differs, so d = |n - 10| / 10 / 4, and n=6 is exactly 0.1 away
        stored = Graph(tuple(str(i) for i in range(1, 11)), ())
        rec = record_for(stored, 1, greedy(stored))
        store = MemoryStore()
        store.append(rec)
        query = Graph(tuple(str(i) for i in range(1, n + 1)), ())
        assert retrieve_memory(store, query, 1) is (rec if hit else None)

    def test_nearest_first_and_limit(self):
        graphs = {n: Graph(tuple(str(i) for i in range(1, n + 1)), (("1", "2"),)) for n in (4, 5, 6, 20)}
        recs = {n: record_for(graphs[n], 2, greedy(graphs[n]), timestamp=n) for n in (4, 5, 6, 20)}
        store = MemoryStore()
        for n in (4, 6):
            store.append(recs[n])
        # both are one vertex from n=5; the density of n=6 (1/15) is nearer 1/10 than n=4's (1/6)
        assert retrieve_memory(store, graphs[5], 2) == recs[6]
        store.append(recs[5])
        assert retrieve_memory(store, graphs[5], 2) == recs[6]  # its own record is never shown to it
        # another one-edge graph on five vertices: recs[5] is at distance 0, so it comes first
        assert retrieve_memory(store, Graph(graphs[5].vertices, (("2", "3"),)), 2) == recs[5]
        store.append(recs[20])
        # every record has one edge, a full max e from an edgeless query: d >= 1/4, beyond the distance limit
        assert retrieve_memory(store, Graph(graphs[20].vertices, ()), 2) is None
        assert retrieve_memory(store, Graph(graphs[20].vertices, (("1", "3"),)), 2) == recs[20]
        assert retrieve_memory(store, graphs[20], 2) is None  # recs[6], the next nearest, is 0.175 away

    def test_insertion_order_breaks_distance_ties(self):
        store = MemoryStore()
        # same n, e, density, k: attribute vectors are identical, so the
        # records tie on distance; the query is neither graph, so insertion order must decide
        ga = Graph(("1", "2", "3", "4"), (("1", "2"), ("3", "4")))
        gb = Graph(("1", "2", "3", "4"), (("1", "3"), ("2", "4")))
        gc = Graph(("1", "2", "3", "4"), (("1", "4"), ("2", "3")))
        ra = record_for(ga, 2, greedy(ga), timestamp=1)
        rb = record_for(gb, 2, greedy(gb), timestamp=2)
        store.append(rb)
        store.append(ra)
        assert retrieve_memory(store, gc, 2) == rb  # tie on distance: first stored wins

    def test_own_record_never_wins_a_tie_in_either_order(self, petersen):
        # the twin has petersen's n, e, density and k, in another edge order: another graph at distance 0
        twin = Graph(petersen.vertices, petersen.edges[::-1])
        theirs, own = record_for(twin, 3, greedy(petersen)), record_for(petersen, 3, greedy(petersen))
        for stored in ((theirs, own), (own, theirs)):
            store = MemoryStore()
            for record in stored:
                store.append(record)
            assert retrieve_memory(store, petersen, 3) is theirs
            assert retrieve_memory(store, parse_dimacs(serialize_dimacs(petersen)), 3) is theirs
            assert retrieve_memory(store, twin, 3) is own

    @settings(max_examples=300, deadline=None)
    @given(stores_and_queries())
    def test_matches_the_reference_ranking(self, case):
        store, graph, k = case
        ranking = reference_retrieval(store.records(), graph, k)
        hit = retrieve_memory(store, graph, k)
        assert hit is (ranking[0] if ranking else None)
        assert hit is None or hit.graph != graph
