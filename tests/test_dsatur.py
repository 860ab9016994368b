import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofai_gc import (
    DeadlineExceeded,
    Graph,
    chromatic_number,
    gen_erdos_renyi,
    parse_dimacs_instance,
    serialize_dimacs,
    solve_decision,
    verdict,
)
from sofai_gc import dsatur
from sofai_gc.dsatur import _decide, select_vertex

from conftest import complete_graph, cycle_graph, myciel, queen
from oracles import (
    brute_force_chromatic,
    brute_force_colorable,
    k_core,
    product_scan_colorable,
    reference_dsatur,
    reference_peel,
)
from strategies import er_graphs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def search(graph: Graph, k: int):
    """_decide's outcome on the whole graph: a DSATUR search even where peeling would answer."""
    return _decide(graph, k, time.monotonic() + 200.0)


class TestSolveDecision:
    def test_sat_outcomes_carry_verified_colorings(self, fig2_graph):
        outcome = solve_decision(fig2_graph, 3)
        assert outcome.is_sat
        assert verdict(fig2_graph, outcome.assignment, 3).valid

    def test_unsat_on_infeasible(self, fig2_graph, triangle):
        assert solve_decision(fig2_graph, 2).is_unsat
        assert solve_decision(triangle, 2).is_unsat
        assert solve_decision(complete_graph(4), 3).is_unsat

    def test_empty_graph(self):
        outcome = solve_decision(Graph((), ()), 1)
        assert outcome.is_sat and outcome.assignment == {}

    def test_edgeless_graph_one_color(self):
        outcome = solve_decision(Graph(("A", "B", "C"), ()), 1)
        assert outcome.is_sat
        assert set(outcome.assignment.values()) == {1}

    def test_k_validation(self, triangle):
        with pytest.raises(ValueError):
            solve_decision(triangle, 0)

    def test_nonpositive_limit_is_timeout(self, triangle):
        assert solve_decision(triangle, 3, time_limit=0).is_timeout
        assert solve_decision(triangle, 3, time_limit=float("nan")).is_timeout  # not a search without a deadline

    def test_hard_instance_times_out_quickly(self):
        # myciel6 at k=6 sits just below chi=7: the search neither finds a
        # coloring nor exhausts in under several seconds
        graph = myciel(6)
        start = time.monotonic()
        outcome = solve_decision(graph, 6, time_limit=0.2)
        elapsed = time.monotonic() - start
        assert outcome.is_timeout and outcome.nodes > 0
        assert elapsed < 1.2  # cooperative deadline: bounded overshoot

    def test_boundary_instance_is_proved_unsat_within_a_second(self):
        # G(45, 0.5) has chi=9: the k=8 proof needs symmetry breaking on
        # unused colors, without which it ran for tens of seconds
        assert solve_decision(gen_erdos_renyi(45, 0.5, seed=3), 8, time_limit=1.0).is_unsat

    def test_large_sparse_graph_does_not_exhaust_the_stack(self):
        # G(1500, 0.002) at k = 4 peels to nothing, so the search is run
        # directly: one node at least for each vertex outside the clique
        graph = gen_erdos_renyi(1500, 0.002, 1)
        outcome = search(graph, 4)
        assert outcome.is_sat and outcome.nodes >= 1500 - len(graph.clique)
        assert verdict(graph, outcome.assignment, 4).valid

    def test_rejected_certificate_is_a_failure(self, fig2_graph, petersen, monkeypatch):
        # the certificate check must hold under `python -O`, so it cannot be an assert;
        # fig2 at k = 3 is answered by peeling, the Petersen graph (3-regular) by a search
        rejected = verdict(fig2_graph, {}, 3)
        monkeypatch.setattr("sofai_gc.dsatur.verdict", lambda graph, assignment, k: rejected)
        for graph, searched in [(fig2_graph, False), (petersen, True)]:
            outcome = solve_decision(graph, 3)
            assert outcome.is_failure and outcome.reason
            assert (outcome.nodes > 0) == searched
            with pytest.raises(RuntimeError, match="k=3"):
                chromatic_number(graph)
        assert solve_decision(fig2_graph, 2).is_unsat

    @settings(max_examples=200, deadline=None)
    @given(er_graphs(max_n=7), st.integers(1, 5))
    def test_agrees_with_exhaustive_search(self, graph, k):
        outcome = solve_decision(graph, k)
        expected = brute_force_colorable(graph, k)
        assert outcome.is_sat == expected
        assert outcome.is_unsat == (not expected)

    @settings(max_examples=150, deadline=None)
    @given(er_graphs(max_n=8), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_relabeling_vertices_keeps_the_status(self, graph, k, rng):
        order = list(graph.vertices)
        rng.shuffle(order)
        rename = {v: f"x{i}" for i, v in enumerate(order)}
        edges = [(rename[v], rename[u]) if rng.random() < 0.5 else (rename[u], rename[v])
                 for u, v in graph.edges]
        rng.shuffle(edges)
        relabeled = Graph(tuple(rename[v] for v in order), tuple(edges))
        status = solve_decision(graph, k).status
        assert solve_decision(relabeled, k).status == status
        assert status == ("sat" if brute_force_colorable(relabeled, k) else "unsat")

    @settings(max_examples=150, deadline=None)
    @given(er_graphs(max_n=8), st.integers(1, 5))
    def test_sat_stays_sat_with_one_more_color(self, graph, k):
        at_k, above = solve_decision(graph, k), solve_decision(graph, k + 1)
        assert at_k.is_sat == brute_force_colorable(graph, k)
        assert above.is_sat == brute_force_colorable(graph, k + 1)
        if at_k.is_sat:
            assert above.is_sat

    def test_agrees_with_product_scan_on_tiny_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            graph = gen_erdos_renyi(n, rng.choice([0.2, 0.5, 0.8]), seed=rng.getrandbits(32))
            for k in (1, 2, 3):
                assert solve_decision(graph, k).is_sat == product_scan_colorable(graph, k)


class TestChromaticNumber:
    def test_empty_graph(self):
        assert chromatic_number(Graph((), ())) == 0

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert chromatic_number(complete_graph(n)) == n

    def test_cycles(self):
        assert chromatic_number(cycle_graph(4)) == 2
        assert chromatic_number(cycle_graph(6)) == 2
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(cycle_graph(7)) == 3

    def test_petersen(self, petersen):
        assert chromatic_number(petersen) == 3

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            graph = gen_erdos_renyi(rng.randint(1, 7), 0.5, seed=rng.getrandbits(32))
            assert chromatic_number(graph) == brute_force_chromatic(graph)

    def test_chi_at_the_max_degree_bound(self):
        # chi = D + 1 here, the largest k a sweep can reach
        for graph in [complete_graph(n) for n in range(1, 9)] + [cycle_graph(n) for n in (3, 5, 9, 11)]:
            top_degree = max(map(len, graph.neighbours))
            assert chromatic_number(graph) == top_degree + 1

    def test_masks_are_built_once_per_graph(self, petersen, monkeypatch):
        # two decisions that search, then a sweep and its clique bound, all on one Graph
        built = []
        for name in ("neighbour_masks", "clique"):
            build = getattr(Graph, name).func
            counted = functools.cached_property(
                lambda graph, name=name, build=build: built.append(name) or build(graph))
            counted.__set_name__(Graph, name)
            monkeypatch.setattr(Graph, name, counted)
        sat, unsat = solve_decision(petersen, 3), solve_decision(petersen, 2)
        assert sat.is_sat and unsat.is_unsat and sat.nodes > 0 and unsat.nodes > 0
        assert chromatic_number(petersen) == 3
        assert built == ["neighbour_masks", "clique"]

    def test_deadline_raises(self):
        graph = myciel(6)
        with pytest.raises(DeadlineExceeded):
            chromatic_number(graph, time_limit=0.2)

    @pytest.mark.parametrize("limit", [0, -1, float("nan")])
    def test_no_time_raises_at_once(self, triangle, limit):
        with pytest.raises(DeadlineExceeded):
            chromatic_number(triangle, time_limit=limit)


class Node(NamedTuple):
    """One search node, in places of degree_order: the bits _decide handed select_vertex, and the place it chose."""

    bits: int
    chosen: int


def chosen(graph: Graph, nodes: list[Node]) -> list[int]:
    """The vertex index each node chose."""
    order = graph.degree_order
    return [order[node.chosen] for node in nodes]


def tops(graph: Graph, nodes: list[Node]) -> list[frozenset[int]]:
    """At each node, the vertex indices whose places are set: the uncolored vertices of the highest saturation."""
    order = graph.degree_order
    return [frozenset(v for place, v in enumerate(order) if node.bits >> place & 1) for node in nodes]


def record_nodes(monkeypatch: pytest.MonkeyPatch) -> list[Node]:
    """Every search node from here on, in order: _decide calls select_vertex once per node.

    A Hypothesis test, which takes no function-scoped fixture, passes the
    patcher of a `with pytest.MonkeyPatch.context()` block.
    """
    nodes: list[Node] = []

    def recorded(bits: int) -> int:
        place = select_vertex(bits)
        nodes.append(Node(bits, place))
        return place

    monkeypatch.setattr(dsatur, "select_vertex", recorded)
    return nodes


def record_solves(monkeypatch: pytest.MonkeyPatch) -> list[tuple[int, dsatur.SolveOutcome]]:
    """Every _solve call from here on, as (k, outcome): each k of a sweep, and each solve_decision."""
    solves, solve = [], dsatur._solve

    def recorded(graph: Graph, k: int, deadline: float) -> dsatur.SolveOutcome:
        solves.append((k, solve(graph, k, deadline)))
        return solves[-1][1]

    monkeypatch.setattr(dsatur, "_solve", recorded)
    return solves


def coloring_digest(assignment: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(assignment, sort_keys=True).encode()).hexdigest()[:12]


class TestSelectVertex:
    def test_prefers_saturation_then_degree_then_order(self, monkeypatch):
        # "abcd" is a K4, the clique colored before the search; apart from
        # it, "1"-"2" is an edge and "3" is the center of a star on "4",
        # "5", "6".  "3" goes first (degree 3 beats an earlier position),
        # then its leaves (saturation 1 beats a lower index), which tie on
        # saturation and degree, so the lowest index wins, as it does for
        # "1" over "2".
        graph = Graph(tuple("abcd123456"), tuple(itertools.combinations("abcd", 2)) + (
            ("1", "2"), ("3", "4"), ("3", "5"), ("3", "6")))
        assert graph.degree_order == (0, 1, 2, 3, 6, 4, 5, 7, 8, 9)  # degree descending, then index
        assert graph.clique == (0, 1, 2, 3)
        expected = [6, 7, 8, 9, 4, 5]
        assert reference_dsatur(graph, 4)[0] == expected
        nodes = record_nodes(monkeypatch)
        assert search(graph, 4).is_sat
        assert chosen(graph, nodes) == expected

    @settings(max_examples=200, deadline=None)
    @given(er_graphs(max_n=9), st.integers(1, 5))
    def test_matches_a_reference_dsatur(self, graph, k):
        # every node's choice, after backtracks too, then the answer and its coloring
        expected, coloring = reference_dsatur(graph, k)
        with pytest.MonkeyPatch.context() as patch:
            nodes = record_nodes(patch)
            outcome = search(graph, k)
        assert chosen(graph, nodes) == expected and outcome.nodes == len(nodes)
        assert outcome.status == ("unsat" if coloring is None else "sat")
        assert outcome.assignment == coloring

    def test_undo_restores_saturation(self, monkeypatch):
        # Uncoloring takes each neighbor's count back down, so every node,
        # after a backtrack too, sees the highest-saturation vertices a scan
        # from scratch finds.  A path that never backs up has at most one
        # node per vertex outside the clique, so more nodes than those
        # means the search uncolored some.
        nodes = record_nodes(monkeypatch)
        for graph, k in [
            (myciel(3), 3),  # the Grötzsch graph, chi 4: Unsat after backtracks
            (gen_erdos_renyi(30, 0.5, 1), 7),  # chi 7: Sat after backtracks
            # chi 9: Unsat after backtracks at saturation 8, a carry into the fourth bit plane
            (gen_erdos_renyi(18, 0.8, 4), 8),
        ]:
            expected: list[frozenset[int]] = []
            reference_dsatur(graph, k, expected)
            nodes.clear()
            search(graph, k)
            assert tops(graph, nodes) == expected
            assert len(nodes) > len(graph.vertices) - len(graph.clique)

    @settings(max_examples=200, deadline=None)
    @given(er_graphs(max_n=9), st.integers(1, 5))
    def test_matches_a_scan_from_scratch_under_lifo_steps(self, graph, k):
        # the search colors and uncolors LIFO; at every node select_vertex
        # gets exactly the uncolored vertices of the highest saturation
        expected: list[frozenset[int]] = []
        reference_dsatur(graph, k, expected)
        with pytest.MonkeyPatch.context() as patch:
            nodes = record_nodes(patch)
            search(graph, k)
        assert tops(graph, nodes) == expected


class TestPeeling:
    @settings(max_examples=200, deadline=None)
    @given(er_graphs(max_n=9), st.integers(1, 5))
    def test_searches_exactly_when_the_k_core_is_nonempty(self, graph, k):
        # an empty k-core answers Sat with no search; any other input is
        # the reference's clique-first DSATUR, every node, Unsat answers
        # included, and it has no node only when its clique exceeds k
        with pytest.MonkeyPatch.context() as patch:
            nodes = record_nodes(patch)
            outcome = solve_decision(graph, k)
        choices = chosen(graph, nodes)
        assert outcome.nodes == len(choices)
        if not k_core(graph, k):
            assert outcome.is_sat and not choices and verdict(graph, outcome.assignment, k).valid
            assert brute_force_colorable(graph, k)
        else:
            expected, coloring = reference_dsatur(graph, k)
            assert choices == expected
            assert (choices == []) == (len(graph.clique) > k)
            assert outcome.status == ("unsat" if coloring is None else "sat")
            assert outcome.assignment == coloring

    @settings(max_examples=300, deadline=None)
    @given(er_graphs(max_n=12), st.integers(1, 6))
    def test_coloring_is_first_fit_in_reverse_removal_order(self, graph, k):
        assert dsatur._peel(graph, k) == reference_peel(graph, k)

    def test_sparse_graph_is_answered_without_a_search(self):
        # the graph of test_sparse_search_path_never_backtracks: degeneracy
        # 6 at k = 8, so it peels to nothing
        text = serialize_dimacs(gen_erdos_renyi(300, 0.03, 3553260803050964941), 8)
        graph, k, _ = parse_dimacs_instance(text)
        assert k_core(graph, 6) and not k_core(graph, 7)
        outcome = solve_decision(graph, k)
        assert outcome.is_sat and outcome.nodes == 0
        assert verdict(graph, outcome.assignment, k).valid
        assert coloring_digest(outcome.assignment) == "aedba54855e8"

    def test_a_huge_k_allocates_nothing_sized_by_k(self, petersen):
        # k comes from the command line or an instance's `c k` line, and a k
        # far above the degree is exactly the input that peels to nothing
        tracemalloc.start()
        try:
            assert solve_decision(petersen, 10**5).is_sat
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        outcome = solve_decision(petersen, 10**12)
        assert outcome.is_sat and outcome.nodes == 0
        assert verdict(petersen, outcome.assignment, 10**12).valid
        assert max(outcome.assignment.values()) <= 4  # the maximum degree + 1

    def test_a_passed_deadline_is_a_timeout(self, fig2_graph):
        # fig2 at k = 3 peels to nothing, but the coloring stands only before the deadline
        assert dsatur._solve(fig2_graph, 3, time.monotonic() - 1) == dsatur.SolveOutcome("timeout", nodes=0)

    @pytest.mark.parametrize("graph, chi, searched", [
        # a path with branches: a tree, 2-colorable, whose 2-core is empty
        (Graph(tuple("abcdefg"), (("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("e", "f"), ("c", "g"))), 2,
         {}),
        # a 7-cycle with a pendant vertex on each cycle vertex: the 2-core is
        # the odd cycle, so k = 2 is a search proving Unsat, from an edge
        # colored first; the 3-core is empty
        (Graph(tuple("1234567abcdefg"), tuple(cycle_graph(7).edges) + tuple(zip("1234567", "abcdefg"))), 3,
         {2: 5}),
    ], ids=["tree", "pendant-cycle"])
    def test_sweep_ends_on_a_peeled_k(self, graph, chi, searched, monkeypatch):
        solves = record_solves(monkeypatch)
        assert chromatic_number(graph) == chi == brute_force_chromatic(graph)
        assert {k: outcome.nodes for k, outcome in solves} == {**searched, chi: 0}
        for k, count in searched.items():
            assert count == len(reference_dsatur(graph, k)[0])


class TestSearchBound:
    @pytest.fixture
    def graph(self) -> Graph:
        """A triangle plus isolated vertices past the bound: its 2-core is the triangle, its 3-core is empty."""
        return Graph(tuple(map(str, range(dsatur.MAX_SEARCH_VERTICES + 1))), (("0", "1"), ("1", "2"), ("2", "0")))

    def test_a_k_core_is_a_failure_without_the_encoding(self, graph):
        tracemalloc.start()
        try:
            outcome = solve_decision(graph, 2)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert outcome == dsatur.SolveOutcome("failure", reason="10001 vertices, more than the 10000 S2 may search")
        # this graph's encoding would fit the bound above, so look for it on the graph
        assert "degree_order" not in vars(graph) and "neighbour_masks" not in vars(graph)

    def test_a_k_core_at_the_bound_is_searched(self):
        # the fixture less one vertex: exactly MAX_SEARCH_VERTICES, so S2 builds the encoding and answers from
        # the triangle, a clique of more than 2, with no node
        graph = Graph(tuple(map(str, range(dsatur.MAX_SEARCH_VERTICES))), (("0", "1"), ("1", "2"), ("2", "0")))
        assert solve_decision(graph, 2) == dsatur.SolveOutcome("unsat", nodes=0)
        assert "neighbour_masks" in vars(graph)

    def test_an_empty_k_core_still_peels(self, graph):
        outcome = solve_decision(graph, 3)
        assert outcome.is_sat and outcome.nodes == 0
        assert verdict(graph, outcome.assignment, 3).valid

    def test_the_encoding_keeps_one_mask_per_vertex(self):
        # a random graph of 2,000 vertices and 6,000 edges: its masks take
        # about 0.46 MB, and a table of each vertex's bit kept beside them
        # took 0.34 MB more
        rng = random.Random(0)
        names = tuple(map(str, range(2000)))
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < 6000:
            pairs.add(tuple(sorted(rng.sample(range(2000), 2))))
        graph = Graph(names, tuple((names[u], names[v]) for u, v in sorted(pairs)))
        graph.degree_order
        tracemalloc.start()
        try:
            masks = graph.neighbour_masks
            assert tracemalloc.get_traced_memory()[0] < 600_000
        finally:
            tracemalloc.stop()
        place = {v: p for p, v in enumerate(graph.degree_order)}
        assert masks == tuple(sum(1 << place[u] for u in graph.neighbours[v]) for v in graph.degree_order)

    def test_chromatic_number_raises_before_the_clique(self, graph):
        # the sweep starts at 2 by the triangle's edges, where the 2-core needs a search
        with pytest.raises(ValueError, match="^10001 vertices, more than the 10000 S2 may search$"):
            chromatic_number(graph)
        assert not {"degree_order", "neighbour_masks", "clique"} & vars(graph).keys()

    @pytest.mark.parametrize("edges, chi", [
        ((), 1),
        (tuple((str(v), str(v + 1)) for v in range(dsatur.MAX_SEARCH_VERTICES)), 2),
    ], ids=["edgeless", "path"])
    def test_a_peeled_sweep_answers_without_the_encoding(self, edges, chi, monkeypatch):
        graph = Graph(tuple(map(str, range(dsatur.MAX_SEARCH_VERTICES + 1))), edges)
        solves = record_solves(monkeypatch)
        assert chromatic_number(graph) == chi
        assert [(k, outcome.status, outcome.nodes) for k, outcome in solves] == [(chi, "sat", 0)]
        assert not {"degree_order", "neighbour_masks", "clique"} & vars(graph).keys()


def clique_size(graph: Graph) -> int:
    """Size of the checked greedy clique chromatic_number starts its sweep at."""
    return len(graph.clique)


# gen_erdos_renyi(n, p, seed), or a queen graph by its DIMACS name: chi,
# chromatic_number's nodes (None: not run), solve_decision's nodes at chi - 1
# (Unsat) and at chi (Sat), and a digest of the Sat coloring.  Any change to
# the clique, the vertex choice or the color order moves them.  The sweep
# searches only the k from its checked clique's size to chi; below it
# solve_decision answers Unsat from the clique with no node, so the sweep's
# nodes are solve_decision's summed over 1..chi.  queen7_7's clique of 7 is
# such an Unsat at 6.
SEARCH_PATHS = {
    (30, 0.5, 0): (7, 40, 16, 24, "4ff51856ef58"),
    (30, 0.5, 1): (7, 231, 37, 190, "e694ed50f3d0"),
    (40, 0.5, 2): (8, 1750, 70, 1680, "ba2e9a1134c0"),
    (60, 0.5, 1): (10, None, 18047, 14823, "acb5487a8126"),
    "queen6_6": (7, 969, 186, 783, "e49501ca66de"),
    "queen7_7": (7, 347, 0, 347, "da8e9503c085"),
}
QUEENS = {"queen6_6": 6, "queen7_7": 7}


@pytest.mark.parametrize("args", SEARCH_PATHS, ids=str)
def test_search_path_is_plain_dsatur(args, monkeypatch):
    chi, sweep, unsat, sat, digest = SEARCH_PATHS[args]
    graph = queen(QUEENS[args]) if args in QUEENS else gen_erdos_renyi(*args)
    if sweep is not None:
        solves = record_solves(monkeypatch)
        assert chromatic_number(graph) == chi and sum(outcome.nodes for _, outcome in solves) == sweep
        per_k = {k: solve_decision(graph, k) for k in range(1, chi + 1)}
        below = [per_k[k] for k in range(1, clique_size(graph))]
        assert below == [dsatur.SolveOutcome("unsat")] * len(below)
        assert sweep == sum(outcome.nodes for outcome in per_k.values())
    assert solve_decision(graph, chi - 1) == dsatur.SolveOutcome("unsat", nodes=unsat)
    outcome = solve_decision(graph, chi)
    assert outcome.is_sat and outcome.nodes == sat
    assert coloring_digest(outcome.assignment) == digest


def test_sparse_search_path_never_backtracks(monkeypatch):
    # The first graph of perfbench's s1-memory suite, a G(300, 0.03), at
    # k = its first-fit colors + 1, parsed from DIMACS as the decide path
    # loads it: one node per vertex outside its clique of 3, none revisited.
    text = serialize_dimacs(gen_erdos_renyi(300, 0.03, 3553260803050964941), 8)
    graph, k, _ = parse_dimacs_instance(text)
    nodes = record_nodes(monkeypatch)
    outcome = search(graph, k)
    clique = {graph.degree_order[place] for place in graph.clique}
    assert outcome.is_sat and len(nodes) == 297 and len(clique) == 3
    assert set(chosen(graph, nodes)) == set(range(300)) - clique
    assert coloring_digest(outcome.assignment) == "6d8e49f83661"


# Vertex "1" of a 5-cycle, place 0 as every degree ties, claims every other
# place as a neighbor in the graph's cached masks, so the greedy clique grown
# from them is no clique.
NON_CLIQUE = """
from sofai_gc import Graph, chromatic_number

graph = Graph(tuple("12345"), (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")))
nmask = graph.neighbour_masks
vars(graph)["neighbour_masks"] = (0b11110,) + nmask[1:]
chromatic_number(graph)
"""


class TestClique:
    def test_a_non_clique_fails_the_check(self):
        with pytest.raises(RuntimeError, match="not a clique"):
            exec(NON_CLIQUE, {})

    def test_the_check_holds_under_python_O(self):
        # the check must hold under `python -O`, so it cannot be an assert
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", NON_CLIQUE], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 1
        assert "RuntimeError: greedy clique" in proc.stderr and "not a clique" in proc.stderr

    @pytest.mark.parametrize("graph", [complete_graph(n) for n in range(1, 7)] + [
        gen_erdos_renyi(30, 0.5, 2),  # greedy clique 7 = chi
        gen_erdos_renyi(30, 0.5, 7),  # greedy clique 8 = chi
    ], ids=["K1", "K2", "K3", "K4", "K5", "K6", "er30-seed2", "er30-seed7"])
    def test_a_clique_of_size_chi_leaves_one_search(self, graph, monkeypatch):
        # one k is tried; on K_n it is answered by peeling, not a search
        solves = record_solves(monkeypatch)
        chi = chromatic_number(graph)
        assert [k for k, _ in solves] == [chi] == [clique_size(graph)]

    @settings(max_examples=150, deadline=None)
    @given(er_graphs(max_n=7))
    def test_clique_bounds_chi_from_below(self, graph):
        assert clique_size(graph) <= chromatic_number(graph) == brute_force_chromatic(graph)

    @pytest.mark.parametrize("graph, k", [
        (complete_graph(5), 4),  # the whole graph is its 4-core
        (queen(7), 6),  # a row of the board: 7 queens that attack each other
    ], ids=["K5", "queen7_7"])
    def test_a_clique_above_k_is_unsat_with_no_node_before_the_deadline(self, graph, k):
        assert k_core(graph, k) and clique_size(graph) == k + 1
        assert dsatur._solve(graph, k, time.monotonic() + 60) == dsatur.SolveOutcome("unsat", nodes=0)
        assert dsatur._solve(graph, k, time.monotonic() - 1) == dsatur.SolveOutcome("timeout", nodes=0)

    @pytest.mark.parametrize("args", [(30, 0.5, 1), (40, 0.5, 2), (60, 0.5, 1)], ids=str)
    def test_the_clique_keeps_colors_one_to_its_size(self, args):
        # each k from the clique's size up: a Sat search's coloring gives the
        # clique's vertices 1, 2, ... in the order the clique was grown
        graph = gen_erdos_renyi(*args)
        members = [graph.vertices[graph.degree_order[place]] for place in graph.clique]
        for k in range(len(members), chromatic_number(graph) + 2):
            outcome = search(graph, k)
            if outcome.is_sat:
                assert [outcome.assignment[v] for v in members] == list(range(1, len(members) + 1))


def test_chromatic_number_agrees_with_an_independent_solver():
    # perfbench's pinning solver shares no code with the package; a wrong
    # Unsat is the one answer no certificate check catches
    sys.path.insert(0, str(PERFBENCH))
    try:
        from pin_er_suite import k_colorable
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = random.Random(2)
    for _ in range(100):
        graph = gen_erdos_renyi(rng.randint(20, 30), rng.choice([0.2, 0.35, 0.5, 0.65]), rng.getrandbits(32))
        chi = chromatic_number(graph)
        assert k_colorable(graph.vertices, graph.edges, chi)
        assert chi == 1 or not k_colorable(graph.vertices, graph.edges, chi - 1)
