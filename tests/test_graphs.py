import itertools
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofai_gc import (
    DimacsError,
    Graph,
    gen_erdos_renyi,
    parse_dimacs,
    parse_dimacs_instance,
    serialize_dimacs,
    verdict,
)
from sofai_gc.graphs import _LABELS, MAX_FILLED_VERTICES

from oracles import (
    complete_by_vertex_scan,
    conflicts_by_edge_enumeration,
    label_view,
    neighbours_in_edge_order,
    score_by_edge_enumeration,
    valid_by_edge_enumeration,
)
from strategies import er_graphs, graphs_with_assignments


class _CountingEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _by_position(graph):
    """The label view walked from the edges, mapped through graph.index."""
    view = neighbours_in_edge_order(graph)
    return tuple(tuple(graph.index[u] for u in view[v]) for v in graph.vertices)


# Letter labels listed by a `c vertices` line, edges written high to low and
# out of order, so positions, edge order and orientation all differ.
OUT_OF_ORDER = "c vertices A B C D E F\np edge 6 6\ne F C\ne E A\ne D B\ne F A\ne C A\ne B A"


class TestGraphConstruction:
    def test_adjacency_is_symmetric(self, fig2_graph):
        adjacency = label_view(fig2_graph)
        assert adjacency["A"] == ("B", "C")
        assert adjacency["E"] == ("D",)
        for u, v in fig2_graph.edges:
            assert u in adjacency[v]
            assert v in adjacency[u]

    def test_adjacency_does_not_depend_on_the_hash_seed(self):
        # String hashes, and so set iteration order, change with PYTHONHASHSEED.
        script = (
            "from sofai_gc import gen_erdos_renyi, parse_dimacs, serialize_dimacs\n"
            "g = parse_dimacs(serialize_dimacs(gen_erdos_renyi(40, 0.3, 7)))\n"
            "print([tuple(g.vertices[u] for u in ns) for ns in g.neighbours])"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                check=True, capture_output=True, text=True,
            ).stdout
            for seed in ("1", "2")
        ]
        graph = parse_dimacs(serialize_dimacs(gen_erdos_renyi(40, 0.3, 7)))
        assert outputs[0] == outputs[1] == f"{[neighbours_in_edge_order(graph)[v] for v in graph.vertices]}\n"

    @pytest.mark.parametrize("graph", [
        gen_erdos_renyi(40, 0.3, 7),
        parse_dimacs(serialize_dimacs(gen_erdos_renyi(40, 0.3, 7))),
        parse_dimacs(OUT_OF_ORDER),
    ], ids=["generated", "parsed", "out-of-order"])
    def test_neighbours_are_the_label_view_by_position(self, graph):
        assert graph.index == {v: i for i, v in enumerate(graph.vertices)}
        assert graph.neighbours == _by_position(graph)
        assert label_view(graph) == neighbours_in_edge_order(graph)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(("A", "B"), (("A", "A"),))

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(("A", "B"), (("A", "B"), ("B", "A")))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph(("A",), (("A", "B"),))

    def test_built_in_one_pass_over_the_edges(self, fig2_graph):
        edges = _CountingEdges(fig2_graph.edges)
        graph = Graph(fig2_graph.vertices, edges)
        assert edges.walks == 1
        assert label_view(graph) == label_view(fig2_graph)

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            Graph(("A", "A"), ())

    @pytest.mark.parametrize("label", ["a b", "", "a\tb", " a", "v(1", "w)", "v((1))"])
    def test_rejects_a_label_that_is_not_one_dimacs_token(self, label):
        # its DIMACS lines would not parse back, or no "(vertex color)" reply could name it,
        # so no dataset, memory file or proposer ever meets it
        for vertices in [("A", label), ("A", label, "b c", "z)")]:  # the first such label is named
            with pytest.raises(ValueError, match=re.escape(f"vertex label {label!r} is not one DIMACS token")):
                Graph(vertices, (("A", label),))
        assert Graph(("A", "v(1)"), (("A", "v(1)"),)).vertices == ("A", "v(1)")  # balanced parentheses build

    def test_density(self, fig2_graph, triangle):
        assert triangle.density == 1.0
        assert fig2_graph.density == 0.5
        assert Graph(("A",), ()).density == 0.0
        assert Graph((), ()).density == 0.0


class TestParseDimacs:
    @pytest.mark.parametrize(
        "text",
        [
            "c vertices v3 v2 v1 v4\np edge 4 2\ne v1 v2\ne v2 v3",
            "p edge 4 2\ne v1 v2\ne v2 v3\nc vertices v3 v2 v1 v4",  # the list after the edges
            "p edge 3 3\ne v1 v2\ne v2 v3\ne v3 v1",  # first appearance
            "p edge 40 3\ne 12 23\ne 23 34\ne 34 12",  # filled in as 1..40
        ],
        ids=["vertices-comment", "vertices-comment-last", "first-appearance", "filled-from-header"],
    )
    def test_one_string_object_per_label(self, text):
        graph = parse_dimacs(text)
        own = {id(v) for v in graph.vertices}
        assert all(id(u) in own and id(v) in own for u, v in graph.edges)
        assert all(id(u) in own for ns in label_view(graph).values() for u in ns)

    def test_parses_standard_instance(self):
        text = "c a comment\np edge 3 2\ne 1 2\ne 2 3"
        graph = parse_dimacs(text)
        assert graph.vertices == ("1", "2", "3")
        assert graph.edges == (("1", "2"), ("2", "3"))

    def test_parses_letter_vertices(self):
        graph = parse_dimacs("p edge 3 3\ne A B\ne B C\ne C A")
        assert graph.vertices == ("A", "B", "C")

    def test_structured_comments(self):
        text = "c k 3\nc label SAT\np edge 2 1\ne A B"
        graph, k, label = parse_dimacs_instance(text)
        assert (k, label) == (3, "SAT")
        assert graph.edges == (("A", "B"),)

    @pytest.mark.parametrize("label", _LABELS)
    def test_a_parsed_label_is_the_shared_constant(self, label):
        # every loaded instance then holds one of two strings, not its own token
        texts = [f"c label {label}\np edge 2 1\ne A B", f"c k 3\nc label {label} \np edge 1 0\nc vertices A"]
        labels = [parse_dimacs_instance(text)[2] for text in texts]
        assert labels == [label, label] and all(parsed is label for parsed in labels)

    def test_unstructured_comments_ignored(self):
        graph, k, label = parse_dimacs_instance("c hello world\nc k notanint\np edge 1 0\nc vertices A")
        assert graph.vertices == ("A",)
        assert k is None and label is None

    def test_vertices_comment_defines_order_and_isolates(self):
        # several `c vertices` lines, one after the edges, join in file order
        for text in ["c vertices C B A D\np edge 4 1\ne A B", "c vertices C B\np edge 4 1\ne A B\nc vertices A D"]:
            assert parse_dimacs(text).vertices == ("C", "B", "A", "D")

    def test_integer_isolates_filled_from_header(self):
        graph = parse_dimacs("p edge 4 1\ne 2 3")
        assert graph.vertices == ("1", "2", "3", "4")

    @pytest.mark.parametrize("text, nv", [
        (f"p edge {MAX_FILLED_VERTICES} 0", MAX_FILLED_VERTICES),
        (f"p edge {MAX_FILLED_VERTICES + 2} 1\ne 1 2", MAX_FILLED_VERTICES + 2),  # the edge names 2 of the nv
    ], ids=["no-edges", "one-edge"])
    def test_fill_in_up_to_the_bound_loads(self, text, nv):
        graph = parse_dimacs(text)
        assert len(graph.vertices) == nv and graph.vertices[-1] == str(nv)

    @pytest.mark.parametrize("text, implied", [
        (f"p edge {MAX_FILLED_VERTICES + 1} 0", MAX_FILLED_VERTICES + 1),
        (f"p edge {MAX_FILLED_VERTICES + 3} 1\ne 1 2", MAX_FILLED_VERTICES + 1),
        ("p edge 3000000 0", 3_000_000),
    ], ids=["no-edges", "one-edge", "millions"])
    def test_fill_in_above_the_bound_is_refused(self, text, implied):
        # a problem line alone would cost time and memory in proportion to nv
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == (
            f"problem line implies {implied} isolated vertices, more than the "
            f"{MAX_FILLED_VERTICES} it may fill in; list them in a 'c vertices' line"
        )

    def test_listed_vertices_are_not_bounded(self):
        # a 'c vertices' line pays for its labels in input bytes, and parsing
        # is linear in them whether they sit on one line or one to a line
        labels = [f"v{i}" for i in range(MAX_FILLED_VERTICES + 1)]
        tail = f"\np edge {len(labels)} 1\ne v0 v1"
        for listed in [f"c vertices {' '.join(labels)}", "\n".join(f"c vertices {v}" for v in labels)]:
            start = time.monotonic()
            graph = parse_dimacs(listed + tail)
            assert time.monotonic() - start < 3.0
            assert graph.vertices == tuple(labels)

    def test_named_isolates_without_comment_rejected(self):
        with pytest.raises(DimacsError, match="declares 3 vertices"):
            parse_dimacs("p edge 3 1\ne A B")

    def test_noncanonical_integer_tokens_not_filled(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 1\ne 01 2")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="missing problem line"):
            parse_dimacs("c nothing here")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="duplicate problem line"):
            parse_dimacs("p edge 1 0\np edge 1 0")

    def test_edge_before_problem_line(self):
        with pytest.raises(DimacsError, match="before problem line"):
            parse_dimacs("e A B\np edge 2 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 2 edges, found 1"):
            parse_dimacs("p edge 2 2\ne A B")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError, match="self-loop"):
            parse_dimacs("p edge 1 1\ne A A")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DimacsError, match="duplicate edge"):
            parse_dimacs("p edge 2 2\ne A B\ne B A")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 2 2\ne A B\ne A B", "line 3: duplicate edge ('A', 'B')"),
            ("p edge 2 2\ne A B\ne B A", "line 3: duplicate edge ('B', 'A')"),
            ("p edge 2 2\ne A B\ne B B", "line 3: self-loop at vertex 'B'"),
            ("c vertices A B\np edge 2 1\ne A Z", "line 3: edge ('A', 'Z') references unknown vertex"),
            # blank and comment lines are counted too
            (
                "c vertices A B C\n\np edge 3 3\ne A B\nc note\ne C A\ne A B",
                "line 7: duplicate edge ('A', 'B')",
            ),
            # the first bad edge is named, not a later self-loop
            ("p edge 3 3\ne A B\ne B A\ne C C", "line 3: duplicate edge ('B', 'A')"),
        ],
    )
    def test_bad_edge_names_its_line(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c k " + "1" * 5000 + "\np edge 2 1\ne A B", "line 1: 'c k' holds more digits than int() reads"),
            ("p edge 3 1\ne " + "1" * 5000 + " 2", "problem line declares 3 vertices, edges mention 2"),
        ],
        ids=["long-k", "long-endpoint"],
    )
    def test_a_numeral_int_cannot_read_is_a_dimacs_error(self, text, message):
        # int() refuses more digits than sys.get_int_max_str_digits(), 4300 by default
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge three 0", "line 1: non-integer counts in problem line"),
            ("c k 2\np edge 2 -1", "line 2: negative counts in problem line"),
            ("c vertices A B\np edge 3 1\ne A B", "problem line declares 3 vertices, 'c vertices' lists 2"),
        ],
        ids=["non-integer", "negative", "vertices-comment-count"],
    )
    def test_bad_counts_are_named(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    def test_bad_arity(self):
        with pytest.raises(DimacsError, match="expected 'e <u> <v>'"):
            parse_dimacs("p edge 2 1\ne A B C")
        with pytest.raises(DimacsError, match="expected 'p edge"):
            parse_dimacs("p edge 2")

    def test_unrecognized_line(self):
        with pytest.raises(DimacsError, match="unrecognized"):
            parse_dimacs("p edge 1 0\nx what")


class TestSerializeDimacs:
    def test_empty_graph_with_k(self):
        assert serialize_dimacs(Graph((), ()), k=1) == "c k 1\np edge 0 0"

    def test_round_trip_with_metadata(self, fig2_graph):
        text = serialize_dimacs(fig2_graph, k=2, label="UNSAT")
        graph, k, label = parse_dimacs_instance(text)
        assert graph == fig2_graph
        assert (k, label) == (2, "UNSAT")

    def test_no_vertices_comment_when_edges_cover_order(self, fig2_graph):
        assert "c vertices" not in serialize_dimacs(fig2_graph)

    def test_vertices_comment_for_isolates(self):
        graph = Graph(("A", "B", "C"), (("A", "B"),))
        text = serialize_dimacs(graph)
        assert "c vertices A B C" in text
        assert parse_dimacs(text) == graph

    def test_rejects_bad_metadata(self, triangle):
        with pytest.raises(ValueError):
            serialize_dimacs(triangle, k=0)
        with pytest.raises(ValueError):
            serialize_dimacs(triangle, label="MAYBE")

    @settings(max_examples=150)
    @given(er_graphs())
    def test_round_trip_property(self, graph):
        assert parse_dimacs(serialize_dimacs(graph)) == graph

    @settings(max_examples=150)
    @given(er_graphs(), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_round_trip_with_permuted_vertices_and_isolates(self, graph, isolates, rng):
        vertices = list(graph.vertices) + [f"iso{i}" for i in range(isolates)]
        rng.shuffle(vertices)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
        rng.shuffle(edges)
        shuffled = Graph(tuple(vertices), tuple(edges))
        assert parse_dimacs(serialize_dimacs(shuffled)) == shuffled
        assert parse_dimacs_instance(serialize_dimacs(shuffled, k=2, label="SAT")) == (shuffled, 2, "SAT")

    @settings(max_examples=200)
    @given(er_graphs(), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_needs_vertices_comment_matches_first_appearance(self, graph, isolates, rng):
        # the walk stops early; the reference builds the whole first-appearance order of the endpoints
        def reference(g):
            return tuple(dict.fromkeys(itertools.chain.from_iterable(g.edges))) != g.vertices

        vertices = list(graph.vertices) + [f"iso{i}" for i in range(isolates)]
        rng.shuffle(vertices)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
        rng.shuffle(edges)
        shuffled = Graph(tuple(vertices), tuple(edges))
        in_order = Graph(tuple(dict.fromkeys(itertools.chain.from_iterable(edges))), tuple(edges))
        for g in (graph, shuffled, in_order):
            for each in (g, parse_dimacs(serialize_dimacs(g))):
                assert each.needs_vertices_comment == reference(each)
        assert not in_order.needs_vertices_comment

    @settings(max_examples=150)
    @given(er_graphs(), st.randoms(use_true_random=False))
    def test_round_trip_keeps_adjacency_in_edge_order(self, graph, rng):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
        rng.shuffle(edges)
        graph = Graph(graph.vertices, tuple(edges))
        parsed = parse_dimacs(serialize_dimacs(graph))
        assert label_view(parsed) == label_view(graph) == neighbours_in_edge_order(graph)
        assert parsed.neighbours == graph.neighbours == _by_position(graph)

    def test_second_serialization_walks_no_edges(self, fig2_graph):
        edges = _CountingEdges(fig2_graph.edges[::-1])  # edge order differs from vertex order
        graph = Graph(fig2_graph.vertices, edges)
        first = serialize_dimacs(graph)
        walks = edges.walks
        assert serialize_dimacs(graph, k=3) == "c k 3\n" + first
        assert edges.walks == walks
        assert first.startswith("c vertices A B C D E\n")


class TestDetectConflicts:
    """Conflict detection is verdict(...).conflicts: the edges, as (u, v) pairs, whose endpoints share a color."""

    def test_worked_example(self, fig2_graph):
        conflicts = verdict(fig2_graph, {"A": 1, "B": 1, "C": 2, "D": 2, "E": 1}, 2).conflicts
        assert conflicts == (("A", "B"), ("C", "D"))

    def test_partial_assignment_edges_not_conflicts(self, triangle):
        v = verdict(triangle, {"A": 1, "B": 1}, 1)
        assert v.conflicts == (("A", "B"),)  # edges to C, unassigned, are not conflicts
        assert verdict(triangle, {"A": 1}, 1).conflicts == ()

    def test_unknown_vertex_rejected(self, triangle):
        with pytest.raises(ValueError, match="unknown vertex"):
            verdict(triangle, {"Z": 1}, 1)

    def test_bad_color_rejected(self, triangle):
        with pytest.raises(ValueError, match="integer >= 1"):
            verdict(triangle, {"A": 0}, 1)


class TestVerdict:
    def test_worked_example_score(self, fig2_graph):
        v = verdict(fig2_graph, {"A": 1, "B": 1, "C": 2, "D": 2, "E": 1}, 2)
        assert v.score == Fraction(3, 5)
        assert not v.valid
        assert v.complete
        assert v.colors_used == 2

    def test_valid_coloring(self, fig2_graph):
        v = verdict(fig2_graph, {"A": 1, "B": 2, "C": 3, "D": 1, "E": 2}, 3)
        assert v.valid and v.score == 1 and v.conflicts == ()

    def test_over_budget_blocks_validity(self, triangle):
        v = verdict(triangle, {"A": 1, "B": 2, "C": 3}, 2)
        assert v.score == 1 and v.complete and v.colors_used == 3
        assert not v.valid

    def test_incomplete_blocks_validity(self, triangle):
        v = verdict(triangle, {"A": 1, "B": 2}, 3)
        assert not v.complete and not v.valid
        assert v.score == Fraction(1, 3)  # only (A,B) satisfied

    def test_edgeless_graph_scores_one(self):
        graph = Graph(("A", "B"), ())
        assert verdict(graph, {}, 1).score == Fraction(1)
        assert not verdict(graph, {}, 1).valid  # incomplete
        assert verdict(graph, {"A": 1, "B": 1}, 1).valid

    def test_empty_graph_vacuously_valid(self):
        assert verdict(Graph((), ()), {}, 1).valid

    def test_k_validation(self, triangle):
        with pytest.raises(ValueError, match="k must be"):
            verdict(triangle, {}, 0)

    def test_bool_color_refused(self, triangle):
        # True == 1, but a memory line would hold it as true, which no store can load back
        with pytest.raises(ValueError, match="color for vertex 'A' must be an integer >= 1, got True"):
            verdict(triangle, {"A": True, "B": 2, "C": 3}, 3)

    @settings(max_examples=200)
    @given(graphs_with_assignments(), st.integers(1, 5))
    def test_score_matches_edge_enumeration(self, graph_and_assignment, k):
        graph, assignment = graph_and_assignment
        v = verdict(graph, assignment, k)
        assert v.score == score_by_edge_enumeration(graph, assignment)
        assert [(u, w, assignment[u]) for u, w in v.conflicts] == conflicts_by_edge_enumeration(
            graph, assignment
        )
        assert v.complete == complete_by_vertex_scan(graph, assignment)
        assert v.valid == valid_by_edge_enumeration(graph, assignment, k)

    @settings(max_examples=200)
    @given(graphs_with_assignments(), st.integers(1, 5))
    def test_valid_iff_proper_complete_within_budget(self, graph_and_assignment, k):
        graph, assignment = graph_and_assignment
        v = verdict(graph, assignment, k)
        proper = all(
            u in assignment and v2 in assignment and assignment[u] != assignment[v2]
            for u, v2 in graph.edges
        )
        complete = all(x in assignment for x in graph.vertices)
        budget = len(set(assignment.values())) <= k
        assert v.valid == (proper and complete and budget)
