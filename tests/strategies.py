"""Shared hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from sofai_gc import Graph


@st.composite
def er_graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Random simple graphs with integer-string vertex labels."""
    n = draw(st.integers(min_n, max_n))
    vertices = tuple(str(i) for i in range(1, n + 1))
    pairs = [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(pair for pair, keep in zip(pairs, mask) if keep)
    return Graph(vertices, edges)


@st.composite
def graphs_with_assignments(draw, max_n: int = 8, max_color: int = 5):
    """A random graph plus a random assignment over its vertices: complete half the time, else partial."""
    graph = draw(er_graphs(max_n=max_n))
    complete = draw(st.booleans())
    assignment = {}
    for v in graph.vertices:
        if complete or draw(st.booleans()):
            assignment[v] = draw(st.integers(1, max_color))
    return graph, assignment
