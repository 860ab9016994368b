"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: plain exhaustive search over
assignments with no ordering heuristics, no saturation bookkeeping, and
no symmetry breaking, so agreement with the production solver is
meaningful.  The one exception, reference_dsatur, follows DSATUR's rules
but recomputes every choice by a scan from scratch, with no saturation
bookkeeping and no bitmasks, so it can check the solver's search path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from sofai_gc import Graph


def product_scan_colorable(graph: Graph, k: int) -> bool:
    """Literal scan of all k^n assignments.  Only viable for tiny n."""
    vertices = graph.vertices
    for combo in itertools.product(range(1, k + 1), repeat=len(vertices)):
        coloring = dict(zip(vertices, combo))
        if all(coloring[u] != coloring[v] for u, v in graph.edges):
            return True
    return len(vertices) == 0


def brute_force_colorable(graph: Graph, k: int) -> bool:
    """Exhaustive static-order search: try colors 1..k at each vertex in turn.

    Prunes against already-colored neighbors but uses no heuristics, so
    it shares no code path or ordering logic with the production solver.
    """
    vertices = graph.vertices
    adjacency = graph.adjacency
    coloring: dict[str, int] = {}

    def extend(i: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        for c in range(1, k + 1):
            if any(coloring.get(u) == c for u in adjacency[v]):
                continue
            coloring[v] = c
            if extend(i + 1):
                return True
            del coloring[v]
        return False

    return extend(0)


def brute_force_chromatic(graph: Graph) -> int:
    if not graph.vertices:
        return 0
    for k in range(1, len(graph.vertices) + 1):
        if brute_force_colorable(graph, k):
            return k
    raise AssertionError("unreachable: any graph is n-colorable")


def k_core(graph: Graph, k: int) -> frozenset[str]:
    """The vertices left after repeatedly deleting every vertex with fewer than k neighbors left."""
    core = set(graph.vertices)
    while True:
        low = {v for v in core if len(core.intersection(graph.adjacency[v])) < k}
        if not low:
            return frozenset(core)
        core -= low


def score_by_edge_enumeration(graph: Graph, assignment: dict[str, int]) -> Fraction:
    """Fraction of edges with both endpoints assigned distinct colors."""
    if not graph.edges:
        return Fraction(1)
    good = 0
    for u, v in graph.edges:
        if u in assignment and v in assignment and assignment[u] != assignment[v]:
            good += 1
    return Fraction(good, len(graph.edges))


def conflicts_by_edge_enumeration(graph: Graph, assignment: dict[str, int]) -> list[tuple[str, str, int]]:
    out = []
    for u, v in graph.edges:
        if u in assignment and v in assignment and assignment[u] == assignment[v]:
            out.append((u, v, assignment[u]))
    return out


def complete_by_vertex_scan(graph: Graph, assignment: dict[str, int]) -> bool:
    """Every vertex of the graph has a color."""
    return all(v in assignment for v in graph.vertices)


def valid_by_edge_enumeration(graph: Graph, assignment: dict[str, int], k: int) -> bool:
    """A complete coloring with no edge inside a color and at most k distinct colors."""
    return (
        complete_by_vertex_scan(graph, assignment)
        and all(assignment[u] != assignment[v] for u, v in graph.edges)
        and len(set(assignment.values())) <= k
    )


def reference_dsatur(
    graph: Graph, k: int, tops: list[frozenset[int]] | None = None
) -> tuple[list[int], dict[str, int] | None]:
    """Plain recursive DSATUR: its vertex choices, one per node, and a k-coloring or None.

    At every node the next vertex comes from a scan from scratch over the
    uncolored vertices: highest saturation (distinct colors among colored
    neighbors), then highest degree, then lowest index.  The choice is
    recorded as that index, after a backtrack too.  Colors are tried in
    order 1..min(k, D + 1, used + 1), D the maximum degree and used the
    largest color in use.  Given a list as tops, it is appended, at every
    node, the uncolored vertices of the highest saturation present.
    """
    vertices, adjacency = graph.vertices, graph.adjacency
    colors = min(k, max(map(graph.degree, vertices), default=0) + 1)
    coloring: dict[str, int] = {}
    choices: list[int] = []

    def key(i: int) -> tuple[int, int, int]:
        v = vertices[i]
        return len({coloring[u] for u in adjacency[v] if u in coloring}), graph.degree(v), -i

    def extend(used: int) -> bool:
        uncolored = [i for i, v in enumerate(vertices) if v not in coloring]
        if not uncolored:
            return True
        i = max(uncolored, key=key)
        if tops is not None:
            tops.append(frozenset(u for u in uncolored if key(u)[0] == key(i)[0]))
        choices.append(i)
        v = vertices[i]
        for c in range(1, min(colors, used + 1) + 1):
            if any(coloring.get(u) == c for u in adjacency[v]):
                continue
            coloring[v] = c
            if extend(max(used, c)):
                return True
            del coloring[v]
        return False

    return choices, (coloring if extend(0) else None)
