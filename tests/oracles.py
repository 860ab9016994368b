"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: plain exhaustive search over
assignments with no ordering heuristics, no saturation bookkeeping, and
no symmetry breaking, so agreement with the production solver is
meaningful.  The one exception, reference_dsatur, follows S2's rules (a
greedy clique colored first, then DSATUR) but grows the clique and
recomputes every choice by a scan from scratch, with no saturation
bookkeeping and no bitmasks, so it can check the solver's search path.
The first-fit references (reference_mock_reply, reference_peel) keep the
label-keyed, set-based loops the package used before its graphs held
neighbour lists over positions and its first fits read taken-colour
bitmasks; they read neighbours_in_edge_order, built from the edges here,
not any view the Graph builds.  The other searches read label_view, the
Graph's own neighbour lists by label.  reference_retrieval ranks every
memory record in reach but those of the query graph itself, as retrieval
did before it returned one record.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from sofai_gc import Graph


def label_view(graph: Graph) -> dict[str, tuple[str, ...]]:
    """Each vertex's neighbours by label, in edge order, read from graph.neighbours."""
    vertices = graph.vertices
    return {v: tuple(map(vertices.__getitem__, ns)) for v, ns in zip(vertices, graph.neighbours)}


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
    adjacency = label_view(graph)
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
    adjacency = label_view(graph)
    core = set(graph.vertices)
    while True:
        low = {v for v in core if len(core.intersection(adjacency[v])) < k}
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
    """Recursive DSATUR from a colored clique: its vertex choices, one per node, and a k-coloring or None.

    The clique is grown by a scan of its own: while candidates remain, the
    one with the most neighbors among them joins (ties to the highest
    degree, then the lowest index: the lowest place), and only its
    neighbors stay candidates.  A clique of more than k vertices answers
    None with no node; else its vertices take colors 1..size in the order
    they joined, and the search starts above them.  At every node the
    next vertex comes from a scan from scratch over the uncolored
    vertices: highest saturation (distinct colors among colored
    neighbors), then highest degree, then lowest index.  The choice is
    recorded as that index, after a backtrack too.  Colors are tried in
    order 1..min(k, D + 1, used + 1), D the maximum degree and used the
    largest color in use.  Given a list as tops, it is appended, at every
    node, the uncolored vertices of the highest saturation present.
    """
    vertices, adjacency = graph.vertices, label_view(graph)
    colors = min(k, max(map(len, adjacency.values()), default=0) + 1)
    coloring: dict[str, int] = {}
    choices: list[int] = []

    def key(i: int) -> tuple[int, int, int]:
        v = vertices[i]
        return len({coloring[u] for u in adjacency[v] if u in coloring}), len(adjacency[v]), -i

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

    near = {v: set(ns) for v, ns in adjacency.items()}
    clique: list[str] = []
    candidates = set(vertices)
    while candidates:
        v = max(candidates, key=lambda u: (len(candidates & near[u]), len(near[u]), -vertices.index(u)))
        clique.append(v)
        candidates &= near[v]
    if len(clique) > k:
        return choices, None
    coloring.update(zip(clique, range(1, len(clique) + 1)))
    return choices, (coloring if extend(len(clique)) else None)


def neighbours_in_edge_order(graph: Graph) -> dict[str, tuple[str, ...]]:
    """Each vertex's neighbours by label, in edge order, walked from graph.edges."""
    neighbours: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return {v: tuple(ns) for v, ns in neighbours.items()}


def reference_mock_reply(graph: Graph, k: int, noise: float, unsat_rate: float, rng: random.Random):
    """The mock proposer's reply, drawing from rng as it does: None for NOT SOLVABLE, else its coloring.

    Greedy first fit in vertex order over a set of the colored neighbors'
    colors; with probability noise a vertex takes a uniform color in 1..k
    instead.
    """
    if rng.random() < unsat_rate:
        return None
    adjacency = neighbours_in_edge_order(graph)
    assignment: dict[str, int] = {}
    for v in graph.vertices:
        used = {assignment[u] for u in adjacency[v] if u in assignment}
        color = 1
        while color in used:
            color += 1
        if noise and rng.random() < noise:
            color = rng.randint(1, k)
        assignment[v] = color
    return assignment


def reference_peel(graph: Graph, k: int) -> dict[str, int] | None:
    """Peeling's k-coloring, or None if the k-core is nonempty: first fit in reverse removal order.

    Vertices with fewer than k remaining neighbors are removed from a
    stack seeded in vertex order, each pushed once, when it falls below
    k; each is then colored, last removed first, with the lowest color
    missing from a set of its colored neighbors' colors.
    """
    adjacency = neighbours_in_edge_order(graph)
    degree = {v: len(ns) for v, ns in adjacency.items()}
    stack = [v for v in graph.vertices if degree[v] < k]
    removed = []
    while stack:
        v = stack.pop()
        removed.append(v)
        for u in adjacency[v]:
            degree[u] -= 1
            if degree[u] == k - 1:
                stack.append(u)
    if len(removed) < len(graph.vertices):
        return None
    coloring: dict[str, int] = {}
    for v in reversed(removed):
        taken = {coloring[u] for u in adjacency[v] if u in coloring}
        color = 1
        while color in taken:
            color += 1
        coloring[v] = color
    return {v: coloring[v] for v in graph.vertices}


def reference_retrieval(records, graph: Graph, k: int) -> list:
    """Every record within attribute distance 0.1 of (graph, k), ranked by a full sort, none of graph itself.

    A record whose graph has graph's vertex tuple and edge tuple is left
    out, whatever its k.  A record's distance is the mean over n, e,
    density and k of |query - record| divided by that attribute's scale:
    the max n, max e and max k over all the records, the left-out ones
    too, each at least 1, and 1 for density.  Ties on distance go to the
    record stored first.
    """
    if not records:
        return []
    n_scale = max(1.0, max(len(r.graph.vertices) for r in records))
    e_scale = max(1.0, max(len(r.graph.edges) for r in records))
    k_scale = max(1.0, max(r.k for r in records))
    ranked = []
    for position, rec in enumerate(records):
        if (rec.graph.vertices, rec.graph.edges) == (graph.vertices, graph.edges):
            continue
        distance = (
            abs(len(graph.vertices) - len(rec.graph.vertices)) / n_scale
            + abs(len(graph.edges) - len(rec.graph.edges)) / e_scale
            + abs(graph.density - rec.graph.density)
            + abs(k - rec.k) / k_scale
        ) / 4
        if distance < 0.1:
            ranked.append((distance, position, rec))
    ranked.sort(key=lambda entry: entry[:2])
    return [rec for *_, rec in ranked]
