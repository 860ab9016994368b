"""Graph types, DIMACS-style parsing/serialization, and coloring verification.

Everything else in the package is built on the value types here: an
immutable labeled graph, partial color assignments, and the correctness
verdict used to accept or reject proposed colorings.

A graph is encoded once, when the `Graph` is built: each vertex gets its
position in `vertices`, and the neighbour lists hold positions, the form
every solver and the mock proposer walk.  One count over those lists
checks every edge, and only a graph that fails is walked edge by edge to
name the bad one.  S2's degree order, neighbour bitmasks and greedy
clique are built from those lists on first read and kept with the graph,
so every search of one graph shares them.  The DIMACS parser checks only
the text's own structure and leaves the edges to `Graph`, adding the line
number to the error for the edge it rejects.  A parsed graph holds one
string object per vertex label: every edge endpoint is the object in
`vertices`.  A parsed `c label` is one of the two `_LABELS` constants.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping

# Vertex label -> color index (>= 1).  May be partial.
ColorAssignment = dict[str, int]

_LABELS = ("SAT", "UNSAT")
LABEL = r"(?:[^\s()]|\([^\s()]*\))+"  # vertex labels: one DIMACS token, parentheses paired and unnested, as in v(1)
MAX_FILLED_VERTICES = 100_000  # isolated vertices a problem line alone may imply: they cost no input bytes


class DimacsError(ValueError):
    """Malformed DIMACS-style text."""


class _EdgeError(ValueError):
    """A bad edge in a Graph; `index` is its position in `edges`, so a parser can name its line."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with labeled vertices.

    Vertex order is stable (source or generator order) and edges keep
    their insertion order and endpoint orientation; equality compares
    both tuples, so a parse/serialize round trip is exact.  index[v] is
    v's position in vertices, and neighbours[i] lists the positions of
    the neighbours of vertices[i] in edge order.  S2's encoding,
    neighbour_masks, holds at place p, the vertex at degree_order[p], its
    neighbours' places as bits: no table maps a vertex to its bit.  Both,
    and clique, the places of the greedy clique S2 colors first, are built
    from neighbours on first read and then kept.  Building one rejects
    duplicate vertex labels, a label that breaks LABEL (the first
    is named), self-loops, duplicate edges in either orientation and
    edges to unknown vertices, raising ValueError.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    neighbours: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The neighbour lists are built with appends alone.  A list names a
        # neighbour twice exactly when an edge repeats, in either orientation,
        # or is a self-loop, so one count over their sets checks every edge;
        # an unknown endpoint has no index.  Only a graph that fails is walked
        # again, to name its first bad edge.
        index = dict(zip(self.vertices, range(len(self.vertices))))
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        joined = " ".join(self.vertices)  # LABEL runs on each label only if this holds a parenthesis or splits wrong
        if "(" in joined or ")" in joined or joined.split() != list(self.vertices):
            for v in self.vertices:
                if not re.fullmatch(LABEL, v):
                    raise ValueError(f"vertex label {v!r} is not one DIMACS token whose parentheses pair up unnested")
        lists: list[list[int]] = [[] for _ in self.vertices]
        try:
            for u, v in self.edges:
                i = index[u]
                j = index[v]
                lists[i].append(j)
                lists[j].append(i)
        except KeyError:
            _raise_first_bad_edge(self)
        if sum(map(len, map(set, lists))) != 2 * len(self.edges):
            _raise_first_bad_edge(self)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "neighbours", tuple(map(tuple, lists)))

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """The positions by degree, highest first, ties in position order; built on first read and then kept."""
        degree = list(map(len, self.neighbours))
        # A stable sort keeps equal degrees in position order.
        return tuple(sorted(range(len(degree)), key=degree.__getitem__, reverse=True))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """nmask by place in degree_order: bit q of nmask[p] is set iff places p and q are neighbours."""
        bit = [0] * len(self.neighbours)  # by position: 1 << place, dropped once the masks are built
        for place, v in enumerate(self.degree_order):
            bit[v] = 1 << place
        # The bits are distinct, so their sum is their union.
        return tuple([sum(map(bit.__getitem__, self.neighbours[v])) for v in self.degree_order])

    @cached_property
    def clique(self) -> tuple[int, ...]:
        """The places of a greedy clique in the order grown, checked against neighbours; built on first read, then kept.

        Each step takes the candidate place with the most neighbours among
        the remaining candidates (the lowest place on a tie), then keeps
        only its neighbours as candidates.  Among all places that is place
        0, of the highest degree, so the scan starts at the second step.
        The members, mapped back to positions, are then checked pairwise
        against neighbours, not the masks they were grown from; a failed
        check raises RuntimeError.
        """
        nmask = self.neighbour_masks
        if not nmask:
            return ()
        members = [0]
        cand = nmask[0]
        while cand:
            best, most, rest = 0, -1, cand
            while rest:
                low = rest & -rest
                rest ^= low
                p = low.bit_length() - 1
                count = (nmask[p] & cand).bit_count()
                if count > most:
                    best, most = p, count
            members.append(best)
            cand &= nmask[best]
        positions = [self.degree_order[p] for p in members]
        for i, v in enumerate(positions):
            if not set(positions[:i]).issubset(self.neighbours[v]):
                names = [self.vertices[u] for u in positions]
                raise RuntimeError(f"greedy clique {names} is not a clique of the graph")
        return tuple(members)

    @property
    def density(self) -> float:
        """Edge density 2e / (n * (n - 1)); 0.0 for graphs with < 2 vertices."""
        n = len(self.vertices)
        if n < 2:
            return 0.0
        return 2.0 * len(self.edges) / (n * (n - 1))

    @cached_property
    def edge_text(self) -> str:
        """The `e u v` line of every edge, in edge order; built once per graph."""
        return "\n".join(f"e {u} {v}" for u, v in self.edges)

    @cached_property
    def needs_vertices_comment(self) -> bool:
        """Whether DIMACS text needs a `c vertices` line to recover `vertices`; decided once per graph.

        It does when the edge lines alone would give another vertex list:
        isolated vertices, or an order other than first appearance in `edges`.
        The walk stops at the first endpoint that appears out of vertex order.
        """
        seen = 0  # the endpoints walked so far are vertices[:seen], first seen in that order
        for i in map(self.index.__getitem__, itertools.chain.from_iterable(self.edges)):
            if i >= seen:
                if i > seen:
                    return True
                seen += 1
        return seen != len(self.vertices)

    def first_fit(self, order: Iterable[int]) -> ColorAssignment:
        """Color the vertices at the positions in order, which lists each once, each with the lowest color left free.

        taken[v] has bit c set once a neighbour of v is colored c.  Bit 0 is
        set from the start, so the lowest clear bit, ~t & (t + 1), is a
        color >= 1, and it is at most deg(v) + 1: nothing is sized by a
        color bound.
        """
        neighbours = self.neighbours
        taken = [1] * len(neighbours)
        colors = [0] * len(neighbours)
        for v in order:
            t = taken[v]
            low = ~t & (t + 1)
            colors[v] = low.bit_length() - 1
            for u in neighbours[v]:
                taken[u] |= low
        return dict(zip(self.vertices, colors))


def _raise_first_bad_edge(graph: Graph) -> None:
    """Raise the _EdgeError of the first edge, in edge order, that breaks the graph."""
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for i, (u, v) in enumerate(graph.edges):
        if u == v:
            raise _EdgeError(i, f"self-loop at vertex {u!r}")
        nu = adj.get(u)
        nv = adj.get(v)
        if nu is None or nv is None:
            raise _EdgeError(i, f"edge ({u!r}, {v!r}) references unknown vertex")
        if v in nu:
            raise _EdgeError(i, f"duplicate edge ({u!r}, {v!r})")
        nu.add(v)
        nv.add(u)


@dataclass(frozen=True)
class Verdict:
    """Correctness verdict for a (graph, assignment, k) triple.

    `score` is the fraction of edges whose two endpoints are assigned and
    differently colored; an edge with an unassigned endpoint counts as
    violated, so score 1 on a nonempty graph implies a full proper
    coloring.  `conflicts` are the edges, as (u, v) pairs from `edges`,
    whose endpoints are both assigned and share a color, in edge order.
    `valid` additionally requires the color budget to hold.
    """

    score: Fraction
    conflicts: tuple[tuple[str, str], ...]
    colors_used: int
    complete: bool
    valid: bool


def _check_assignment(graph: Graph, assignment: Mapping[str, int]) -> None:
    for v, c in assignment.items():
        if v not in graph.index:
            raise ValueError(f"assignment references unknown vertex {v!r}")
        if type(c) is not int or c < 1:  # bool is an int subclass, and JSON would write it as true
            raise ValueError(f"color for vertex {v!r} must be an integer >= 1, got {c!r}")


def verdict(graph: Graph, assignment: Mapping[str, int], k: int) -> Verdict:
    """Score an assignment against the graph and the color budget k, in one pass over the edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_assignment(graph, assignment)
    m = len(graph.edges)
    # Every key names a vertex (checked above), so all are assigned iff the counts match.
    complete = len(assignment) == len(graph.vertices)
    if complete:  # the usual case: no endpoint to skip, so plain subscripts do
        conflicts = [(u, v) for u, v in graph.edges if assignment[u] == assignment[v]]
        satisfied = m - len(conflicts)
    else:
        conflicts = []
        satisfied = 0
        get = assignment.get
        for u, v in graph.edges:
            cu = get(u)
            cv = get(v)
            if cu is None or cv is None:
                continue
            if cu == cv:
                conflicts.append((u, v))
            else:
                satisfied += 1
    score = Fraction(satisfied, m) if m else Fraction(1)
    colors_used = len(set(assignment.values()))
    valid = score == 1 and complete and colors_used <= k
    return Verdict(score, tuple(conflicts), colors_used, complete, valid)


_INT_RE = re.compile(r"^[0-9]+$")


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS-style text (`c` comments, `p edge nv ne`, `e u v` lines)."""
    graph, _, _ = parse_dimacs_instance(text)
    return graph


def parse_dimacs_instance(text: str) -> tuple[Graph, int | None, str | None]:
    """Parse DIMACS-style text plus the structured `c k` / `c label` comments.

    Vertex tokens are kept verbatim; Graph refuses one that breaks LABEL.  The
    vertex list is taken from the `c vertices ...` comments when present,
    their labels joined in file order; otherwise from edge-endpoint
    first-appearance order; otherwise, for classic integer instances with
    isolated vertices, it is filled in as 1..nv, at most
    MAX_FILLED_VERTICES of them isolated.  Parsing is linear in the text.
    Every edge endpoint is the very string object in the vertex list.
    Self-loops, duplicate edges and endpoints missing from a `c vertices`
    list are rejected by `Graph`; the DimacsError names the offending edge's
    line.
    """
    counts: tuple[int, int] | None = None
    edges: list[tuple[str, str]] = []
    declared: list[str] | None = None
    # Each label maps to the first token object seen for it, in `c vertices`
    # or an edge line, so a label is one string however many lines name it.
    labels: dict[str, str] = {}
    own = labels.setdefault
    k: int | None = None
    label: str | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "c":
            if len(tokens) == 3 and tokens[1] == "k" and _INT_RE.match(tokens[2]):
                try:
                    k = int(tokens[2])
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise DimacsError(f"line {lineno}: 'c k' holds more digits than int() reads") from None
            elif len(tokens) == 3 and tokens[1] == "label" and tokens[2] in _LABELS:
                label = _LABELS[_LABELS.index(tokens[2])]  # the constant, so every parsed label shares one string
            elif len(tokens) >= 2 and tokens[1] == "vertices":
                if declared is None:
                    declared = []
                declared.extend([own(t, t) for t in tokens[2:]])
            continue
        if tag == "p":
            if counts is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <nv> <ne>'")
            try:
                nv, ne = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer counts in problem line") from None
            if nv < 0 or ne < 0:
                raise DimacsError(f"line {lineno}: negative counts in problem line")
            counts = (nv, ne)
        elif tag == "e":
            if counts is None:
                raise DimacsError(f"line {lineno}: edge line before problem line")
            if len(tokens) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            _, u, v = tokens
            edges.append((own(u, u), own(v, v)))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {raw!r}")

    if counts is None:
        raise DimacsError("missing problem line")
    nv, ne = counts
    if len(edges) != ne:
        raise DimacsError(f"problem line declares {ne} edges, found {len(edges)}")

    if declared is not None:
        if len(declared) != nv:
            raise DimacsError(f"problem line declares {nv} vertices, 'c vertices' lists {len(declared)}")
        vertices = tuple(declared)
    else:
        endpoints = tuple(labels)  # no `c vertices` line: labels holds the endpoints in first-appearance order
        if len(endpoints) == nv:
            vertices = endpoints
        elif len(endpoints) < nv and all(  # no label in 1..nv has more digits than nv, so int() reads each one
            _INT_RE.match(t) and len(t) <= len(str(nv)) and t == str(int(t)) and 1 <= int(t) <= nv for t in endpoints
        ):
            # Classic integer DIMACS: isolated vertices are implied by the header.
            if nv - len(endpoints) > MAX_FILLED_VERTICES:
                raise DimacsError(f"problem line implies {nv - len(endpoints)} isolated vertices, more than the "
                                  f"{MAX_FILLED_VERTICES} it may fill in; list them in a 'c vertices' line")
            vertices = tuple(labels.get(t, t) for t in map(str, range(1, nv + 1)))
        else:
            raise DimacsError(f"problem line declares {nv} vertices, edges mention {len(endpoints)}")

    try:
        graph = Graph(vertices, tuple(edges))
    except _EdgeError as exc:  # every `e` line is well formed by now, so the exc.index-th one is the bad edge's
        edge_lines = [lineno for lineno, raw in enumerate(text.splitlines(), 1) if raw.split()[:1] == ["e"]]
        raise DimacsError(f"line {edge_lines[exc.index]}: {exc}") from None
    except ValueError as exc:
        raise DimacsError(str(exc)) from None
    return graph, k, label


def serialize_dimacs(graph: Graph, k: int | None = None, label: str | None = None) -> str:
    """Serialize a graph to DIMACS-style text that round-trips exactly.

    k and label, when given, are carried in `c k <int>` and
    `c label <SAT|UNSAT>` comment lines.  A `c vertices ...` comment is
    emitted only when the vertex list is not recoverable from the edge
    lines alone (isolated vertices or a non-edge-order vertex list).
    """
    lines: list[str] = []
    if k is not None:
        if k < 1:
            raise ValueError("k must be >= 1")
        lines.append(f"c k {k}")
    if label is not None:
        if label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {label!r}")
        lines.append(f"c label {label}")
    if graph.needs_vertices_comment:
        lines.append("c vertices " + " ".join(graph.vertices))
    lines.append(f"p edge {len(graph.vertices)} {len(graph.edges)}")
    if graph.edges:
        lines.append(graph.edge_text)
    return "\n".join(lines)
