"""Exact decision solver: DSATUR vertex ordering with exhaustive backtracking.

Answers "is the graph k-colorable?" with a certificate.  Sat outcomes
carry a verified proper coloring; Unsat means the full search space was
exhausted, so the answer is a proof, not a guess.

The search is an explicit-stack loop over integer vertex indices, so its
depth is not bounded by Python's recursion limit.  Unused colors are
interchangeable, so a branch tries only colors 1..min(k, max_used + 1)
(Brélaz 1979; San Segundo 2012): any coloring can be relabeled into one
the search reaches.

The next vertex comes from saturation buckets, not a scan.  Each vertex
has a fixed bit, its place in (degree descending, index ascending) order,
and one integer bitmask per saturation level holds the bits of the
uncolored vertices at that level, so the DSATUR choice is the lowest bit
of the highest nonempty level.  Colors are bitsets too: forb[c] is the
union of the neighbor masks of the vertices colored c, so v may take c
iff forb[c] & bit[v] is 0, and coloring v with c raises exactly the
uncolored neighbors outside forb[c] one level, a few mask operations
however many neighbors v has.  The search unwinds LIFO, so undoing a
color restores the forb[c] saved when it was set and lowers the same
vertices back.  The search path, node for node, is plain DSATUR's.

Every graph of maximum degree D is (D + 1)-colorable and a search that
may use D + 1 colors never backtracks, so the state holds min(k, D + 1)
colors.  chromatic_number builds one state for its whole sweep over k
and starts the sweep at the size of a greedy clique grown on that state's
masks and checked against the graph: a clique needs that many colors, so
no smaller k is searched.  An Unsat proof unwinds the state back to
empty, ready for k + 1, and the sweep ends by k = D + 1.  solve_decision
answers Unsat only from an exhausted search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .graphs import ColorAssignment, Graph, verdict


class DeadlineExceeded(Exception):
    """Raised when a computation runs past its wall-clock budget."""


@dataclass(frozen=True)
class SolveOutcome:
    """Terminal result of a decision attempt.

    status: "sat" (assignment holds a verified coloring), "unsat"
    (search space exhausted), "timeout", or "failure" (reason says why).
    """

    status: str
    assignment: Optional[ColorAssignment] = None
    reason: Optional[str] = None

    @classmethod
    def sat(cls, assignment: ColorAssignment) -> "SolveOutcome":
        return cls("sat", assignment=dict(assignment))

    @classmethod
    def unsat(cls) -> "SolveOutcome":
        return cls("unsat")

    @classmethod
    def timeout(cls) -> "SolveOutcome":
        return cls("timeout")

    @classmethod
    def failure(cls, reason: str) -> "SolveOutcome":
        return cls("failure", reason=reason)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    @property
    def is_timeout(self) -> bool:
        return self.status == "timeout"

    @property
    def is_failure(self) -> bool:
        return self.status == "failure"


class _SearchState:
    """Mutable search state over vertex indices (positions in graph.vertices).

    color[v] is v's color, 0 while uncolored.  bit[v] is 1 << v's place in
    (degree descending, index ascending) order and order[place] is the
    vertex there; free is the union of the bits of the uncolored vertices.
    nmask[v] is the union of the bits of v's neighbors, and forb[c] the
    union of nmask over the vertices colored c: the vertices that may not
    take color c.  So an uncolored vertex u's saturation is the number of
    colors c with forb[c] & bit[u], and levels[s] is the union of the bits
    of the uncolored vertices of saturation s; no level above top holds any.

    Coloring v with c raises exactly the vertices of nmask[v] & free &
    ~forb[c] one level.  Undo is exact because the search unwinds LIFO:
    when v is uncolored, every later change has been undone, so free is
    what it was when v was colored and restoring the forb[c] saved then
    lowers the same vertices back one level.
    """

    __slots__ = ("nmask", "forb", "free", "color", "bit", "order", "levels", "top", "saved")

    def __init__(self, graph: Graph, k: int) -> None:
        adj = graph.adjacency
        degree = [len(adj[v]) for v in graph.vertices]
        n = len(degree)
        # With D + 1 colors every vertex has a free one, so no search needs more.
        colors = min(k, max(degree, default=0) + 1)
        # A stable sort keeps equal degrees in index order.
        self.order = sorted(range(n), key=degree.__getitem__, reverse=True)
        self.bit = [0] * n
        for place, v in enumerate(self.order):
            self.bit[v] = 1 << place
        bit_of = dict(zip(graph.vertices, self.bit))
        # The bits are distinct, so their sum is their union.
        self.nmask = [sum(map(bit_of.__getitem__, adj[v])) for v in graph.vertices]
        self.forb = [0] * (colors + 1)
        self.free = (1 << n) - 1
        self.color = [0] * n
        # saved[v]: (forb[color[v]] before v was colored, v's saturation then).
        self.saved: list[tuple[int, int]] = [(0, 0)] * n
        self.levels = [0] * (colors + 1)
        self.levels[0] = self.free
        self.top = 0

    @property
    def colors(self) -> int:
        return len(self.levels) - 1

    def assign(self, v: int, color: int) -> None:
        levels, forb, b = self.levels, self.forb, self.bit[v]
        s = self.top
        while not levels[s] & b:
            s -= 1
        levels[s] ^= b
        self.free = free = self.free ^ b
        self.color[v] = color
        before = forb[color]
        self.saved[v] = (before, s)
        mask = self.nmask[v]
        forb[color] = before | mask
        newly = mask & free & ~before
        # Top down, so a vertex raised from level s is not seen again at s + 1.
        s = top = self.top
        while newly:
            moved = levels[s] & newly
            if moved:
                levels[s] ^= moved
                levels[s + 1] |= moved
                newly ^= moved
                if s == top:
                    self.top = top + 1
            s -= 1

    def unassign(self, v: int) -> None:
        levels, forb, b = self.levels, self.forb, self.bit[v]
        color = self.color[v]
        self.color[v] = 0
        before, level = self.saved[v]
        forb[color] = before
        newly = self.nmask[v] & self.free & ~before
        # Bottom up, so a vertex lowered to level s - 1 is not seen again there.
        s = 1
        while newly:
            moved = levels[s] & newly
            if moved:
                levels[s] ^= moved
                levels[s - 1] |= moved
                newly ^= moved
            s += 1
        self.free |= b
        levels[level] |= b
        if level > self.top:
            self.top = level


def select_vertex(state: _SearchState) -> int:
    """Next vertex to color: max saturation, then max degree, then lowest index."""
    levels, top = state.levels, state.top
    while top and not levels[top]:
        top -= 1
    state.top = top
    bits = levels[top]
    if not bits:
        raise ValueError("all vertices are already colored")
    return state.order[(bits & -bits).bit_length() - 1]


def _decide(graph: Graph, state: _SearchState, k: int, deadline: float) -> SolveOutcome:
    """Search an empty state for a k-coloring; an Unsat answer leaves it empty again."""
    n = len(state.color)
    colors = min(k, state.colors)
    forb, bit = state.forb, state.bit
    # The stack, flat: at each depth the vertex colored there, its color,
    # and the max color used by the vertices colored above it.
    stack_v, stack_color, stack_used = [0] * n, [0] * n, [0] * n
    depth = used = 0
    while depth < n:
        if time.monotonic() > deadline:
            return SolveOutcome.timeout()
        v = select_vertex(state)  # module global: one call per search node
        color = 0
        # Advance the vertex at depth to its next feasible color, backing up
        # past depths whose colors are exhausted; none left means no coloring.
        while True:
            cap = used + 1 if used < colors else colors
            b = bit[v]
            color += 1
            while color <= cap and forb[color] & b:
                color += 1
            if color <= cap:
                break
            if not depth:
                return SolveOutcome.unsat()
            depth -= 1
            v, color, used = stack_v[depth], stack_color[depth], stack_used[depth]
            state.unassign(v)
        stack_v[depth], stack_color[depth], stack_used[depth] = v, color, used
        state.assign(v, color)
        depth += 1
        if color > used:
            used = color

    assignment = dict(zip(graph.vertices, state.color))
    if not verdict(graph, assignment, k).valid:
        return SolveOutcome.failure("search produced an improper coloring")
    return SolveOutcome.sat(assignment)


def solve_decision(graph: Graph, k: int, time_limit: float = 200.0) -> SolveOutcome:
    """Decide whether the graph admits a proper coloring with at most k colors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not time_limit > 0:  # NaN too: a NaN deadline never passes
        return SolveOutcome.timeout()
    deadline = time.monotonic() + time_limit
    return _decide(graph, _SearchState(graph, k), k, deadline)


def _clique(graph: Graph, state: _SearchState) -> list[int]:
    """A greedy clique of the graph, as vertex indices, checked against its adjacency.

    Each step takes the candidate with the most neighbors among the
    remaining candidates (the first in degree order on a tie), then keeps
    only its neighbors as candidates.  The members are then checked
    pairwise against graph.adjacency, not the masks they were grown from;
    a failed check raises RuntimeError.
    """
    nmask, order = state.nmask, state.order
    members: list[int] = []
    cand = (1 << len(order)) - 1
    while cand:
        best, most, rest = 0, -1, cand
        while rest:
            low = rest & -rest
            rest ^= low
            u = order[low.bit_length() - 1]
            count = (nmask[u] & cand).bit_count()
            if count > most:
                best, most = u, count
        members.append(best)
        cand &= nmask[best]
    names = [graph.vertices[v] for v in members]
    for i, v in enumerate(names):
        if not set(names[:i]).issubset(graph.adjacency[v]):
            raise RuntimeError(f"greedy clique {names} is not a clique of the graph")
    return members


def chromatic_number(graph: Graph, time_limit: float = 200.0) -> int:
    """Smallest k for which the graph is k-colorable; 0 for the empty graph.

    The sweep starts at k = the size of a checked clique (see _clique): a
    clique certificate makes every smaller k Unsat, so those searches are
    skipped.  The whole sweep shares one deadline and one search state;
    DeadlineExceeded is raised if it cannot finish in time, and at once
    for a time limit that is not positive (NaN too).
    """
    n = len(graph.vertices)
    if n == 0:
        return 0
    if not time_limit > 0:
        raise DeadlineExceeded(f"chromatic number search has no time: {time_limit}s")
    deadline = time.monotonic() + time_limit
    state = _SearchState(graph, n)
    for k in range(len(_clique(graph, state)), state.colors + 1):
        outcome = _decide(graph, state, k, deadline)
        if outcome.is_timeout:
            raise DeadlineExceeded(f"chromatic number search exceeded {time_limit}s")
        if outcome.is_failure:
            raise RuntimeError(f"exact solver failed at k={k}: {outcome.reason}")
        if outcome.is_sat:
            return k
    raise AssertionError("graph not (max degree + 1)-colorable")  # unreachable
