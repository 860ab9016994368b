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
uncolored vertices at that level; assign and unassign move a neighbor
between levels where its saturation changes, so the DSATUR choice is the
lowest bit of the highest nonempty level.  Every graph of maximum degree
D is (D + 1)-colorable and a search that may use D + 1 colors never
backtracks, so the state holds min(k, D + 1) colors.  chromatic_number
builds one state for its whole sweep over k: an Unsat proof unwinds the
state back to empty, ready for k + 1, and the sweep ends by k = D + 1.
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

    color[v] is v's color, 0 while uncolored.  counts[v][c] is the number
    of colored neighbors of v holding color c, and sat[v] the number of
    distinct colors among them: v's saturation.  bit[v] is 1 << v's place
    in (degree descending, index ascending) order and order[place] is the
    vertex there.  levels[s] is the union of the bits of the uncolored
    vertices of saturation s; no level above top holds any.

    counts and sat are kept only for uncolored vertices: assign and
    unassign skip colored neighbors.  Undo is exact because the search
    unwinds LIFO, so the neighbors colored when v is uncolored are the
    ones that were colored when v was colored, and v gets back the
    saturation it had.
    """

    __slots__ = ("neighbors", "color", "counts", "sat", "bit", "order", "levels", "top")

    def __init__(self, graph: Graph, k: int) -> None:
        index = {v: i for i, v in enumerate(graph.vertices)}
        self.neighbors = [list(map(index.__getitem__, graph.adjacency[v])) for v in graph.vertices]
        n = len(graph.vertices)
        # With D + 1 colors every vertex has a free one, so no search needs more.
        colors = min(k, max(map(len, self.neighbors), default=0) + 1)
        self.color = [0] * n
        self.counts = [[0] * (colors + 1) for _ in range(n)]
        self.sat = [0] * n
        # A stable sort keeps equal degrees in index order.
        self.order = sorted(range(n), key=lambda v: len(self.neighbors[v]), reverse=True)
        self.bit = [0] * n
        for place, v in enumerate(self.order):
            self.bit[v] = 1 << place
        self.levels = [0] * (colors + 1)
        self.levels[0] = (1 << n) - 1
        self.top = 0

    @property
    def colors(self) -> int:
        return len(self.levels) - 1

    def assign(self, v: int, color: int) -> None:
        colored, counts, sat, bit, levels = self.color, self.counts, self.sat, self.bit, self.levels
        colored[v] = color
        levels[sat[v]] ^= bit[v]
        top = self.top
        for u in self.neighbors[v]:
            if colored[u]:
                continue
            row = counts[u]
            if not row[color]:
                s = sat[u]
                sat[u] = s + 1
                b = bit[u]
                levels[s] ^= b
                levels[s + 1] |= b
                if s >= top:
                    top = s + 1
            row[color] += 1
        self.top = top

    def unassign(self, v: int) -> None:
        colored, counts, sat, bit, levels = self.color, self.counts, self.sat, self.bit, self.levels
        color = colored[v]
        colored[v] = 0
        s = sat[v]
        levels[s] |= bit[v]
        if s > self.top:
            self.top = s
        for u in self.neighbors[v]:
            if colored[u]:
                continue
            row = counts[u]
            row[color] -= 1
            if not row[color]:
                s = sat[u]
                sat[u] = s - 1
                b = bit[u]
                levels[s] ^= b
                levels[s - 1] |= b


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
    counts = state.counts
    # One frame per colored vertex: [vertex, its current color, max color
    # used by the vertices colored before it].
    stack: list[list[int]] = []
    max_used = 0
    while len(stack) < n:
        if time.monotonic() > deadline:
            return SolveOutcome.timeout()
        v = select_vertex(state)  # module global: one call per search node
        frame = [v, 0, max_used]
        stack.append(frame)
        # Advance the top frame to its next feasible color, popping frames
        # whose colors are exhausted; an empty stack means no coloring exists.
        while True:
            v, color, used = frame
            if color:
                state.unassign(v)
            row = counts[v]
            cap = min(colors, used + 1)
            color += 1
            while color <= cap and row[color]:
                color += 1
            if color <= cap:
                break
            stack.pop()
            if not stack:
                return SolveOutcome.unsat()
            frame = stack[-1]
        frame[1] = color
        state.assign(v, color)
        max_used = max(used, color)

    assignment = dict(zip(graph.vertices, state.color))
    if not verdict(graph, assignment, k).valid:
        return SolveOutcome.failure("search produced an improper coloring")
    return SolveOutcome.sat(assignment)


def solve_decision(graph: Graph, k: int, time_limit: float = 200.0) -> SolveOutcome:
    """Decide whether the graph admits a proper coloring with at most k colors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if time_limit <= 0:
        return SolveOutcome.timeout()
    deadline = time.monotonic() + time_limit
    return _decide(graph, _SearchState(graph, k), k, deadline)


def chromatic_number(graph: Graph, time_limit: float = 200.0) -> int:
    """Smallest k for which the graph is k-colorable; 0 for the empty graph.

    The whole sweep shares one deadline and one search state;
    DeadlineExceeded is raised if it cannot finish in time.
    """
    n = len(graph.vertices)
    if n == 0:
        return 0
    deadline = time.monotonic() + time_limit
    state = _SearchState(graph, n)
    for k in range(1, state.colors + 1):
        outcome = _decide(graph, state, k, deadline)
        if outcome.is_timeout:
            raise DeadlineExceeded(f"chromatic number search exceeded {time_limit}s")
        if outcome.is_failure:
            raise RuntimeError(f"exact solver failed at k={k}: {outcome.reason}")
        if outcome.is_sat:
            return k
    raise AssertionError("graph not (max degree + 1)-colorable")  # unreachable
