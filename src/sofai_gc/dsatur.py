"""Exact decision solver: DSATUR vertex ordering with exhaustive backtracking.

Answers "is the graph k-colorable?" with a certificate.  Sat outcomes
carry a verified proper coloring; Unsat means the full search space was
exhausted, so the answer is a proof, not a guess.

The search is an explicit-stack loop over integer vertex indices, so its
depth is not bounded by Python's recursion limit.  Unused colors are
interchangeable, so a branch tries only colors 1..min(k, max_used + 1)
(Brélaz 1979; San Segundo 2012): any coloring can be relabeled into one
the search reaches.
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
    of colored neighbors of v holding color c.  rank[v] is
    saturation * step + degree, where saturation is the number of distinct
    colors among v's colored neighbors and step exceeds every degree, so
    the largest rank is the DSATUR choice.  A colored vertex holds ~rank,
    which is negative, so it never wins and unassign restores it.

    counts and rank are kept only for uncolored vertices: assign and
    unassign skip colored neighbors.  Undo is exact because the search
    unwinds LIFO, so the neighbors colored when v is uncolored are the
    ones that were colored when v was colored.
    """

    __slots__ = ("neighbors", "color", "counts", "rank", "step")

    def __init__(self, graph: Graph, colors: int) -> None:
        index = {v: i for i, v in enumerate(graph.vertices)}
        self.neighbors = [list(map(index.__getitem__, graph.adjacency[v])) for v in graph.vertices]
        n = len(graph.vertices)
        self.color = [0] * n
        self.counts = [[0] * (colors + 1) for _ in range(n)]
        self.rank = [len(ns) for ns in self.neighbors]
        self.step = max(self.rank, default=0) + 1

    def assign(self, v: int, color: int) -> None:
        colored, counts, rank, step = self.color, self.counts, self.rank, self.step
        colored[v] = color
        rank[v] = ~rank[v]
        for u in self.neighbors[v]:
            if colored[u]:
                continue
            row = counts[u]
            if not row[color]:
                rank[u] += step
            row[color] += 1

    def unassign(self, v: int) -> None:
        colored, counts, rank, step = self.color, self.counts, self.rank, self.step
        color = colored[v]
        colored[v] = 0
        rank[v] = ~rank[v]
        for u in self.neighbors[v]:
            if colored[u]:
                continue
            row = counts[u]
            row[color] -= 1
            if not row[color]:
                rank[u] -= step


def select_vertex(state: _SearchState) -> int:
    """Next vertex to color: max saturation, then max degree, then lowest index."""
    best = max(state.rank, default=-1)
    if best < 0:
        raise ValueError("all vertices are already colored")
    return state.rank.index(best)


def solve_decision(graph: Graph, k: int, time_limit: float = 200.0) -> SolveOutcome:
    """Decide whether the graph admits a proper coloring with at most k colors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if time_limit <= 0:
        return SolveOutcome.timeout()
    deadline = time.monotonic() + time_limit
    n = len(graph.vertices)
    # No search uses more than n colors, so larger budgets need no columns.
    colors = min(k, n)
    state = _SearchState(graph, colors)
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


def chromatic_number(graph: Graph, time_limit: float = 200.0) -> int:
    """Smallest k for which the graph is k-colorable; 0 for the empty graph.

    The whole sweep shares one deadline; DeadlineExceeded is raised if it
    cannot finish in time.
    """
    n = len(graph.vertices)
    if n == 0:
        return 0
    deadline = time.monotonic() + time_limit
    for k in range(1, n + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"chromatic number search exceeded {time_limit}s")
        outcome = solve_decision(graph, k, time_limit=remaining)
        if outcome.is_timeout:
            raise DeadlineExceeded(f"chromatic number search exceeded {time_limit}s")
        if outcome.is_failure:
            raise RuntimeError(f"exact solver failed at k={k}: {outcome.reason}")
        if outcome.is_sat:
            return k
    raise AssertionError("graph not n-colorable with n vertices")  # unreachable
