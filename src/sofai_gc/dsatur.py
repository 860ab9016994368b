"""Exact decision solver: DSATUR vertex ordering with exhaustive backtracking.

Answers "is the graph k-colorable?" with a certificate.  Sat outcomes
carry a verified proper coloring; Unsat means the full search space was
exhausted, or a checked clique of more than k vertices was found, so the
answer is a proof, not a guess.

The search is an explicit-stack loop, so its depth is not bounded by
Python's recursion limit.  Unused colors are interchangeable, so a branch
tries only colors 1..min(k, max_used + 1) (Brélaz 1979; San Segundo
2012): any coloring can be relabeled into one the search reaches.

The search runs on places: place p is the vertex degree_order[p] (degree
descending, index ascending) and bit p of a mask, so the lowest bit of a
set is DSATUR's tie-break; only the finished coloring is mapped back to
positions.  The next place comes from bit planes, not a scan:
planes[-1 - j] holds bit j of every place's saturation, k.bit_length()
bit-sliced counters, the highest bit first, in San Segundo's (2012)
bitboard style.  Keeping, from the highest plane down, the uncolored
places with the plane's bit whenever any has it leaves those of the
highest saturation, and DSATUR picks the lowest.  Colors are bitsets too:
forb[c] is the union of the neighbor masks of the places colored c, so p
may take c iff bit p of forb[c] is 0, and coloring p with c adds one to
exactly the uncolored neighbors outside forb[c], a ripple carry through
the planes however many neighbors p has.  The search unwinds LIFO, one
frame per depth, so undoing a color restores the forb[c] its frame saved
and takes one from the same places, a ripple borrow.  forb is 0 above the
colors in use and one slot past k, so the scan for a free color needs no
bound.

Before its first node the search colors a greedy clique (Graph.clique,
grown on the masks and checked against the graph) 1..ω in clique order,
as DSATUR-based exact colorers do (Brélaz 1979; San Segundo 2012), and
never undoes it; from there it chooses as DSATUR does.  By the same
relabeling, that loses no coloring.  A clique of more than k vertices is
itself the proof of Unsat, answered with no node.

S2 keeps no search state of its own: every search of a graph, and
chromatic_number's clique bound, read the neighbour_masks and clique the
Graph builds on first read and keeps, and each search keeps what it
changes to itself.  chromatic_number starts its sweep at the clique's
size: a clique needs that many colors, so no smaller k is searched.

Before it searches at k, S2 peels the graph (_peel): it removes vertices
with fewer than k remaining neighbors until none is left or a k-core
remains.  An empty k-core, k above the graph's degeneracy, proves the
graph k-colorable (Szekeres & Wilf 1968), the upper bound that mirrors the
clique's lower one, and coloring in reverse removal order gives the
certificate, checked by verdict like a search's, with no search node and
only if the deadline has not passed.  Any other input is searched whole
as above.  A search thus runs only on a graph with a nonempty k-core,
whose maximum degree is at least k, so it holds k colors and at least
one vertex outside the clique, and the sweep ends by k = degeneracy + 1.
solve_decision answers Unsat only from an exhausted search or a checked
clique of k + 1 vertices or more.

The encoding takes Θ(n²) bits, about one per vertex pair, and is built
before the first deadline check, so S2 searches no graph of more than
MAX_SEARCH_VERTICES vertices: _solve answers failure once peeling leaves
a k-core, and chromatic_number, which grows no clique on such a graph,
raises ValueError at the first k that peeling does not answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .graphs import ColorAssignment, Graph, verdict

# The wall-clock budget, in seconds, of an S2 call, a solve, a bench trial and a labeled instance.
DEFAULT_TIME_LIMIT = 200.0
# The most vertices a graph S2 searches may have: its encoding then takes about 10.5 MB and 0.04 s (see README).
MAX_SEARCH_VERTICES = 10_000


class DeadlineExceeded(Exception):
    """Raised when a computation runs past its wall-clock budget."""


@dataclass(frozen=True)
class SolveOutcome:
    """Terminal result of a decision attempt.

    status: "sat" (assignment holds a verified coloring), "unsat"
    (search space exhausted, or a clique of more than k vertices),
    "timeout", or "failure" (reason says why).  An outcome is built with
    its constructor; Sat keeps the dict it is given.  nodes counts S2's
    search nodes, one per vertex choice, up to its answer (Sat, Unsat or a
    rejected certificate) or its deadline.  0 means no search ran: a peeled
    Sat, an Unsat from a checked (k+1)-clique, an S1 answer, no time, or a
    graph too large to search.
    """

    status: str
    assignment: Optional[ColorAssignment] = None
    reason: Optional[str] = None
    nodes: int = 0

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


def select_vertex(bits: int) -> int:
    """Next place to color, given the places of the uncolored vertices of top saturation as bits: the lowest."""
    return (bits & -bits).bit_length() - 1


def _decide(graph: Graph, k: int, deadline: float) -> SolveOutcome:
    """Search for a k-coloring, starting from the greedy clique colored 1..ω in clique order.

    The clique is Graph.clique, checked against the graph.  One of more
    than k vertices proves Unsat with no node, an answer given only if the
    deadline has not passed, like a peeled Sat.  Otherwise its places take
    their colors by the steps a node's color takes, but push no frame, so
    no backtrack undoes them, and the search starts with used = ω.  That
    loses no coloring: any k-coloring can be relabeled so the clique takes
    1..ω, and the colors above used stay interchangeable.

    v is a place, bit[v] its bit (a list indexes faster than a shift),
    free the bits of the uncolored places and planes[-1 - j] bit j of
    every place's saturation.  Only an uncolored place's count changes,
    and the search unwinds LIFO, so when v is uncolored every later change
    is undone: free is what it was when v was colored and v's count, never
    touched while it was colored, is still right.  A saturation counts
    distinct colors of 1..k, so k.bit_length() planes never overflow.

    The stack holds one frame per depth, (v, color, used, before): used is
    the highest color above v, before forb[color] as v found it.  forb is 0
    from used + 1 to k + 1, so the scan for a free color stops, with no
    bound, by used + 1 or where it resumed; above min(used + 1, k) it fails.
    """
    nmask = graph.neighbour_masks
    clique = graph.clique
    used = len(clique)
    if used > k:
        if time.monotonic() > deadline:
            return SolveOutcome("timeout")
        return SolveOutcome("unsat")
    n = len(nmask)
    bit = [1 << p for p in range(n)]
    forb = [0] * (k + 2)
    free = (1 << n) - 1
    planes = [0] * k.bit_length()
    lowest = len(planes) - 1  # where a ripple starts; a list reads a non-negative index faster
    # Color the clique: each color is new, so every uncolored neighbor gains one.
    for color, v in enumerate(clique, 1):
        free ^= bit[v]
        carry = forb[color] = nmask[v]
        carry &= free
        j = lowest
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j -= 1
    stack = []
    nodes = 0
    while free:
        if time.monotonic() > deadline:
            return SolveOutcome("timeout", nodes=nodes)
        # Keep, plane by plane from the highest, the free places with
        # that bit set if any has it: what is left has the highest count.
        top = free
        for plane in planes:
            if kept := top & plane:
                top = kept
        v = select_vertex(top)  # module global: one call per search node
        nodes += 1
        b = bit[v]
        color = 1
        # Advance the place on top to its next feasible color, backing up
        # past frames whose colors are exhausted; none left means no coloring.
        while True:
            while forb[color] & b:
                color += 1
            if color <= used + 1 and color <= k:
                break
            if not stack:
                return SolveOutcome("unsat", nodes=nodes)
            v, color, used, before = stack.pop()
            # Uncolor v: take one from each neighbor it raised, a ripple borrow.
            forb[color] = before
            borrow = nmask[v] & free & ~before
            j = lowest
            while borrow:
                planes[j] = plane = planes[j] ^ borrow
                borrow &= plane
                j -= 1
            b = bit[v]
            free |= b
            color += 1
        # Color v: add one to each uncolored neighbor outside forb[color], a ripple carry.
        free ^= b
        before = forb[color]
        stack.append((v, color, used, before))
        mask = nmask[v]
        forb[color] = before | mask
        carry = mask & free & ~before
        j = lowest
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j -= 1
        if color > used:
            used = color

    coloring = [0] * n
    order = graph.degree_order
    for color, v in enumerate(clique, 1):
        coloring[order[v]] = color
    for v, color, _, _ in stack:
        coloring[order[v]] = color
    return _certified(graph, dict(zip(graph.vertices, coloring)), k, nodes)


def _certified(graph: Graph, assignment: ColorAssignment, k: int, nodes: int = 0) -> SolveOutcome:
    """Sat with the assignment if verdict accepts it as a k-coloring, else a failure; both carry nodes."""
    if not verdict(graph, assignment, k).valid:
        return SolveOutcome("failure", reason="S2 produced an improper coloring", nodes=nodes)
    return SolveOutcome("sat", assignment, nodes=nodes)


def _peel(graph: Graph, k: int) -> Optional[ColorAssignment]:
    """A k-coloring found by peeling, or None if the graph has a nonempty k-core.

    Repeatedly removes a vertex with fewer than k remaining neighbors.  If
    every vertex goes, coloring them in reverse removal order, each with
    the lowest color its colored neighbors leave free, uses at most k
    colors: the neighbors colored before a vertex are those it still had
    when it was removed, fewer than k (Matula & Beck 1983).  The colors
    come from Graph.first_fit's taken-color bitmasks, nothing sized by k.
    """
    neighbours = graph.neighbours
    degree = list(map(len, neighbours))
    stack = [v for v, d in enumerate(degree) if d < k]
    removed = []
    last = k - 1
    while stack:
        v = stack.pop()
        removed.append(v)
        for u in neighbours[v]:
            d = degree[u] - 1
            degree[u] = d
            if d == last:  # each vertex falls below k once
                stack.append(u)
    if len(removed) < len(degree):
        return None
    return graph.first_fit(reversed(removed))


def _too_large(n: int) -> str:
    """The failure reason for a graph of n vertices, more than S2 may search."""
    return f"{n} vertices, more than the {MAX_SEARCH_VERTICES} S2 may search"


def _solve(graph: Graph, k: int, deadline: float) -> SolveOutcome:
    """A peeled coloring if the k-core is empty, else _decide's answer, or a failure above MAX_SEARCH_VERTICES."""
    coloring = _peel(graph, k)
    if coloring is None:
        n = len(graph.vertices)
        if n > MAX_SEARCH_VERTICES:
            return SolveOutcome("failure", reason=_too_large(n))
        return _decide(graph, k, deadline)
    if time.monotonic() > deadline:
        return SolveOutcome("timeout")
    return _certified(graph, coloring, k)


def solve_decision(graph: Graph, k: int, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveOutcome:
    """Decide whether the graph admits a proper coloring with at most k colors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not time_limit > 0:  # NaN too: a NaN deadline never passes
        return SolveOutcome("timeout")
    return _solve(graph, k, time.monotonic() + time_limit)


def chromatic_number(graph: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> int:
    """Smallest k for which the graph is k-colorable; 0 for the empty graph.

    The sweep starts at k = the size of Graph.clique: a checked clique
    makes every smaller k Unsat, so those k are skipped.  A graph of more
    than MAX_SEARCH_VERTICES vertices builds no masks, so no clique: its
    sweep starts at 1 with no edge, else at 2, and ValueError is raised at
    the first k that needs a search.  The sweep ends by k = degeneracy + 1,
    where peeling answers Sat (see _peel).  The whole sweep shares one
    deadline and the graph's encoding; DeadlineExceeded is raised if it
    cannot finish in time, and at once for a time limit that is not
    positive (NaN too).
    """
    if not graph.vertices:
        return 0
    if not time_limit > 0:
        raise DeadlineExceeded(f"chromatic number search has no time: {time_limit}s")
    deadline = time.monotonic() + time_limit
    n = len(graph.vertices)
    if n > MAX_SEARCH_VERTICES:  # no masks, so no clique: an edge needs two colors
        start = 2 if graph.edges else 1
    else:
        start = len(graph.clique)
    for k in itertools.count(start):
        outcome = _solve(graph, k, deadline)
        if outcome.is_timeout:
            raise DeadlineExceeded(f"chromatic number search exceeded {time_limit}s")
        if outcome.is_failure:
            if outcome.reason == _too_large(n):
                raise ValueError(outcome.reason)
            raise RuntimeError(f"exact solver failed at k={k}: {outcome.reason}")
        if outcome.is_sat:
            return k
