"""The metacognitive governor.

Verifies proposer output, renders template feedback, generates worked
subgraph examples, tracks improvement trends, and decides when to stop
trusting the fast path and hand the instance to the exact solver.  There
is one loop, _run; the entry points are presets of it: solve_sofai_v2
(full loop), solve_sofai_v1 (one shot then fallback), solve_mc_s1_iN
(capped loop, no fallback), solve_s1 (one round, its NOT SOLVABLE final)
and solve_s2 (no S1 rounds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .dsatur import SolveOutcome, solve_decision
from .graphs import ColorAssignment, Conflict, Graph, Verdict, verdict
from .memory import EpisodicRecord, MemoryRejected, MemoryStore, retrieve_memory, update_memory
from .proposer import (
    NOT_SOLVABLE,
    PromptExample,
    ProposerConfig,
    make_proposer,
    format_assignment,
    render_prompt,
)

CONFLICT_TEMPLATE = "Error: Vertices {u} and {v} are adjacent but have the same color."
OVER_COLOR_TEMPLATE = "Error: Only {k} colors are allowed. {used} colors were used."
UNCOLORED_TEMPLATE = "Error: No color was given for vertices {vertices}."
UNPARSEABLE_MESSAGE = (
    "Error: The response could not be parsed into vertex color assignments. "
    "Provide one (Vertex Color) pair per line."
)
NOT_SOLVABLE_REJECTED_MESSAGE = (
    "Error: The problem has not been proven unsolvable. "
    "Provide a color assignment using the format (Vertex Color)."
)

# The paper's T: SOFAI-v2's budget of S1 rounds, and the largest N of MC-S1-IN.
MAX_ROUNDS = 5


@dataclass(frozen=True)
class FeedbackItem:
    """One structured correction; kind is conflict, over_color, or uncolored."""

    kind: str
    message: str
    conflicts: tuple[Conflict, ...] = ()


def format_feedback(graph: Graph, assignment: ColorAssignment, k: int) -> list[FeedbackItem]:
    """Template feedback for an assignment: conflicts in edge order, then budget, then uncolored vertices."""
    return _feedback(graph, assignment, verdict(graph, assignment, k), k)


def _feedback(graph: Graph, assignment: ColorAssignment, result: Verdict, k: int) -> list[FeedbackItem]:
    items = [
        FeedbackItem(
            kind="conflict",
            message=CONFLICT_TEMPLATE.format(u=c.u, v=c.v),
            conflicts=(c,),
        )
        for c in result.conflicts
    ]
    if result.colors_used > k:
        items.append(
            FeedbackItem(
                kind="over_color",
                message=OVER_COLOR_TEMPLATE.format(k=k, used=result.colors_used),
            )
        )
    if not result.complete:
        missing = ", ".join(v for v in graph.vertices if v not in assignment)
        items.append(FeedbackItem(kind="uncolored", message=UNCOLORED_TEMPLATE.format(vertices=missing)))
    return items


def generate_example(graph: Graph) -> PromptExample:
    """Greedily color the subgraph induced by the min(3, n) highest-degree vertices.

    Selection and coloring are deterministic (degree, ties by vertex
    order), so the same problem always yields the same example.  Greedy
    is unbounded: the example may use more than the problem's k colors on
    dense cores.
    """
    if not graph.vertices:
        raise ValueError("graph must have at least one vertex")
    # A stable sort keeps vertex order among equal degrees.
    ranked = sorted(graph.vertices, key=graph.degree, reverse=True)
    sub = graph.induced_subgraph(ranked[:3])
    coloring: ColorAssignment = {}
    for v in sub.vertices:
        used = {coloring[u] for u in sub.adjacency[v] if u in coloring}
        color = 1
        while color in used:
            color += 1
        coloring[v] = color
    return PromptExample(sub, coloring)


def _conflict_signature(conflicts: tuple[Conflict, ...]) -> tuple:
    edges = sorted(tuple(sorted((c.u, c.v))) for c in conflicts)
    return ("conflicts", tuple(edges))


@dataclass(frozen=True)
class OrchestratorConfig:
    """What a caller sets; a roster id's fixed facts, such as its round budget, are its preset's."""

    proposer: ProposerConfig = ProposerConfig()
    time_limit: float = 200.0
    store: Optional[MemoryStore] = None

    def __post_init__(self) -> None:
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """What one S1 round produced, for post-hoc analysis."""

    index: int
    kind: str  # assignment | not_solvable | unparseable | error
    score: float
    feedback: tuple[str, ...]
    signature: Optional[tuple]
    elapsed: float
    conflict_vertices: frozenset[str] = frozenset()  # endpoints of the round's conflicting edges
    error: Optional[str] = None  # why an error round got no reply


def escalation_rule(rounds: Sequence[IterationRecord], T: int) -> bool:
    """Stop iterating S1 when the budget is spent or progress has stalled.

    rounds are the failed S1 rounds so far, in order.  Fires once there
    are T of them, when the last score is no strict improvement on the
    one before, or when the last two feedback signatures are equal.
    """
    if not rounds:
        raise ValueError("rounds must be nonempty")
    if len(rounds) >= T:
        return True
    if len(rounds) < 2:
        return False
    prev, last = rounds[-2], rounds[-1]
    return last.score <= prev.score or last.signature == prev.signature


@dataclass(frozen=True)
class SolveTrace:
    iterations: tuple[IterationRecord, ...]
    s2_invoked: bool
    source: Optional[str]  # S1 | S2 | None
    total_time: float

    @property
    def s1_calls(self) -> int:
        return len(self.iterations)

    @property
    def s1_declared_unsat(self) -> bool:
        return any(it.kind == "not_solvable" for it in self.iterations)


def _run(
    graph: Graph,
    k: int,
    cfg: OrchestratorConfig,
    max_iters: int,
    *,
    use_memory: bool,
    fallback: bool,
    accept_unsat: bool = False,
) -> tuple[SolveOutcome, SolveTrace]:
    """The one metacognitive loop; every solver entry point is a preset of it.

    Runs up to max_iters S1 rounds with template feedback.  use_memory
    seeds the prompt from cfg.store and records each solved instance
    there.  fallback applies the escalation rule after each failed round
    and hands an unsolved instance to S2; without it every round runs and
    an unsolved instance ends as Failure("s1-exhausted").  accept_unsat
    makes S1's NOT SOLVABLE final instead of feeding back that it is unproven.

    A round whose call got no reply (kind error) adds nothing to the
    prompt history, but it counts toward max_iters and the escalation
    rule like any other failed round.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    start = time.monotonic()
    deadline = start + cfg.time_limit
    store = cfg.store if use_memory else None
    proposer = make_proposer(cfg.proposer) if max_iters else None
    hits = retrieve_memory(store, graph, k) if store is not None else []
    examples = [PromptExample(rec.graph, rec.solution) for rec in hits]
    history: list[tuple[str, tuple[str, ...]]] = []
    iterations: list[IterationRecord] = []
    outcome: Optional[SolveOutcome] = None  # set once S1 answers or time runs out

    for t in range(1, max_iters + 1):
        if t == 2 and graph.vertices:  # rounds after a failed one show a worked example
            examples.append(generate_example(graph))
        now = time.monotonic()
        if now >= deadline:
            outcome = SolveOutcome.timeout()
            break
        prompt = render_prompt(graph, k, examples, history)
        response = proposer.propose(prompt, timeout=deadline - now)
        elapsed = time.monotonic() - now

        # Without an assignment the round scores as the empty assignment
        # does: every edge unsatisfied, unless there are none.
        score = float(not graph.edges)
        signature = (response.kind,)
        conflict_vertices: frozenset[str] = frozenset()
        error = None
        if response.is_assignment:
            v = verdict(graph, response.assignment, k)
            score = float(v.score)
            if v.valid:
                iterations.append(IterationRecord(t, "assignment", score, (), None, elapsed))
                outcome = SolveOutcome.sat(response.assignment)
                break
            conflict_vertices = frozenset(u for c in v.conflicts for u in (c.u, c.v))
            messages = tuple(item.message for item in _feedback(graph, response.assignment, v, k))
            signature = _conflict_signature(v.conflicts)
            attempt_text = format_assignment(response.assignment, graph.vertices)
        elif response.is_not_solvable:
            if accept_unsat:
                iterations.append(IterationRecord(t, response.kind, score, (), signature, elapsed))
                outcome = SolveOutcome.unsat()
                break
            messages = (NOT_SOLVABLE_REJECTED_MESSAGE,)
            attempt_text = response.raw or NOT_SOLVABLE
        elif response.kind == "unparseable":
            messages = (UNPARSEABLE_MESSAGE,)
            attempt_text = response.raw or "(no response)"
        else:  # kind error: no reply, so the next prompt shows nothing of this round
            messages, error = (), response.error

        if messages:  # every reply that failed drew at least one message
            history.append((attempt_text, messages))
        iterations.append(
            IterationRecord(t, response.kind, score, messages, signature, elapsed, conflict_vertices, error)
        )
        if time.monotonic() >= deadline:
            outcome = SolveOutcome.timeout()
            break
        if fallback and escalation_rule(iterations, max_iters):
            break

    source = None if outcome is None or outcome.is_timeout else "S1"
    s2_invoked = False
    if outcome is None and not fallback:
        outcome = SolveOutcome.failure("s1-exhausted")
    elif outcome is None:
        remaining = deadline - time.monotonic()
        s2_invoked = remaining > 0
        if s2_invoked:
            outcome = solve_decision(graph, k, time_limit=remaining)
            source = None if outcome.is_timeout else "S2"
        else:
            outcome = SolveOutcome.timeout()
    if store is not None and outcome.is_sat:
        try:
            update_memory(store, EpisodicRecord.make(graph, k, outcome.assignment, source))
        except MemoryRejected:
            pass  # already known; nothing to add
    trace = SolveTrace(
        iterations=tuple(iterations),
        s2_invoked=s2_invoked,
        source=source,
        total_time=time.monotonic() - start,
    )
    return outcome, trace


def solve_sofai_v2(graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """Full loop: memory-seeded iterative S1 with feedback, then exact fallback."""
    return _run(graph, k, cfg, MAX_ROUNDS, use_memory=True, fallback=True)


def solve_sofai_v1(graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """One S1 shot, no feedback, no memory; anything short of valid goes to S2."""
    return _run(graph, k, cfg, 1, use_memory=False, fallback=True)


def solve_mc_s1_iN(
    graph: Graph, k: int, cfg: OrchestratorConfig, n_iterations: int
) -> tuple[SolveOutcome, SolveTrace]:
    """The capped ablation: exactly N feedback rounds, no exact fallback.

    Runs all N rounds even when the trend has stalled (there is no S2 to
    escalate to), and reports Failure("s1-exhausted") if none succeeded.
    """
    if not 1 <= n_iterations <= MAX_ROUNDS:
        raise ValueError(f"n_iterations must be in 1..{MAX_ROUNDS}")
    return _run(graph, k, cfg, n_iterations, use_memory=True, fallback=False)


def solve_s1(graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """The proposer alone: one memory-seeded round, no fallback, its NOT SOLVABLE final.

    The other presets leave certifying UNSAT to the exact solver.
    """
    return _run(graph, k, cfg, 1, use_memory=True, fallback=False, accept_unsat=True)


def solve_s2(graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """The exact solver alone, under cfg.time_limit; no S1 rounds, no memory."""
    return _run(graph, k, cfg, 0, use_memory=False, fallback=True)
