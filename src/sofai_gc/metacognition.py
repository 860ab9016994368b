"""The metacognitive governor.

Verifies proposer output, renders template feedback, generates worked
subgraph examples, and decides when to stop trusting the fast path and
hand the instance to the exact solver.  There is one loop, run_preset:
each S1 round records one IterationRecord, and every trial ends in one
place after the loop, except one that memory answers before it.  Each
roster id is one row of PRESETS, which sets the loop's round budget and
switches; run_preset runs a row by its id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .dsatur import DEFAULT_TIME_LIMIT, SolveOutcome, solve_decision
from .graphs import ColorAssignment, Graph, Verdict, verdict
from .memory import EpisodicRecord, MemoryStore, retrieve_memory
from .proposer import (
    NOT_SOLVABLE,
    FeedbackEntry,
    PromptExample,
    ProposerConfig,
    make_proposer,
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


def format_feedback(graph: Graph, assignment: ColorAssignment, k: int) -> list[FeedbackItem]:
    """Template feedback for an assignment: conflicts in edge order, then budget, then uncolored vertices."""
    return _feedback(graph, assignment, verdict(graph, assignment, k), k)


def _feedback(graph: Graph, assignment: ColorAssignment, result: Verdict, k: int) -> list[FeedbackItem]:
    items = [FeedbackItem(kind="conflict", message=CONFLICT_TEMPLATE.format(u=u, v=v)) for u, v in result.conflicts]
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
    kept = {graph.vertices[v] for v in graph.degree_order[:3]}
    # graph.edges, not graph.neighbours: only the edges keep each edge's orientation.
    edges = tuple((u, v) for u, v in graph.edges if u in kept and v in kept)
    sub = Graph(tuple(v for v in graph.vertices if v in kept), edges)
    return PromptExample(sub, sub.first_fit(range(len(sub.vertices))))


@dataclass(frozen=True)
class _WorkedExample:
    """A trial's worked example: generate_example(graph), built when a prompt's text first shows it."""

    graph: Graph

    @cached_property
    def text(self) -> str:
        return generate_example(self.graph).text


@dataclass(frozen=True)
class Preset:
    """A roster id's fixed facts: its S1 round budget and three switches.

    memory answers an instance cfg.store holds from its record, with no
    S1 round and no S2; else it seeds the prompt from the store and
    records each solved instance there.  fallback applies the escalation
    rule after each failed round and hands S2 what S1 left unanswered.
    accept_unsat makes S1's NOT SOLVABLE final instead of feeding back
    that it is unproven; the other rows leave certifying UNSAT to S2.
    """

    rounds: int
    memory: bool
    fallback: bool
    accept_unsat: bool = False


# The roster, in report order; a new solver id is one more row.
PRESETS: dict[str, Preset] = {
    "S1": Preset(1, memory=True, fallback=False, accept_unsat=True),  # the proposer alone
    "S2": Preset(0, memory=False, fallback=True),  # the exact solver alone
    "SOFAI-v1": Preset(1, memory=False, fallback=True),  # one shot, no feedback, then S2
    "SOFAI-v2": Preset(MAX_ROUNDS, memory=True, fallback=True),  # the full loop
    # The capped ablation: exactly N rounds, even once the trend has stalled, with no S2 to escalate to.
    **{f"MC-S1-I{n}": Preset(n, memory=True, fallback=False) for n in range(1, MAX_ROUNDS + 1)},
}

MEMORYLESS_ERROR = "--memory is not used by {solver}, which reads no episodic memory"


@dataclass(frozen=True)
class OrchestratorConfig:
    """What a caller sets; a roster id's fixed facts, such as its round budget, are in its PRESETS row."""

    proposer: ProposerConfig = ProposerConfig()
    time_limit: float = DEFAULT_TIME_LIMIT
    store: Optional[MemoryStore] = None

    def __post_init__(self) -> None:
        if not self.time_limit > 0:  # NaN too
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """What one S1 round produced, for post-hoc analysis."""

    kind: str  # assignment | not_solvable | unparseable | error
    score: float
    feedback: tuple[str, ...]
    signature: Optional[tuple]
    elapsed: float
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
    """How a trial ended: its S1 rounds, whether S2 ran, and which answered.

    source is S1, S2, memory (the store held the instance: no round, no
    S2), or None when nothing answered.
    """

    iterations: tuple[IterationRecord, ...]
    s2_invoked: bool
    source: Optional[str]  # S1 | S2 | memory | None

    @property
    def s1_calls(self) -> int:
        return len(self.iterations)


def run_preset(solver: str, graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """The one metacognitive loop, run as roster id solver's row of PRESETS.

    For a row that reads memory, an instance cfg.store holds is answered
    before round 1 with a copy of its stored coloring, once verdict
    passes it on graph and while time is left: no S1 round, no S2, no
    record appended, source memory.  Otherwise the trial runs up to the
    row's rounds of S1 with template feedback while time is left, its
    prompt seeded from the store's nearest record of another graph.
    The trial then ends with S1's answer; else S2's, given
    fallback and time left; else a timeout if no time is left; else
    Failure("s1-exhausted").  An unknown id, and a cfg.store for a row
    that reads no memory, raise ValueError.

    A round whose call got no reply (kind error) adds nothing to the
    prompt history, but it counts toward the rounds and the escalation
    rule like any other failed round.
    """
    preset = PRESETS.get(solver)
    if preset is None:
        raise ValueError(f"unknown solver {solver!r}; expected one of {tuple(PRESETS)}")
    if cfg.store is not None and not preset.memory:
        raise ValueError(MEMORYLESS_ERROR.format(solver=solver))
    if k < 1:
        raise ValueError("k must be >= 1")
    deadline = time.monotonic() + cfg.time_limit
    held = cfg.store.lookup(graph, k) if cfg.store is not None else None
    if held is not None and time.monotonic() < deadline and verdict(graph, held.solution, k).valid:
        return SolveOutcome("sat", dict(held.solution)), SolveTrace(iterations=(), s2_invoked=False, source="memory")
    proposer = make_proposer(cfg.proposer) if preset.rounds else None
    hit = retrieve_memory(cfg.store, graph, k) if cfg.store is not None else None
    examples = [hit.example] if hit is not None else []
    history: list[FeedbackEntry] = []
    iterations: list[IterationRecord] = []
    outcome: Optional[SolveOutcome] = None  # set once S1 answers

    for t in range(1, preset.rounds + 1):
        if time.monotonic() >= deadline:
            break
        if t == 2 and graph.vertices:  # rounds after a failed one show a worked example
            examples.append(_WorkedExample(graph))
        prompt = render_prompt(graph, k, examples, history)
        now = time.monotonic()
        response = proposer.propose(prompt, timeout=deadline - now)
        elapsed = time.monotonic() - now

        # Without an assignment the round scores as the empty assignment
        # does: every edge unsatisfied, unless there are none.
        score = float(not graph.edges)
        signature = (response.kind,)
        messages: tuple[str, ...] = ()
        if response.is_assignment:
            v = verdict(graph, response.assignment, k)
            score = float(v.score)
            if v.valid:
                signature, outcome = None, SolveOutcome("sat", response.assignment)
            else:  # a failed assignment draws a conflict, over-budget or uncolored message
                messages = tuple(item.message for item in _feedback(graph, response.assignment, v, k))
                signature = ("conflicts", v.conflicts)
                history.append((response.assignment, messages))
        elif response.is_not_solvable and preset.accept_unsat:
            outcome = SolveOutcome("unsat")
        elif response.is_not_solvable:
            messages = (NOT_SOLVABLE_REJECTED_MESSAGE,)
            history.append((response.raw or NOT_SOLVABLE, messages))
        elif response.kind == "unparseable":
            messages = (UNPARSEABLE_MESSAGE,)
            history.append((response.raw or "(no response)", messages))
        # kind error got no reply, so the next prompt shows nothing of it
        error = response.error if response.kind == "error" else None
        iterations.append(IterationRecord(response.kind, score, messages, signature, elapsed, error))
        if outcome is not None or (preset.fallback and escalation_rule(iterations, preset.rounds)):
            break

    remaining = deadline - time.monotonic()
    s2_invoked = outcome is None and preset.fallback and remaining > 0
    if outcome is not None:
        source = "S1"
    elif s2_invoked:
        outcome = solve_decision(graph, k, time_limit=remaining)
        source = None if outcome.is_timeout else "S2"
    else:
        source = None
        outcome = SolveOutcome("timeout") if remaining <= 0 else SolveOutcome("failure", reason="s1-exhausted")
    if cfg.store is not None and outcome.is_sat and held is None:
        cfg.store.append(EpisodicRecord.make(graph, k, outcome.assignment, source))
    return outcome, SolveTrace(iterations=tuple(iterations), s2_invoked=s2_invoked, source=source)


def solve_sofai_v2(graph: Graph, k: int, cfg: OrchestratorConfig) -> tuple[SolveOutcome, SolveTrace]:
    """Full loop: memory-seeded iterative S1 with feedback, then exact fallback."""
    return run_preset("SOFAI-v2", graph, k, cfg)


def solve_mc_s1_iN(
    graph: Graph, k: int, cfg: OrchestratorConfig, n_iterations: int
) -> tuple[SolveOutcome, SolveTrace]:
    """The capped ablation MC-S1-IN, N = n_iterations: exactly N feedback rounds, no exact fallback."""
    return run_preset(f"MC-S1-I{n_iterations}", graph, k, cfg)
