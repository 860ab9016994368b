"""The fast proposer: prompt rendering, response parsing, and two backends.

The remote backend speaks the chat-completions JSON dialect over HTTP.
The mock backend is a seeded greedy colorist with tunable error knobs so
the orchestration loop (accept, refine, escalate, declare-unsolvable)
can be exercised deterministically and offline.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .graphs import LABEL, ColorAssignment, Graph, serialize_dimacs

NOT_SOLVABLE = "NOT SOLVABLE"

_PAIR_RE = re.compile(rf"\(\s*({LABEL})\s+(\d+)\s*\)")

_REQUEST_TIMEOUT = 30.0
_RETRIES = 2
_RETRY_BACKOFF = 0.5


@dataclass(frozen=True)
class ProposerConfig:
    """Backend selection plus knobs.

    kind "mock" ignores the endpoint fields; kind "remote" requires an
    endpoint.  noise is the per-vertex probability that the mock replaces
    its greedy choice with a uniform color; it decays by noise_decay per
    failed round, so later rounds improve by round count alone, not by
    the feedback.  unsat_rate is the chance the mock answers NOT SOLVABLE.
    A remote call's time cap (30 s) and retry count (2) are fixed, not
    settings: the call's own timeout, the trial's time left, bounds both.
    """

    kind: str = "mock"
    endpoint: Optional[str] = None
    api_key: Optional[str] = None
    model: Optional[str] = None
    temperature: float = 0.0
    noise: float = 0.0
    noise_decay: float = 1.0
    unsat_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "remote"):
            raise ValueError(f"unknown proposer kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote proposer requires an endpoint")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if not 0.0 <= self.noise_decay <= 1.0:
            raise ValueError("noise_decay must be in [0, 1]")
        if not 0.0 <= self.unsat_rate <= 1.0:
            raise ValueError("unsat_rate must be in [0, 1]")
        if not 0 <= self.temperature < float("inf"):  # NaN and inf would be sent as NaN and Infinity, not JSON
            raise ValueError("temperature must be finite and >= 0")


@dataclass(frozen=True)
class PromptExample:
    """A solved instance shown to the proposer: a graph and a coloring of it."""

    graph: Graph
    solution: ColorAssignment

    @cached_property
    def text(self) -> str:
        """The example's prompt block, rendered on first use and then kept with the example."""
        problem, solution = serialize_dimacs(self.graph), format_assignment(self.solution, self.graph.vertices)
        return "\n".join(["Problem:", problem, "", "Correct Solution:", solution, "", "End of Example"])


# One iteration of history: the attempt, a reply's text or the failed coloring itself, and the messages it drew.
FeedbackEntry = tuple[str | ColorAssignment, tuple[str, ...]]


@dataclass(frozen=True)
class Prompt:
    """What a proposer reads: the remote one sends text and parses its reply against graph; the mock reads
    graph, k and feedback_rounds, the number of failed attempts the text shows, never the text.  text is
    rendered on first read and kept: a mock run renders none, a remote call one, inside its timed span."""

    graph: Graph
    k: int
    examples: tuple[PromptExample, ...] = ()
    history: tuple[FeedbackEntry, ...] = ()

    @property
    def feedback_rounds(self) -> int:
        return len(self.history)

    @cached_property
    def text(self) -> str:
        graph, k = self.graph, self.k
        graph_block = (
            "Graph Representation:\n"
            f"- Number of vertices and edges: p edge {len(graph.vertices)} {len(graph.edges)}.\n"
            "- Edges between vertices are listed as follows:"
        )
        if graph.edges:
            graph_block += "\n" + graph.edge_text
        sections = [
            "New Problem to Solve:\n"
            f"You are given an undirected graph with {k} colors available. "
            "Your task is to assign a color to each vertex such that no two adjacent "
            "vertices share the same color.",
            graph_block,
            "Objective:\n"
            "Assign a unique color to each vertex, ensuring that no two vertices "
            "connected by an edge have the same color. "
            f"Use no more than {k} distinct colors. "
            "Provide the color assignments for each vertex in the format:\n"
            "(Vertex Color)",
            "Example Format:\n(A 1)\n(B 2)\n(C 1)",
        ]
        sections.extend(ex.text for ex in self.examples)
        for attempt, messages in self.history:
            attempt = attempt if isinstance(attempt, str) else format_assignment(attempt, graph.vertices)
            sections.append("Incorrect Coloring Submitted:\n" + attempt)
            sections.append("Feedback Provided:\n" + "\n".join(messages))
        sections.append(
            "Please provide the color assignment for the new problem to solve, "
            f'or respond with "{NOT_SOLVABLE}" if it cannot be solved.'
        )
        return "\n\n".join(sections)


def format_assignment(assignment: Mapping[str, int], vertex_order: Sequence[str]) -> str:
    """Render an assignment as "(A 1)" lines in the given vertex order."""
    return "\n".join([f"({v} {assignment[v]})" for v in vertex_order if v in assignment])


def render_prompt(
    graph: Graph,
    k: int,
    examples: Sequence[PromptExample] = (),
    feedback_history: Sequence[FeedbackEntry] = (),
) -> Prompt:
    """Assemble the proposer prompt from copies of examples and history; its text is rendered on first read.

    The base sections are fixed wording; episodic or generated examples
    are appended after the format section, then the accumulated
    (attempt, feedback) history most-recent-last, then the closing
    request.  Identical inputs produce identical text.  Examples and
    history reach a proposer only as text, and the history's length as feedback_rounds.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return Prompt(graph, k, tuple(examples), tuple(feedback_history))


@dataclass(frozen=True)
class ProposerResponse:
    """Parsed proposer output.

    kind: "assignment" (a text reply's parsed pairs, possibly partial, or
    the mock's own coloring), "not_solvable", "unparseable" (a reply with
    no pairs), or "error" (no reply: a transport, HTTP or JSON failure, or
    no time left).  error says why for the last two.  raw is the reply's
    text, empty from the mock, which sends none: the controller writes a
    failed coloring into the prompt.
    """

    kind: str
    raw: str
    assignment: Optional[ColorAssignment] = None
    error: Optional[str] = None

    @property
    def is_assignment(self) -> bool:
        return self.kind == "assignment"

    @property
    def is_not_solvable(self) -> bool:
        return self.kind == "not_solvable"


def parse_response(text: str, graph: Graph) -> ProposerResponse:
    """Extract "(vertex color)" pairs from free-form proposer text.

    A pair names a vertex by graphs.LABEL, so "(v(1) 1)" colors v(1).
    Pairs naming unknown vertices, color 0 or a color too long for int()
    are ignored; the last pair for a vertex wins.  The assignment is keyed
    by the graph's own vertex strings (graph.index).  With no usable pairs,
    the text is scanned for NOT SOLVABLE; anything else is unparseable.
    """
    assignment: ColorAssignment = {}
    for label, c in _PAIR_RE.findall(text):
        i = graph.index.get(label)
        try:
            if i is not None and (color := int(c)) >= 1:
                assignment[graph.vertices[i]] = color
        except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits): no reply text raises
            pass
    if assignment:
        return ProposerResponse("assignment", raw=text, assignment=assignment)
    if NOT_SOLVABLE in text.upper():
        return ProposerResponse("not_solvable", raw=text)
    return ProposerResponse("unparseable", raw=text, error="no color pairs found")


class MockProposer:
    """Deterministic seeded stand-in for the remote model.

    It reads a prompt's graph, k and feedback_rounds, never its text, so
    a mock trial renders no prompt text.
    Base behavior is greedy coloring in stable vertex order, ignoring the
    k bound (greedy may over-color, which exercises the over-color
    feedback path).  noise corrupts per-vertex choices; it decays with
    feedback_rounds, so iteration helps.  unsat_rate declares NOT SOLVABLE
    regardless of the graph.  It sends no text: a reply carries only its
    kind and its coloring.

    The greedy choice is Graph.first_fit's, in vertex order, drawn from
    the same taken-color bitmasks (bit c set once a neighbor is colored
    c, bit 0 always, so the lowest clear bit is a color >= 1), with each
    noisy color set in them in its place.  A first fit on n vertices is at
    most n, so a noisy color above n, which can be as large as k, sets no
    bit: the masks stay n + 1 bits wide whatever k is.
    """

    def __init__(self, config: ProposerConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)

    def propose(self, prompt: Prompt, *, timeout: Optional[float] = None) -> ProposerResponse:
        del timeout  # the mock never blocks
        rng = self._rng
        if rng.random() < self.config.unsat_rate:
            return ProposerResponse("not_solvable", raw="")
        graph, k = prompt.graph, prompt.k
        effective_noise = self.config.noise * (self.config.noise_decay ** prompt.feedback_rounds)
        n = len(graph.vertices)
        taken = [1] * n
        colors = [0] * n
        for v, ns in enumerate(graph.neighbours):
            t = taken[v]
            low = ~t & (t + 1)
            color = low.bit_length() - 1
            if effective_noise and rng.random() < effective_noise:
                color = rng.randint(1, k)
                low = 1 << color if color <= n else 0
            colors[v] = color
            for u in ns:
                taken[u] |= low
        return ProposerResponse("assignment", raw="", assignment=dict(zip(graph.vertices, colors)))


class RemoteProposer:
    """Chat-completions HTTP client with retries.

    One call has one deadline, its timeout or 30 s if that is shorter, for
    up to 2 retries: each attempt gets the time left, a backoff sleeps at
    most that long, and no attempt starts once it is spent.
    """

    def __init__(self, config: ProposerConfig) -> None:
        if config.kind != "remote":
            raise ValueError("RemoteProposer requires a remote config")
        self.config = config

    def propose(self, prompt: Prompt, *, timeout: Optional[float] = None) -> ProposerResponse:
        # Imported here, not at the top: the network stack, ssl too, costs memory in every run without an endpoint.
        import http.client
        import urllib.request

        budget = _REQUEST_TIMEOUT if timeout is None else min(_REQUEST_TIMEOUT, timeout)
        if budget <= 0:
            return ProposerResponse("error", raw="", error="no time budget left")
        deadline = time.monotonic() + budget
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = {
            "model": self.config.model or "default",
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": self.config.temperature,
        }
        request = urllib.request.Request(self.config.endpoint, json.dumps(payload).encode(), headers, method="POST")
        last_error = "transport failure"
        for attempt in range(_RETRIES + 1):
            left = deadline - time.monotonic()
            if left <= 0:
                break
            try:
                with urllib.request.urlopen(request, timeout=left) as resp:
                    content = json.load(resp)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise ValueError("message content is not text")
                return parse_response(content, prompt.graph)
            # HTTPError, URLError and TimeoutError are OSErrors; a wrong JSON shape raises TypeError or LookupError
            except (OSError, http.client.HTTPException, ValueError, LookupError, TypeError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt < _RETRIES:
                    time.sleep(max(0.0, min(_RETRY_BACKOFF * (attempt + 1), deadline - time.monotonic())))
        return ProposerResponse("error", raw="", error=last_error)


def make_proposer(config: ProposerConfig):
    if config.kind == "mock":
        return MockProposer(config)
    return RemoteProposer(config)
