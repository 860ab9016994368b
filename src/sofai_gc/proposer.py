"""The fast proposer: prompt rendering, response parsing, and two backends.

The remote backend speaks the chat-completions JSON dialect over HTTP.
The mock backend is a seeded greedy colorist with tunable error knobs so
the orchestration loop (accept, refine, escalate, declare-unsolvable)
can be exercised deterministically and offline.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import time
import urllib.request
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .graphs import ColorAssignment, Graph, serialize_dimacs

NOT_SOLVABLE = "NOT SOLVABLE"

_PAIR_RE = re.compile(r"\(\s*([^\s()]+)\s+(\d+)\s*\)")

_DEFAULT_TIMEOUT = 30.0
_RETRY_BACKOFF = 0.5


@dataclass(frozen=True)
class ProposerConfig:
    """Backend selection plus knobs.

    kind "mock" ignores the endpoint fields; kind "remote" requires an
    endpoint.  noise is the per-vertex probability that the mock replaces
    its greedy choice with a uniform color; it decays by noise_decay per
    feedback round, so feedback measurably helps.  unsat_rate is the
    probability the mock declares the instance unsolvable outright.
    """

    kind: str = "mock"
    endpoint: Optional[str] = None
    api_key: Optional[str] = None
    model: Optional[str] = None
    temperature: float = 0.0
    timeout: float = _DEFAULT_TIMEOUT
    retries: int = 2
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

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None, **overrides) -> "ProposerConfig":
        """Build from S1_ENDPOINT / S1_API_KEY / S1_MODEL, then overrides.

        Unless overridden, kind is remote iff the final endpoint is set.
        """
        env = os.environ if environ is None else environ
        fields = dict(
            endpoint=env.get("S1_ENDPOINT"),
            api_key=env.get("S1_API_KEY"),
            model=env.get("S1_MODEL"),
        )
        fields.update(overrides)
        fields.setdefault("kind", "remote" if fields["endpoint"] else "mock")
        return cls(**fields)


@dataclass(frozen=True)
class PromptExample:
    """A solved (or declared-unsolvable) instance shown to the proposer."""

    graph: Graph
    solution: Optional[ColorAssignment]

    def render(self) -> str:
        lines = ["Problem:", serialize_dimacs(self.graph), "", "Correct Solution:"]
        if self.solution is None:
            lines.append(NOT_SOLVABLE)
        else:
            lines.append(format_assignment(self.solution, self.graph.vertices))
        lines.extend(["", "End of Example"])
        return "\n".join(lines)


# One iteration of history: the raw response and the feedback messages it drew.
FeedbackEntry = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Prompt:
    graph: Graph
    k: int
    examples: tuple[PromptExample, ...]
    feedback_history: tuple[FeedbackEntry, ...]
    text: str


def format_assignment(assignment: Mapping[str, int], vertex_order: Sequence[str]) -> str:
    """Render an assignment as "(A 1)" lines in the given vertex order."""
    return "\n".join(f"({v} {assignment[v]})" for v in vertex_order if v in assignment)


def render_prompt(
    graph: Graph,
    k: int,
    examples: Sequence[PromptExample] = (),
    feedback_history: Sequence[FeedbackEntry] = (),
) -> Prompt:
    """Assemble the proposer prompt.

    The base sections are fixed wording; episodic or generated examples
    are appended after the format section, then the accumulated
    (attempt, feedback) history most-recent-last, then the closing
    request.  Identical inputs produce identical text.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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
    sections.extend(ex.render() for ex in examples)
    for attempt, messages in feedback_history:
        sections.append("Incorrect Coloring Submitted:\n" + attempt)
        sections.append("Feedback Provided:\n" + "\n".join(messages))
    sections.append(
        "Please provide the color assignment for the new problem to solve, "
        f'or respond with "{NOT_SOLVABLE}" if it cannot be solved.'
    )
    return Prompt(
        graph=graph,
        k=k,
        examples=tuple(examples),
        feedback_history=tuple((a, tuple(m)) for a, m in feedback_history),
        text="\n\n".join(sections),
    )


@dataclass(frozen=True)
class ProposerResponse:
    """Parsed proposer output.

    kind: "assignment" (assignment holds the parsed pairs, possibly
    partial), "not_solvable", "unparseable" (a reply with no pairs), or
    "error" (no reply: a transport, HTTP or JSON failure, or no time
    left).  error says why for the last two.
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

    Pairs naming unknown vertices or color 0 are ignored; the last pair
    for a vertex wins.  With no usable pairs, the text is scanned for a
    NOT SOLVABLE declaration; anything else is unparseable.
    """
    assignment: ColorAssignment = {}
    for v, c in _PAIR_RE.findall(text):
        if v in graph.adjacency and int(c) >= 1:
            assignment[v] = int(c)
    if assignment:
        return ProposerResponse("assignment", raw=text, assignment=assignment)
    if NOT_SOLVABLE in text.upper():
        return ProposerResponse("not_solvable", raw=text)
    return ProposerResponse("unparseable", raw=text, error="no color pairs found")


class MockProposer:
    """Deterministic seeded stand-in for the remote model.

    Base behavior is greedy coloring in stable vertex order, ignoring the
    k bound (greedy may over-color, which exercises the over-color
    feedback path).  noise corrupts per-vertex choices; it decays with
    the number of feedback rounds already in the prompt, so iteration
    helps.  unsat_rate declares NOT SOLVABLE regardless of the graph.
    """

    def __init__(self, config: ProposerConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)

    def propose(self, prompt: Prompt, *, timeout: Optional[float] = None) -> ProposerResponse:
        del timeout  # the mock never blocks
        rng = self._rng
        if rng.random() < self.config.unsat_rate:
            return ProposerResponse("not_solvable", raw=NOT_SOLVABLE)
        graph, k = prompt.graph, prompt.k
        effective_noise = self.config.noise * (self.config.noise_decay ** len(prompt.feedback_history))
        assignment: ColorAssignment = {}
        for v in graph.vertices:
            used = {assignment[u] for u in graph.adjacency[v] if u in assignment}
            color = 1
            while color in used:
                color += 1
            if effective_noise and rng.random() < effective_noise:
                color = rng.randint(1, k)
            assignment[v] = color
        raw = format_assignment(assignment, graph.vertices)
        return parse_response(raw, graph) if raw else ProposerResponse("assignment", raw="", assignment={})


class RemoteProposer:
    """Chat-completions HTTP client with retries.

    One call has one deadline: each attempt gets the time left, a backoff
    sleeps at most that long, and no attempt starts once it is spent.
    """

    def __init__(self, config: ProposerConfig) -> None:
        if config.kind != "remote":
            raise ValueError("RemoteProposer requires a remote config")
        self.config = config

    def propose(self, prompt: Prompt, *, timeout: Optional[float] = None) -> ProposerResponse:
        budget = self.config.timeout if timeout is None else min(self.config.timeout, timeout)
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
        for attempt in range(self.config.retries + 1):
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
                if attempt < self.config.retries:
                    time.sleep(max(0.0, min(_RETRY_BACKOFF * (attempt + 1), deadline - time.monotonic())))
        return ProposerResponse("error", raw="", error=last_error)


def make_proposer(config: ProposerConfig):
    if config.kind == "mock":
        return MockProposer(config)
    return RemoteProposer(config)
