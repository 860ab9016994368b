"""Per-layer tracing from outside the package.

Each public function of a layer is wrapped at the module attribute its
caller looks it up through (for example `sofai_gc.metacognition.verdict`,
not `sofai_gc.graphs.verdict`), only while a `Tracer` is installed.  A
wrapper records a span (name, start, end, parent) and adds its duration to
the parent's child time, so a span's self time is its duration minus its
children's.  Spans stay in memory until `write_spans`.

`dsatur.select` fires about 475,000 times per er-exact round, so it keeps
counts and times only and records no spans.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import sofai_gc.bench
import sofai_gc.dsatur
import sofai_gc.generate
import sofai_gc.memory
import sofai_gc.metacognition
import sofai_gc.proposer

# span name -> the (object, attribute) sites callers look it up through.
SITES = {
    "bench.run": [(sofai_gc.bench, "run_benchmark")],
    "generate.er": [(sofai_gc.generate, "gen_erdos_renyi")],
    "generate.write": [(sofai_gc.generate, "write_dataset")],
    "generate.load": [(sofai_gc.bench, "load_dataset")],
    "generate.build": [(sofai_gc.generate, "build_dataset")],
    "dsatur.chromatic": [(sofai_gc.generate, "chromatic_number")],
    "dsatur.solve": [
        (sofai_gc.dsatur, "solve_decision"),
        (sofai_gc.bench, "solve_decision"),
        (sofai_gc.metacognition, "solve_decision"),
    ],
    "dsatur.select": [(sofai_gc.dsatur, "select_vertex")],
    "graphs.parse": [
        (sofai_gc.bench, "parse_dimacs_instance"),
        (sofai_gc.generate, "parse_dimacs_instance"),
        (sofai_gc.metacognition, "parse_dimacs"),
        (sofai_gc.memory, "parse_dimacs"),
    ],
    "graphs.serialize": [
        (sofai_gc.bench, "serialize_dimacs"),
        (sofai_gc.generate, "serialize_dimacs"),
        (sofai_gc.memory, "serialize_dimacs"),
        (sofai_gc.metacognition, "serialize_dimacs"),
    ],
    "graphs.verdict": [
        (sofai_gc.dsatur, "verdict"),
        (sofai_gc.metacognition, "verdict"),
        (sofai_gc.memory, "verdict"),
    ],
    "proposer.render": [(sofai_gc.metacognition, "render_prompt")],
    "proposer.propose": [(sofai_gc.proposer.MockProposer, "propose")],
    "proposer.parse_response": [(sofai_gc.proposer, "parse_response")],
    "metacognition.solve": [(sofai_gc.bench, "solve_sofai_v2")],
    "metacognition.feedback": [(sofai_gc.metacognition, "format_feedback")],
    "metacognition.example": [(sofai_gc.metacognition, "generate_example")],
    "memory.load": [(sofai_gc.bench, "MemoryStore")],
    "memory.retrieve": [(sofai_gc.metacognition, "retrieve_memory")],
    "memory.update": [(sofai_gc.metacognition, "update_memory")],
}
LEAF_ONLY = {"dsatur.select"}
LAYERS = ("bench", "generate", "dsatur", "graphs", "proposer", "metacognition", "memory")


class Tracer:
    """Span and counter store for one traced section of a run."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # name -> [calls, total seconds, self seconds, raised]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in SITES}
        self.counters: dict[str, float] = {"prompt_chars": 0, "retrieve_hits": 0, "retrieve_records": 0}
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self.missing: list[str] = []  # sites the package no longer has

    def _leaf(self, name: str, fn):
        stats, stack = self.stats[name], self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            took = perf_counter() - start
            stats[0] += 1
            stats[1] += took
            stats[2] += took
            if stack:
                stack[-1][2] += took
            return result

        return wrapper

    def _span(self, name: str, fn):
        stats, stack, spans = self.stats[name], self._stack, self.spans
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                took = end - frame[1]
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[2]
                stats[3] += raised
                if stack:
                    stack[-1][2] += took
                spans.append((span_id, parent, name, frame[1], end))
            if observe:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore the originals."""
        saved = []
        try:
            for name, sites in SITES.items():
                wrap = self._leaf if name in LEAF_ONLY else self._span
                for owner, attr in sites:
                    original = owner.__dict__.get(attr)
                    if original is None:
                        self.missing.append(f"{owner.__name__}.{attr}")
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path, workload: str) -> None:
        """One JSON object per span, times in seconds since the tracer was made."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "workload": workload,
                    "start": round(start - self.origin, 7), "end": round(end - self.origin, 7),
                }) + "\n")


def _observe_render(counters, args, prompt) -> None:
    counters["prompt_chars"] += len(prompt.text)


def _observe_retrieve(counters, args, records) -> None:
    counters["retrieve_hits"] += bool(records)
    counters["retrieve_records"] += len(args[0])


_OBSERVERS = {"proposer.render": _observe_render, "memory.retrieve": _observe_retrieve}


def layer_metrics(tracer: Tracer, traced_seconds: float, trials: list) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of the traced section, as name -> (value, unit).

    `trials` are the TrialResults of the traced section and `traced_seconds`
    its wall time; each `<layer>.share_pct` is the layer's self time as a
    share of it.
    """
    st = tracer.stats

    def calls(name):
        return st[name][0]

    def secs(name):
        return st[name][1]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def pct(part, whole):
        return 100.0 * ratio(part, whole)

    s1_iters = sum(t.s1_iterations for t in trials)
    ops = {
        "dsatur.solve.calls": (calls("dsatur.solve"), "count"),
        "dsatur.solve.s": (secs("dsatur.solve"), "s"),
        "dsatur.nodes": (calls("dsatur.select"), "count"),
        "dsatur.select.s": (secs("dsatur.select"), "s"),
        "dsatur.nodes_per_s": (ratio(calls("dsatur.select"), secs("dsatur.solve")), "1/s"),
        "graphs.parse.calls": (calls("graphs.parse"), "count"),
        "graphs.parse.s": (secs("graphs.parse"), "s"),
        "graphs.serialize.s": (secs("graphs.serialize"), "s"),
        "graphs.verdict.calls": (calls("graphs.verdict"), "count"),
        "graphs.verdict.s": (secs("graphs.verdict"), "s"),
        "graphs.verdict_per_iter": (ratio(calls("graphs.verdict"), s1_iters), "ratio"),
        "proposer.render.s": (secs("proposer.render"), "s"),
        "proposer.prompt_chars_mean": (ratio(tracer.counters["prompt_chars"], calls("proposer.render")), "chars"),
        "proposer.propose.calls": (calls("proposer.propose"), "count"),
        "proposer.propose.s": (secs("proposer.propose"), "s"),
        "proposer.parse_response.s": (secs("proposer.parse_response"), "s"),
        "metacognition.s1_iters": (s1_iters, "count"),
        "metacognition.s1_accept_pct": (
            pct(sum(t.status == "sat" and not t.s2_invoked for t in trials), len(trials)), "%"),
        "metacognition.escalate_pct": (pct(sum(t.s2_invoked for t in trials), len(trials)), "%"),
        "metacognition.feedback.s": (secs("metacognition.feedback"), "s"),
        "metacognition.example.s": (secs("metacognition.example"), "s"),
        "metacognition.self_s": (st["metacognition.solve"][2], "s"),
        "memory.load.calls": (calls("memory.load"), "count"),
        "memory.load.s": (secs("memory.load"), "s"),
        "memory.retrieve.calls": (calls("memory.retrieve"), "count"),
        "memory.retrieve.s": (secs("memory.retrieve"), "s"),
        "memory.hit_pct": (pct(tracer.counters["retrieve_hits"], calls("memory.retrieve")), "%"),
        "memory.update.calls": (calls("memory.update"), "count"),
        "memory.update.s": (secs("memory.update"), "s"),
        "memory.update_accept_pct": (pct(calls("memory.update") - st["memory.update"][3], calls("memory.update")), "%"),
        "memory.records": (ratio(tracer.counters["retrieve_records"], calls("memory.retrieve")), "count"),
        "generate.er.s": (secs("generate.er"), "s"),
        "generate.write.s": (secs("generate.write"), "s"),
        "generate.load.s": (secs("generate.load"), "s"),
        "bench.run.s": (secs("bench.run"), "s"),
        "bench.overhead_s": (secs("bench.run") - sum(t.wall_time for t in trials), "s"),
    }
    for layer in LAYERS:
        own = sum(v[2] for name, v in st.items() if name.startswith(layer + "."))
        ops[f"{layer}.share_pct"] = (pct(own, traced_seconds), "%")
    return ops
