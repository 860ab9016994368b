"""Episodic memory: solved instances stored by attribute, retrieved by similarity.

A record holds the solved Graph; it becomes DIMACS text only in its line
of the append-only JSONL file (a store may also live purely in memory)
and in its prompt example, which is rendered once, on first retrieval.
Retrieval compares (n, e, density, k) attribute vectors; the raw
chromatic number of a fresh instance is unknown before solving, so the
color bound k stands in for it.  An instance is its k and its graph:
MemoryStore.lookup alone finds the record of an instance the store
holds, which a trial answers from at once, and retrieval never returns a
record of the query graph itself, at any k, so no prompt shows an
instance its own stored coloring.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Optional, TypeVar

from .graphs import ColorAssignment, Graph, parse_dimacs, serialize_dimacs, verdict
from .proposer import PromptExample

_SOLVERS = ("S1", "S2")
MAX_DISTANCE = 0.1  # retrieval returns no record this far from the query or farther


class MemoryRejected(ValueError):
    """Record refused: an invalid solution, or an instance the store already holds."""


@dataclass(frozen=True)
class EpisodicRecord:
    """A solved instance: the graph, its color bound k, and a coloring of it.

    However it is built (make, from_json, replace, the constructor), a
    record checks itself: a known solver, k >= 1, and a solution that
    properly colors the graph within k.  Its labels need no check: a
    Graph holds only labels that DIMACS and a reply's pairs can carry.
    """

    k: int
    graph: Graph
    solution: ColorAssignment
    solver: str
    timestamp: float

    def __post_init__(self) -> None:
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not verdict(self.graph, self.solution, self.k).valid:
            raise MemoryRejected(f"record of n={self.n}, e={self.e}, k={self.k} carries an invalid solution")

    @property
    def n(self) -> int:
        return len(self.graph.vertices)

    @property
    def e(self) -> int:
        return len(self.graph.edges)

    @property
    def density(self) -> float:
        return self.graph.density

    @cached_property
    def example(self) -> PromptExample:
        """The record as a prompt example; kept with the record, so its text is rendered once."""
        return PromptExample(self.graph, self.solution)

    @classmethod
    def make(cls, graph: Graph, k: int, solution: ColorAssignment, solver: str) -> "EpisodicRecord":
        """Build a record from a graph, stamped now."""
        return cls(k=k, graph=graph, solution=dict(solution), solver=solver, timestamp=time.time())

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "e": self.e,
                "density": self.density,
                "k": self.k,
                "dimacs": serialize_dimacs(self.graph),
                "solution": self.solution,
                "solver": self.solver,
                "timestamp": self.timestamp,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str | bytes) -> "EpisodicRecord":
        """Parse one JSONL line into a record, which checks itself; n, e, density and an old line's id go unread."""
        obj = json.loads(line)
        check_json_types(obj, _LINE_TYPES)
        return cls(
            k=obj["k"],
            graph=parse_dimacs(obj["dimacs"]),
            solution=obj["solution"],
            solver=obj["solver"],
            timestamp=float(obj["timestamp"]),
        )


# The keys of a memory line that EpisodicRecord.from_json reads, with their types.
_LINE_TYPES = dict(k="int", dimacs="str", solution="dict", solver="str", timestamp="float")

# The JSON value types each annotation accepts: a float takes an int too, as JSON has one number
# type; bool is a subclass of int, so the check compares types, not isinstance.
_JSON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "Optional[str]": (str, type(None)),
    "dict": (dict,),
}


def check_json_types(obj: dict, types: Mapping[str, str]) -> None:
    """Raise TypeError unless each obj[name] has a type its annotation types[name] accepts (KeyError if absent)."""
    for name, annotation in types.items():
        value = obj[name]
        if type(value) not in _JSON_TYPES[annotation]:
            raise TypeError(f"{name} must be {annotation}, not {type(value).__name__}")


T = TypeVar("T")
_UNPARSED = (ValueError, KeyError, TypeError, AttributeError)  # what parsing a line that is no record raises


def read_jsonl(path: Path, parse: Callable[[bytes], T]) -> list[T]:
    """Parse each nonblank line of a JSONL file into a list of records.

    A final line without its newline may be an append cut short: it is
    skipped when it does not parse (a memory append cuts it off).
    Any other line that does not parse raises ValueError naming path:line.
    """
    lines = path.read_bytes().split(b"\n")
    records: list[T] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(parse(line))
        except _UNPARSED as exc:
            if lineno < len(lines):
                raise ValueError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from None
    return records


class MemoryStore:
    """Append-only store of episodic records, at most one per instance.

    With a path, every accepted record is appended to the JSONL file
    before the call returns, and existing lines are loaded eagerly.
    One store per file at a time is supported: two stores on one file
    can each append the same instance, so loading keeps only the first
    record of each instance.

    Loading is otherwise read_jsonl's: an append cut short is skipped.
    Each append first ends the file, as it finds it, on a whole line: a
    final line without its newline is cut off if it does not parse,
    else terminated.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: list[EpisodicRecord] = []
        if self.path is not None and self.path.exists():
            for record in read_jsonl(self.path, EpisodicRecord.from_json):
                if self.lookup(record.graph, record.k) is None:
                    self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> tuple[EpisodicRecord, ...]:
        return tuple(self._records)

    def lookup(self, graph: Graph, k: int) -> Optional[EpisodicRecord]:
        """The record with this k and an equal graph, or None; graphs, which walk labels, compare last."""
        e = len(graph.edges)
        return next((rec for rec in self._records if rec.k == k and rec.e == e and rec.graph == graph), None)

    def append(self, record: EpisodicRecord) -> None:
        """Add a record unless the store holds its instance; with a path, the line is written before this returns."""
        if self.lookup(record.graph, record.k) is not None:
            raise MemoryRejected(f"duplicate: the store holds this n={record.n}, e={record.e} graph at k={record.k}")
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a+b") as fh:
                # in append mode the position starts at the end, and every write goes to the end
                fh.seek(max(fh.tell() - 1, 0))
                if fh.read(1) not in (b"", b"\n"):
                    fh.seek(0)
                    data = fh.read()
                    start = data.rfind(b"\n") + 1
                    try:
                        EpisodicRecord.from_json(data[start:])
                    except _UNPARSED:
                        fh.truncate(start)
                    else:
                        fh.write(b"\n")
                fh.write(record.to_json().encode() + b"\n")
        self._records.append(record)


def retrieve_memory(store: MemoryStore, graph: Graph, k: int) -> Optional[EpisodicRecord]:
    """The record nearest (graph, k), if its attribute distance is below MAX_DISTANCE; else None.

    A record of graph itself, at any k, is never returned: the prompt it
    seeds is for another problem.  Graphs are compared only when n and e
    match.  Distance is the mean of per-attribute |difference| over (n,
    e, density, k), each scaled by the max of that attribute over every
    record in the store (density is already in [0, 1]; scales floor at 1
    so a degenerate store cannot divide by zero).  Among records at one
    distance the first stored wins.
    """
    records = store.records()
    if not records:
        return None
    n, e = len(graph.vertices), len(graph.edges)
    query = (n, e, graph.density, k)
    scales = (
        max(1.0, max(r.n for r in records)),
        max(1.0, max(r.e for r in records)),
        1.0,
        max(1.0, max(r.k for r in records)),
    )

    def rank(idx: int) -> tuple[float, int]:
        rec = records[idx]
        if rec.n == n and rec.e == e and rec.graph == graph:
            return math.inf, idx
        attrs = (rec.n, rec.e, rec.density, rec.k)
        return sum(abs(q - a) / s for q, a, s in zip(query, attrs, scales)) / len(query), idx

    d, idx = min(map(rank, range(len(records))))
    return records[idx] if d < MAX_DISTANCE else None
