import sys
from pathlib import Path

import pytest

from sofai_gc import Graph

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fig2_graph() -> Graph:
    """The five-vertex worked example used throughout the prompt templates."""
    return Graph(
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")),
    )


@pytest.fixture
def triangle() -> Graph:
    return Graph(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))


def complete_graph(n: int) -> Graph:
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        (str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return Graph(vertices, edges)


def cycle_graph(n: int) -> Graph:
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple((str(i), str(i % n + 1)) for i in range(1, n + 1))
    return Graph(vertices, edges)


def myciel(m: int) -> Graph:
    """DIMACS `myciel<m>`: Mycielski's construction applied m - 1 times to K2.

    Triangle-free with chi = m + 1.  myciel6 (95 vertices, 755 edges) at
    k = 6 is the suite's instance the exact solver cannot finish: DSATUR
    gives no answer within 20 s, so any sub-second limit must fire.
    """
    vertices = ["1", "2"]
    edges = [("1", "2")]
    for _ in range(m - 1):
        n = len(vertices)
        copy = {v: str(n + i + 1) for i, v in enumerate(vertices)}
        apex = str(2 * n + 1)
        edges += [(a, copy[b]) for a, b in edges] + [(b, copy[a]) for a, b in edges]
        edges += [(copy[v], apex) for v in vertices]
        vertices += list(copy.values()) + [apex]
    return Graph(tuple(vertices), tuple(edges))


def queen(size: int) -> Graph:
    """DIMACS `queen<size>_<size>`: the cells of a size x size board, row by row, joined when they share a line.

    Cells on one row, column or diagonal are joined, so each row is a
    clique of size vertices.  queen6_6 and queen7_7 have chi 7.
    """
    cells = [(r, c) for r in range(size) for c in range(size)]
    edges = tuple(
        (str(i + 1), str(j + 1))
        for i, (r, c) in enumerate(cells)
        for j, (s, d) in enumerate(cells[i + 1:], i + 1)
        if r == s or c == d or abs(r - s) == abs(c - d)
    )
    return Graph(tuple(str(i + 1) for i in range(len(cells))), edges)


@pytest.fixture
def petersen() -> Graph:
    outer = [(str(i + 1), str((i + 1) % 5 + 1)) for i in range(5)]
    spokes = [(str(i + 1), str(i + 6)) for i in range(5)]
    inner = [(str(i + 6), str((i + 2) % 5 + 6)) for i in range(5)]
    return Graph(tuple(str(i) for i in range(1, 11)), tuple(outer + spokes + inner))


@pytest.fixture
def no_retries(monkeypatch):
    """The remote proposer makes one attempt per call, not 1 + _RETRIES."""
    monkeypatch.setattr("sofai_gc.proposer._RETRIES", 0)
