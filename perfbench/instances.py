"""Benchmark inputs, and an answer check that does not use the code under test.

Known-chromatic families are built here from their definitions; nothing is
downloaded.  The dense Erdos-Renyi suite is pinned in er_suite.json with its
chromatic numbers (see pin_er_suite.py).  The sparse S1 suite is drawn from
a fixed seed and certified by this module's own greedy coloring.  In both
suites the workload seed only orders the graphs, so a change of seed moves
the mock proposer's draws and not the graphs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from sofai_gc import generate
from sofai_gc.graphs import Graph

HERE = Path(__file__).resolve().parent
ER_SUITE_FILE = HERE / "er_suite.json"

ER_N, ER_P = 30, 0.5
SPARSE_N, SPARSE_P, SPARSE_COUNT = 300, 0.03, 24
SPARSE_SUITE_SEED = 0  # draws the sparse suite's instance seeds


@dataclass(frozen=True)
class Instance:
    """One decision instance with the answer the benchmark expects.

    chi is the literature or pinned chromatic number; it is None for sparse
    instances, whose k is backed by `certificate` (a proper k-coloring)
    instead.
    """

    id: str
    graph: Graph
    k: int
    chi: int | None = None
    certificate: dict[str, int] | None = None
    spec_seed: int | None = None
    instance_seed: int | None = None

    @property
    def expect_sat(self) -> bool:
        return self.certificate is not None or self.k >= self.chi


def is_proper(inst: Instance, coloring: dict[str, int] | None) -> bool:
    """The benchmark's own check: every vertex colored 1..k, no edge monochrome."""
    if coloring is None or set(coloring) != set(inst.graph.vertices):
        return False
    if any(not 1 <= c <= inst.k for c in coloring.values()):
        return False
    return all(coloring[u] != coloring[v] for u, v in inst.graph.edges)


def _relabel(vertices: list, edges: list) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    index = {v: str(i) for i, v in enumerate(vertices, 1)}
    return tuple(index.values()), tuple((index[u], index[v]) for u, v in edges)


def mycielski(steps: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Mycielski's construction applied `steps` times to K2 (chi = steps + 2).

    Each step copies every vertex v to u_v, joins u_v to v's neighbours, and
    joins a new apex to every u_v: chi rises by one and no triangle appears.
    """
    vertices: list = [0, 1]
    edges: list = [(0, 1)]
    for step in range(steps):
        copies = {v: ("u", step, v) for v in vertices}
        apex = ("w", step)
        new_edges = list(edges)
        for a, b in edges:
            new_edges += [(a, copies[b]), (b, copies[a])]
        new_edges += [(copies[v], apex) for v in vertices]
        vertices = vertices + list(copies.values()) + [apex]
        edges = new_edges
    return _relabel(vertices, edges)


def queen(size: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Queen graph on a size x size board: cells sharing a row, column or diagonal."""
    cells = [(r, c) for r in range(size) for c in range(size)]
    edges = [
        (a, b)
        for i, a in enumerate(cells)
        for b in cells[i + 1:]
        if a[0] == b[0] or a[1] == b[1] or abs(a[0] - b[0]) == abs(a[1] - b[1])
    ]
    return _relabel(cells, edges)


# name -> (construction, chi, vertices, edges).  chi and the sizes are those
# of Trick's DIMACS COLOR instances of the same names; the sizes guard the
# constructions.  myciel5 and queen8_8 are left out: each times out at 20 s in S2.
KNOWN_CHI = {
    "myciel3": (lambda: mycielski(2), 4, 11, 20),
    "myciel4": (lambda: mycielski(3), 5, 23, 71),
    "queen5_5": (lambda: queen(5), 5, 25, 160),
    "queen6_6": (lambda: queen(6), 7, 36, 290),
    "queen7_7": (lambda: queen(7), 7, 49, 476),
}


def known_chi_instances() -> list[Instance]:
    """Each known-chi graph at k = chi (SAT) and k = chi - 1 (UNSAT)."""
    out = []
    for name, (build, chi, nv, ne) in KNOWN_CHI.items():
        vertices, edges = build()
        if (len(vertices), len(edges)) != (nv, ne):
            raise RuntimeError(f"{name}: built {len(vertices)}/{len(edges)}, expected {nv}/{ne}")
        for k in (chi, chi - 1):
            out.append(Instance(f"{name}_k{k}", Graph(vertices, edges), k, chi=chi))
    return out


def er_suite() -> list[dict]:
    """The pinned dense suite: generator spec seed, instance seed and chi of each graph."""
    return json.loads(ER_SUITE_FILE.read_text())["instances"]


def er_instances(rng: random.Random) -> list[Instance]:
    """The pinned G(30, 0.5) suite, a third at k = chi and the rest at k = chi - 1, in seeded order.

    Graphs come from the package's generator and the pinned instance seeds.
    Every third entry is a SAT slot.  With half the slots SAT, the median
    trial fell in the gap between quick SAT answers and UNSAT proofs and
    jumped across it from run to run; with two thirds UNSAT it is a proof.
    """
    out = []
    for idx, entry in enumerate(er_suite()):
        graph = generate.gen_erdos_renyi(ER_N, ER_P, entry["instance_seed"])
        chi = entry["chi"]
        k = chi if idx % 3 == 0 else chi - 1
        out.append(Instance(
            f"er{idx:03d}_k{k}", graph, k, chi=chi,
            spec_seed=entry["spec_seed"], instance_seed=entry["instance_seed"],
        ))
    rng.shuffle(out)
    return out


def greedy_coloring(vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]) -> dict[str, int]:
    """First-fit coloring in vertex order, built from the edge list alone."""
    neighbours: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    coloring: dict[str, int] = {}
    for v in vertices:
        used = {coloring[u] for u in neighbours[v] if u in coloring}
        coloring[v] = next(c for c in range(1, len(used) + 2) if c not in used)
    return coloring


def sparse_instances(rng: random.Random) -> list[Instance]:
    """The fixed G(300, 0.03) suite at k = greedy colors + 1, SAT by certificate, in seeded order."""
    suite = random.Random(SPARSE_SUITE_SEED)
    out = []
    for idx in range(SPARSE_COUNT):
        seed = suite.getrandbits(63)
        graph = generate.gen_erdos_renyi(SPARSE_N, SPARSE_P, seed)
        coloring = greedy_coloring(graph.vertices, graph.edges)
        k = max(coloring.values()) + 1
        inst = Instance(f"sp{idx:03d}_k{k}", graph, k, certificate=coloring, instance_seed=seed)
        if not is_proper(inst, coloring):
            raise RuntimeError(f"{inst.id}: greedy certificate is not a proper {k}-coloring")
        out.append(inst)
    rng.shuffle(out)
    return out
