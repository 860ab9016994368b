"""Random instance generation with exact difficulty labels.

Instances are Erdos-Renyi G(n, p) graphs.  Each one is labeled by first
computing its chromatic number with the exact solver, then asking for
either k = chi colors (SAT) or k = chi - 1 colors (UNSAT), so every
label is ground truth rather than an estimate.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from .dsatur import DeadlineExceeded, chromatic_number
from .graphs import Graph, parse_dimacs_instance, serialize_dimacs

# Recorded in the manifest so datasets state their randomness source.
PRNG_NAME = "python-random-mt19937"

_MAX_REGEN_ATTEMPTS = 1000


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one dataset cell.

    mix = (a, b): a percent of instances labeled SAT, b percent UNSAT.
    """

    n: int
    p: float
    count: int
    seed: int
    mix: tuple[int, int] = (100, 0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        a, b = self.mix
        if a < 0 or b < 0 or a + b != 100:
            raise ValueError("mix percentages must be non-negative and sum to 100")


@dataclass(frozen=True)
class InstanceRecord:
    """One labeled instance plus the provenance needed to regenerate it."""

    id: str
    graph: Graph
    n: int
    p: float
    seed: int
    chi: int
    k: int
    label: str


@dataclass(frozen=True)
class Dataset:
    spec: GenSpec
    instances: tuple[InstanceRecord, ...]
    complete: bool


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with vertices "1".."n"; each pair (i < j) kept with probability p.

    Pairs are drawn in numeric order from random.Random(seed), so the
    same (n, p, seed) triple reproduces the same graph on any platform.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                edges.append((str(i), str(j)))
    return Graph(vertices, tuple(edges))


def build_dataset(spec: GenSpec, time_limit_per_instance: float = 200.0) -> Dataset:
    """Generate and label spec.count instances.

    The first a% of slots are SAT (k = chi), the rest UNSAT (k = chi - 1).
    A slot that draws a 1-chromatic graph when an UNSAT label is required
    is redrawn with a fresh seed (k = 0 is meaningless).  A slot whose
    labeling times out is dropped and the dataset is marked incomplete.
    """
    if time_limit_per_instance <= 0:
        raise ValueError("time_limit_per_instance must be positive")
    rng = random.Random(spec.seed)
    n_sat = spec.count * spec.mix[0] // 100
    instances: list[InstanceRecord] = []
    complete = True
    for idx in range(spec.count):
        want_sat = idx < n_sat
        for _ in range(_MAX_REGEN_ATTEMPTS):
            inst_seed = rng.getrandbits(63)
            graph = gen_erdos_renyi(spec.n, spec.p, inst_seed)
            try:
                chi = chromatic_number(graph, time_limit=time_limit_per_instance)
            except DeadlineExceeded:
                complete = False
                break
            if not want_sat and chi <= 1:
                continue  # chi - 1 would be 0; redraw
            instances.append(
                InstanceRecord(
                    id=f"er_n{spec.n}_p{spec.p:g}_{idx:04d}",
                    graph=graph,
                    n=spec.n,
                    p=spec.p,
                    seed=inst_seed,
                    chi=chi,
                    k=chi if want_sat else chi - 1,
                    label="SAT" if want_sat else "UNSAT",
                )
            )
            break
        else:
            raise RuntimeError(
                f"could not draw a graph with chi >= 2 for an UNSAT slot "
                f"after {_MAX_REGEN_ATTEMPTS} attempts (n={spec.n}, p={spec.p})"
            )
    return Dataset(spec=spec, instances=tuple(instances), complete=complete)


def write_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write instances/<id>.col files plus a manifest.csv; returns the manifest path."""
    out = Path(out_dir)
    inst_dir = out / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    spec = dataset.spec
    manifest = out / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        fh.write("# generator: erdos-renyi\n")
        fh.write(f"# prng: {PRNG_NAME}\n")
        fh.write(f"# n: {spec.n}\n")
        fh.write(f"# p: {spec.p:g}\n")
        fh.write(f"# mix: {spec.mix[0]},{spec.mix[1]}\n")
        fh.write(f"# count: {spec.count}\n")
        fh.write(f"# seed: {spec.seed}\n")
        fh.write(f"# complete: {str(dataset.complete).lower()}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "n", "p", "seed", "chi", "k", "label", "filename"])
        for rec in dataset.instances:
            filename = f"instances/{rec.id}.col"
            writer.writerow([rec.id, rec.n, f"{rec.p:g}", rec.seed, rec.chi, rec.k, rec.label, filename])
            (out / filename).write_text(serialize_dimacs(rec.graph, k=rec.k, label=rec.label) + "\n")
    return manifest


def read_manifest_meta(path: str | Path) -> dict[str, str]:
    """Parse the leading `# key: value` comment lines of a manifest.csv."""
    path = Path(path)
    manifest = path / "manifest.csv" if path.is_dir() else path
    meta: dict[str, str] = {}
    for line in manifest.read_text().splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line.lstrip("# ").partition(":")
        meta[key.strip()] = value.strip()
    return meta


def load_dataset(path: str | Path) -> list[InstanceRecord]:
    """Load instance records from a dataset directory (or its manifest.csv)."""
    path = Path(path)
    manifest = path / "manifest.csv" if path.is_dir() else path
    base = manifest.parent
    records: list[InstanceRecord] = []
    with manifest.open(newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in rows:
            text = (base / row["filename"]).read_text()
            graph, k, label = parse_dimacs_instance(text)
            if k is None or label is None:
                raise ValueError(f"instance {row['id']} is missing its k or label comment")
            if k != int(row["k"]) or label != row["label"]:
                raise ValueError(f"instance {row['id']} disagrees with the manifest")
            records.append(
                InstanceRecord(
                    id=row["id"],
                    graph=graph,
                    n=int(row["n"]),
                    p=float(row["p"]),
                    seed=int(row["seed"]),
                    chi=int(row["chi"]),
                    k=k,
                    label=label,
                )
            )
    return records
