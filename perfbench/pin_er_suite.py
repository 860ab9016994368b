"""Regenerate er_suite.json: the dense G(30, 0.5) suite of the er-exact workload.

Each entry is labeled the way `sofai-gc gen` labels it (build_dataset, one
instance per spec seed), and its chromatic number is confirmed by an exact
solver written here, which shares no code with the package.  The known-chi
families of instances.py are confirmed by the same solver.

    python3 perfbench/pin_er_suite.py

Takes a few seconds on a 2-core x86 machine.  The benchmark never runs it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sofai_gc import generate  # noqa: E402

import instances  # noqa: E402

COUNT = 24  # graphs in the suite


def k_colorable(vertices, edges, k: int) -> bool:
    """Exact k-colorability by bitset backtracking.

    Branches on the uncolored vertex that sees the most color classes (ties:
    most uncolored neighbours), and opens at most one new color per branch.
    """
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    classes = [0] * k

    def search(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        best, best_key = -1, (-1, -1)
        rest = uncolored
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            key = (sum(1 for c in range(used) if classes[c] & adj[v]), bin(adj[v] & uncolored).count("1"))
            if key > best_key:
                best, best_key = v, key
        for c in range(min(used + 1, k)):
            if not classes[c] & adj[best]:
                classes[c] |= 1 << best
                if search(uncolored & ~(1 << best), max(used, c + 1)):
                    return True
                classes[c] &= ~(1 << best)
        return False

    return search((1 << len(vertices)) - 1, 0)


def confirm_chi(vertices, edges, chi: int) -> bool:
    return k_colorable(vertices, edges, chi) and (chi == 1 or not k_colorable(vertices, edges, chi - 1))


def main() -> int:
    for name, (build, chi, _, _) in instances.KNOWN_CHI.items():
        vertices, edges = build()
        if not confirm_chi(vertices, edges, chi):
            print(f"{name}: chi {chi} not confirmed", file=sys.stderr)
            return 1

    entries = []
    for spec_seed in range(COUNT):
        spec = generate.GenSpec(n=instances.ER_N, p=instances.ER_P, count=1, seed=spec_seed)
        rec = generate.build_dataset(spec).instances[0]
        if not confirm_chi(rec.graph.vertices, rec.graph.edges, rec.chi):
            print(f"spec seed {spec_seed}: package chi {rec.chi} not confirmed", file=sys.stderr)
            return 1
        entries.append({"spec_seed": spec_seed, "instance_seed": rec.seed, "chi": rec.chi})

    about = (
        f"G({instances.ER_N}, {instances.ER_P}) graphs from sofai_gc.generate; spec seeds "
        f"0..{COUNT - 1}, one instance each; chi confirmed by pin_er_suite.py's own solver"
    )
    lines = ",\n  ".join(json.dumps(e) for e in entries)
    instances.ER_SUITE_FILE.write_text(
        f'{{"about": {json.dumps(about)},\n "instances": [\n  {lines}\n]}}\n'
    )
    print(f"wrote {len(entries)} instances to {instances.ER_SUITE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
