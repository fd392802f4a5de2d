#!/usr/bin/env python3
"""Rebuild ``reference.json``: the matroid pool and the expected outputs.

Usage, from the repository root:

    python3 perfbench/make_reference.py

The pool is drawn once from a fixed seed.  The expected outputs are the
digests of every (pool matroid, op) render and the ``(name, ok, detail)``
of every ``verify`` suite at ``max_n=4``, all computed by the code in
``src/``.  Rerun this only when an output is meant to change; the benchmark
counts every difference from these references as a mismatch.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import matroid_hopf as mh  # noqa: E402
from matroid_hopf import verify  # noqa: E402

from inputs import OPS, REFERENCE_PATH, SIZES, SHAPES, digest, pool_matroid, run_query  # noqa: E402

POOL_SEED = 1409_7613
POOL_SIZE = 7
VERTICES = {
    "simple": {6: 5, 7: 5, 8: 5},
    "multigraph": {6: 4, 7: 4, 8: 5},
    "cographic": {6: 5, 7: 5, 8: 7},
}


def connected_simple(rng: random.Random, n: int, v: int) -> list[list[int]]:
    pairs = [[a, b] for a in range(v) for b in range(a + 1, v)]
    while True:
        edges = rng.sample(pairs, n)
        if mh.graphic(v, edges).rank() == v - 1:
            return edges


def multigraph(rng: random.Random, n: int, v: int) -> list[list[int]]:
    """Random multigraph with at least one self-loop and one parallel pair."""
    a, b = rng.sample(range(v), 2)
    loop = rng.randrange(v)
    edges = [[a, b], [a, b], [loop, loop]]
    while len(edges) < n:
        edges.append(sorted(rng.sample(range(v), 2)))
    rng.shuffle(edges)
    return edges


def make_pool(rng: random.Random) -> dict:
    pool: dict = {}
    for n in SIZES:
        cells: dict = {}
        for shape in SHAPES:
            if shape == "uniform":
                cells[shape] = [{"rank": r} for r in range(n + 1)]
                continue
            v = VERTICES[shape][n]
            draw = multigraph if shape == "multigraph" else connected_simple
            cells[shape] = [
                {"vertices": v, "edges": draw(rng, n, v)} for _ in range(POOL_SIZE)
            ]
        pool[str(n)] = cells
    return pool


def main() -> None:
    pool = make_pool(random.Random(POOL_SEED))
    expected = {}
    for n in SIZES:
        for shape in SHAPES:
            for i, entry in enumerate(pool[str(n)][shape]):
                m = pool_matroid(mh, n, shape, entry)
                for op in OPS:
                    expected[f"{n}/{shape}/{i}/{op}"] = digest(run_query(mh, op, m))
            print(f"n={n} {shape}: {len(pool[str(n)][shape])} matroids", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        suites = verify.run_all(max_n=4, cache_dir=Path(tmp))
    reference = {
        "pool_seed": POOL_SEED,
        "pool": pool,
        "expected": expected,
        "verify_n4": [[r.name, r.ok, r.detail] for r in suites],
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
