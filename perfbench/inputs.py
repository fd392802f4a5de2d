"""Seeded inputs, the queries run on them, and the reference outputs.

The expand workloads replay a stream of CLI-style queries (``show``,
``coproduct`` rc/rd, ``split``, ``antipode``, ``poly``, ``alpha``) on
matroids of 6 to 8 elements.  The stream is stratified: every cell
op x size x shape gets a fixed number of queries, so a seed changes which
matroids are drawn and how their ground sets are labeled, never how many
queries of each kind a pass holds.

Matroids are drawn from a fixed pool stored in ``reference.json`` together
with the digest of every (pool matroid, op) output, recorded from the code
the benchmark was defined on.  Every output here is invariant under
relabeling, so one reference per pool matroid serves all seeds and every
relabeling of it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

OPS = ("show", "coproduct-rc", "coproduct-rd", "split", "antipode", "poly", "alpha")
SIZES = (6, 7, 8)
# simple: connected simple graph; multigraph: parallel edges and a self-loop;
# cographic: dual of a connected simple graph; uniform: U_{r,n}, 0 <= r <= n.
SHAPES = ("simple", "multigraph", "cographic", "uniform")
# Queries per (op, size, shape) cell.  Asymmetric n=8 inputs cost the most
# cold, so that size gets one query per cell: a pass then holds 140 queries.
PER_CELL = {6: 2, 7: 2, 8: 1}
# The suites of ``verify.run_all``, in its order.
VERIFY_SUITES = (
    "matroid-axioms",
    "rank-lemmas",
    "minor-lemmas",
    "contraction-choice",
    "direct-sum-compat",
    "dual-involution",
    "canonical-oracle",
    "coassociativity",
    "cocommutativity-rd",
    "counit-laws",
    "multiplicativity",
    "antipode-law",
    "split-sum",
    "dendriform-rd",
    "dendriform-rc",
    "codendriform-gap",
    "exp-closed-form",
    "alpha-power-identity",
    "alpha-four-factor",
    "alpha-character",
    "convolution-identity",
    "deletion-recursions",
    "monomial-closed-form",
)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def stream_design() -> dict[tuple[str, int, str], int]:
    """Queries per (op, size, shape) cell; the same for every seed."""
    return {
        (op, n, shape): PER_CELL[n] for op in OPS for n in SIZES for shape in SHAPES
    }


def stratum_counts(stream: list[dict]) -> dict[tuple[str, int, str], int]:
    counts: dict[tuple[str, int, str], int] = {}
    for q in stream:
        cell = (q["op"], q["n"], q["shape"])
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def make_stream(seed: int, pool: dict) -> list[dict]:
    """The query stream for a seed: op, pool cell, pool index, relabeling.

    Within a (size, shape) cell the pool indices are dealt out evenly
    (each pool matroid is used equally often, up to one), in seeded order,
    so the seed moves matroids between ops rather than changing the mix.
    """
    rng = random.Random(seed)
    stream = []
    for n in SIZES:
        for shape in SHAPES:
            slots = [op for op in OPS for _ in range(PER_CELL[n])]
            size = len(pool[str(n)][shape])
            deck = list(range(size)) * -(-len(slots) // size)
            rng.shuffle(deck)
            for op, item in zip(slots, deck):
                perm = list(range(n))
                rng.shuffle(perm)
                stream.append(
                    {"op": op, "n": n, "shape": shape, "item": item, "perm": perm}
                )
    rng.shuffle(stream)
    return stream


def pool_matroid(mh, n: int, shape: str, entry: dict):
    """Build one pool matroid with the package's own constructors."""
    if shape == "uniform":
        return mh.uniform(entry["rank"], n)
    m = mh.graphic(entry["vertices"], [tuple(e) for e in entry["edges"]])
    return m.dual() if shape == "cographic" else m


def relabeled(mh, m, perm):
    """Image of ``m`` under e -> perm[e], computed here with plain bit masks."""
    fam = []
    for s in m.independents:
        t = 0
        for e in range(m.n):
            if s >> e & 1:
                t |= 1 << perm[e]
        fam.append(t)
    return mh.Matroid(m.n, tuple(sorted(fam)))


def build_inputs(mh, stream: list[dict], pool: dict) -> list:
    """The matroid each query receives, in stream order."""
    built = {}
    out = []
    for q in stream:
        cell = (q["n"], q["shape"], q["item"])
        if cell not in built:
            entry = pool[str(q["n"])][q["shape"]][q["item"]]
            built[cell] = pool_matroid(mh, q["n"], q["shape"], entry)
        out.append(relabeled(mh, built[cell], q["perm"]))
    return out


def input_bytes(stream: list[dict], matroids: list) -> bytes:
    """Canonical serialization of exactly what the program is given."""
    records = [
        [q["op"], m.n, list(m.independents)] for q, m in zip(stream, matroids)
    ]
    return json.dumps(records, separators=(",", ":")).encode()


def run_query(mh, op: str, m) -> str:
    """One query, rendered as the CLI's text output would render it.

    Every name is looked up on the package at call time, so a tracer that
    replaced it sees the call.
    """
    if op == "show":
        key = mh.canonical_key(m)
        c, l = m.element_counts()
        lines = [
            f"n: {m.n}",
            f"rank: {m.rank() if m.n else 0}",
            f"independent-sets: {len(m.independents)}",
            f"loops: {l}",
            f"non-loops: {c}",
            f"class: {key.render()}",
            f"monomial: {mh.Monomial.from_matroid(m).render()}",
        ]
        return "\n".join(lines)
    if op == "coproduct-rc":
        return mh.coproduct(mh.CoproductMode.RC, m).render()
    if op == "coproduct-rd":
        return mh.coproduct(mh.CoproductMode.RD, m).render()
    if op == "split":
        halves = mh.split(mh.CoproductMode.RD, m)
        return f"prec: {halves.prec.render()}\nsucc: {halves.succ.render()}"
    if op == "antipode":
        return mh.antipode_rd(mh.canonical_key(m)).render()
    if op == "poly":
        return mh.poly_P(m).render()
    if op == "alpha":
        return mh.alpha(m).render()
    raise ValueError(f"unknown op {op!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def reference_key(q: dict) -> str:
    return f"{q['n']}/{q['shape']}/{q['item']}/{q['op']}"
