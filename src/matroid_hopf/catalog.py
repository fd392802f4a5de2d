"""Exhaustive catalogs of matroid isomorphism classes on tiny ground sets.

Every matroid is determined by its set of bases, all of one cardinality, so
the enumeration walks nonempty families of equal-size subsets, keeps those
satisfying the basis exchange axiom, takes downward closures, and
deduplicates by canonical key.  Results can be cached on disk in the same
JSON record format the CLI consumes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .canonical import IsoKey, canonical_key
from .matroid import Matroid, elements_of, mask_of, submasks

MAX_CATALOG_N = 4
# (classes, labeled matroids) on n elements for every n <= MAX_CATALOG_N
# (OEIS A055545, A058673); a cache header must agree with its row.
KNOWN_COUNTS = {0: (1, 1), 1: (2, 2), 2: (4, 5), 3: (8, 16), 4: (17, 68)}
CACHE_VERSION = 1
CACHE_ENV_VAR = "MATROID_HOPF_CACHE_DIR"


class CatalogTooLarge(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"catalog enumeration is limited to ground sets of size "
            f"{MAX_CATALOG_N}, got {n}"
        )
        self.n = n


@dataclass(frozen=True)
class Catalog:
    """All isomorphism classes on a fixed ground-set size."""

    n: int
    classes: tuple[IsoKey, ...]
    labeled_count: int

    def __len__(self) -> int:
        return len(self.classes)


def enumerate_matroids(n: int) -> Catalog:
    """Complete, duplicate-free catalog for ground-set size n (n <= 4)."""
    if n > MAX_CATALOG_N:
        raise CatalogTooLarge(n)
    labeled = 0
    seen: dict[IsoKey, None] = {}
    for r in range(n + 1):
        candidates = [mask_of(c) for c in combinations(range(n), r)]
        for bases in _nonempty_subsets(candidates):
            if not _basis_exchange(bases):
                continue
            labeled += 1
            fam: set[int] = set()
            for b in bases:
                fam.update(submasks(b))
            key = canonical_key(Matroid(n, tuple(sorted(fam))))
            seen.setdefault(key, None)
    classes = tuple(sorted(seen, key=IsoKey.sort_key))
    return Catalog(n, classes, labeled)


def _nonempty_subsets(items: list[int]):
    for code in range(1, 1 << len(items)):
        yield [items[i] for i in range(len(items)) if code >> i & 1]


def _basis_exchange(bases: list[int]) -> bool:
    bset = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in elements_of(b1 & ~b2):
                without = b1 ^ (1 << x)
                if not any(
                    (without | 1 << y) in bset for y in elements_of(b2 & ~b1)
                ):
                    return False
    return True


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "matroid-hopf"


def cache_path(n: int, cache_dir: Path | None = None) -> Path:
    base = cache_dir if cache_dir is not None else default_cache_dir()
    return base / f"catalog-{n}.jsonl"


def save_cache(catalog: Catalog, cache_dir: Path | None = None) -> Path:
    """Write newline-delimited matroid records under a version-stamped header."""
    path = cache_path(catalog.n, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "version": CACHE_VERSION,
        "n": catalog.n,
        "count": len(catalog.classes),
        "labeled_count": catalog.labeled_count,
    }
    lines = [json.dumps(header)]
    lines.extend(
        json.dumps(key.matroid().to_dict()) for key in catalog.classes
    )
    # Write a temp file and rename it over the cache: a failed write keeps the old one.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return path


def load_cache(n: int, cache_dir: Path | None = None) -> Catalog | None:
    """Read a cached catalog; None when missing, stale, unreadable, when its
    header's counts differ from ``KNOWN_COUNTS``, or when its records are not
    distinct classes on n elements."""
    path = cache_path(n, cache_dir)
    if not path.is_file():
        return None
    try:
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if header.get("version") != CACHE_VERSION or header.get("n") != n:
            return None
        if (header["count"], header["labeled_count"]) != KNOWN_COUNTS.get(n):
            return None
        keys = {
            canonical_key(Matroid.from_dict(json.loads(line)))
            for line in lines[1 : header["count"] + 1]
        }
        # as many distinct classes as the header counts, all of size n
        if len(keys) != header["count"] or any(key.n != n for key in keys):
            return None
        return Catalog(n, tuple(sorted(keys, key=IsoKey.sort_key)), header["labeled_count"])
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def cached_catalog(n: int, cache_dir: Path | None = None) -> Catalog:
    """Load from cache when present, otherwise enumerate in memory."""
    hit = load_cache(n, cache_dir)
    if hit is not None:
        return hit
    return enumerate_matroids(n)
