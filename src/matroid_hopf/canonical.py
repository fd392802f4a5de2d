"""Canonical forms of matroids up to isomorphism.

Two matroids are isomorphic iff some relabeling of one's ground set carries
its independent-set family onto the other's.  The canonical key of a matroid
is the lexicographically least sorted family over all n! relabelings.  Keys
keep the full canonical family so they decode back into representative
matroids.

A branch-and-bound search finds that minimum without visiting all n!
relabelings.  It assigns new labels 0, 1, ... one at a time; once j labels
are placed, the masks inside the placed elements are exactly the family's
entries below 2^j, so they form a determined prefix of every completion.
Three rules keep the tree small while preserving the exact lex-minimum:

* the prefix grows by one sorted block per level, computed from the
  previous level's remapped values rather than rebuilt;
* among sibling placements only those with the least block are explored,
  since any completion of a larger block is beaten by any completion of
  the least one;
* elements whose transposition fixes the family (twins: parallel, series,
  loop and coloop classes) are branched on once per class, since swapping
  two unplaced twins maps one subtree onto the other with equal encodings.

Any prefix already beaten by the best complete encoding is pruned as well.
``_min_relabeling`` gives the argument for each rule in full.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import total_ordering
from itertools import permutations

from .matroid import Matroid

MAX_GROUND_SET = 10


class GroundSetTooLarge(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"ground set of size {n} exceeds the canonicalization limit "
            f"{MAX_GROUND_SET}"
        )
        self.n = n


def check_size(n: int) -> None:
    """Raise GroundSetTooLarge for a ground set above MAX_GROUND_SET."""
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(n)


@total_ordering
@dataclass(frozen=True)
class IsoKey:
    """Canonical representative of a matroid isomorphism class.

    Totally ordered by (n, rank, canonical family), lexicographically.
    """

    n: int
    rank: int
    family: tuple[int, ...] = field(repr=False)

    def sort_key(self):
        return (self.n, self.rank, self.family)

    def __lt__(self, other: IsoKey) -> bool:
        return self.sort_key() < other.sort_key()

    def matroid(self) -> Matroid:
        return Matroid(self.n, self.family)

    def is_uniform(self) -> bool:
        return self.matroid().is_uniform()

    def render(self) -> str:
        if self.is_uniform():
            return f"U_{{{self.rank},{self.n}}}"
        masks = ",".join(str(s) for s in self.family)
        return f"M[{self.n};{masks}]"

    def __str__(self) -> str:
        return self.render()


_key_cache: dict[tuple[int, tuple[int, ...]], IsoKey] = {}


def canonical_key(matroid: Matroid) -> IsoKey:
    """Canonical key of a matroid's isomorphism class.

    Pure and memoized by the raw family, and also by the canonical family:
    that family is the least of its own relabelings, so it is its own key,
    and ``key.matroid()`` round trips skip the search.  The cache only ever
    stores the value the search would recompute, so concurrent use is safe.
    """
    check_size(matroid.n)
    cache_key = (matroid.n, matroid.independents)
    hit = _key_cache.get(cache_key)
    if hit is not None:
        return hit
    rank = matroid.rank()
    if matroid.is_uniform():
        # every relabeling fixes a uniform family
        fam = matroid.independents
    else:
        fam = _min_relabeling(matroid.n, matroid.independents)
    key = IsoKey(matroid.n, rank, fam)
    _key_cache[cache_key] = key
    _key_cache[(matroid.n, fam)] = key
    return key


def is_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    """True iff the two matroids have equal canonical keys."""
    return canonical_key(m1) == canonical_key(m2)


def _min_relabeling(n: int, family: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least sorted family over all relabelings.

    ``family`` is downward closed (a matroid's independent sets).  New
    labels 0..n-1 go to original elements one position at a time.  Once
    labels 0..j-1 are placed, the remapped family starts with the sorted
    masks inside the placed elements, all below 2^j, and every later mask
    is at least 2^j.  That determined prefix grows by one block per level:

    * Incremental blocks.  Placing element e at label j determines exactly
      the masks that contain e and lie inside the placed set.  Downward
      closure puts s without e in the prefix already, so the new value is
      its remapped value OR'd with 2^j; walking the prefix in order yields
      the block of [2^j, 2^(j+1)) already sorted.
    * Sibling minimum.  Every completion below e starts with prefix + block
      and continues with masks of at least 2^(j+1).  So where two blocks
      first differ, the smaller one wins outright, and a block that is a
      proper prefix of another loses, since the longer block's next entry
      is still below 2^(j+1).  Only candidates with the least block (end of
      block counting as +infinity) can reach the minimum.
    * Twins.  If transposing e and f preserves the family, then with both
      unplaced it fixes every placed element, so it maps the completions
      below e onto those below f with equal encodings.  Such pairs form
      classes (products of automorphisms are automorphisms): parallel,
      series, loop and coloop classes, among others.  One unplaced element
      per class is branched on.

    The prefix is also compared with the best complete encoding found so
    far: a subtree whose prefix is already worse is skipped, and one whose
    prefix is already better needs no further comparison.
    """
    members = frozenset(family)
    twin = _twin_classes(n, members)
    end = 1 << n  # above every mask: marks the end of a block
    orig = [0]  # original masks of the determined prefix, in prefix order
    new = [0]  # their remapped values: the determined prefix itself
    best: list[int] | None = None

    def descend(unplaced: tuple[int, ...], better: bool) -> None:
        # better: the prefix already beats best, so every completion does
        nonlocal best
        if not unplaced:
            if better:
                best = new[:]
            return
        bit = 1 << (n - len(unplaced))
        least: list[int] | None = None
        chosen: list[int] = []
        seen = 0  # twin classes already branched on, as a bitmask
        for e in unplaced:
            if seen >> twin[e] & 1:
                continue
            seen |= 1 << twin[e]
            ebit = 1 << e
            block = [t | bit for s, t in zip(orig, new) if s | ebit in members]
            block.append(end)
            if least is None or block < least:
                least, chosen = block, [e]
            elif block == least:
                chosen.append(e)
        p = len(new)
        if not better:
            # best's block at this level, compared by the same rule
            rival = best[p : bisect_left(best, bit << 1, p)]
            rival.append(end)
            if least > rival:
                return  # determined prefix already worse
            better = least < rival
        least.pop()
        for e in chosen:
            ebit = 1 << e
            orig.extend([s | ebit for s in orig[:p] if s | ebit in members])
            new.extend(least)
            before = best
            descend(tuple(f for f in unplaced if f != e), better)
            # a new best shares this prefix, so later siblings are tied with it
            better = better and best is before
            del orig[p:], new[p:]

    descend(tuple(range(n)), True)
    return tuple(best)


def _twin_classes(n: int, members: frozenset[int]) -> list[int]:
    """Class index per element: e and f share one iff swapping them fixes
    the family."""
    reps: list[int] = []
    twin = []
    for e in range(n):
        for c, f in enumerate(reps):
            swap = 1 << e | 1 << f
            if all(
                (s ^ swap if (s >> e ^ s >> f) & 1 else s) in members
                for s in members
            ):
                twin.append(c)
                break
        else:
            twin.append(len(reps))
            reps.append(e)
    return twin


def all_permutation_key(matroid: Matroid) -> tuple[int, ...]:
    """Reference canonical family via plain minimum over all n! relabelings."""
    return min(matroid.relabel(p).independents for p in permutations(range(matroid.n)))
