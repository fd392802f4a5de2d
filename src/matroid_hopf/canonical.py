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
Four rules keep the tree small while preserving the exact lex-minimum:

* the prefix grows by one sorted block per level, computed from the
  previous level's remapped values rather than rebuilt;
* among sibling placements only those with the least block are explored,
  since any completion of a larger block is beaten by any completion of
  the least one;
* elements whose transposition fixes the family (twins: parallel, series,
  loop and coloop classes) are branched on once per class, since swapping
  two unplaced twins maps one subtree onto the other with equal encodings;
* a sibling is skipped when automorphisms that fix every placed element
  map it onto a sibling already explored, for the same reason.  The
  automorphisms come from the search itself: a leaf whose encoding ties
  with the best one differs from it by an automorphism (orbit pruning as
  in McKay, "Practical graph isomorphism", 1981).

Any prefix already beaten by the best complete encoding is pruned as well.
``_min_relabeling`` gives the argument for each rule in full.

The coproducts canonicalize many minors that are isomorphic to one another
under different labelings, so a search result is reused for the whole
class.  Every searched family is kept in a bucket keyed by an isomorphism
invariant (per element, how many independent sets of each size contain it).
A family that misses the memo is first tested for isomorphism against the
searched families of its bucket; on success it takes their key, which is
byte-identical to what its own search would return, because the least
relabeling depends only on the class.  Only a family isomorphic to none of
them is searched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import total_ordering
from itertools import permutations
from math import comb

from .matroid import Matroid, check_size, elements_of


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
        # the family holds only sets of size <= rank, so all of them iff uniform
        return len(self.family) == sum(comb(self.n, i) for i in range(self.rank + 1))

    def render(self) -> str:
        if self.is_uniform():
            return f"U_{{{self.rank},{self.n}}}"
        masks = ",".join(map(str, self.family))
        return f"M[{self.n};{masks}]"

    def __str__(self) -> str:
        return self.render()


# A dict rather than a functools.cache: canonical_key stores each key under
# two families, the one it was asked for and the canonical one.
_key_cache: dict[tuple[int, tuple[int, ...]], IsoKey] = {}

Profiles = tuple[tuple[int, ...], ...]
# Every searched family with its key, bucketed by _bucket_key: an index that
# lookups scan, not a memo of one function's results.
_bucket_cache: dict[tuple, list[tuple[IsoKey, frozenset[int], Profiles]]] = {}


def canonical_key(matroid: Matroid) -> IsoKey:
    """Canonical key of a matroid's isomorphism class.

    Pure and memoized by the raw family, and also by the canonical family:
    that family is the least of its own relabelings, so it is its own key,
    and ``key.matroid()`` round trips skip the search.  A non-uniform family
    that misses the memo takes the key of an isomorphic family the search
    has already run on, found in its invariant bucket by ``_carries``; only
    otherwise is it searched.  The memo only ever stores the value the
    search would recompute, and a bucket only gains keys the search found,
    so concurrent use is safe.
    """
    check_size(matroid.n)
    n, family = matroid.n, matroid.independents
    hit = _key_cache.get((n, family))
    if hit is not None:
        return hit
    if matroid.is_uniform():
        # every relabeling fixes a uniform family
        key = IsoKey(n, matroid.rank(), family)
    else:
        key = _lookup_or_search(matroid)
    _key_cache[(n, family)] = key
    _key_cache[(n, key.family)] = key
    return key


def _lookup_or_search(matroid: Matroid) -> IsoKey:
    """The key of an isomorphic family already searched, else a new search."""
    n, family = matroid.n, matroid.independents
    members = frozenset(family)
    profiles = _profiles(n, family)
    bucket = _bucket_cache.setdefault(_bucket_key(n, family, profiles), [])
    for key, target, target_profiles in bucket:
        if _carries(n, members, profiles, target, target_profiles):
            return key
    key = IsoKey(n, matroid.rank(), _min_relabeling(n, family))
    bucket.append((key, members, profiles))
    return key


def _profiles(n: int, family: tuple[int, ...]) -> Profiles:
    """Per element, how many sets of the family of each size contain it."""
    counts = [[0] * (n + 1) for _ in range(n)]
    for s in family:
        k = s.bit_count()
        while s:
            low = s & -s
            counts[low.bit_length() - 1][k] += 1
            s ^= low
    return tuple(map(tuple, counts))


def _bucket_key(n: int, family: tuple[int, ...], profiles: Profiles) -> tuple:
    """Isomorphism invariant: isomorphic families share a bucket."""
    return n, len(family), tuple(sorted(profiles))


def _carries(
    n: int,
    members: frozenset[int],
    profiles: Profiles,
    target: frozenset[int],
    target_profiles: Profiles,
) -> bool:
    """True iff some bijection of the ground set carries ``members`` onto
    ``target``.

    Both families are downward closed.  Elements 0, 1, ... are placed in
    turn, each only on an unused target element of the same profile.  The
    family's masks inside the placed elements correspond one to one with
    the target's masks inside their images.  By downward closure every mask
    that placing e adds is some such mask s plus e, so placing e on f keeps
    the correspondence iff, for every s with image t, s + e is in the
    family exactly when t + f is in ``target``.  Once every element is
    placed, the map carries the family onto ``target``.
    """
    # equal within a bucket; checked so that the test is exact on its own
    if len(target) != len(members) or len(target_profiles) != n:
        return False
    orig = [0]  # the family's masks inside the placed elements
    image = [0]  # their images: the target's masks inside the placed images

    def place(e: int, used: int) -> bool:
        if e == n:
            return True
        ebit = 1 << e
        grows = [s | ebit in members for s in orig]
        p = len(orig)
        for f in range(n):
            if used >> f & 1 or target_profiles[f] != profiles[e]:
                continue
            fbit = 1 << f
            if [t | fbit in target for t in image] != grows:
                continue
            orig.extend([s | ebit for s, g in zip(orig, grows) if g])
            image.extend([t | fbit for t, g in zip(image, grows) if g])
            if place(e + 1, used | fbit):
                return True
            del orig[p:], image[p:]
        return False

    return place(0, 0)


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
    * Orbits.  A leaf whose encoding equals best's remaps the family onto
      the same sorted family as best's leaf, so e -> best_placed[label of
      e], its labeling followed by the inverse of best's, is an
      automorphism.  Let g be a product of such automorphisms that fix
      every placed element, with g(e) = f for a sibling f already explored.
      Composing a completion below e with g^-1 keeps the placed labels,
      gives f the label of e and leaves the encoding unchanged, since g
      maps the family onto itself: the two subtrees hold exactly the same
      encodings, and e is skipped.  The automorphisms are filtered again
      for every sibling, since those found below the first sibling are the
      ones that prune the later ones.

    The prefix is also compared with the best complete encoding found so
    far: a subtree whose prefix is already worse is skipped, and one whose
    prefix is already better needs no further comparison.
    """
    matroid = Matroid(n, family)
    members = matroid._iset
    twin = [0] * n  # per element, the mask of its twin class
    for cls in matroid.twin_classes():
        for e in elements_of(cls):
            twin[e] = cls
    end = 1 << n  # above every mask: marks the end of a block
    orig = [0]  # original masks of the determined prefix, in prefix order
    new = [0]  # their remapped values: the determined prefix itself
    placed: list[int] = []  # the placed elements, in label order
    best: list[int] | None = None
    best_placed: list[int] = []
    autos: list[tuple[list[int], int]] = []  # (automorphism, moved elements)

    def descend(unplaced: tuple[int, ...], better: bool) -> None:
        # better: the prefix already beats best, so every completion does
        nonlocal best, best_placed
        if not unplaced:
            if better:
                best, best_placed = new[:], placed[:]
                return
            # a tie with best: undoing best's labeling after this one's
            # maps the family onto itself
            auto = list(range(n))
            moved = 0
            for e, f in zip(placed, best_placed):
                if e != f:
                    auto[e] = f
                    moved |= 1 << e
            autos.append((auto, moved))
            return
        bit = 1 << (n - len(unplaced))
        least: list[int] | None = None
        chosen: list[int] = []
        seen = 0  # elements of the twin classes already branched on
        for e in unplaced:
            if seen >> e & 1:
                continue
            seen |= twin[e]
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
        explored = 0  # chosen siblings already explored, as a bitmask
        for e in chosen:
            ebit = 1 << e
            if explored and _orbit_meets(e, explored, autos, placed):
                continue
            explored |= ebit
            orig.extend([s | ebit for s in orig[:p] if s | ebit in members])
            new.extend(least)
            placed.append(e)
            before = best
            descend(tuple(f for f in unplaced if f != e), better)
            # a new best shares this prefix, so later siblings are tied with it
            better = better and best is before
            del orig[p:], new[p:]
            placed.pop()

    descend(tuple(range(n)), True)
    return tuple(best)


def _orbit_meets(
    e: int, explored: int, autos: list[tuple[list[int], int]], placed: list[int]
) -> bool:
    """True iff the group generated by the automorphisms in ``autos`` that
    fix every placed element maps e into ``explored`` (a bitmask)."""
    fixed = 0
    for f in placed:
        fixed |= 1 << f
    gens = [auto for auto, moved in autos if not moved & fixed]
    orbit = 1 << e
    stack = [e]
    while stack:
        x = stack.pop()
        for auto in gens:
            y = auto[x]
            if not orbit >> y & 1:
                if explored >> y & 1:
                    return True
                orbit |= 1 << y
                stack.append(y)
    return False


def all_permutation_key(matroid: Matroid) -> tuple[int, ...]:
    """Reference canonical family via plain minimum over all n! relabelings."""
    return min(matroid.relabel(p).independents for p in permutations(range(matroid.n)))
