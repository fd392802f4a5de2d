"""Exact algebra substrate.

Polynomials are sparse maps from (x,y,s) exponent triples to rationals,
each an ``int`` when integral and a ``Fraction`` only otherwise.
Module elements are integer-linear combinations of monomials, a monomial
being a multiset of isomorphism-class keys multiplied via direct sum.
Monomials are kept in a normal form where every factor is a connected
matroid class: direct sums split into their connected components, so the
product of the classes of two matroids coincides with the class of their
direct sum.  Tensor elements are integer-linear combinations of pairs or
triples of monomials.

All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import groupby
from operator import itemgetter

from .canonical import IsoKey, canonical_key
from .matroid import Matroid


class ArityMismatch(ValueError):
    pass


class Polynomial:
    """Sparse polynomial in x, y, s with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int | Fraction] | None = None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def constant(cls, c) -> Polynomial:
        return cls({(0, 0, 0): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar (ZERO == 0), so it hashes as one
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and (0, 0, 0) in terms:
            return hash(terms[0, 0, 0])
        return hash(frozenset(terms.items()))

    def __add__(self, other) -> Polynomial:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return _promote(other) - self

    def __mul__(self, other) -> Polynomial:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int, int], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Polynomial:
        q = Fraction(scalar)
        return Polynomial({e: c / q for e, c in self.terms.items()})

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x=None, y=None, s=None) -> Polynomial:
        """Substitute rationals for any subset of the variables; exact."""
        values = (x, y, s)
        out: dict[tuple[int, int, int], int | Fraction] = {}
        for exps, c in self.terms.items():
            new = list(exps)
            for i, v in enumerate(values):
                if v is not None:
                    c = c * Fraction(v) ** exps[i]
                    new[i] = 0
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return Polynomial(out)

    def coefficient(self, exps: tuple[int, int, int]) -> int | Fraction:
        return self.terms.get(exps, 0)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def render(self) -> str:
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(("s", "x", "y"), (exps[2], exps[0], exps[1])):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append((c < 0, body))
        return _signed_sum(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _signed_sum(parts) -> str:
    """Join (negative, body) terms as "-a + b - c"; "0" when there are none."""
    text = ""
    for neg, body in parts:
        if text:
            text += (" - " if neg else " + ") + body
        else:
            text = ("-" if neg else "") + body
    return text or "0"


def _promote(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


ZERO = Polynomial()
ONE = Polynomial.constant(1)
X = Polynomial({(1, 0, 0): 1})
Y = Polynomial({(0, 1, 0): 1})
S = Polynomial({(0, 0, 1): 1})


@total_ordering
@dataclass(frozen=True)
class Monomial:
    """Commutative product of connected matroid classes; () is the unit.

    Ordered by (total degree, factor key list); the factor tuple is sorted
    and every factor is connected with nonempty ground set, so equal
    products always compare equal.
    """

    factors: tuple[IsoKey, ...]

    @classmethod
    def unit(cls) -> Monomial:
        return _UNIT

    @classmethod
    def from_matroid(
        cls,
        matroid: Matroid,
        mask: int | None = None,
        base: int = 0,
        block_keys: dict[tuple[int, int], IsoKey] | None = None,
    ) -> Monomial:
        """Class of the minor (M/base)|mask, by default of M itself.

        ``base`` is independent and disjoint from ``mask``.  The factors are
        the keys of the minor's components: each component mask is read on
        M and only that block's minor is built, never the whole minor.
        ``block_keys`` maps (block, base) to the block's key; callers that
        take many minors of one matroid pass one dict so that a block shared
        by several minors is canonicalized once.
        """
        if block_keys is None:
            block_keys = {}
        keys = []
        for block in matroid.components(mask, base):
            key = block_keys.get((block, base))
            if key is None:
                key = block_keys[block, base] = canonical_key(matroid._minor(block, base))
            keys.append(key)
        return cls(tuple(sorted(keys, key=IsoKey.sort_key)))

    @classmethod
    def from_factors(cls, keys) -> Monomial:
        """Normalize arbitrary class keys, splitting disconnected ones."""
        flat: list[IsoKey] = []
        for key in keys:
            if key.n == 0:
                continue
            m = key.matroid()
            if m.is_connected():
                flat.append(key)
            else:
                flat.extend(cls.from_matroid(m).factors)
        return cls(tuple(sorted(flat, key=IsoKey.sort_key)))

    @property
    def degree(self) -> int:
        return sum(k.n for k in self.factors)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def __mul__(self, other: Monomial) -> Monomial:
        merged = sorted(self.factors + other.factors, key=IsoKey.sort_key)
        return Monomial(tuple(merged))

    def sort_key(self):
        return (self.degree, tuple(k.sort_key() for k in self.factors))

    def __lt__(self, other: Monomial) -> bool:
        return self.sort_key() < other.sort_key()

    def matroid(self) -> Matroid:
        """A representative matroid: the direct sum of the factors."""
        out = Matroid(0, (0,))
        for key in self.factors:
            out = out.direct_sum(key.matroid())
        return out

    def render(self) -> str:
        return _leg(self, {})[0]

    def __str__(self) -> str:
        return self.render()


_UNIT = Monomial(())


def _leg(m: Monomial, table: dict) -> tuple[str, tuple]:
    """Text and ``sort_key()`` of a monomial, each factor read from table.

    ``table`` maps id(key) to (key, text, sort_key()) for every IsoKey met
    so far; holding the key keeps its id from being reused while the table
    lives.  Equal factors sit side by side and are grouped by text, which
    names a key uniquely: U_{r,n} fixes (n, r) and M[n;...] the family.
    """
    names = []
    keys = []
    degree = 0
    for key in m.factors:
        entry = table.get(id(key))
        if entry is None:
            entry = table[id(key)] = (key, key.render(), key.sort_key())
        names.append(entry[1])
        keys.append(entry[2])
        degree += key.n
    parts = []
    for name, run in groupby(names):
        k = len(list(run))
        parts.append(name if k == 1 else f"{name}^{k}")
    return ".".join(parts) or "1", (degree, tuple(keys))


def _render_terms(terms, reverse: bool, unit_coeff: bool) -> str:
    """Signed sum of (legs, c) terms, legs joined by ⊗, ordered by sort keys.

    One key table serves the whole call, so each distinct key is rendered
    and its sort tuple built once however many factors refer to it.
    ``unit_coeff`` writes a coefficient of 1 as "1*".
    """
    table: dict = {}
    rows = []
    for legs, c in terms:
        texts, order = zip(*[_leg(m, table) for m in legs])
        rows.append((order, "⊗".join(texts), c))
    rows.sort(key=itemgetter(0), reverse=reverse)
    return _signed_sum(
        (c < 0, f"{abs(c)}*{body}" if unit_coeff or abs(c) != 1 else body)
        for _, body, c in rows
    )


class ModuleElement:
    """Integer-linear combination of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> ModuleElement:
        return cls()

    @classmethod
    def one(cls) -> ModuleElement:
        return cls({Monomial.unit(): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int = 1) -> ModuleElement:
        return cls({m: coeff})

    @classmethod
    def from_matroid(cls, matroid: Matroid, coeff: int = 1) -> ModuleElement:
        return cls({Monomial.from_matroid(matroid): coeff})

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModuleElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: ModuleElement) -> ModuleElement:
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ModuleElement(out)

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        return self + (-other)

    def __neg__(self) -> ModuleElement:
        return ModuleElement({m: -c for m, c in self.terms.items()})

    def __rmul__(self, scalar: int) -> ModuleElement:
        return ModuleElement({m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other) -> ModuleElement:
        if isinstance(other, int):
            return self.__rmul__(other)
        return module_product(self, other)

    def render(self) -> str:
        return _render_terms(
            (((m,), c) for m, c in self.terms.items()), reverse=True, unit_coeff=True
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ModuleElement({self.render()})"


def module_product(a: ModuleElement, b: ModuleElement) -> ModuleElement:
    """Bilinear extension of the monomial product (multiset union)."""
    out: dict[Monomial, int] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 * m2
            out[m] = out.get(m, 0) + c1 * c2
    return ModuleElement(out)


class TensorElement:
    """Integer-linear combination of tuples of monomials of fixed arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[tuple[Monomial, ...], int] | None = None):
        if arity not in (2, 3):
            raise ArityMismatch(f"tensor arity must be 2 or 3, got {arity}")
        self.arity = arity
        clean = {}
        for legs, c in (terms or {}).items():
            if len(legs) != arity:
                raise ArityMismatch(
                    f"term has {len(legs)} legs in an arity-{arity} tensor"
                )
            if c:
                clean[legs] = c
        self.terms = clean

    @classmethod
    def zero(cls, arity: int) -> TensorElement:
        return cls(arity)

    @classmethod
    def from_term(cls, legs: tuple[Monomial, ...], coeff: int = 1) -> TensorElement:
        return cls(len(legs), {legs: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def _check(self, other: TensorElement) -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: TensorElement) -> TensorElement:
        self._check(other)
        out = dict(self.terms)
        for legs, c in other.terms.items():
            out[legs] = out.get(legs, 0) + c
        return TensorElement(self.arity, out)

    def __sub__(self, other: TensorElement) -> TensorElement:
        return self + (-other)

    def __neg__(self) -> TensorElement:
        return TensorElement(self.arity, {t: -c for t, c in self.terms.items()})

    def __rmul__(self, scalar: int) -> TensorElement:
        return TensorElement(
            self.arity, {t: scalar * c for t, c in self.terms.items()}
        )

    def swap(self) -> TensorElement:
        """Exchange the two legs termwise; arity 2 only."""
        if self.arity != 2:
            raise ArityMismatch("swap is only defined for arity-2 tensors")
        return TensorElement(2, {(b, a): c for (a, b), c in self.terms.items()})

    def legwise_product(self, other: TensorElement) -> TensorElement:
        """(a (x) b) . (c (x) d) = ac (x) bd, extended bilinearly."""
        self._check(other)
        out: dict[tuple[Monomial, ...], int] = {}
        for legs1, c1 in self.terms.items():
            for legs2, c2 in other.terms.items():
                legs = tuple(a * b for a, b in zip(legs1, legs2))
                out[legs] = out.get(legs, 0) + c1 * c2
        return TensorElement(self.arity, out)

    def expand_leg(self, leg: int, f) -> TensorElement:
        """Apply f, monomial to arity-2 tensor, to leg 0 or 1; arity 2 to 3."""
        if self.arity != 2:
            raise ArityMismatch("expand_leg is only defined for arity-2 tensors")
        out: dict[tuple[Monomial, ...], int] = {}
        for legs, c in self.terms.items():
            for pair, c2 in f(legs[leg]).terms.items():
                new = legs[:leg] + pair + legs[leg + 1 :]
                out[new] = out.get(new, 0) + c * c2
        return TensorElement(3, out)

    def render(self) -> str:
        return _render_terms(self.terms.items(), reverse=False, unit_coeff=False)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TensorElement({self.render()})"
