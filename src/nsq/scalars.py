"""Exact coefficients, and the sparse linear combination every layer shares.

Everything the engine computes with is a finite linear combination over
exact coefficients: the coefficients themselves, polynomials, vector
fields, one- and two-forms, graded Hamiltonian fields, differential
operators and observables (combinations of generator monomials).
:class:`LinComb` is the one implementation of that rule: a term map in
which a zero value is never stored, so structural equality of the term
maps is semantic equality, with the linear structure (``+``, ``-``,
:meth:`LinComb.scale`) and :func:`accumulate`, the one "add and drop a
zero sum" step.  A combination is false exactly when it is zero, so that
step tests a Fraction value and a combination value alike.  ``+`` and
``-`` raise :class:`~nsq.errors.DimensionMismatch` when the operands live
in different spaces (another dimension ``n``, another slice ``slot``).

Every coefficient in the engine is a :class:`Scalar`, the combination of
formal symbol monomials with nonzero Fraction values.  Two symbols occur
in practice:

* ``IHBAR`` -- the combination i*hbar, tracked as a single real symbol so
  that all operator identities stay inside rational arithmetic.  Its formal
  adjoint is ``-IHBAR``.
* ``A1 .. An`` -- the free real constants of the second quantization map.

A Scalar with no symbols degenerates to a plain rational.  No floating
point is ever produced.

Every combination is immutable once built: operations return new objects
and never write into an operand's ``terms``.  The unit cases rely on it and
share objects.  ``Scalar.of(1)``, ``Scalar.one()`` and the coercion of 1
all return the one :data:`ONE`, ``ONE * s`` and ``s * ONE`` return ``s``
itself, and :func:`ring_power` raises a single term directly.  Read a
combination's ``terms``; never mutate them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Mapping, Union

from .errors import DimensionMismatch

IHBAR = "ih"

RationalLike = Union[int, Fraction]

# A symbol monomial is a sorted tuple of (symbol, positive power) pairs.
SymMonomial = tuple

_ONE_MONO: SymMonomial = ()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class LinComb:
    """Finite linear combination with exact coefficients: key -> nonzero value.

    ``terms`` never holds a false (zero) value, so equal term maps mean
    equal combinations.  Values are Fractions (for :class:`Scalar`),
    Scalars (for :class:`~nsq.polynomials.Poly`) or combinations themselves
    (polynomial coefficients of fields, forms and operators).  Sums go
    through :func:`accumulate`; products and scalings of nonzero values by
    nonzero factors are never zero, because every coefficient ring here is
    an integral domain, so they skip the check.

    Subclasses name in ``_space`` the attributes besides ``terms`` that fix
    the space the combination lives in (e.g. the dimension ``n``); those are
    compared by ``==`` and required equal by :meth:`_require_same` before
    ``+`` and ``-``, and a subclass with a space overrides :meth:`_like` to
    copy them.
    """

    __slots__ = ("terms",)
    _space: tuple = ()

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {}
        if terms:
            for key, value in terms.items():
                if value:
                    self.terms[key] = value

    def _like(self, terms: dict):
        """A combination in the same space as self over a zero-free term map (trusted)."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _require_same(self, other) -> None:
        """Raise DimensionMismatch unless other lives in the same space as self."""
        for name in self._space:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise DimensionMismatch(f"{name} differs: {mine} vs {theirs}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if self._space:
            self._require_same(other)
        out = dict(self.terms)
        for key, value in other.terms.items():
            accumulate(out, key, value)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -value for key, value in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return self._like({})
        return self._like({key: value.scale(c) for key, value in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and all(
            getattr(self, name) == getattr(other, name) for name in self._space
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero (false)."""
    prev = out.get(key)
    value = value if prev is None else prev + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def mul_into(out: dict, a: LinComb, b: LinComb) -> None:
    """Accumulate the product a * b of two combinations over monomials into out."""
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            accumulate(out, _mono_mul(m1, m2), c1 * c2)


class Scalar(LinComb):
    """Polynomial in formal commuting symbols with exact rational coefficients.

    ``terms`` maps symbol monomials to nonzero Fractions.  ``+`` and ``*``
    also take an int or a Fraction, and ``==`` compares with one.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[SymMonomial, Fraction] | None = None):
        self.terms: dict[SymMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _as_fraction(coeff)
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: RationalLike) -> "Scalar":
        if value == 1 and isinstance(value, (int, Fraction)):
            return ONE
        return Scalar({_ONE_MONO: value})

    @staticmethod
    def symbol(name: str, power: int = 1) -> "Scalar":
        if power < 0:
            raise ValueError("negative symbol power")
        if power == 0:
            return Scalar.of(1)
        return Scalar({((name, power),): Fraction(1)})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return ONE

    # -- queries -----------------------------------------------------------

    def is_rational(self) -> bool:
        return all(m == _ONE_MONO for m in self.terms)

    def as_fraction(self) -> Fraction:
        """The rational value of a symbol-free Scalar."""
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} carries formal symbols")
        return self.terms[_ONE_MONO]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        return LinComb.__add__(self, _coerce(other))

    __radd__ = __add__

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b) and _ONE_MONO in a and _ONE_MONO in b:
            # rational times rational: two nonzero Fractions, a nonzero product
            prod = Scalar.__new__(Scalar)
            prod.terms = {_ONE_MONO: a[_ONE_MONO] * b[_ONE_MONO]}
            return prod
        out: dict[SymMonomial, Fraction] = {}
        mul_into(out, self, other)
        return self._like(out)

    __rmul__ = __mul__
    # scale(c) multiplies by a scalar in every exact combination type
    scale = __mul__

    def __pow__(self, k: int) -> "Scalar":
        return ring_power(self, k, ONE)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = LinComb.__hash__

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        return signed_sum([
            signed_term(
                str(self.terms[mono]),
                [sym if pw == 1 else f"{sym}^{pw}" for sym, pw in mono],
            )
            for mono in sorted(self.terms)
        ])


def signed_sum(parts: list[str]) -> str:
    """Join printed terms as "a + b - c"; a term's leading "-" becomes " - "."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def signed_term(coeff: str, factors: list[str], sep: str = "*") -> str:
    """Print one term: a coefficient string times factors joined by sep.

    A coefficient with several terms (" + " or " - " inside) is put in
    parentheses; before factors, "1" is left out and "-1" leaves its sign.
    """
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    if not factors:
        return coeff
    body = sep.join(factors)
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return coeff + sep + body


def _coerce(x) -> Scalar:
    """The one coefficient rule: a Scalar as is, an int or Fraction as a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.of(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two sorted (key, power) monomials, of symbols or of variables."""
    if not m1:
        return m2
    if not m2:
        return m1
    powers: dict = {}
    for v, pw in m1:
        powers[v] = powers.get(v, 0) + pw
    for v, pw in m2:
        powers[v] = powers.get(v, 0) + pw
    return tuple(sorted(powers.items()))


def ring_power(x: LinComb, k: int, unit: LinComb):
    """x ** k for a Scalar or a Poly x, where unit is the 1 of x's ring.

    A single term c*m is raised directly: the exponents of m scale by k and
    the coefficient is raised once, to c ** k.  Any other x is the
    repeated product.  k must be a nonnegative int.
    """
    if k < 0:
        raise ValueError("negative power")
    k = index(k)
    if k == 0 or x is unit:
        return unit
    if k == 1 or len(x.terms) != 1:
        out = x
        for _ in range(k - 1):
            out = out * x
        return out
    ((mono, c),) = x.terms.items()
    return x._like({tuple((v, pw * k) for v, pw in mono): c ** k})


ONE = Scalar({_ONE_MONO: Fraction(1)})
"""The rational 1, shared: ``Scalar.of(1)`` and ``Scalar.one()`` return it."""
