"""Exact scalar coefficients: rationals extended by formal commuting symbols.

Every coefficient in the engine is a Scalar, a sparse polynomial in formal
symbols with Fraction coefficients.  Two symbols occur in practice:

* ``IHBAR`` -- the combination i*hbar, tracked as a single real symbol so
  that all operator identities stay inside rational arithmetic.  Its formal
  adjoint is ``-IHBAR``.
* ``A1 .. An`` -- the free real constants of the second quantization map.

A Scalar with no symbols degenerates to a plain rational.  No floating
point is ever produced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

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


class Scalar:
    """Polynomial in formal commuting symbols with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[SymMonomial, Fraction] | None = None):
        self.terms: dict[SymMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _as_fraction(coeff)
                if c != 0:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: RationalLike) -> "Scalar":
        c = _as_fraction(value)
        return Scalar({_ONE_MONO: c}) if c != 0 else Scalar()

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
        return Scalar.of(1)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == _ONE_MONO for m in self.terms)

    def as_fraction(self) -> Fraction:
        """The rational value of a symbol-free Scalar."""
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} carries formal symbols")
        return self.terms[_ONE_MONO]

    def degree_in(self, name: str) -> int:
        """Highest power of one symbol across all terms (0 if absent)."""
        deg = 0
        for mono in self.terms:
            for sym, pw in mono:
                if sym == name:
                    deg = max(deg, pw)
        return deg

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b) and _ONE_MONO in a and _ONE_MONO in b:
            # rational times rational: two nonzero Fractions, a nonzero product
            prod = Scalar.__new__(Scalar)
            prod.terms = {_ONE_MONO: a[_ONE_MONO] * b[_ONE_MONO]}
            return prod
        out: dict[SymMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Scalar(out)

    __rmul__ = __mul__
    # scale(c) multiplies by a scalar in every exact combination type
    scale = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- symbol manipulation -------------------------------------------------

    def divide_by_symbol(self, name: str) -> "Scalar":
        """Exact division by one symbol; every term must contain it."""
        out: dict[SymMonomial, Fraction] = {}
        for mono, c in self.terms.items():
            lowered = _mono_lower(mono, name)
            if lowered is None:
                raise ValueError(f"scalar {self} is not divisible by {name}")
            out[lowered] = c
        return Scalar(out)

    def conjugate_ihbar(self) -> "Scalar":
        """Formal adjoint on coefficients: IHBAR -> -IHBAR."""
        out: dict[SymMonomial, Fraction] = {}
        for mono, c in self.terms.items():
            pw = dict(mono).get(IHBAR, 0)
            out[mono] = -c if pw % 2 else c
        return Scalar(out)

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


def _mono_lower(mono: SymMonomial, name: str) -> SymMonomial | None:
    powers = dict(mono)
    if powers.get(name, 0) < 1:
        return None
    powers[name] -= 1
    if powers[name] == 0:
        del powers[name]
    return tuple(sorted(powers.items()))


ONE = Scalar.one()
