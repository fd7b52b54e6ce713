"""Sparse multivariate polynomials over Scalar coefficients.

One generic polynomial type serves every coordinate system in the engine:

* frame-bundle coordinates  ``('q', i)`` and ``('pi', a, b)`` for pi^a_b,
* cotangent-bundle coordinates ``('q', i)`` and ``('p', j)``,
* operator coefficients in ``('q', i)`` and the multiplication variables
  P_k, which reuse the key ``('pi', 1, k)``.

Monomials are sorted tuples of (variable key, positive power); zero
coefficients are never stored, so structural equality of the term maps is
semantic equality.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .scalars import Scalar, signed_sum

Var = tuple
Monomial = tuple

_EMPTY: Monomial = ()


def qvar(i: int) -> Var:
    return ("q", i)


def pivar(a: int, b: int) -> Var:
    return ("pi", a, b)


def pvar(j: int) -> Var:
    return ("p", j)


def _as_scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    if isinstance(c, (int, Fraction)):
        return Scalar.of(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class Poly:
    """Exact sparse polynomial; immutable by convention after construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _as_scalar(coeff)
                if not c.is_zero():
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        c = _as_scalar(c)
        return Poly({_EMPTY: c}) if not c.is_zero() else Poly()

    @staticmethod
    def var(v: Var, power: int = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return Poly.constant(1)
        return Poly({((v, power),): Scalar.one()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _EMPTY for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get(_EMPTY, Scalar.zero())

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def total_degree(self) -> int:
        deg = 0
        for mono in self.terms:
            deg = max(deg, sum(pw for _, pw in mono))
        return deg

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(mono)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = _as_scalar(c)
        if c.is_zero():
            return Poly()
        return Poly({m: coeff * c for m, coeff in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    # -- calculus -----------------------------------------------------------

    def diff(self, v: Var) -> "Poly":
        """Exact partial derivative with respect to one variable."""
        out: dict[Monomial, Scalar] = {}
        for mono, c in self.terms.items():
            powers = dict(mono)
            pw = powers.get(v, 0)
            if pw == 0:
                continue
            if pw == 1:
                del powers[v]
            else:
                powers[v] = pw - 1
            new = tuple(sorted(powers.items()))
            coeff = c * pw
            s = out.get(new)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                out.pop(new, None)
            else:
                out[new] = s
        return Poly(out)

    def substitute(self, mapping: Mapping[Var, "Poly"]) -> "Poly":
        """Replace variables by polynomials; unmapped variables survive."""
        out = Poly()
        for mono, c in self.terms.items():
            term = Poly.constant(c)
            for v, pw in mono:
                base = mapping.get(v)
                base = Poly.var(v) if base is None else base
                term = term * base ** pw
            out = out + term
        return out

    def evaluate(self, mapping: Mapping[Var, Fraction]) -> Scalar:
        """Full evaluation; every variable present must be mapped."""
        out = Scalar.zero()
        for mono, c in self.terms.items():
            val = Scalar.one()
            for v, pw in mono:
                if v not in mapping:
                    raise KeyError(f"no value for variable {v}")
                val = val * Scalar.of(Fraction(mapping[v]) ** pw)
            out = out + c * val
        return out

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]) -> "Poly":
        return Poly({m: fn(c) for m, c in self.terms.items()})

    # -- printing -------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return self.format()

    def format(self, namer: Callable[[Var], str] | None = None) -> str:
        if not self.terms:
            return "0"
        namer = namer or default_var_name
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [
                namer(v) if pw == 1 else f"{namer(v)}^{pw}" for v, pw in mono
            ]
            cs = str(c)
            if "+" in cs or (cs.count("-") and not cs.startswith("-")):
                cs = f"({cs})"
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return signed_sum(parts)


def default_var_name(v: Var) -> str:
    kind = v[0]
    if kind == "q":
        return f"q{v[1]}"
    if kind == "p":
        return f"p{v[1]}"
    if kind == "pi":
        return f"pi({v[1]},{v[2]})"
    return str(v)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    powers: dict[Var, int] = {}
    for v, pw in m1:
        powers[v] = powers.get(v, 0) + pw
    for v, pw in m2:
        powers[v] = powers.get(v, 0) + pw
    return tuple(sorted(powers.items()))


ZERO_POLY = Poly.zero()
ONE_POLY = Poly.constant(1)
