"""Polynomials: sparse combinations of monomials with Scalar coefficients.

:class:`Poly` is a :class:`~nsq.scalars.LinComb` from monomials to nonzero
Scalars, so it shares the linear structure and the zero-free term map of
every exact combination in the engine.  One generic polynomial type serves
every coordinate system in the engine:

* frame-bundle coordinates  ``('q', i)`` and ``('pi', a, b)`` for pi^a_b,
* cotangent-bundle coordinates ``('q', i)`` and ``('p', j)``,
* operator coefficients in ``('q', i)`` and the multiplication variables
  P_k, which reuse the key ``('pi', 1, k)``.

Monomials are sorted tuples of (variable key, positive power).  All
arithmetic is exact.

A Poly is immutable once built, as every combination is (see
:mod:`nsq.scalars`), and the unit cases share objects: ``Poly.var`` puts
the shared :data:`~nsq.scalars.ONE` on its term, ``Poly.constant(1)`` and
``p ** 0`` return the one :data:`ONE_POLY`, ``ONE_POLY * p`` and
``p * ONE_POLY`` return ``p`` itself, and the power of a single term is
raised directly.  Read a Poly's ``terms``; never mutate them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .scalars import ONE, LinComb, Scalar, _coerce, mul_into, ring_power, signed_sum, signed_term

Var = tuple
Monomial = tuple

_EMPTY: Monomial = ()


def qvar(i: int) -> Var:
    return ("q", i)


def pivar(a: int, b: int) -> Var:
    return ("pi", a, b)


def pvar(j: int) -> Var:
    return ("p", j)


class Poly(LinComb):
    """Exact sparse polynomial; immutable by convention after construction."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _coerce(coeff)
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        c = _coerce(c)
        return ONE_POLY if c is ONE else Poly({_EMPTY: c})

    @staticmethod
    def var(v: Var, power: int = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return ONE_POLY
        return _poly({((v, power),): ONE})

    # -- queries -----------------------------------------------------------

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

    def __mul__(self, other: "Poly") -> "Poly":
        if self is ONE_POLY:
            return other
        if other is ONE_POLY:
            return self
        out: dict[Monomial, Scalar] = {}
        mul_into(out, self, other)
        return self._like(out)

    def __pow__(self, k: int) -> "Poly":
        return ring_power(self, k, ONE_POLY)

    # -- calculus -----------------------------------------------------------

    def diff(self, v: Var) -> "Poly":
        """Exact partial derivative with respect to one variable.

        Lowering the power of v is one-to-one on the monomials that hold v,
        so every derivative term lands on its own monomial.
        """
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
            out[tuple(sorted(powers.items()))] = c * pw
        return self._like(out)

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

    # -- printing -------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return self.format()

    def format(
        self,
        namer: Callable[[Var], str] | None = None,
        coeff_str: Callable[[Scalar], str] = str,
    ) -> str:
        if not self.terms:
            return "0"
        namer = namer or default_var_name
        return signed_sum([
            signed_term(
                coeff_str(self.terms[mono]),
                [namer(v) if pw == 1 else f"{namer(v)}^{pw}" for v, pw in mono],
            )
            for mono in sorted(self.terms)
        ])


def _poly(terms: dict) -> Poly:
    """A Poly over a zero-free map of monomials to Scalars (trusted)."""
    out = object.__new__(Poly)
    out.terms = terms
    return out


def default_var_name(v: Var) -> str:
    kind = v[0]
    if kind == "q":
        return f"q{v[1]}"
    if kind == "p":
        return f"p{v[1]}"
    if kind == "pi":
        return f"pi({v[1]},{v[2]})"
    return str(v)


ZERO_POLY = Poly.zero()
ONE_POLY = _poly({_EMPTY: ONE})
"""The constant 1, shared: ``Poly.constant(1)`` and ``p ** 0`` return it."""
