"""Polynomial-coefficient differential operators and the quantization maps.

An operator is a :class:`~nsq.scalars.LinComb` from derivative
multi-degrees to coefficient polynomials, so it shares the linear
structure of polynomials and fields; composition normalizes products by
the Leibniz rule.  Operators act on functions of the position variables;
coefficients are polynomials in q^i and in the multiplication variables
P_k (which reuse the coordinate key of pi^slot_k and commute with
everything).  The combination i*hbar is carried as the single formal
symbol IHBAR so that all identities stay in exact rational arithmetic; its
formal adjoint is -IHBAR.

:func:`op_compose` and :func:`commutator` run on integer numerators, in
the layout of FLINT's ``fmpq_poly`` (one integer numerator map over one
denominator).  Each operand is flattened once into
(derivative degree, coefficient monomial in q and P, symbol monomial in
IHBAR and A_i) -> int over the lcm of its denominators.  A term
c1 d^alpha o c2 d^beta expands by the Leibniz rule into
sum_gamma w * c1 (d^gamma c2) d^(alpha-gamma+beta), where the integer weight
w is prod_i comb(alpha_i, gamma_i) times the falling factorial of the
lowered q^i power; symbol monomials multiply as in
:func:`nsq.scalars._mono_mul`.  Every product accumulates into one integer
map over den(a)*den(b), and each output coefficient becomes one reduced
Fraction at the end.  The commutator accumulates a o b and -(b o a) into
the same map, so cancelling terms are never built as polynomials.  The
Leibniz terms of d^alpha o monomial, weights included, come from one
bounded memo, :func:`_leibniz`, keyed on (alpha, monomial); its values are
shared between callers: read them, never mutate them.

Two quantization maps are provided on the polynomial algebra of the
Heisenberg basic set:

* Q1 kills every element of minimum rank >= 2 and sends
  qhat(i,1) -> q^i,  pihat(k) -> -i*hbar d/dq^k,  rhat(1) -> 1.
* Q2 kills minimum rank >= 3 and additionally sends the quadratic
  generators qhat*qhat -> A^i A^j, qhat*pihat -> A^i P_k,
  pihat*pihat -> P_j P_k, and anything containing rhat(1) to zero,
  with A^1..A^n free real symbols.

The bracket-to-commutator condition, with this engine's bracket sign, is

    [Q(f), Q(g)] = IHBAR * Q({f, g})

and is checked exactly by :func:`dirac_check`.  This module builds no
reports: :mod:`nsq.suites` records the condition and runs the axiom sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm
from operator import add
from typing import Mapping

from .algebra import Observable, basic_tags, check_index, in_b1_algebra
from .errors import DimensionMismatch, EngineError, NotInGeneratorAlgebra
from .linalg import exact_rank
from .poisson import bracket
from .polynomials import Monomial, Poly, Var, pivar, qvar
from .scalars import IHBAR, LinComb, Scalar, _mono_mul, accumulate, signed_sum, signed_term

DerivDegree = tuple  # length-n tuple of natural numbers


class DiffOperator(LinComb):
    """Differential operator in canonical form: coefficients left, derivatives right.

    ``terms`` maps a derivative multi-degree over q^1..q^n to its
    coefficient polynomial.  Equality is structural on this normal form.
    """

    __slots__ = ("n",)
    _space = ("n",)

    def __init__(self, n: int, terms: Mapping[DerivDegree, Poly] | None = None):
        self.n = n
        self.terms: dict = {}
        for alpha, poly in (terms or {}).items():
            if len(alpha) != n:
                raise EngineError("derivative degree length must equal the dimension")
            if not all(isinstance(d, int) and d >= 0 for d in alpha):
                raise EngineError(f"derivative degree {alpha!r} must hold natural numbers")
            if poly:
                self.terms[alpha] = poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "DiffOperator":
        return DiffOperator(n)

    @staticmethod
    def identity(n: int) -> "DiffOperator":
        return DiffOperator(n, {(0,) * n: Poly.constant(1)})

    @staticmethod
    def multiplication(n: int, poly: Poly) -> "DiffOperator":
        return DiffOperator(n, {(0,) * n: poly})

    @staticmethod
    def derivative(n: int, k: int, coeff=None) -> "DiffOperator":
        check_index(k, n)
        alpha = tuple(1 if i == k - 1 else 0 for i in range(n))
        c = Poly.constant(coeff if coeff is not None else 1)
        return DiffOperator(n, {alpha: c})

    # -- symbol bookkeeping ----------------------------------------------------

    def divide_by_ihbar(self) -> "DiffOperator":
        """Exact division by the IHBAR symbol; raises if not divisible."""
        return DiffOperator(
            self.n,
            {a: p.map_coefficients(lambda s: s.divide_by_symbol(IHBAR)) for a, p in self.terms.items()},
        )

    def ihbar_degree(self) -> int:
        deg = 0
        for poly in self.terms.values():
            for c in poly.terms.values():
                deg = max(deg, c.degree_in(IHBAR))
        return deg

    def __repr__(self):
        return format_operator(self)


def op_compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Operator composition, normalized by the Leibniz rule.

    Derivatives act on the q-dependence of coefficients; the P variables
    are multiplication variables and commute through.  Computed on integer
    numerators (see the module docstring).
    """
    a._require_same(b)
    (fa, den_a), (fb, den_b) = _flatten(a), _flatten(b)
    acc: dict = {}
    _compose_into(acc, fa, fb, 1)
    return _from_numerators(a, acc, den_a * den_b)


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = a o b - b o a, both compositions summed into one numerator map."""
    a._require_same(b)
    (fa, den_a), (fb, den_b) = _flatten(a), _flatten(b)
    acc: dict = {}
    _compose_into(acc, fa, fb, 1)
    _compose_into(acc, fb, fa, -1)
    return _from_numerators(a, acc, den_a * den_b)


def _flatten(op: DiffOperator) -> tuple[list, int]:
    """op as integer numerators over one denominator.

    Returns ([(alpha, mono, [(symbol monomial, numerator), ...]), ...], den)
    with den the lcm of every coefficient's denominator, so that op is the
    sum of numerator/den * symbol monomial * mono d^alpha.
    """
    den = 1
    for poly in op.terms.values():
        for s in poly.terms.values():
            for c in s.terms.values():
                den = lcm(den, c.denominator)
    return [
        (alpha, mono, [(sym, c.numerator * (den // c.denominator)) for sym, c in s.terms.items()])
        for alpha, poly in op.terms.items()
        for mono, s in poly.terms.items()
    ], den


@lru_cache(maxsize=4096)
def _leibniz(alpha: DerivDegree, mono: Monomial) -> tuple:
    """d^alpha o mono, the monomial as a multiplication operator, by the Leibniz rule.

    One (alpha - gamma, weight, d^gamma-lowered mono) per gamma <= alpha
    whose derivative of mono is nonzero, with the integer weight
    prod_i comb(alpha_i, gamma_i) * q_i-power falling factorial of
    length gamma_i.  Memoized on (alpha, mono) and shared: read it, never
    mutate it.
    """
    qpow = [0] * len(alpha)
    for var, pw in mono:
        if var[0] == "q" and var[1] <= len(alpha):
            qpow[var[1] - 1] = pw
    out = []
    for gamma in itertools.product(*(range(min(d, pw) + 1) for d, pw in zip(alpha, qpow))):
        weight = 1
        for d, pw, g in zip(alpha, qpow, gamma):
            weight *= comb(d, g) * perm(pw, g)
        powers = dict(mono)
        for i, g in enumerate(gamma):
            if g:
                var = qvar(i + 1)
                if powers[var] == g:
                    del powers[var]
                else:
                    powers[var] -= g
        rest = tuple(d - g for d, g in zip(alpha, gamma))
        out.append((rest, weight, tuple(sorted(powers.items()))))
    return tuple(out)


def _compose_into(acc: dict, a: list, b: list, sign: int) -> None:
    """acc += sign * (a o b) on flattened operands, keyed (degree, monomial, symbol monomial)."""
    for alpha, mono_a, a_coeffs in a:
        for beta, mono_b, b_coeffs in b:
            for rest, weight, lowered in _leibniz(alpha, mono_b):
                degree = tuple(map(add, rest, beta))
                mono = _mono_mul(mono_a, lowered)
                weight *= sign
                for sym_a, num_a in a_coeffs:
                    w = weight * num_a
                    for sym_b, num_b in b_coeffs:
                        key = (degree, mono, _mono_mul(sym_a, sym_b))
                        acc[key] = acc.get(key, 0) + w * num_b


def _from_numerators(like: DiffOperator, acc: dict, den: int) -> DiffOperator:
    """The operator sum of num/den over acc's (degree, monomial, symbol monomial) keys."""
    terms: dict = {}
    for (degree, mono, sym), num in acc.items():
        if num:
            terms.setdefault(degree, {}).setdefault(mono, {})[sym] = Fraction(num, den)
    return like._like(
        {
            degree: Poly({mono: Scalar(coeffs) for mono, coeffs in poly.items()})
            for degree, poly in terms.items()
        }
    )


def formal_adjoint(a: DiffOperator) -> DiffOperator:
    """Integration-by-parts adjoint with respect to the flat density.

    (c d^alpha)* = (-1)^|alpha| d^alpha o c*, renormalized; coefficient
    conjugation sends IHBAR to -IHBAR while q and P stay real.
    """
    out = DiffOperator.zero(a.n)
    for alpha, poly in a.terms.items():
        conj = poly.map_coefficients(lambda s: s.conjugate_ihbar())
        sign = Fraction(-1) ** sum(alpha)
        piece = op_compose(
            DiffOperator(a.n, {alpha: Poly.constant(sign)}),
            DiffOperator.multiplication(a.n, conj),
        )
        out = out + piece
    return out


# -- quantization maps ---------------------------------------------------------


@dataclass
class QuantizationMap:
    """Linear quantization defined through a generator-monomial table.

    ``kill_rank`` is the minimum rank from which everything maps to zero;
    the table covers the surviving generator monomials.  ``overrides``
    allows tests to inject deliberate corruptions.
    """

    label: str
    n: int
    kill_rank: int
    overrides: dict = field(default_factory=dict)

    def kills(self, mono: tuple) -> bool:
        """True when mono maps to zero by rank: at or above kill_rank, with no override."""
        return len(mono) >= self.kill_rank and mono not in self.overrides

    def image_of_monomial(self, mono: tuple) -> DiffOperator:
        n = self.n
        if mono in self.overrides:
            return self.overrides[mono]
        if self.kills(mono):
            return DiffOperator.zero(n)
        if len(mono) == 1:
            tag = mono[0]
            if tag[0] == "q":
                return DiffOperator.multiplication(n, Poly.var(qvar(tag[1])))
            if tag[0] == "pi":
                return DiffOperator.derivative(n, tag[1], -Scalar.symbol(IHBAR))
            return DiffOperator.identity(n)
        if len(mono) == 2:
            (s, t) = mono
            if s[0] == "r" or t[0] == "r":
                return DiffOperator.zero(n)
            if s[0] == "q" and t[0] == "q":
                c = Scalar.symbol(f"A{s[1]}") * Scalar.symbol(f"A{t[1]}")
                return DiffOperator.multiplication(n, Poly.constant(c))
            if s[0] == "pi" and t[0] == "pi":
                poly = Poly.var(pivar(1, s[1])) * Poly.var(pivar(1, t[1]))
                return DiffOperator.multiplication(n, poly)
            qt = s if s[0] == "q" else t
            pt = t if s[0] == "q" else s
            poly = Poly.var(pivar(1, pt[1])).scale(Scalar.symbol(f"A{qt[1]}"))
            return DiffOperator.multiplication(n, poly)
        raise EngineError(f"no image for monomial of degree {len(mono)}")


def make_q1(n: int) -> QuantizationMap:
    return QuantizationMap("q1", n, kill_rank=2)


def make_q2(n: int) -> QuantizationMap:
    return QuantizationMap("q2", n, kill_rank=3)


def quantize(qmap: QuantizationMap, f: Observable) -> DiffOperator:
    """Apply a quantization map to an element of the basic polynomial algebra."""
    if f.n != qmap.n:
        raise DimensionMismatch(f"n differs: {qmap.n} vs {f.n}")
    if not in_b1_algebra(f):
        raise NotInGeneratorAlgebra(
            "quantization is defined on the polynomial algebra of the basic set"
        )
    terms: dict[DerivDegree, Poly] = {}
    for mono, coeff in f.terms.items():
        if not qmap.kills(mono):
            for alpha, poly in qmap.image_of_monomial(mono).terms.items():
                accumulate(terms, alpha, poly.scale(coeff))
    return DiffOperator(qmap.n, terms)


def dirac_check(
    qmap: QuantizationMap,
    f: Observable,
    g: Observable,
    gauge_seed: int | None = None,
) -> bool:
    """Bracket-to-commutator condition: [Q(f), Q(g)] = IHBAR * Q({f, g})."""
    lhs, rhs = _dirac_sides(qmap, f, g, gauge_seed)
    return lhs == rhs


def _dirac_sides(qmap, f, g, gauge_seed) -> tuple[DiffOperator, DiffOperator]:
    lhs = commutator(quantize(qmap, f), quantize(qmap, g))
    rhs = quantize(qmap, bracket(f, g, gauge_seed=gauge_seed)).scale(
        Scalar.symbol(IHBAR)
    )
    return lhs, rhs


# -- axiom verification ---------------------------------------------------------


def operators_linearly_independent(ops: list[DiffOperator]) -> bool:
    """Exact linear independence over the rationals in the term basis.

    Each operator is one row of its integer numerators (:func:`_flatten`):
    scaling a row by its positive denominator leaves the rank unchanged.
    """
    rows = [
        {(alpha, mono, sym): num for alpha, mono, coeffs in _flatten(op)[0] for sym, num in coeffs}
        for op in ops
    ]
    axes = {key for row in rows for key in row}
    return exact_rank([[row.get(key, 0) for key in axes] for row in rows]) == len(ops)


def b1_monomials(n: int, degree_cap: int) -> list[tuple]:
    """All generator monomials of the basic algebra up to a total degree."""
    tags = sorted(basic_tags(n))
    out = []
    for deg in range(1, degree_cap + 1):
        out.extend(itertools.combinations_with_replacement(tags, deg))
    return out


# -- printing -------------------------------------------------------------------


def scalar_hbar_str(s: Scalar) -> str:
    """Render a Scalar with IHBAR expanded into i and hbar factors."""
    if s.is_zero():
        return "0"
    parts = []
    for mono in sorted(s.terms):
        c = s.terms[mono]
        factors = []
        for sym, pw in mono:
            if sym == IHBAR:
                if pw % 2:
                    c = c * (-1) ** ((pw - 1) // 2)
                    factors.append("i")
                else:
                    c = c * (-1) ** (pw // 2)
                factors.append("hbar" if pw == 1 else f"hbar^{pw}")
            else:
                factors.append(sym if pw == 1 else f"{sym}^{pw}")
        parts.append(signed_term(str(c), factors))
    return signed_sum(parts)


def _coeff_var_name(v: Var) -> str:
    if v[0] == "q":
        return f"q{v[1]}"
    if v[0] == "pi":
        return f"P{v[2]}"
    return str(v)


def format_operator(op: DiffOperator) -> str:
    """Human-readable canonical form, e.g. ``-i*hbar d/dq2``."""
    if op.is_zero():
        return "0"
    parts = []
    for alpha in sorted(op.terms):
        cs = op.terms[alpha].format(_coeff_var_name, scalar_hbar_str)
        dfactors = [
            f"d/dq{i + 1}" if deg == 1 else f"d/dq{i + 1}^{deg}"
            for i, deg in enumerate(alpha)
            if deg
        ]
        # without derivatives the coefficient's own terms are the operator's
        parts.append(signed_term(cs, dfactors, " ") if dfactors else cs)
    return signed_sum(parts)
