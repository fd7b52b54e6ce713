"""Polynomial-coefficient differential operators and the quantization maps.

An operator is a :class:`~nsq.polynomials.LinComb` from derivative
multi-degrees to coefficient polynomials, so it shares the linear
structure of polynomials and fields; composition normalizes products by
the Leibniz rule.  Operators act on functions of the position variables;
coefficients are polynomials in q^i and in the multiplication variables
P_k (which reuse the coordinate key of pi^slot_k and commute with
everything).  The combination i*hbar is carried as the single formal
symbol IHBAR so that all identities stay in exact rational arithmetic; its
formal adjoint is -IHBAR.

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

and is checked exactly by :func:`dirac_check`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Mapping

from .algebra import Observable, basic_tags, in_b1_algebra, monomial_str, rtag
from .errors import DimensionMismatch, EngineError, NotInGeneratorAlgebra
from .poisson import bracket
from .polynomials import LinComb, Poly, Var, accumulate, pivar, qvar
from .reports import VerificationReport
from .scalars import IHBAR, Scalar, signed_sum, signed_term

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
        self.terms: dict[DerivDegree, Poly] = {}
        for alpha, poly in (terms or {}).items():
            if len(alpha) != n:
                raise EngineError("derivative degree length must equal the dimension")
            if not poly.is_zero():
                self.terms[tuple(alpha)] = poly

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
    are multiplication variables and commute through.
    """
    a._require_same(b)
    acc: dict[DerivDegree, Poly] = {}
    for alpha, c1 in a.terms.items():
        for beta, c2 in b.terms.items():
            for gamma in itertools.product(*(range(d + 1) for d in alpha)):
                coeff = 1
                for ai, gi in zip(alpha, gamma):
                    coeff *= comb(ai, gi)
                dc2 = c2
                for i, gi in enumerate(gamma):
                    for _ in range(gi):
                        dc2 = dc2.diff(qvar(i + 1))
                    if dc2.is_zero():
                        break
                if dc2.is_zero():
                    continue
                new_alpha = tuple(ai - gi + bi for ai, gi, bi in zip(alpha, gamma, beta))
                accumulate(acc, new_alpha, (c1 * dc2).scale(coeff))
    return a._like(acc)


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    return op_compose(a, b) - op_compose(b, a)


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

    def image_of_monomial(self, mono: tuple) -> DiffOperator:
        n = self.n
        if mono in self.overrides:
            return self.overrides[mono]
        if len(mono) >= self.kill_rank:
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
    out = DiffOperator.zero(qmap.n)
    for mono, coeff in f.terms.items():
        img = qmap.image_of_monomial(mono)
        if not img.is_zero():
            out = out + img.scale(coeff)
    return out


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


def record_dirac(report, case, qmap, f, g, gauge_seed=None, expected="pass") -> None:
    """Record one bracket-to-commutator case in a report.

    A failure carries the residual [Q(f), Q(g)] - IHBAR * Q({f, g}) as its
    actual value; passing cases never form it.
    """
    lhs, rhs = _dirac_sides(qmap, f, g, gauge_seed)
    ok = lhs == rhs
    report.record(case, ok, expected, "fail" if ok else format_operator(lhs - rhs))


# -- axiom verification ---------------------------------------------------------


def operators_linearly_independent(ops: list[DiffOperator]) -> bool:
    """Exact linear independence over the rationals in the term basis."""
    from .linalg import exact_rank

    axes: dict = {}
    rows = []
    entries = []
    for op in ops:
        row_entries = {}
        for alpha, poly in op.terms.items():
            for mono, scalar in poly.terms.items():
                for symmono, frac in scalar.terms.items():
                    key = (alpha, mono, symmono)
                    axes.setdefault(key, len(axes))
                    row_entries[key] = frac
        entries.append(row_entries)
    dim = len(axes)
    for row_entries in entries:
        row = [Fraction(0)] * dim
        for key, frac in row_entries.items():
            row[axes[key]] = frac
        rows.append(row)
    return exact_rank(rows) == len(ops)


def b1_monomials(n: int, degree_cap: int) -> list[tuple]:
    """All generator monomials of the basic algebra up to a total degree."""
    tags = sorted(basic_tags(n))
    out = []
    for deg in range(1, degree_cap + 1):
        out.extend(itertools.combinations_with_replacement(tags, deg))
    return out


@dataclass
class AxiomReport(VerificationReport):
    """Verification report extended with the axioms outside computation."""

    out_of_scope: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["out_of_scope"] = list(self.out_of_scope)
        return d

    def summary(self) -> str:
        lines = [super().summary()]
        for item in self.out_of_scope:
            lines.append(f"  out of computational scope: {item}")
        return "\n".join(lines)


def axiom_report(
    qmap: QuantizationMap, n: int, degree_cap: int, seed: int = 0
) -> AxiomReport:
    """Machine-checkable quantization axioms for one map.

    Covers linearity, the bracket-to-commutator condition on all monomial
    pairs up to the degree cap, the constant image of rhat(1), faithfulness
    and formal symmetry on the basic set.  Essential self-adjointness,
    irreducibility and analytic-vector density are proof obligations cited
    from the Schroedinger representation, not computed; they are listed as
    out of scope.
    """
    import random
    import time

    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = AxiomReport(suite=f"axioms-{qmap.label}", n=n, seed=seed)
    monos = b1_monomials(n, degree_cap)

    def obs(mono) -> Observable:
        return Observable(n, {mono: Scalar.one()})

    # linearity on random combinations
    for trial in range(10):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        c1 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        c2 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        combo = obs(m1).scale(c1) + obs(m2).scale(c2)
        ok = quantize(qmap, combo) == quantize(qmap, obs(m1)).scale(c1) + quantize(
            qmap, obs(m2)
        ).scale(c2)
        report.record(f"linearity trial {trial}", ok)

    # bracket-to-commutator on all ordered pairs
    for m1, m2 in itertools.product(monos, monos):
        record_dirac(
            report,
            f"dirac ({monomial_str(m1)}, {monomial_str(m2)})",
            qmap,
            obs(m1),
            obs(m2),
            expected="commutator matches bracket",
        )

    # the constant element maps to a constant operator
    img = quantize(qmap, obs((rtag(1),)))
    constant = list(img.terms) in ([], [(0,) * n]) and all(
        p.is_constant() for p in img.terms.values()
    )
    report.record("rhat(1) maps to a constant", constant)

    # faithfulness on the basic set
    images = [quantize(qmap, obs((tag,))) for tag in basic_tags(n)]
    report.record("faithful on the basic set", operators_linearly_independent(images))

    # formal symmetry of all surviving generator-table images
    symmetric = True
    for mono in b1_monomials(n, qmap.kill_rank - 1):
        image = qmap.image_of_monomial(mono)
        if formal_adjoint(image) != image:
            symmetric = False
            break
    report.record("generator images formally symmetric", symmetric)

    report.out_of_scope = [
        "essential self-adjointness on the dense domain",
        "irreducibility of the represented basic set",
        "density of separately analytic vectors",
    ]
    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


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
