"""Forms, vector fields, the soldering structure and Hamiltonian fields.

Vector fields, one-forms and two-forms map coordinate variables (or pairs
of them) to polynomial coefficients, and a graded Hamiltonian field maps
multi-indices to vector fields; all four are
:class:`~nsq.polynomials.LinComb` subclasses and share its linear
structure and zero-free term maps.  Coordinates print through
:func:`~nsq.polynomials.default_var_name`, as in polynomials.

The vector-valued soldering one-form has components theta^i = pi^i_j dq^j,
so its differential is d(theta^i) = d(pi^i_j) ^ dq^j.  A rank-p observable
f determines an equivalence class of graded vector fields X through the
structure equation

    d f^{I_p}  =  -p! * Sym_{I_p} [ X^{I_{p-1}} _| dtheta^{i_p} ]

with normalized symmetrization over all p upper indices.  Representatives
differ by "gauge": vertical terms whose symmetrization over the upper
indices vanishes.  Gauge terms never change any derived bracket.

A gauge term is itself a :class:`HamVF` whose fields have only d/dpi legs:
a vertical representative of the zero observable.  One sweep,
:func:`_contraction_sums`, forms the contraction sum at every K one rank
above a grade of a field; the zero branch of :func:`structure_eq_check`,
:func:`lie_preserves_form`, :func:`gauge_condition_holds` and the
projection :func:`make_valid_gauge` all read it.

The canonical representative built here uses the factor rule: for a
monomial u_1 sym ... sym u_r of rank-1 generators,

    X^{I_{r-1}} = (1/r!) * sum_m  Sym(prod_{l != m} u_l)^{I_{r-1}} X_{u_m}

with generator fields X_qhat(i,j) = -d/dpi(j,i), X_pihat(k) = d/dq(k),
X_rhat(k) = 0.  The structure equation is the arbiter of correctness and
is exposed as :func:`structure_eq_check`.  It reads dtheta from the
observable's space: on a slice observable (``slot`` set) that is the
slice's two-form, :func:`soldering_dtheta` with only the slot component.

The factor-rule grades of each generator monomial with coefficient 1 are
memoized process-wide by :func:`_monomial_ham_vf`, keyed on (mono, n, slot)
and bounded at 256 entries; :func:`ham_vf` sums them times the
coefficients, and a coefficient of 1 reuses the memoized fields unscaled.
Those fields are shared by every representative built from them: every
operation here returns new fields, and no caller may mutate one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping

from .algebra import (
    GenMonomial,
    GenTag,
    MultiIndex,
    Observable,
    all_multi_indices,
    split_pair_sum,
    _monomial_components,
)
from .errors import GaugeConditionError, RankMismatch
from .polynomials import (
    ZERO_POLY,
    LinComb,
    Poly,
    Var,
    accumulate,
    default_var_name,
    mul_into,
    pivar,
    qvar,
)
from .scalars import ONE, Scalar


class VectorField(LinComb):
    """Polynomial-coefficient vector field on the frame bundle.

    ``terms`` maps a coordinate variable to the coefficient of d/d(var):
    ``qvar(a)`` for d/dq^a and ``pivar(a, b)`` for d/dpi^a_b.  The
    constructor takes the two families as ``h[a]`` and ``v[(a, b)]``.
    """

    __slots__ = ()

    def __init__(
        self,
        h: Mapping[int, Poly] | None = None,
        v: Mapping[tuple, Poly] | None = None,
    ):
        self.terms: dict[Var, Poly] = {
            qvar(a): p for a, p in (h or {}).items() if not p.is_zero()
        }
        self.terms.update(
            (pivar(a, b), p) for (a, b), p in (v or {}).items() if not p.is_zero()
        )

    @staticmethod
    def zero() -> "VectorField":
        return VectorField()

    def mul_poly(self, poly: Poly) -> "VectorField":
        if poly.is_zero():
            return VectorField()
        return self._like({var: p * poly for var, p in self.terms.items()})

    def coefficient(self, var: Var) -> Poly:
        """Coefficient of the coordinate direction d/d(var)."""
        return self.terms.get(var, ZERO_POLY)

    def apply(self, poly: Poly) -> Poly:
        """Directional derivative of a polynomial along this field."""
        out: dict = {}
        for var, coeff in self.terms.items():
            mul_into(out, coeff, poly.diff(var))
        return poly._like(out)

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        """Coordinate Lie bracket [self, other]."""
        out = {}
        for var in self.terms.keys() | other.terms.keys():
            p = self.apply(other.coefficient(var)) - other.apply(self.coefficient(var))
            if not p.is_zero():
                out[var] = p
        return self._like(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        # d/dq terms first, then d/dpi terms
        order = sorted(self.terms, key=lambda var: (var[0] != "q", var))
        return " + ".join(f"({self.terms[var]}) d/d{default_var_name(var)}" for var in order)


class OneForm(LinComb):
    """Polynomial one-form; coefficients keyed by coordinate variable."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[Var, Poly] | None = None):
        self.terms: dict[Var, Poly] = {
            v: p for v, p in (coeffs or {}).items() if not p.is_zero()
        }

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({p}) d{default_var_name(v)}" for v, p in sorted(self.terms.items()))


class TwoForm(LinComb):
    """Polynomial two-form over the wedge basis of coordinate differentials.

    Keys are ordered pairs (v1, v2) with v1 < v2 in the canonical variable
    order (pi-differentials sort before q-differentials), standing for
    d(v1) ^ d(v2).  The constructor reorients any other pair and drops
    d(v) ^ d(v).
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[tuple, Poly] | None = None):
        self.terms: dict[tuple, Poly] = {}
        for (v1, v2), p in (coeffs or {}).items():
            if v2 < v1:
                v1, v2, p = v2, v1, -p
            elif v1 == v2:
                continue
            accumulate(self.terms, (v1, v2), p)

    def evaluate_on(self, x: VectorField, y: VectorField) -> Poly:
        """omega(X, Y) for polynomial fields."""
        out = Poly.zero()
        for (v1, v2), c in self.terms.items():
            out = out + c * (
                x.coefficient(v1) * y.coefficient(v2)
                - x.coefficient(v2) * y.coefficient(v1)
            )
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({p}) d{default_var_name(v1)}^d{default_var_name(v2)}"
            for (v1, v2), p in sorted(self.terms.items())
        )


def d_poly(poly: Poly) -> OneForm:
    """Exterior differential of a polynomial function."""
    return OneForm({var: poly.diff(var) for var in poly.variables()})


def d_oneform(form: OneForm) -> TwoForm:
    """Exterior differential of a one-form."""
    out = TwoForm()
    for var, coeff in form.terms.items():
        dc = d_poly(coeff)
        out = out + TwoForm({(w, var): p for w, p in dc.terms.items()})
    return out


def contract(x: VectorField, omega: TwoForm) -> OneForm:
    """Interior product X _| omega."""
    out: dict[Var, Poly] = {}
    for (v1, v2), c in omega.terms.items():
        accumulate(out, v2, c * x.coefficient(v1))
        accumulate(out, v1, -(c * x.coefficient(v2)))
    return OneForm(out)


def soldering_dtheta(n: int, slot: int | None = None) -> dict[int, TwoForm]:
    """Differential of the soldering form: component i is dpi^i_j ^ dq^j.

    On the slice of ``slot`` (see :mod:`nsq.subbundle`) the frozen coframe
    rows are constant, so only component ``slot`` is nonzero.
    """
    return {
        i: TwoForm(
            {(pivar(i, j), qvar(j)): Poly.constant(1) for j in range(1, n + 1)}
            if slot in (None, i)
            else {}
        )
        for i in range(1, n + 1)
    }


def generator_field(tag: GenTag) -> VectorField:
    """Hamiltonian field of a single generator."""
    kind = tag[0]
    if kind == "q":
        i, j = tag[1], tag[2]
        return VectorField(v={(j, i): Poly.constant(-1)})
    if kind == "pi":
        return VectorField(h={tag[1]: Poly.constant(1)})
    return VectorField.zero()


class HamVF(LinComb):
    """Graded tensor-valued vector field: one representative of a class.

    ``terms`` maps a canonical multi-index of rank p-1 to a VectorField.
    """

    __slots__ = ("n",)
    _space = ("n",)

    def __init__(self, n: int, grades: Mapping[MultiIndex, VectorField] | None = None):
        self.n = n
        self.terms: dict[MultiIndex, VectorField] = {
            idx: vf for idx, vf in (grades or {}).items() if not vf.is_zero()
        }

    @staticmethod
    def zero(n: int) -> "HamVF":
        return HamVF(n)

    def grade_ranks(self) -> list[int]:
        return sorted({len(idx) for idx in self.terms})

    def field(self, idx: MultiIndex) -> VectorField:
        return self.terms.get(tuple(sorted(idx)), VectorField.zero())

    def __repr__(self):
        if not self.terms:
            return "0"
        lines = []
        for idx in sorted(self.terms):
            label = ",".join(map(str, idx)) if idx else "-"
            lines.append(f"X[{label}] = {self.terms[idx]}")
        return "; ".join(lines)


@lru_cache(maxsize=256)
def _monomial_ham_vf(
    mono: GenMonomial, n: int, slot: int | None
) -> dict[MultiIndex, VectorField]:
    """Factor-rule grades of one generator monomial with coefficient 1.

    For u_1 ... u_r the grade-I field collects (1/r!) * Sym(all factors but
    u_m)^I * X_{u_m} over the factor positions m.  Memoized process-wide on
    (mono, n, slot) like :func:`nsq.algebra._monomial_components`, with a
    small fixed bound (the 119 basic monomials of degree <= 3 at n=3 fit).
    The returned map and its fields are shared: read them, never mutate them.
    """
    r = len(mono)
    weight = Scalar.of(Fraction(1, factorial(r)))
    out: dict[MultiIndex, VectorField] = {}
    for m in range(r):
        base = generator_field(mono[m])
        if base.is_zero():
            continue
        rest = mono[:m] + mono[m + 1 :]
        if rest:
            rest_comps = _monomial_components(rest, n, slot)
        else:
            rest_comps = {(): Poly.constant(1)}
        for idx, poly in rest_comps.items():
            accumulate(out, idx, base.mul_poly(poly.scale(weight)))
    return out


def ham_vf(f: Observable) -> HamVF:
    """Canonical Hamiltonian representative of an observable, by the factor rule.

    Each generator monomial contributes its memoized unit grades
    (:func:`_monomial_ham_vf`) times its coefficient; a coefficient of 1
    contributes the shared fields themselves, unscaled.
    """
    out: dict[MultiIndex, VectorField] = {}
    for mono, coeff in f.terms.items():
        unit = coeff == ONE
        for idx, vf in _monomial_ham_vf(mono, f.n, f.slot).items():
            accumulate(out, idx, vf if unit else vf.scale(coeff))
    return HamVF(f.n, out)


def structure_eq_check(f: Observable, x: HamVF) -> bool:
    """Verify d f^{I_p} = -p! Sym[X _| dtheta] for every rank-p multi-index.

    dtheta is the two-form of f's space: :func:`soldering_dtheta` of
    ``f.slot``.  f must be homogeneous of rank p and x graded of rank p-1.
    With x symmetric in its grade indices the symmetrized right side
    collapses to -(p-1)! times the sum over positions of the index fed to
    dtheta.
    """
    if f.is_zero():
        # x must represent the zero class: every contraction sum vanishes
        # (true of pure gauge terms).
        return all(s.is_zero() for _, s in _contraction_sums(x, soldering_dtheta(x.n, f.slot)))
    p = f.rank()
    ranks = x.grade_ranks()
    if ranks and ranks != [p - 1]:
        raise RankMismatch(f"field grades {ranks} do not match observable rank {p}")
    dtheta = soldering_dtheta(f.n, f.slot)
    prefactor = Scalar.of(-factorial(p - 1))
    return all(
        d_poly(f.component(K)) == _contraction_sum(x, K, dtheta).scale(prefactor)
        for K in all_multi_indices(f.n, p)
    )


def _contraction_sum(x: HamVF, K: MultiIndex, dtheta: Mapping[int, TwoForm]) -> OneForm:
    """Sum over the positions t of a sorted K of X^{K without K_t} _| dtheta^{K_t}."""
    out = OneForm()
    for t in range(len(K)):
        xf = x.terms.get(K[:t] + K[t + 1 :])
        omega = dtheta.get(K[t])
        if xf is not None and omega is not None:
            out = out + contract(xf, omega)
    return out


def _contraction_sums(x: HamVF, dtheta: Mapping[int, TwoForm]) -> Iterator[tuple]:
    """The zero-class sweep: (K, contraction sum at K) for every K one rank above a grade of x."""
    for g in x.grade_ranks():
        for K in all_multi_indices(x.n, g + 1):
            yield K, _contraction_sum(x, K, dtheta)


def gauge_condition_holds(t: HamVF) -> bool:
    """True iff t is a valid gauge term: a vertical representative of zero.

    Every contraction sum must vanish.  That forces t vertical: the
    dpi^a_j leg of the sum at K is minus the multiplicity of a in K times
    the d/dq^j coefficient of t's grade K minus one a.  The dq^b leg is
    the sum over the positions of K of the d/dpi^{K_t}_b coefficient of
    t's grade K without K_t.
    """
    return all(s.is_zero() for _, s in _contraction_sums(t, soldering_dtheta(t.n)))


def add_gauge(x: HamVF, t: HamVF) -> HamVF:
    """Shift a representative by a valid gauge term.

    t must pass :func:`gauge_condition_holds`; then the structure equation
    and every Poisson bracket computed from the representative are
    unchanged.
    """
    if not gauge_condition_holds(t):
        raise GaugeConditionError("gauge term is not vertical with vanishing symmetrized part")
    return x + t


def make_valid_gauge(u: HamVF) -> HamVF:
    """Project a vertical field onto the valid gauge directions: T = U - Sym(U).

    Sym(U) on the leg d/dpi^a_b of grade I is 1/p times the dq^b coefficient
    of U's contraction sum at K = sorted(I + (a,)), of rank p.  So at each K
    every dq^b term s is subtracted, as s/p, from the d/dpi^a_b leg of
    grade K minus one a, for each distinct a in K.
    """
    if any(var[0] != "pi" for vf in u.terms.values() for var in vf.terms):
        raise GaugeConditionError("gauge terms are vertical: a field has a d/dq leg")
    out = dict(u.terms)
    for K, s in _contraction_sums(u, soldering_dtheta(u.n)):
        weight = Fraction(-1, len(K))
        for (_, b), poly in s.terms.items():
            for a in set(K):
                t = K.index(a)
                accumulate(out, K[:t] + K[t + 1 :], VectorField(v={(a, b): poly.scale(weight)}))
    return u._like(out)


def random_valid_gauge(n: int, grade_rank: int, rng, max_terms: int = 3) -> HamVF:
    """Seeded random gauge term with vanishing symmetrized part.

    Only grade ranks >= 1 admit gauge freedom; rank 0 returns the zero field
    without drawing from rng.
    """
    if grade_rank < 1:
        return HamVF(n)
    grades: dict[MultiIndex, VectorField] = {}
    indices = list(all_multi_indices(n, grade_rank))
    for _ in range(max_terms):
        idx = rng.choice(indices)
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        coeff = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        kind = rng.randint(0, 2)
        if kind == 0:
            poly = Poly.constant(coeff)
        elif kind == 1:
            poly = Poly.var(qvar(rng.randint(1, n))).scale(coeff)
        else:
            poly = Poly.var(pivar(rng.randint(1, n), rng.randint(1, n))).scale(coeff)
        accumulate(grades, idx, VectorField(v={(a, b): poly}))
    return make_valid_gauge(HamVF(n, grades))


def vf_bracket(x: HamVF, y: HamVF) -> HamVF:
    """Bracket of graded fields: componentwise Lie bracket, then normalized
    symmetrization over the combined upper indices.

    The support pairs (I, J) go through the one split-pair loop,
    :func:`nsq.algebra.split_pair_sum`, as in
    :func:`nsq.algebra.sym_components`.  Both fields must have the same n.
    """
    x._require_same(y)
    return HamVF(x.n, split_pair_sum(x.terms, y.terms, VectorField.lie_bracket))


def lie_preserves_form(x: HamVF) -> bool:
    """Check the symmetrized Lie derivative of dtheta along x vanishes.

    Via Cartan's identity this reduces to d(Sym[X _| dtheta]) = 0 for every
    index combination; dtheta itself is closed.
    """
    return all(d_oneform(s).is_zero() for _, s in _contraction_sums(x, soldering_dtheta(x.n)))
