"""Forms, vector fields, the soldering structure and Hamiltonian fields.

The vector-valued soldering one-form has components theta^i = pi^i_j dq^j,
so its differential is d(theta^i) = d(pi^i_j) ^ dq^j.  A rank-p observable
f determines an equivalence class of graded vector fields X through the
structure equation

    d f^{I_p}  =  -p! * Sym_{I_p} [ X^{I_{p-1}} _| dtheta^{i_p} ]

with normalized symmetrization over all p upper indices.  Representatives
differ by "gauge": vertical terms whose symmetrization over the upper
indices vanishes.  Gauge terms never change any derived bracket.

The canonical representative built here uses the factor rule: for a
monomial u_1 sym ... sym u_r of rank-1 generators,

    X^{I_{r-1}} = (1/r!) * sum_m  Sym(prod_{l != m} u_l)^{I_{r-1}} X_{u_m}

with generator fields X_qhat(i,j) = -d/dpi(j,i), X_pihat(k) = d/dq(k),
X_rhat(k) = 0.  The structure equation is the arbiter of correctness and
is exposed as :func:`structure_eq_check`.

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
from typing import Mapping

from .algebra import (
    GenMonomial,
    GenTag,
    MultiIndex,
    Observable,
    accumulate,
    all_multi_indices,
    split_weight,
    _monomial_components,
)
from .errors import GaugeConditionError, RankMismatch
from .polynomials import Poly, Var, pivar, qvar
from .scalars import ONE, Scalar


class VectorField:
    """Polynomial-coefficient vector field on the frame bundle.

    ``h[a]`` is the coefficient of d/dq^a and ``v[(a, b)]`` the coefficient
    of d/dpi^a_b.  Zero coefficients are not stored.
    """

    __slots__ = ("h", "v")

    def __init__(
        self,
        h: Mapping[int, Poly] | None = None,
        v: Mapping[tuple, Poly] | None = None,
    ):
        self.h: dict[int, Poly] = {a: p for a, p in (h or {}).items() if not p.is_zero()}
        self.v: dict[tuple, Poly] = {ab: p for ab, p in (v or {}).items() if not p.is_zero()}

    @staticmethod
    def zero() -> "VectorField":
        return VectorField()

    def is_zero(self) -> bool:
        return not self.h and not self.v

    def __add__(self, other: "VectorField") -> "VectorField":
        h = dict(self.h)
        for a, p in other.h.items():
            s = h.get(a)
            h[a] = p if s is None else s + p
        v = dict(self.v)
        for ab, p in other.v.items():
            s = v.get(ab)
            v[ab] = p if s is None else s + p
        return VectorField(h, v)

    def __neg__(self) -> "VectorField":
        return VectorField({a: -p for a, p in self.h.items()}, {ab: -p for ab, p in self.v.items()})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, c) -> "VectorField":
        return VectorField(
            {a: p.scale(c) for a, p in self.h.items()},
            {ab: p.scale(c) for ab, p in self.v.items()},
        )

    def mul_poly(self, poly: Poly) -> "VectorField":
        return VectorField(
            {a: p * poly for a, p in self.h.items()},
            {ab: p * poly for ab, p in self.v.items()},
        )

    def coefficient(self, var: Var) -> Poly:
        """Coefficient of the coordinate direction d/d(var)."""
        if var[0] == "q":
            return self.h.get(var[1], Poly.zero())
        return self.v.get((var[1], var[2]), Poly.zero())

    def apply(self, poly: Poly) -> Poly:
        """Directional derivative of a polynomial along this field."""
        out = Poly.zero()
        for a, coeff in self.h.items():
            out = out + coeff * poly.diff(qvar(a))
        for (a, b), coeff in self.v.items():
            out = out + coeff * poly.diff(pivar(a, b))
        return out

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        """Coordinate Lie bracket [self, other]."""
        h: dict[int, Poly] = {}
        v: dict[tuple, Poly] = {}
        for a in set(self.h) | set(other.h):
            p = self.apply(other.h.get(a, Poly.zero())) - other.apply(
                self.h.get(a, Poly.zero())
            )
            if not p.is_zero():
                h[a] = p
        for ab in set(self.v) | set(other.v):
            p = self.apply(other.v.get(ab, Poly.zero())) - other.apply(
                self.v.get(ab, Poly.zero())
            )
            if not p.is_zero():
                v[ab] = p
        return VectorField(h, v)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.h == other.h and self.v == other.v

    __hash__ = None

    def __repr__(self):
        parts = []
        for a in sorted(self.h):
            parts.append(f"({self.h[a]}) d/dq{a}")
        for (a, b) in sorted(self.v):
            parts.append(f"({self.v[(a, b)]}) d/dpi({a},{b})")
        return " + ".join(parts) if parts else "0"


class OneForm:
    """Polynomial one-form; coefficients keyed by coordinate variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Var, Poly] | None = None):
        self.coeffs: dict[Var, Poly] = {
            v: p for v, p in (coeffs or {}).items() if not p.is_zero()
        }

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "OneForm") -> "OneForm":
        out = dict(self.coeffs)
        for v, p in other.coeffs.items():
            s = out.get(v)
            out[v] = p if s is None else s + p
        return OneForm(out)

    def __neg__(self) -> "OneForm":
        return OneForm({v: -p for v, p in self.coeffs.items()})

    def __sub__(self, other: "OneForm") -> "OneForm":
        return self + (-other)

    def scale(self, c) -> "OneForm":
        return OneForm({v: p.scale(c) for v, p in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({p}) d{_var_str(v)}" for v, p in sorted(self.coeffs.items()))


class TwoForm:
    """Polynomial two-form over the wedge basis of coordinate differentials.

    Keys are ordered pairs (v1, v2) with v1 < v2 in the canonical variable
    order (pi-differentials sort before q-differentials), standing for
    d(v1) ^ d(v2).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple, Poly] | None = None):
        self.coeffs: dict[tuple, Poly] = {}
        for (v1, v2), p in (coeffs or {}).items():
            if p.is_zero():
                continue
            if v2 < v1:
                v1, v2, p = v2, v1, -p
            elif v1 == v2:
                continue
            s = self.coeffs.get((v1, v2))
            s = p if s is None else s + p
            if s.is_zero():
                self.coeffs.pop((v1, v2), None)
            else:
                self.coeffs[(v1, v2)] = s

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TwoForm") -> "TwoForm":
        out = dict(self.coeffs)
        for key, p in other.coeffs.items():
            s = out.get(key)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        tf = TwoForm()
        tf.coeffs = out
        return tf

    def __eq__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def evaluate_on(self, x: VectorField, y: VectorField) -> Poly:
        """omega(X, Y) for polynomial fields."""
        out = Poly.zero()
        for (v1, v2), c in self.coeffs.items():
            out = out + c * (
                x.coefficient(v1) * y.coefficient(v2)
                - x.coefficient(v2) * y.coefficient(v1)
            )
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({p}) d{_var_str(v1)}^d{_var_str(v2)}"
            for (v1, v2), p in sorted(self.coeffs.items())
        )


def _var_str(v: Var) -> str:
    return f"q{v[1]}" if v[0] == "q" else f"pi({v[1]},{v[2]})"


def d_poly(poly: Poly) -> OneForm:
    """Exterior differential of a polynomial function."""
    coeffs: dict[Var, Poly] = {}
    for var in poly.variables():
        dp = poly.diff(var)
        if not dp.is_zero():
            coeffs[var] = dp
    return OneForm(coeffs)


def d_oneform(form: OneForm) -> TwoForm:
    """Exterior differential of a one-form."""
    out = TwoForm()
    for var, coeff in form.coeffs.items():
        dc = d_poly(coeff)
        out = out + TwoForm({(w, var): p for w, p in dc.coeffs.items()})
    return out


def contract(x: VectorField, omega: TwoForm) -> OneForm:
    """Interior product X _| omega."""
    coeffs: dict[Var, Poly] = {}
    for (v1, v2), c in omega.coeffs.items():
        a = c * x.coefficient(v1)
        if not a.is_zero():
            s = coeffs.get(v2)
            coeffs[v2] = a if s is None else s + a
        b = c * x.coefficient(v2)
        if not b.is_zero():
            s = coeffs.get(v1)
            coeffs[v1] = (-b) if s is None else s - b
    return OneForm(coeffs)


def soldering_dtheta(n: int) -> dict[int, TwoForm]:
    """Differential of the soldering form: component i is dpi^i_j ^ dq^j."""
    return {
        i: TwoForm({(pivar(i, j), qvar(j)): Poly.constant(1) for j in range(1, n + 1)})
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


class HamVF:
    """Graded tensor-valued vector field: one representative of a class.

    ``grades`` maps a canonical multi-index of rank p-1 to a VectorField.
    """

    def __init__(self, n: int, grades: Mapping[MultiIndex, VectorField] | None = None):
        self.n = n
        self.grades: dict[MultiIndex, VectorField] = {
            idx: vf for idx, vf in (grades or {}).items() if not vf.is_zero()
        }

    @staticmethod
    def zero(n: int) -> "HamVF":
        return HamVF(n)

    def grade_ranks(self) -> list[int]:
        return sorted({len(idx) for idx in self.grades})

    def field(self, idx: MultiIndex) -> VectorField:
        return self.grades.get(tuple(sorted(idx)), VectorField.zero())

    def __add__(self, other: "HamVF") -> "HamVF":
        grades = dict(self.grades)
        for idx, vf in other.grades.items():
            s = grades.get(idx)
            grades[idx] = vf if s is None else s + vf
        return HamVF(self.n, grades)

    def scale(self, c) -> "HamVF":
        return HamVF(self.n, {idx: vf.scale(c) for idx, vf in self.grades.items()})

    def is_zero(self) -> bool:
        return not self.grades

    def __eq__(self, other):
        if not isinstance(other, HamVF):
            return NotImplemented
        return self.n == other.n and self.grades == other.grades

    __hash__ = None

    def __repr__(self):
        if not self.grades:
            return "0"
        lines = []
        for idx in sorted(self.grades):
            label = ",".join(map(str, idx)) if idx else "-"
            lines.append(f"X[{label}] = {self.grades[idx]}")
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
    for mono, coeff in f.genpoly.items():
        unit = coeff == ONE
        for idx, vf in _monomial_ham_vf(mono, f.n, f.slot).items():
            accumulate(out, idx, vf if unit else vf.scale(coeff))
    return HamVF(f.n, out)


def structure_eq_check(
    f: Observable,
    x: HamVF,
    dtheta: Mapping[int, TwoForm] | None = None,
) -> bool:
    """Verify d f^{I_p} = -p! Sym[X _| dtheta] for every rank-p multi-index.

    f must be homogeneous of rank p and x graded of rank p-1.  With x
    symmetric in its grade indices the symmetrized right side collapses to
    -(p-1)! times the sum over positions of the index fed to dtheta.
    """
    if f.is_zero():
        # x must represent the zero class: the symmetrized contraction with
        # dtheta vanishes gradewise (true of pure gauge terms).
        dtheta = dtheta if dtheta is not None else soldering_dtheta(x.n)
        return all(
            _contraction_sum(x, K, dtheta).is_zero()
            for g in x.grade_ranks()
            for K in all_multi_indices(x.n, g + 1)
        )
    p = f.rank()
    ranks = x.grade_ranks()
    if ranks and ranks != [p - 1]:
        raise RankMismatch(f"field grades {ranks} do not match observable rank {p}")
    dtheta = dtheta if dtheta is not None else soldering_dtheta(f.n)
    prefactor = Scalar.of(-factorial(p - 1))
    return all(
        d_poly(f.component(K)) == _contraction_sum(x, K, dtheta).scale(prefactor)
        for K in all_multi_indices(f.n, p)
    )


def _contraction_sum(x: HamVF, K: MultiIndex, dtheta: Mapping[int, TwoForm]) -> OneForm:
    """Sum over the positions t of a sorted K of X^{K without K_t} _| dtheta^{K_t}."""
    out = OneForm()
    for t in range(len(K)):
        xf = x.grades.get(K[:t] + K[t + 1 :])
        omega = dtheta.get(K[t])
        if xf is not None and omega is not None:
            out = out + contract(xf, omega)
    return out


GaugeTerm = Mapping[MultiIndex, Mapping[tuple, Poly]]


def gauge_condition_holds(t: GaugeTerm, n: int) -> bool:
    """True iff the symmetrization of T over its upper indices vanishes.

    For vertical terms T_b^{I a} d/dpi^a_b the condition is that for every
    canonical multi-index K of rank |I|+1 and every lower index b, the sum
    over positions of K of T_b^{K-minus-t, K_t} is identically zero.
    """
    return all(
        _gauge_sum(t, K, b).is_zero()
        for g in {len(idx) for idx in t}
        for K in all_multi_indices(n, g + 1)
        for b in range(1, n + 1)
    )


def _gauge_sum(t: GaugeTerm, K: MultiIndex, b: int) -> Poly:
    """Sum over the positions t of a sorted K of T_b^{K without K_t, K_t}."""
    acc = Poly.zero()
    for pos in range(len(K)):
        poly = t.get(K[:pos] + K[pos + 1 :], {}).get((K[pos], b))
        if poly is not None:
            acc = acc + poly
    return acc


def add_gauge(x: HamVF, t: GaugeTerm) -> HamVF:
    """Shift a representative by a vertical gauge term.

    The symmetrized part of T over its upper indices must vanish; then the
    structure equation and every Poisson bracket computed from the
    representative are unchanged.
    """
    if not gauge_condition_holds(t, x.n):
        raise GaugeConditionError("gauge term has nonvanishing symmetrized part")
    grades = dict(x.grades)
    for idx, vcomps in t.items():
        accumulate(grades, tuple(sorted(idx)), VectorField(v=dict(vcomps)))
    return HamVF(x.n, grades)


def make_valid_gauge(u: GaugeTerm, n: int) -> dict[MultiIndex, dict[tuple, Poly]]:
    """Project an arbitrary vertical term onto the valid gauge directions.

    Returns T = U - Sym(U); its symmetrization over upper indices vanishes
    by construction.
    """
    by_rank: dict[int, dict[MultiIndex, dict[tuple, Poly]]] = {}
    for idx, comps in u.items():
        by_rank.setdefault(len(idx), {})[tuple(sorted(idx))] = dict(comps)
    out: dict[MultiIndex, dict[tuple, Poly]] = {}
    for g, part in by_rank.items():
        p = g + 1
        sym: dict[tuple, Poly] = {}
        for K in all_multi_indices(n, p):
            for b in range(1, n + 1):
                acc = _gauge_sum(part, K, b)
                if not acc.is_zero():
                    sym[(K, b)] = acc.scale(Fraction(1, p))
        keys = set(part)
        for (K, b) in sym:
            for pos in range(p):
                keys.add(K[:pos] + K[pos + 1 :])
        for idx in keys:
            comps: dict[tuple, Poly] = {}
            verts = set(part.get(idx, {}))
            for (K, b) in sym:
                for a in set(K):
                    if tuple(sorted(idx + (a,))) == K:
                        verts.add((a, b))
            for (a, b) in verts:
                K = tuple(sorted(idx + (a,)))
                val = part.get(idx, {}).get((a, b), Poly.zero()) - sym.get(
                    (K, b), Poly.zero()
                )
                if not val.is_zero():
                    comps[(a, b)] = val
            if comps:
                out[idx] = comps
    return out


def random_valid_gauge(n: int, grade_rank: int, rng, max_terms: int = 3):
    """Seeded random gauge term with vanishing symmetrized part.

    Only grade ranks >= 1 admit gauge freedom; rank 0 returns empty.
    """
    if grade_rank < 1:
        return {}
    u: dict[MultiIndex, dict[tuple, Poly]] = {}
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
        slot = u.setdefault(idx, {})
        slot[(a, b)] = slot.get((a, b), Poly.zero()) + poly
    return make_valid_gauge(u, n)


def vf_bracket(x: HamVF, y: HamVF) -> HamVF:
    """Bracket of graded fields: componentwise Lie bracket, then normalized
    symmetrization over the combined upper indices.

    Each support pair (I, J) is bracketed once and lands on K = sorted(I + J)
    with weight split_weight(K, I), as in :func:`nsq.algebra.sym_components`.
    """
    out: dict[MultiIndex, VectorField] = {}
    for ix, fx in x.grades.items():
        for iy, fy in y.grades.items():
            K = tuple(sorted(ix + iy))
            accumulate(out, K, fx.lie_bracket(fy).scale(split_weight(K, ix)))
    return HamVF(x.n, out)


def lie_preserves_form(
    x: HamVF, dtheta: Mapping[int, TwoForm] | None = None
) -> bool:
    """Check the symmetrized Lie derivative of dtheta along x vanishes.

    Via Cartan's identity this reduces to d(Sym[X _| dtheta]) = 0 for every
    index combination; dtheta itself is closed.
    """
    dtheta = dtheta if dtheta is not None else soldering_dtheta(x.n)
    return all(
        d_oneform(_contraction_sum(x, K, dtheta)).is_zero()
        for g in x.grade_ranks()
        for K in all_multi_indices(x.n, g + 1)
    )
