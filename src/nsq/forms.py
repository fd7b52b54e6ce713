"""Forms, vector fields, the soldering structure and Hamiltonian fields.

Vector fields, one-forms and two-forms map coordinate variables (or pairs
of them) to polynomial coefficients, as :class:`~nsq.scalars.LinComb`
subclasses.  The soldering one-form has components theta^i = pi^i_j dq^j,
so d(theta^i) = d(pi^i_j) ^ dq^j.  A rank-p observable f determines a class
of graded vector fields X through the structure equation

    d f^{I_p}  =  -p! * Sym_{I_p} [ X^{I_{p-1}} _| dtheta^{i_p} ]

(normalized symmetrization over the p upper indices), checked by
:func:`structure_eq_check`; on a slice observable (``slot`` set) dtheta is
the slice's two-form, :func:`soldering_dtheta` with only the slot
component.  Representatives differ by gauge terms: vertical fields whose
symmetrization vanishes, which change no bracket.  The canonical
representative is the factor rule: for u_1 sym ... sym u_r,

    X^{I_{r-1}} = (1/r!) * sum_m  Sym(prod_{l != m} u_l)^{I_{r-1}} X_{u_m}

with X_qhat(i,j) = -d/dpi(j,i), X_pihat(k) = d/dq(k), X_rhat(k) = 0.

The forms layer and the checked bracket (:mod:`nsq.poisson`) run on the
packed monomials of :mod:`nsq.packed`, which owns the layout, and on its
one flat key: a field's grade I, like an observable's multi-index K, is
held as index counts in the low n fields, below the packed monomial.

*The records*, built in ints from N_r, r! times the components of a unit
monomial of degree r (:func:`nsq.algebra._monomial_components`, the one
expansion, a flat map {flat key: int}): one per (mono, n, slot),
:func:`_monomial_record`, behind one memo of 1,024 entries, shared
read-only.  One walk over the distinct factors u_m builds the factor-rule
field, the sum over them of N_{r-1}(rest_m)^I X_{u_m} over r!(r-1)!,
keyed (var, flat key of rest_m's table), reduced to the canonical form
below and, unreduced, by variable (:func:`_by_variable`), and the
bracket's operands: N_r's term-by-term partials and the generator index
of :mod:`nsq.poisson`.  On the benchmark's ``laws-mixed-n3`` workload
(seed 7, 20,000 cases) the memo hits 94.3% of its lookups.

*A field's canonical form.*  A :class:`HamVF` is a
:class:`~nsq.packed.PackedLinComb` over (variable, flat key), the
d/d(variable) coefficient of grade I, whose view maps I to a
:class:`VectorField`; sorted tuples appear only in views.  :func:`ham_vf`
reads the field tables: one monomial with coefficient 1 shares its table
as is, anything else scales the numerators.  The kernels run on int adds
and field reads: :func:`vf_bracket` (the packed split count of
:mod:`nsq.algebra` over a comb, times the packed Lie bracket, d/d(var)
read from var's field), and one sweep, :func:`_contraction_sums`, which
serves :func:`structure_eq_check` (against the partials of f's flat
form), its zero branch, :func:`gauge_condition_holds`,
:func:`make_valid_gauge` and :func:`lie_preserves_form`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from types import MappingProxyType
from typing import Mapping

from .algebra import (
    _SPLIT_COUNTS,
    GenMonomial,
    MultiIndex,
    Observable,
    _EMPTY_REST,
    _index_of,
    _monomial_components,
    _split_count,
    all_multi_indices,
    canonicalize,
    rtag,
)
from .errors import GaugeConditionError, RankMismatch
from .packed import (
    FIELD_BITS,
    _FIELD_MASK,
    _UNIT_NUMERATORS,
    POWER_BOUND,
    PackedLinComb,
    _normal,
    _scalar_numerators,
    pack_term,
    packed_units,
    unpack_poly,
    variable_units,
)
from .polynomials import ZERO_POLY, Poly, Var, default_var_name, pivar, qvar
from .scalars import LinComb, accumulate


# -- the integer tables ----------------------------------------------------------


def _partials(entries: dict, n: int):
    """Term-by-term partial derivatives of an integer map keyed (tag, flat key).

    Yields (v, tag, the flat key lowered once in v, pw * c) for each entry
    c and each variable v of power pw >= 1 in its monomial.
    """
    above = FIELD_BITS * n
    seen = 0
    for _, key in entries:
        seen |= key
    for v, unit in variable_units(n):
        unit <<= above
        if seen & unit * _FIELD_MASK:
            shift = unit.bit_length() - 1
            for (tag, key), c in entries.items():
                pw = key >> shift & _FIELD_MASK
                if pw:
                    yield v, tag, key - unit, pw * c


def _by_variable(nums: dict, n: int) -> dict[Var, tuple[tuple[int, int, int], ...]]:
    """A map (var, flat key) -> int grouped by variable: var -> ((I counts, flat key, int), ...), route 1's view.

    The lists become tuples, which the garbage collector stops tracking.
    """
    index_mask = (1 << FIELD_BITS * n) - 1
    out: dict[Var, list] = {}
    for (var, key), c in nums.items():
        out.setdefault(var, []).append((key & index_mask, key, c))
    return {var: tuple(entries) for var, entries in out.items()}


@lru_cache(maxsize=1024)
def _monomial_record(mono: GenMonomial, n: int, slot: int | None) -> tuple[dict, int, dict, dict, tuple, dict]:
    """The record of a generator monomial: (field numerators, field den, field view, partials, q-index, pi-index).

    One walk over the distinct factors u of mono, each with its rest (mono
    without one u) and its multiplicity c, builds all six parts:

    * the factor-rule field: the sum over the factors of c times the
      rest's table times the field of u, keyed (var, flat key), reduced by
      its gcd with r!(r-1)! into the numerators and den that :func:`ham_vf`
      reads, and unreduced by variable, route 1's left operand;
    * the partials, route 1's right operand: :func:`_partials` of mono's
      own table by variable.  A monomial of degree POWER_BOUND + 1 has a
      field but no table, so None: the bracket refuses it up front;
    * route 2's generator index: the q-index holds (i, the rest with
      rhat(j) in place of qhat(i,j), c) per distinct qhat(i,j), in the
      order of mono, and the pi-index maps k to (the rest, c) per distinct
      pihat(k).  The rests are sorted tuples of mono's own tags.

    Memoized process-wide on (mono, n, slot), at most 1,024 records; a
    record is shared: read it, never mutate it.
    """
    field, qs, pis = {}, [], {}
    for tag in dict.fromkeys(mono):
        if tag[0] == "r":
            continue
        i = mono.index(tag)
        rest, count = mono[:i] + mono[i + 1 :], mono.count(tag)
        if tag[0] == "q":
            var, sign = pivar(tag[2], tag[1]), -1
            qs.append((tag[1], tuple(sorted(rest + (rtag(tag[2]),))), count))
        else:
            var, sign = qvar(tag[1]), 1
            pis[tag[1]] = (rest, count)
        for key, c in (_monomial_components(rest, n, slot) if rest else _EMPTY_REST).items():
            field[var, key] = sign * count * c
    r, partials = len(mono), None
    if r <= POWER_BOUND:
        flat = {(None, key): c for key, c in _monomial_components(mono, n, slot).items()}
        partials = _by_variable({(v, lowered): d for v, _, lowered, d in _partials(flat, n)}, n)
    nums, den = _normal(field, factorial(r) * factorial(r - 1))
    return nums, den, _by_variable(field, n), partials, tuple(qs), pis


# -- fields and forms ----------------------------------------------------------------


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
        self.terms: dict = {qvar(a): p for a, p in (h or {}).items() if p}
        self.terms.update((pivar(a, b), p) for (a, b), p in (v or {}).items() if p)

    @staticmethod
    def zero() -> "VectorField":
        return VectorField()

    def coefficient(self, var: Var) -> Poly:
        """Coefficient of the coordinate direction d/d(var)."""
        return self.terms.get(var, ZERO_POLY)

    def __repr__(self):
        if not self.terms:
            return "0"
        # d/dq terms first, then d/dpi terms
        order = sorted(self.terms, key=lambda var: (var[0] != "q", var))
        return " + ".join(f"({self.terms[var]}) d/d{default_var_name(var)}" for var in order)


class OneForm(LinComb):
    """Polynomial one-form; coefficients keyed by coordinate variable."""

    __slots__ = ()

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


@lru_cache(maxsize=32)
def soldering_dtheta(n: int, slot: int | None = None) -> Mapping[int, TwoForm]:
    """Differential of the soldering form: component i is dpi^i_j ^ dq^j.

    On the slice of ``slot`` (see :mod:`nsq.subbundle`) the frozen coframe
    rows are constant, so only component ``slot`` is nonzero.  Memoized on
    (n, slot) as a read-only mapping, shared with every caller, its forms
    included: read them, never mutate them.
    """
    return MappingProxyType({
        i: TwoForm(
            {(pivar(i, j), qvar(j)): Poly.constant(1) for j in range(1, n + 1)}
            if slot in (None, i)
            else {}
        )
        for i in range(1, n + 1)
    })


class HamVF(PackedLinComb):
    """Graded tensor-valued vector field: one representative of a class.

    The form is (variable, flat key) -> nonzero int over one denominator
    (see :mod:`nsq.packed`), grade I's counts in the key's index fields;
    ``terms`` is the view that maps a canonical multi-index of rank p-1 to
    a VectorField.  The constructor canonicalizes each grade index, refusing
    one outside 1..n, and counts a grade's rank as a power.  Equality is
    structural on the integer form.
    """

    __slots__ = ()
    _power = "a field"

    def __init__(self, n: int, grades: Mapping[MultiIndex, VectorField] | None = None):
        view: dict = {}
        for I, vf in (grades or {}).items():
            accumulate(view, canonicalize(I, n), vf)
        super().__init__(n, view)

    @staticmethod
    def _packed_view(n: int, view: dict) -> tuple[list, int]:
        above = FIELD_BITS * n
        terms, top = [], 0
        for I, vf in view.items():
            counts = sum(1 << FIELD_BITS * (j - 1) for j in I)
            top = max(top, len(I))
            for var, poly in vf.terms.items():
                for mono, s in poly.terms.items():
                    for sym, c in s.terms.items():
                        key, pw = pack_term(mono, sym, n)
                        terms.append(((var, (key << above) + counts), c))
                        top = max(top, pw)
        return terms, top

    def _unpacked(self) -> dict:
        n, above = self.n, FIELD_BITS * self.n
        index_mask = (1 << above) - 1
        grades: dict = {}
        for (var, key), c in self._nums.items():
            grades.setdefault(key & index_mask, {}).setdefault(var, {})[key >> above] = c
        return {
            _index_of(counts): VectorField()._like({var: unpack_poly(num, self._den, n) for var, num in fields.items()})
            for counts, fields in grades.items()
        }

    @staticmethod
    def _add_into(acc: dict, nums: dict, factor: int, shift: int, n: int) -> None:
        shift <<= FIELD_BITS * n  # a symbol monomial sits above the index fields
        for (var, k), c in nums.items():
            key = (var, k + shift)
            acc[key] = acc.get(key, 0) + c * factor

    def grade_ranks(self) -> list[int]:
        index_mask = (1 << FIELD_BITS * self.n) - 1
        return sorted({len(_index_of(counts)) for counts in {key & index_mask for _, key in self._nums}})

    def field(self, idx: MultiIndex) -> VectorField:
        return self.terms.get(canonicalize(idx, self.n), VectorField.zero())

    def __repr__(self):
        if not self.terms:
            return "0"
        lines = []
        for idx in sorted(self.terms):
            label = ",".join(map(str, idx)) if idx else "-"
            lines.append(f"X[{label}] = {self.terms[idx]}")
        return "; ".join(lines)


def ham_vf(f: Observable) -> HamVF:
    """Canonical Hamiltonian representative of an observable, by the factor rule.

    Each generator monomial contributes the field of its memoized record
    (:func:`_monomial_record`) times its coefficient; one monomial with
    coefficient 1 is that field itself, shared and unscaled.  A monomial of
    degree past POWER_BOUND + 1 is refused before any table is built.
    """
    n, slot = f.n, f.slot
    parts, top = [], 0
    for mono, coeff in f.terms.items():
        top = HamVF._checked(max(top, len(mono) - 1))
        cnums, cden, ctop = _scalar_numerators(coeff, n)
        top = HamVF._checked(max(top, ctop))
        nums, den = _monomial_record(mono, n, slot)[:2]
        parts.append((nums, den * cden, cnums))
    if len(parts) == 1 and parts[0][2] is _UNIT_NUMERATORS[0]:
        return HamVF._of(n, parts[0][0], parts[0][1], top)
    den = lcm(*(d for _, d, _ in parts))
    acc: dict = {}
    for nums, d, cnums in parts:
        for shift, c in cnums.items():
            HamVF._add_into(acc, nums, c * (den // d), shift, n)
    return HamVF._of(n, *_normal(acc, den), top)


# -- the packed Lie bracket -----------------------------------------------------------


def _field_partials(nums: dict, n: int) -> dict[Var, list]:
    """v -> [(w, J counts, |J|, the flat key lowered once in v, pw * c)] for every term of every d/dw coefficient holding v."""
    index_mask = (1 << FIELD_BITS * n) - 1
    out: dict = {}
    for v, w, lowered, d in _partials(nums, n):
        J = lowered & index_mask
        out.setdefault(v, []).append((w, J, len(_index_of(J)), lowered, d))
    return out


def _lie_into(acc: dict, fields: dict, partials: dict, scale: int, n: int, sign: int) -> None:
    """acc[w, key] += sign * weight * A^I_v d_v B^J_w over A's form and B's partials.

    Each pair lands on the sum of its flat keys, with the split-pair weight
    split_count(K, I) * scale / comb(|K|, |I|) for K = I + J, which is
    symmetric in I and J.
    """
    index_mask = (1 << FIELD_BITS * n) - 1
    weights = _SPLIT_COUNTS
    for (v, k), c in fields.items():
        entries = partials.get(v)
        if entries is None:
            continue
        I = k & index_mask
        p = len(_index_of(I))
        c *= sign
        for w, J, q, lowered, d in entries:
            key = (w, k + lowered)
            weight = scale // comb(p + q, p) * (weights.get((I, J)) or _split_count(I, J))
            acc[key] = acc.get(key, 0) + c * d * weight


def vf_bracket(x: HamVF, y: HamVF) -> HamVF:
    """Bracket of graded fields: componentwise Lie bracket, then normalized
    symmetrization over the combined upper indices.

    Every pair (I, J) of the supports lands on K = I + J, the sum of the
    flat keys, with weight split_count(K, I) / comb(|K|, |I|), the share of
    K's position splits that feed I to x;
    [X^I, Y^J]_w = X^I_v d_v Y^J_w - Y^J_v d_v X^I_w is formed on the packed
    forms, over den(x) * den(y) times the lcm of the combs.  Both fields must
    have the same n.
    """
    x._require_same(y)
    n = x.n
    if not x._nums or not y._nums:
        return HamVF.zero(n)
    top = HamVF._checked(x._top + y._top)
    scale = lcm(*(comb(a + b, a) for a in x.grade_ranks() for b in y.grade_ranks()))
    acc: dict = {}
    _lie_into(acc, x._nums, _field_partials(y._nums, n), scale, n, 1)
    _lie_into(acc, y._nums, _field_partials(x._nums, n), scale, n, -1)
    return HamVF._of(n, *_normal(acc, x._den * y._den * scale), top)


# -- the contraction sweep and the structure equation ---------------------------------


def _contraction_sums(x: HamVF, slot: int | None = None) -> dict[tuple, int]:
    """The zero-class sweep: (leg, flat key of K) -> numerator over x's denominator, zeros dropped.

    The sum over the positions t of K of X^{K without K_t} _| dtheta^{K_t},
    with dtheta^i = sum_j dpi^i_j ^ dq^j (:func:`soldering_dtheta`, only
    i = slot on a slice), at every K one rank above a grade of x.  Grade I's
    d/dpi^a_b coefficient feeds the dq^b leg of K = I + (a,), and its
    d/dq^j coefficient the dpi^a_j leg of that K for every row a, each once
    per position of a in K, the second with a minus sign: K's key is one
    count more in field a - 1, read for K.count(a).  A K past POWER_BOUND,
    whose counts would carry, is refused.
    """
    n = x.n
    if x._top >= POWER_BOUND:
        HamVF._checked(max(x.grade_ranks()) + 1)
    units = packed_units(n)
    rows = range(1, n + 1) if slot is None else (slot,)
    out: dict = {}
    for (var, key), c in x._nums.items():
        if var not in units:
            continue
        if var[0] == "pi":
            if var[1] not in rows:
                continue
            legs = ((var[1], qvar(var[2]), c),)
        else:
            legs = [(a, pivar(a, var[1]), -c) for a in rows]
        for a, leg, signed in legs:
            field = FIELD_BITS * (a - 1)
            K = key + (1 << field)
            out[leg, K] = out.get((leg, K), 0) + (K >> field & _FIELD_MASK) * signed
    return {key: c for key, c in out.items() if c}


def structure_eq_check(f: Observable, x: HamVF) -> bool:
    """Verify d f^{I_p} = -p! Sym[X _| dtheta] for every rank-p multi-index.

    dtheta is the two-form of f's space: :func:`soldering_dtheta` of
    ``f.slot``.  f must be homogeneous of rank p and x graded of rank p-1.
    With x symmetric in its grade indices the symmetrized right side
    collapses to -(p-1)! times the sum over positions of the index fed to
    dtheta, :func:`_contraction_sums`.  Both sides are compared as integer
    forms keyed (var, flat key): the partials of f's flat form of rank p
    against the sweep's legs.
    """
    comps, den = f._numerators()
    sums = _contraction_sums(x, f.slot)
    if not comps:
        # x must represent the zero class: every contraction sum vanishes
        # (true of pure gauge terms)
        return not sums
    p = f.rank()
    ranks = x.grade_ranks()
    if ranks and ranks != [p - 1]:
        raise RankMismatch(f"field grades {ranks} do not match observable rank {p}")
    # d f / den == -(p-1)! * sums / den(x), both sides scaled to integers
    lhs_scale, rhs_scale = x._den, -factorial(p - 1) * den
    g = gcd(lhs_scale, rhs_scale)
    lhs_scale, rhs_scale = lhs_scale // g, rhs_scale // g
    flat = {(None, key): c for key, c in comps[p].items()}
    lhs = {(var, lowered): d * lhs_scale for var, _, lowered, d in _partials(flat, f.n)}
    return lhs == {key: c * rhs_scale for key, c in sums.items()}


def gauge_condition_holds(t: HamVF) -> bool:
    """True iff t is a valid gauge term: a vertical representative of zero.

    Every contraction sum must vanish.  That forces t vertical: the
    dpi^a_j leg of the sum at K is minus the multiplicity of a in K times
    the d/dq^j coefficient of t's grade K minus one a.  The dq^b leg is
    the sum over the positions of K of the d/dpi^{K_t}_b coefficient of
    t's grade K without K_t.
    """
    return not _contraction_sums(t)


def require_gauge(t: HamVF) -> HamVF:
    """t itself, after raising GaugeConditionError unless :func:`gauge_condition_holds`."""
    if not gauge_condition_holds(t):
        raise GaugeConditionError("gauge term is not vertical with vanishing symmetrized part")
    return t


def add_gauge(x: HamVF, t: HamVF) -> HamVF:
    """Shift a representative by a valid gauge term.

    t must pass :func:`gauge_condition_holds`; then the structure equation
    and every Poisson bracket computed from the representative are
    unchanged.
    """
    return x + require_gauge(t)


def make_valid_gauge(u: HamVF) -> HamVF:
    """Project a vertical field onto the valid gauge directions: T = U - Sym(U).

    Sym(U) on the leg d/dpi^a_b of grade I is 1/p times the dq^b coefficient
    of U's contraction sum at K = I + (a,), of rank p.  So at each K every
    dq^b term s is subtracted, as s/p, from the d/dpi^a_b leg of grade K
    minus one a, for each a counted in K.
    """
    if any(var[0] != "pi" for var, _ in u._nums):
        raise GaugeConditionError("gauge terms are vertical: a field has a d/dq leg")
    n = u.n
    index_mask = (1 << FIELD_BITS * n) - 1
    sums = _contraction_sums(u)
    ranks = {key: len(_index_of(key & index_mask)) for _, key in sums}
    scale = lcm(*ranks.values())
    acc = {key: c * scale for key, c in u._nums.items()}
    for ((_, b), key), c in sums.items():
        c *= -(scale // ranks[key])
        for a in range(1, n + 1):
            field = FIELD_BITS * (a - 1)
            if key >> field & _FIELD_MASK:
                lowered = (pivar(a, b), key - (1 << field))
                acc[lowered] = acc.get(lowered, 0) + c
    return HamVF._of(n, *_normal(acc, u._den * scale), u._top)


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


def lie_preserves_form(x: HamVF) -> bool:
    """Check the symmetrized Lie derivative of dtheta along x vanishes.

    Via Cartan's identity this reduces to d(Sym[X _| dtheta]) = 0 for every
    index combination; dtheta itself is closed.  d of a contraction sum
    s = s_v dv is the sum of d_w s_v dw ^ dv, each pair (w, v) oriented.
    """
    acc: dict = {}
    for w, v, lowered, d in _partials(_contraction_sums(x), x.n):
        if w != v:
            key = (w, v, lowered) if w < v else (v, w, lowered)
            acc[key] = acc.get(key, 0) + (d if w < v else -d)
    return not any(acc.values())
