"""The graded Poisson bracket on frame-bundle observables.

For homogeneous f of rank p and g of rank q the bracket is

    {f, g}^K = -p! * Sym_K [ X_f^{I_{p-1}} (g^{J_q}) ]

over all canonical multi-indices K of rank p+q-1, where X_f is any
representative of the Hamiltonian class of f (the value does not depend on
the choice) and X(g) is the directional derivative of each component.  The
sign convention is fixed so that {qhat(i,j), pihat(k)} = delta(i,k) rhat(j),
mirroring the cotangent-bundle convention {q, p} = +1.

The bracket is bilinear, so it is computed, and checked, one unit pair at
a time: for every generator monomial mf of f and mg of g, each with
coefficient 1, by two independent routes:

1. the defining formula above, from the factor-rule representative of mf;
2. a generator-level expansion: the bracket is a biderivation of the
   symmetric product with {qhat(i,j), pihat(k)} = delta(i,k) rhat(j) the
   only nonzero generator pair.

Both routes run in integer arithmetic over one shared denominator, on
packed monomials.  At dimension n a frame-bundle monomial is one int with
a fixed field of ``FIELD_BITS`` bits per variable of the full (q, pi)
space, q^1..q^n and then pi^a_b row by row (:func:`packed_units`; the
packed exponent vectors of Monagan and Pearce, and of FLINT's
``fmpz_mpoly``), so one layout serves the full bundle and every slice.
The product of two monomials is the sum of their ints and lowering a
variable subtracts its unit, so long as no power exceeds ``POWER_BOUND``,
the largest a field holds.  The powers in a (p, q) pair are at most
p+q-2, and a bracket whose ranks could pass ``POWER_BOUND`` is refused
with EngineError before any work, so that no result's field carries.  Only
an operand g of degree POWER_BOUND + 1 (against p = 1) can hold a power one
past the bound: its packed keys are still the exact sums of their units,
and :func:`_monomial_partials` reads its terms' variables from the exact
expansion instead of from the fields.

The integer tables are built here straight from the generators, in int
arithmetic on packed monomials, with no Poly, Scalar or Fraction; each is
memoized on (mono, n, slot) and shared: read them, never mutate them.  A
unit monomial of degree r has components that are integer polynomials
over r!, N_r (:func:`_packed_numerators`, bounded at 512 entries).  Each
component of a generator is one variable, or the constant 1 (rhat, and
pihat on a slice), so N_r(mono) is N_{r-1}(mono[:-1]) joined with the
components {(j,): x_j} of the last generator: every I and j land on K =
sorted(I + (j,)) with the weight K.count(j), which is split_count(K, I),
times x_j.  Their partial derivatives term by term are
:func:`_monomial_partials` (512), each power read from its field of the
packed monomial.  The factor-rule field of the monomial is an integer
field over r!(r-1)! (:func:`_monomial_field_table`, 256): the sum over the
factors u_m of N_{r-1}(rest_m)^I X_{u_m}, with X_qhat(i,j) = -d/dpi(j,i),
X_pihat(k) = d/dq(k), X_rhat(k) = 0, and N_0 = 1 at the empty index.  The
exact Poly expansions of :mod:`nsq.algebra` and :mod:`nsq.forms` equal
these tables over their denominators; the tests hold the two paths to
that.  A gauge term, whose coefficients are rational, is packed by
:func:`field_table`, which raises EngineError on a coefficient that is
not an integer over its scale.  For a (p, q) pair, route 1 is

    -sum over the supports (I, J) of split_count(K, I) * X_num^I(g_num^J)

and route 2 is sum c * num(mono) over the generator monomials of the
expansion, with integer c; both are numerators over (p+q-1)!.

Route 1 is a join on the variable that X^I moves along.  The field of mf
is read indexed by variable, var -> [(I, d/d(var) coefficient)], and g by
its partial derivatives, var -> [(J, lowered monomial, integer
coefficient)], one entry per term of g^J that holds var; only the
variables on both sides are visited, and each (I, J) lands on K =
sorted(I + J) with weight -split_count(K, I), memoized on (I, J).

The two numerator maps, K -> {packed monomial: int}, are compared exactly
on every pair of every call, and a disagreement raises EngineError naming
the unit pair, the first differing rank and multi-index and both routes'
values there (unpacked, as polynomials numerator / (p+q-1)!).  The result
is the sum over the pairs of cf * cg times route 2's generator monomials,
so symbolic coefficients never enter the integer kernel, brackets nest,
and the result's components are expanded only when a caller reads them.

With ``gauge_seed`` each degree p of f's monomials draws a seeded random
valid gauge term t_p, indexed by variable and packed for the same join;
its route 1 against every unit monomial of g must be zero, so the shifted
representative gives the same bracket.  A slice has no gauge freedom: its
two-form dpi^slot_j ^ dq^j is nondegenerate on the fields tangent to the
slice (legs d/dq^j and d/dpi^slot_b), so the structure equation at K = I +
(slot,) fixes every grade X^I, and ``gauge_seed`` on a slice observable
raises EngineError naming the slot.  The memos save rebuilding the
operands, not either route: both run on every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Mapping

from .algebra import (
    GenMonomial,
    MultiIndex,
    Observable,
    _generator_variables,
    _monomial_components,
    in_b1_algebra,
    rtag,
    split_count,
)
from .errors import EngineError, NotInGeneratorAlgebra
from .forms import (
    VectorField,
    _generator_direction,
    add_gauge,
    ham_vf,
    random_valid_gauge,
    require_gauge,
    structure_eq_check,
    vf_bracket,
)
from .polynomials import Monomial, Poly, Var, pivar, qvar
from .scalars import ONE, Scalar, accumulate

POWER_BOUND = 255  # the largest power a packed field holds
FIELD_BITS = POWER_BOUND.bit_length()


# -- the packed layout -----------------------------------------------------------


@lru_cache(maxsize=16)
def packed_units(n: int) -> dict[Var, int]:
    """var -> the packed monomial of var^1, over the frame-bundle variables at dimension n.

    Memoized and shared: read it, never mutate it.
    """
    variables = [qvar(i) for i in range(1, n + 1)]
    variables += [pivar(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return {v: 1 << (FIELD_BITS * k) for k, v in enumerate(variables)}


def pack_monomial(mono: Monomial, units: Mapping[Var, int]) -> int:
    """The packed form, over ``packed_units(n)``, of a monomial whose powers are at most POWER_BOUND."""
    key = 0
    for v, pw in mono:
        key += pw * units[v]
    return key


def unpack_monomial(key: int, n: int) -> Monomial:
    """The sorted (variable, power) monomial of a packed one."""
    mask = (1 << FIELD_BITS) - 1
    powers = ((v, (key // unit) & mask) for v, unit in packed_units(n).items())
    return tuple(sorted((v, pw) for v, pw in powers if pw))


def unpack_numerators(num: Mapping[int, int], n: int) -> dict[Monomial, int]:
    return {unpack_monomial(key, n): c for key, c in num.items()}


def _packed_poly(poly: Poly, scale: int, units: Mapping[Var, int]) -> dict[int, int]:
    """scale * poly as an integer polynomial over packed monomials, one key per term in order.

    Raises EngineError unless every coefficient of scale * poly is an
    integer: a formal symbol or a denominator that does not divide scale.
    """
    out: dict = {}
    for mono, c in poly.terms.items():
        value = c.as_fraction() * scale if c.is_rational() else None
        if value is None or value.denominator != 1:
            raise EngineError(f"{scale} * ({poly}) is not an integer polynomial")
        out[pack_monomial(mono, units)] = value.numerator
    return out


# -- the integer tables ----------------------------------------------------------


_EMPTY_REST = {(): {0: 1}}  # the components of the empty product, over 0! = 1


@lru_cache(maxsize=512)
def _packed_numerators(
    mono: GenMonomial, n: int, slot: int | None
) -> dict[MultiIndex, dict[int, int]]:
    """r! times :func:`nsq.algebra._monomial_components` of a degree-r monomial, packed.

    The numerators of mono[:-1] joined with the last generator's components:
    each I and each component j of the generator land on K = sorted(I +
    (j,)) with weight K.count(j), times the generator's packed unit (0 for
    a constant).
    """
    units = packed_units(n)
    head = _packed_numerators(mono[:-1], n, slot) if len(mono) > 1 else _EMPTY_REST
    tail = [(j, 0 if var is None else units[var]) for j, var in _generator_variables(mono[-1], n, slot)]
    out: dict = {}
    for I, num in head.items():
        for j, unit in tail:
            K = tuple(sorted(I + (j,)))
            weight = K.count(j)
            acc = out.get(K)
            if acc is None:
                acc = out[K] = {}
            for m, c in num.items():
                m += unit
                acc[m] = acc.get(m, 0) + weight * c
    return out


@lru_cache(maxsize=512)
def _monomial_partials(
    mono: GenMonomial, n: int, slot: int | None
) -> dict[Var, tuple[tuple[MultiIndex, int, int], ...]]:
    """The partial derivatives of :func:`_packed_numerators`, term by term.

    var -> ((J, packed m lowered once in var, pw * c), ...) for every term c * m
    of every component J in which var has power pw >= 1, in the order of
    the components and their terms.  Each power is read from its field of
    the packed monomial, over the variables of mono's generators.
    """
    units = packed_units(n)
    numerators = _packed_numerators(mono, n, slot)
    out: dict[Var, list] = {}
    if len(mono) > POWER_BOUND:
        # a power may fill more than its field and carry into the next one, so
        # read each term's variables from the exact expansion, in the same order
        for J, poly in _monomial_components(mono, n, slot).items():
            for m, (packed, c) in zip(poly.terms, numerators[J].items()):
                for var, pw in m:
                    out.setdefault(var, []).append((J, packed - units[var], pw * c))
        return _frozen(out)
    mask = (1 << FIELD_BITS) - 1
    variables = dict.fromkeys(
        var for tag in dict.fromkeys(mono) for _, var in _generator_variables(tag, n, slot) if var is not None
    )
    fields = [(var, units[var], units[var].bit_length() - 1) for var in variables]
    for J, num in numerators.items():
        for packed, c in num.items():
            for var, unit, shift in fields:
                pw = packed >> shift & mask
                if pw:
                    out.setdefault(var, []).append((J, packed - unit, pw * c))
    return _frozen(out)


def _frozen(table: dict[Var, list]) -> dict[Var, tuple]:
    """The lists of a memoized table as tuples, which the garbage collector stops tracking."""
    return {var: tuple(entries) for var, entries in table.items()}


def field_table(
    grades: Mapping[MultiIndex, VectorField], scale: int, n: int
) -> dict[Var, tuple[tuple[MultiIndex, tuple], ...]]:
    """scale times graded fields as packed integer coefficients, indexed by variable.

    var -> ((I, ((packed m, c), ...)), ...): each grade I whose field moves
    along var contributes its d/d(var) coefficient, in the order of the
    grades.  Raises EngineError on a coefficient that is not an integer.
    """
    units = packed_units(n)
    out: dict[Var, list] = {}
    for I, vf in grades.items():
        for var, poly in vf.terms.items():
            out.setdefault(var, []).append((I, tuple(_packed_poly(poly, scale, units).items())))
    return _frozen(out)


@lru_cache(maxsize=256)
def _monomial_field_table(
    mono: GenMonomial, n: int, slot: int | None
) -> dict[Var, tuple[tuple[MultiIndex, tuple], ...]]:
    """r!(r-1)! times :func:`nsq.forms._monomial_ham_vf` of a degree-r monomial, as a :func:`field_table`.

    By the factor rule that is the sum over the factors u_m of the
    numerators of the rest, :func:`_packed_numerators` over (r-1)!, times
    the field of u_m; a factor that occurs c times is visited once, with
    weight c.
    """
    grades: dict[MultiIndex, dict[Var, dict[int, int]]] = {}
    for tag in dict.fromkeys(mono):
        direction = _generator_direction(tag)
        if direction is None:
            continue
        var, sign = direction
        i = mono.index(tag)
        rest = mono[:i] + mono[i + 1 :]
        weight = sign * mono.count(tag)
        for I, num in (_packed_numerators(rest, n, slot) if rest else _EMPTY_REST).items():
            acc = grades.setdefault(I, {}).setdefault(var, {})
            for m, c in num.items():
                acc[m] = acc.get(m, 0) + weight * c
    out: dict[Var, list] = {}
    for I, fields in grades.items():
        for var, num in fields.items():
            out.setdefault(var, []).append((I, tuple(num.items())))
    return _frozen(out)


# -- the two routes --------------------------------------------------------------


@lru_cache(maxsize=4096)
def _joined_index(I: MultiIndex, J: MultiIndex) -> tuple[MultiIndex, int]:
    """(K, -split_count(K, I)) for K = sorted(I + J): where route 1 puts X^I(g^J), and its weight."""
    K = tuple(sorted(I + J))
    return K, -split_count(K, I)


def _route1_numerators(x: dict, dg: dict) -> dict:
    """Route 1 on packed integer operands: K -> -sum split_count(K, I) * X^I(g^J).

    x is a field table (:func:`field_table`) and dg a partials table
    (:func:`_monomial_partials`), both keyed by variable; the join visits
    only the variables in both.  Zero sums are dropped.
    """
    out: dict = {}
    for var, grades in x.items():
        partials = dg.get(var)
        if partials is None:
            continue
        for I, coeff in grades:
            for J, lowered, c in partials:
                K, weight = _joined_index(I, J)
                acc = out.get(K)
                if acc is None:
                    acc = out[K] = {}
                cw = c * weight
                for m1, c1 in coeff:
                    m = m1 + lowered
                    acc[m] = acc.get(m, 0) + c1 * cw
    return _nonzero(out)


def _route2_numerators(hits: dict, n: int, slot: int | None) -> dict:
    """Route 2 on packed integer operands: K -> sum c * num(mono) over hits {mono: c}."""
    out: dict = {}
    for mono, c in hits.items():
        if c:
            for K, num in _packed_numerators(mono, n, slot).items():
                acc = out.setdefault(K, {})
                for m, v in num.items():
                    acc[m] = acc.get(m, 0) + c * v
    return _nonzero(out)


def _nonzero(graded: dict) -> dict:
    """Drop zero coefficients, then empty components, from K -> {monomial: int}.

    Most components have no zero sum, so only those that do are rebuilt.
    """
    out = {}
    for K, acc in graded.items():
        if 0 in acc.values():
            acc = {m: c for m, c in acc.items() if c}
        if acc:
            out[K] = acc
    return out


def _pair_bracket_tag(s, t):
    """Generator bracket table; returns (coefficient, rhat tag) or None."""
    if s[0] == "q" and t[0] == "pi":
        return (1, rtag(s[2])) if s[1] == t[1] else None
    if s[0] == "pi" and t[0] == "q":
        return (-1, rtag(t[2])) if t[1] == s[1] else None
    return None


def _generator_hits(mf: GenMonomial, mg: GenMonomial):
    """The biderivation expansion of a unit pair: (sign, generator monomial) per nonzero pair."""
    for si, s in enumerate(mf):
        for ti, t in enumerate(mg):
            hit = _pair_bracket_tag(s, t)
            if hit is not None:
                sign, tag = hit
                yield sign, tuple(sorted(mf[:si] + mf[si + 1 :] + mg[:ti] + mg[ti + 1 :] + (tag,)))


def _gauge_numerators(f: Observable, gauge_seed: int) -> dict:
    """p -> (t_p scaled to integers as a field table, the scale) for the degrees p of f's monomials.

    The degrees draw their seeded random valid gauge terms from one RNG in
    increasing order; the zero term of degree 1 draws nothing and is left
    out.  The degrees are read from f's terms, so f is never expanded.
    """
    rng = random.Random(gauge_seed)
    out = {}
    for p in sorted({len(mono) for mono in f.terms}):
        t = require_gauge(random_valid_gauge(f.n, p - 1, rng))
        if t.is_zero():
            continue
        scale = lcm(*(
            c.as_fraction().denominator
            for vf in t.terms.values()
            for poly in vf.terms.values()
            for c in poly.terms.values()
        ))
        out[p] = (field_table(t.terms, scale, f.n), scale)
    return out


def _disagreement(n, slot, mf, mg, K, route1: Poly, route2: Poly) -> EngineError:
    unit_f = Observable(n, {mf: 1}, slot=slot)
    unit_g = Observable(n, {mg: 1}, slot=slot)
    return EngineError(
        f"bracket routes disagree at rank {len(K)}, multi-index {K}: "
        f"route 1 (structure equation) gives {route1}, "
        f"route 2 (generator expansion) gives {route2}, for {unit_f!r} and {unit_g!r}"
    )


def bracket(
    f: Observable,
    g: Observable,
    gauge_seed: int | None = None,
) -> Observable:
    """Graded Poisson bracket of two observables.

    Extends bilinearly over grades; homogeneous ranks p and q land in rank
    p+q-1.  Both routes run and are compared on every unit pair (see the
    module docstring).  ``gauge_seed`` shifts the representative of f by a
    seeded random valid gauge term per grade; the result must be (and is
    verified to be) unchanged.  It is refused on a slice, which has no
    gauge freedom.  Both arguments must live in one algebra:
    the same dimension and the same slice (see :mod:`nsq.subbundle`).
    Ranks p and q with p+q-2 past ``POWER_BOUND`` are refused up front.
    """
    f._require_same(g)
    n, slot = f.n, f.slot
    if gauge_seed is not None and slot is not None:
        raise EngineError(
            f"gauge_seed is refused on the slice of slot {slot}: "
            "the slice two-form leaves no gauge freedom"
        )
    if f.terms and g.terms:
        top_f, top_g = max(map(len, f.terms)), max(map(len, g.terms))
        if top_f + top_g - 2 > POWER_BOUND:
            raise EngineError(
                f"a bracket of ranks {top_f} and {top_g} is refused: its powers reach "
                f"{top_f + top_g - 2}, past the {POWER_BOUND} that a packed monomial holds"
            )
    gauges = {} if gauge_seed is None else _gauge_numerators(f, gauge_seed)
    gauge_checked: set = set()
    out: dict[GenMonomial, Scalar] = {}
    for mf, cf in f.terms.items():
        p = len(mf)
        x = _monomial_field_table(mf, n, slot)
        unit_f = cf == ONE
        for mg, cg in g.terms.items():
            hits: dict[GenMonomial, int] = {}
            for sign, mono in _generator_hits(mf, mg):
                hits[mono] = hits.get(mono, 0) + sign
            if hits:
                base = cg if unit_f else cf * cg
                for mono, count in hits.items():
                    if count:
                        accumulate(out, mono, base if count == 1 else base * count)
            dg = _monomial_partials(mg, n, slot)
            route1 = _route1_numerators(x, dg)
            route2 = _route2_numerators(hits, n, slot)
            if route1 != route2:
                denominator = factorial(p + len(mg) - 1)
                K = min(K for K in route1.keys() | route2.keys() if route1.get(K) != route2.get(K))
                raise _disagreement(
                    n, slot, mf, mg, K,
                    Poly.from_numerators(unpack_numerators(route1.get(K, {}), n), denominator),
                    Poly.from_numerators(unpack_numerators(route2.get(K, {}), n), denominator),
                )
            if p in gauges and (p, mg) not in gauge_checked:
                gauge_checked.add((p, mg))
                t, scale = gauges[p]
                shift = _route1_numerators(t, dg)
                if shift:
                    # route 1 puts X over p!(p-1)! and t is over scale instead
                    denominator = factorial(p + len(mg) - 1)
                    shift_denominator = Fraction(scale * denominator, factorial(p) * factorial(p - 1))
                    K = min(shift)
                    route2_K = Poly.from_numerators(unpack_numerators(route2.get(K, {}), n), denominator)
                    raise _disagreement(
                        n, slot, mf, mg, K,
                        route2_K + Poly.from_numerators(unpack_numerators(shift[K], n), shift_denominator),
                        route2_K,
                    )
    return f._like(out)


def jacobi_residual(
    f: Observable, g: Observable, h: Observable, gauge_seed: int | None = None
) -> Observable:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; identically zero.

    ``gauge_seed`` is passed to every bracket (see :func:`bracket`).
    """

    def br(a: Observable, b: Observable) -> Observable:
        return bracket(a, b, gauge_seed=gauge_seed)

    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


class GradedBracketResult:
    """Bracket value together with its rank law.

    For homogeneous inputs of ranks p and q the value is zero or
    homogeneous of rank exactly p+q-1; ``holds`` records the law.
    """

    __slots__ = ("value", "expected_rank", "holds")

    def __init__(self, f: Observable, g: Observable):
        p, q = f.rank(), g.rank()
        self.value = bracket(f, g)
        self.expected_rank = p + q - 1
        self.holds = self.value.is_zero() or self.value.ranks() == [self.expected_rank]

    def __repr__(self):
        return (
            f"GradedBracketResult(value={self.value!r}, "
            f"expected_rank={self.expected_rank}, holds={self.holds})"
        )


def theorem1_constant(p: int, q: int) -> Fraction:
    """(p+q-1)! / (p! q!), the scaling between the two bracket notions."""
    return Fraction(factorial(p + q - 1), factorial(p) * factorial(q))


def theorem1_check(f: Observable, g: Observable, gauge_seed: int | None = None) -> bool:
    """Verify C * X_{f,g} = [X_f, X_g] as equivalence classes.

    C = (p+q-1)!/(p!q!).  With this engine's sign convention (the bracket
    flipped to make {qhat, pihat} positive) the field bracket satisfies
    [X_f, X_g] = -C X_{{f,g}}, so the check is that -(1/C) [X_f, X_g] is a
    representative for {f,g}: equality is tested through the structure
    equation, which is gauge-invariant.

    ``gauge_seed`` shifts X_f and X_g by seeded random valid gauge terms
    (zero at rank 1) and is passed to the bracket; the verdict must not change.
    """
    p, q = f.rank(), g.rank()
    c = theorem1_constant(p, q)
    xf, xg = ham_vf(f), ham_vf(g)
    if gauge_seed is not None:
        rng = random.Random(gauge_seed)
        xf = add_gauge(xf, random_valid_gauge(f.n, p - 1, rng))
        xg = add_gauge(xg, random_valid_gauge(g.n, q - 1, rng))
    candidate = vf_bracket(xf, xg).scale(Fraction(-1, 1) / c)
    return structure_eq_check(bracket(f, g, gauge_seed=gauge_seed), candidate)


def grade_of_bracket(f: Observable, g: Observable) -> bool:
    """The rank law: the bracket is zero or homogeneous of rank p+q-1."""
    return GradedBracketResult(f, g).holds


def tensor_extension_identity_check(
    f: Observable, g: Observable, k: int, l: int
) -> bool:
    """{f x rhat(1)^k, g x rhat(1)^l} = {f, g} x rhat(1)^(k+l)."""
    from .algebra import make_rhat, sym_mul, sym_pow

    n = f.n

    def extend(obs: Observable, m: int) -> Observable:
        if m == 0:
            return obs
        return sym_mul(obs, sym_pow(make_rhat(n, 1), m))

    lhs = bracket(extend(f, k), extend(g, l))
    rhs = extend(bracket(f, g), k + l)
    return lhs == rhs


def min_rank(f: Observable) -> int | None:
    """Smallest nonempty grade; None is the marker for the zero observable."""
    return f.min_rank()


def is_in_Pk(f: Observable, k: int, slot: int = 1) -> bool:
    """Membership in the ideal of elements of minimum rank >= k."""
    if not in_b1_algebra(f, slot):
        raise NotInGeneratorAlgebra(
            "observable is outside the polynomial algebra of the basic set"
        )
    r = f.min_rank()
    return True if r is None else r >= k
