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

Both routes run in integer arithmetic on the flat maps of :mod:`nsq.algebra`:
each component entry is one int key, ``(m << FIELD_BITS * n) + K counts``,
the multi-index K as the count of each index value in the low n fields
and the packed monomial m above them.  This module keeps the two routes,
on the component tables of :mod:`nsq.algebra` and the monomial records of
:mod:`nsq.forms`.  For a (p, q) pair route 1 is

    -sum over the supports (I, J) of split_count(K, I) * X_num^I(g_num^J)

with X_num the factor-rule field of mf over p!(p-1)!, and route 2 is sum
c * num(mono) over the generator monomials of the expansion, with integer
c; both are numerators over (p+q-1)!.

Route 1 is a join on the variable that X^I moves along: the field's
by-variable view, var -> [(I counts, flat key, int)], against g's
partial derivatives, var -> [(J counts, lowered flat key, int)].  Each
pair lands on the sum of the two flat keys, K = I + J in the index
fields, with weight -split_count(K, I), a product over the index fields
(:func:`nsq.algebra._split_count`, memoized on (I, J) counts and shared
with :func:`~nsq.forms.vf_bracket`).  Route 2 reads
the component tables of degree p+q-1, which hold powers up to p+q-1, and
a monomial of degree past ``POWER_BOUND`` has no table, so a bracket of
ranks with p+q-1 past it is refused with EngineError before any table is
built.

*Operand records.*  Both routes read one record per generator monomial,
:func:`~nsq.forms._monomial_record` (memoized on (mono, n, slot), 1,024
entries): the field's by-variable view and the partials, route 1's left
and right operands, and the generator index, each distinct qhat(i,j) with
the rest of the monomial and rhat(j) in its place, and each distinct
pihat(k) with its rest, both with their multiplicities.  Route 2's
generator monomials are a join on the index (:func:`_generator_join`).  A
unit pair looks up one record, mg's; mf's is looked up once per term of f.
When a unit pair has a single hit of count 1, route 2 is that monomial's
shared component table itself.

The two flat maps are compared exactly on every pair of every call, and a
disagreement raises EngineError naming the unit pair, the first differing
rank and multi-index (unpacked to a sorted tuple only then) and both
routes' values there (as polynomials numerator / (p+q-1)!).  The result
is the sum over the pairs of cf * cg times route 2's generator monomials,
so symbolic coefficients never enter the integer kernel, brackets nest,
and the result's components are expanded only when a caller reads them.

With ``gauge_seed`` each degree p of f's monomials draws a seeded random
valid gauge term t_p, read in its own integer form by the same join; its
route 1 against every unit monomial of g must be zero, so the shifted
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
from math import factorial

from .algebra import (
    _SPLIT_COUNTS,
    GenMonomial,
    Observable,
    _monomial_components,
    _split_count,
    _unflattened,
    in_b1_algebra,
)
from .errors import EngineError, NotInGeneratorAlgebra
from .forms import (
    _by_variable,
    _monomial_record,
    add_gauge,
    ham_vf,
    random_valid_gauge,
    require_gauge,
    structure_eq_check,
    vf_bracket,
)
from .packed import POWER_BOUND, _nonzero, unpack_poly
from .polynomials import Poly
from .scalars import ONE, Scalar, accumulate

# -- the two routes --------------------------------------------------------------


def _route1_numerators(x: dict, dg: dict) -> dict:
    """Route 1 on flat integer operands: {key: -sum split_count(K, I) * X^I(g^J)}.

    x is route 1's view of a field, var -> ((I counts, flat key, int), ...)
    (:func:`~nsq.forms._by_variable`: a record's field view, or a gauge
    term's), and dg the partials of a record
    (:func:`~nsq.forms._monomial_record`), var -> ((J counts, lowered flat
    key, int), ...); the join visits only the variables on both sides, and
    each pair lands on the sum of the two keys.  Zero sums are dropped.
    """
    weights = _SPLIT_COUNTS
    out: dict = {}
    for var, entries in x.items():
        partials = dg.get(var)
        if partials is None:
            continue
        for I, k1, c1 in entries:
            for J, lowered, c in partials:
                k = k1 + lowered
                out[k] = out.get(k, 0) - c1 * c * (weights.get((I, J)) or _split_count(I, J))
    return _nonzero(out)


def _route2_numerators(hits: dict, n: int, slot: int | None) -> dict:
    """Route 2 on flat integer operands: {key: sum c * num(mono)} over hits {mono: c}.

    A single hit of count 1 is the shared table of its monomial itself:
    read it, never mutate it.
    """
    if len(hits) == 1:
        ((mono, c),) = hits.items()
        if c == 1:
            return _monomial_components(mono, n, slot)
    out: dict = {}
    for mono, c in hits.items():
        if c:
            for k, v in _monomial_components(mono, n, slot).items():
                out[k] = out.get(k, 0) + c * v
    return _nonzero(out)


def _generator_join(a: tuple, b: tuple) -> dict:
    """Route 2's generator monomials of a unit pair: {mono: count}, a and b the records of mf and mg.

    {qhat(i,j), pihat(k)} = delta(i,k) rhat(j) is the only nonzero
    generator pair, so the hits are the q-index of one record
    (:func:`~nsq.forms._monomial_record`) joined with the pi-index of the
    other on i: mf's q-index with mg's pi-index with sign +1, mf's pi-index
    with mg's q-index with sign -1.  A hit's count is the product of the
    two multiplicities; counts that cancel stay as 0.
    """
    hits: dict = {}
    pis = b[5]
    for i, rest, m in a[4]:
        hit = pis.get(i)
        if hit is not None:
            mono = tuple(sorted(rest + hit[0]))
            hits[mono] = hits.get(mono, 0) + m * hit[1]
    pis = a[5]
    for i, rest, m in b[4]:
        hit = pis.get(i)
        if hit is not None:
            mono = tuple(sorted(hit[0] + rest))
            hits[mono] = hits.get(mono, 0) - m * hit[1]
    return hits


def _gauge_terms(f: Observable, gauge_seed: int) -> dict:
    """p -> t_p, the seeded random valid gauge term, for the degrees p of f's monomials.

    The degrees draw their terms from one RNG in increasing order; the zero
    term of degree 1 draws nothing and is left out.  The degrees are read
    from f's terms, so f is never expanded.
    """
    rng = random.Random(gauge_seed)
    terms = {p: require_gauge(random_valid_gauge(f.n, p - 1, rng)) for p in sorted({len(mono) for mono in f.terms})}
    return {p: t for p, t in terms.items() if t}


def _top_degree(terms: dict) -> int:
    """The highest degree of a nonempty term map's monomials; a single term's own, unscanned."""
    if len(terms) == 1:
        for mono in terms:
            return len(mono)
    return max(map(len, terms))


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
    Ranks p and q with p+q-1 past ``POWER_BOUND`` are refused up front.
    """
    n, slot = f.n, f.slot
    if g.n != n or g.slot != slot:
        f._require_same(g)
    if gauge_seed is not None and slot is not None:
        raise EngineError(
            f"gauge_seed is refused on the slice of slot {slot}: "
            "the slice two-form leaves no gauge freedom"
        )
    if f.terms and g.terms:
        top_f, top_g = _top_degree(f.terms), _top_degree(g.terms)
        if top_f + top_g - 1 > POWER_BOUND:
            raise EngineError(
                f"a bracket of ranks {top_f} and {top_g} is refused: its result has degree "
                f"{top_f + top_g - 1}, past the {POWER_BOUND} that a packed monomial holds"
            )
    gauges = {} if gauge_seed is None else _gauge_terms(f, gauge_seed)
    gauge_checked: set = set()
    out: dict[GenMonomial, Scalar] = {}
    for mf, cf in f.terms.items():
        p = len(mf)
        record = _monomial_record(mf, n, slot)
        x = record[2]  # route 1's view of the field, over p!(p-1)!
        unit_f = cf is ONE or cf == ONE
        for mg, cg in g.terms.items():
            operand = _monomial_record(mg, n, slot)
            hits = _generator_join(record, operand)
            if hits:
                base = cg if unit_f else cf * cg
                for mono, count in hits.items():
                    if count:
                        accumulate(out, mono, base if count == 1 else base * count)
            dg = operand[3]
            route1 = _route1_numerators(x, dg)
            route2 = _route2_numerators(hits, n, slot) if hits else {}
            if route1 != route2:
                denominator = factorial(p + len(mg) - 1)
                a, b = _unflattened(route1, n), _unflattened(route2, n)
                K = min(K for K in a.keys() | b.keys() if a.get(K) != b.get(K))
                one, two = (unpack_poly(side.get(K, {}), denominator, n) for side in (a, b))
                raise _disagreement(n, slot, mf, mg, K, one, two)
            if p in gauges and (p, mg) not in gauge_checked:
                gauge_checked.add((p, mg))
                t = gauges[p]
                shift = _route1_numerators(_by_variable(t._nums, n), dg)
                if shift:
                    # route 1 puts X over p!(p-1)! and t is over its own denominator instead
                    denominator = factorial(p + len(mg) - 1)
                    shift_denominator = Fraction(t._den * denominator, factorial(p) * factorial(p - 1))
                    a = _unflattened(shift, n)
                    K = min(a)
                    route2_K = unpack_poly(_unflattened(route2, n).get(K, {}), denominator, n)
                    raise _disagreement(n, slot, mf, mg, K, route2_K + unpack_poly(a[K], shift_denominator, n), route2_K)
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
    value = bracket(f, g)
    return value.is_zero() or value.ranks() == [f.rank() + g.rank() - 1]


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
