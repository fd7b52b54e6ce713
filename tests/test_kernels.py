"""The sparse split-count kernels against brute-force split enumeration,
and the process-wide expansion and field memos against fresh builds.

The reference visits every multi-index K of the target rank and every
position split of it; the engine visits only the pairs of the two supports
and weighs each by split_count.  The field reference applies the factor
rule to fresh expansions, with no memo.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from nsq.algebra import (
    FramePoint,
    Observable,
    _generator_components,
    _monomial_components,
    all_multi_indices,
    evaluate,
    pitag,
    qtag,
    rtag,
    split_count,
    sym_components,
    sym_mul,
)
from nsq.forms import (
    HamVF,
    VectorField,
    _monomial_ham_vf,
    add_gauge,
    generator_field,
    ham_vf,
    random_valid_gauge,
    vf_bracket,
)
from nsq.poisson import _bracket_components, bracket
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import IHBAR, Scalar
from nsq.subbundle import substituted_components

SETTINGS = settings(max_examples=100, deadline=None)


# -- brute-force reference ---------------------------------------------------


def index_splits(K, p):
    """All C(len(K), p) position splits of K: (K on a p-subset, K on the rest)."""
    positions = range(len(K))
    for subset in itertools.combinations(positions, p):
        chosen = set(subset)
        yield (
            tuple(K[t] for t in subset),
            tuple(K[t] for t in positions if t not in chosen),
        )


def split_average(n, rank, p, left, right, product, zero):
    """K -> (1/C(rank, p)) * sum over position splits (I, J) of product(left[I], right[J])."""
    out = {}
    for K in all_multi_indices(n, rank):
        acc, hit = zero, False
        for I, J in index_splits(K, p):
            if I in left and J in right:
                acc = acc + product(left[I], right[J])
                hit = True
        if hit and not acc.is_zero():
            out[K] = acc.scale(Fraction(1, comb(rank, p)))
    return out


def ref_sym_components(n, f, p, g, q):
    return split_average(n, p + q, p, f, g, lambda a, b: a * b, Poly.zero())


def ref_bracket_components(x, p, g, q):
    comps = g.components.get(q, {})
    avg = split_average(g.n, p + q - 1, p - 1, x.terms, comps, lambda xf, gc: xf.apply(gc), Poly.zero())
    return {K: poly.scale(-factorial(p)) for K, poly in avg.items()}


def ref_vf_bracket(x, y):
    out = {}
    for gx, gy in {(len(ix), len(iy)) for ix in x.terms for iy in y.terms}:
        part = split_average(
            x.n, gx + gy, gx, x.terms, y.terms, lambda a, b: a.lie_bracket(b), VectorField.zero()
        )
        for K, vf in part.items():
            out[K] = vf if K not in out else out[K] + vf
    return HamVF(x.n, out)


def fresh_expansion(mono, n, slot):
    comps = _generator_components(mono[0], n, slot)
    for k, tag in enumerate(mono[1:], start=1):
        comps = ref_sym_components(n, comps, k, _generator_components(tag, n, slot), 1)
    return comps


def ref_ham_vf(f):
    """The factor rule on fresh expansions: (1/r!) Sym(rest)^I X_{u_m} per position m."""
    out = {}
    for mono, coeff in f.terms.items():
        weight = coeff.as_fraction() / factorial(len(mono))
        for m in range(len(mono)):
            rest = mono[:m] + mono[m + 1 :]
            comps = fresh_expansion(rest, f.n, f.slot) if rest else {(): Poly.constant(1)}
            for idx, poly in comps.items():
                vf = generator_field(mono[m]).mul_poly(poly.scale(weight))
                out[idx] = vf if idx not in out else out[idx] + vf
    return HamVF(f.n, out)


# -- strategies -----------------------------------------------------------------


def full_tags(n):
    return (
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )


def slice_tags(n, slot):
    return [qtag(i, slot) for i in range(1, n + 1)] + [pitag(k) for k in range(1, n + 1)] + [rtag(slot)]


def monomials(tags, max_rank=4):
    # few tags drawn with replacement, so repeated factors (and indices) are common
    return st.lists(st.sampled_from(tags), min_size=1, max_size=max_rank).map(lambda t: tuple(sorted(t)))


def polys(n):
    variables = [qvar(i) for i in range(1, n + 1)]
    variables += [pivar(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    term = st.tuples(
        st.sampled_from(variables),
        st.integers(0, 2),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )

    def build(terms):
        out = Poly.zero()
        for v, pw, c in terms:
            out = out + Poly.var(v, pw).scale(c)
        return out

    return st.lists(term, min_size=1, max_size=3).map(build)


@st.composite
def component_map(draw, n, rank):
    index = st.lists(st.integers(1, n), min_size=rank, max_size=rank).map(lambda t: tuple(sorted(t)))
    return draw(st.dictionaries(index, polys(n), min_size=1, max_size=4))


@st.composite
def sym_inputs(draw):
    n = draw(st.integers(1, 3))
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return n, draw(component_map(n, p)), p, draw(component_map(n, q)), q


@st.composite
def monomial_pair(draw, max_rank=4):
    n = draw(st.integers(1, 3))
    tags = full_tags(n)
    return n, draw(monomials(tags, max_rank)), draw(monomials(tags, max_rank))


def observable(n, mono):
    return Observable(n, {mono: 1})


def representative(f, gauge_seed):
    x = ham_vf(f)
    p = f.rank()
    if gauge_seed is not None and p >= 2:
        x = add_gauge(x, random_valid_gauge(f.n, p - 1, random.Random(gauge_seed)))
    return x


# -- the split-count kernel ---------------------------------------------------------


def test_split_count_counts_position_splits():
    for K in [(1, 1, 2, 2, 2), (1, 2, 3, 3), (2, 2, 2, 2), ()]:
        for p in range(len(K) + 1):
            tally = {}
            for I, _ in index_splits(K, p):
                tally[I] = tally.get(I, 0) + 1
            assert tally == {I: split_count(K, I) for I in tally}
            assert sum(tally.values()) == comb(len(K), p)


@SETTINGS
@given(sym_inputs())
def test_sym_components_matches_split_enumeration(args):
    n, f, p, g, q = args
    assert sym_components(f, p, g, q) == ref_sym_components(n, f, p, g, q)


@SETTINGS
@given(monomial_pair(), st.sampled_from([None, 5, 91]))
def test_route1_matches_split_enumeration(pair, gauge_seed):
    n, mf, mg = pair
    f, g = observable(n, mf), observable(n, mg)
    x = representative(f, gauge_seed)
    p, q = len(mf), len(mg)
    assert _bracket_components(x, p, g, q) == ref_bracket_components(x, p, g, q)


@SETTINGS
@given(monomial_pair(), st.sampled_from([None, 7]))
def test_vf_bracket_matches_split_enumeration(pair, gauge_seed):
    n, mf, mg = pair
    x = representative(observable(n, mf), gauge_seed)
    y = representative(observable(n, mg), gauge_seed)
    assert vf_bracket(x, y) == ref_vf_bracket(x, y)


# -- the expansion memo -------------------------------------------------------------


@st.composite
def monomial_in_some_algebra(draw):
    n = draw(st.integers(1, 3))
    slot = draw(st.sampled_from([None] + list(range(1, n + 1))))
    tags = full_tags(n) if slot is None else slice_tags(n, slot)
    return n, slot, draw(monomials(tags))


@SETTINGS
@given(st.lists(monomial_in_some_algebra(), min_size=1, max_size=4))
def test_memoized_expansion_equals_fresh(cases):
    _monomial_components.cache_clear()
    for n, slot, mono in cases:
        fresh = fresh_expansion(mono, n, slot)
        assert _monomial_components(mono, n, slot) == fresh  # miss
        assert _monomial_components(mono, n, slot) == fresh  # hit
    assert _monomial_components.cache_info().hits >= len(cases)


def test_memo_key_separates_slice_and_full():
    n = 3
    for k in range(1, n + 1):
        mono = (pitag(k),)
        full = {(l,): Poly.var(pivar(l, k)) for l in range(1, n + 1)}
        on_slice = {(1,): Poly.var(pivar(1, k))}
        if k != 1:
            on_slice[(k,)] = Poly.constant(1)
        for first in (None, 1):
            _monomial_components.cache_clear()
            order = (first, 1 if first is None else None)
            got = {slot: _monomial_components(mono, n, slot) for slot in order}
            assert got[None] == full and got[1] == on_slice
        assert Observable(n, {mono: 1}).components == {1: full}
        assert Observable(n, {mono: 1}, slot=1).components == {1: on_slice}


def _snapshot(comps):
    return {K: {m: dict(c.terms) for m, c in poly.terms.items()} for K, poly in comps.items()}


def _field_snapshot(grades):
    return {idx: _snapshot(vf.terms) for idx, vf in grades.items()}


@SETTINGS
@given(monomial_pair(max_rank=3), st.sampled_from([None, 3]))
def test_operations_leave_cached_maps_unchanged(pair, gauge_seed):
    n, mf, mg = pair
    keys = {mono[:k] for mono in (mf, mg) for k in range(1, len(mono) + 1)}
    keys |= {mono[:m] + mono[m + 1 :] for mono in (mf, mg) for m in range(len(mono))} - {()}
    cached = {key: _monomial_components(key, n, None) for key in keys}
    before = {key: _snapshot(comps) for key, comps in cached.items()}
    fields = {mono: _monomial_ham_vf(mono, n, None) for mono in (mf, mg, tuple(sorted(mf + mg)))}
    fields_before = {mono: _field_snapshot(grades) for mono, grades in fields.items()}
    f, g = observable(n, mf), observable(n, mg)
    assert f.components and g.components
    bracket(f, g, gauge_seed=gauge_seed)
    sym_mul(f, g).components
    f.scale(Fraction(-2, 3)).components
    ham_vf(sym_mul(f, g))
    bracket(sym_mul(f, g), f + g, gauge_seed=gauge_seed)
    x = ham_vf(f)
    if len(mf) >= 2:
        add_gauge(x, random_valid_gauge(n, len(mf) - 1, random.Random(gauge_seed or 0)))
    vf_bracket(x, ham_vf(g))
    x.scale(Fraction(-2, 3))
    ham_vf(f + g)
    ham_vf(f.scale(Fraction(-2, 3)) + sym_mul(f, g))
    for key, comps in cached.items():
        assert _snapshot(comps) == before[key]
        again = _monomial_components(key, n, None)
        assert again is comps or _snapshot(again) == before[key]
    for mono, grades in fields.items():
        assert _field_snapshot(grades) == fields_before[mono]


# -- the field memo -----------------------------------------------------------------


coefficients = st.one_of(st.just(Fraction(1)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def observable_in_some_algebra(draw):
    """A multi-term observable with rational coefficients, full or on a slice."""
    n = draw(st.integers(1, 3))
    slot = draw(st.sampled_from([None] + list(range(1, n + 1))))
    tags = full_tags(n) if slot is None else slice_tags(n, slot)
    terms = draw(st.dictionaries(monomials(tags, 3), coefficients, min_size=1, max_size=3))
    return Observable(n, terms, slot=slot)


@SETTINGS
@given(observable_in_some_algebra(), st.sampled_from([None, 4, 29]))
def test_memoized_field_equals_factor_rule(f, gauge_seed):
    expected = ref_ham_vf(f)
    assert ham_vf(f) == expected  # grades left by earlier examples
    _monomial_ham_vf.cache_clear()
    assert ham_vf(f) == expected  # miss
    assert ham_vf(f) == expected  # hit
    if gauge_seed is not None and f.terms:
        t = random_valid_gauge(f.n, max(map(len, f.terms)) - 1, random.Random(gauge_seed))
        assert add_gauge(ham_vf(f), t) == add_gauge(expected, t)
        assert ham_vf(f) == expected


# -- the shared unit expansion ------------------------------------------------------


def test_unit_monomial_shares_memoized_expansion():
    n = 3
    mono = (pitag(2), qtag(1, 1), rtag(1))
    shared = _monomial_components(mono, n, None)
    before = _snapshot(shared)
    unit = Observable(n, {mono: 1})
    assert unit.components == {3: shared} and unit.components[3] is shared
    assert Observable(n, {mono: 1}, slot=1).components[3] is _monomial_components(mono, n, 1)

    doubled = Observable(n, {mono: 2})
    symbolic = Observable(n, {mono: Scalar.symbol(IHBAR)})
    multi_term = Observable(n, {mono: 1, (rtag(2),): 1})
    for obs in (doubled, symbolic, multi_term):
        assert obs.components[3] is not shared
    assert doubled.components == {3: {K: poly.scale(2) for K, poly in shared.items()}}
    assert symbolic.components == {3: {K: poly.scale(Scalar.symbol(IHBAR)) for K, poly in shared.items()}}
    assert multi_term.components[3] == shared

    g = Observable(n, {(pitag(1), qtag(2, 3)): 1})
    assert unit != doubled and unit == Observable(n, {mono: 1})
    evaluate(unit, FramePoint([1, 2, 3], [[2, 1, 0], [0, 1, 0], [1, 0, 1]]))
    substituted_components(unit, 1)
    bracket(unit, g)
    bracket(g, unit, gauge_seed=5)
    assert _snapshot(shared) == before
    assert unit.components[3] is shared
