"""Ring laws and calculus of the exact coefficient and polynomial types,
the sparse-combination laws shared by scalars, polynomials, fields, forms,
operators and observables, and the printed form of a term."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsq import cli
from nsq.algebra import Observable, full_tags
from nsq.errors import DimensionMismatch
from nsq.forms import HamVF, OneForm, TwoForm, VectorField
from nsq.polynomials import ONE_POLY, ZERO_POLY, Poly, pivar, pvar, qvar
from nsq.quantization import DiffOperator, format_operator
from nsq.scalars import IHBAR, ONE, LinComb, Scalar, _coerce

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
nonzero_rationals = rationals.filter(lambda c: c != 0)


@st.composite
def scalars(draw):
    out = Scalar.of(draw(rationals))
    for sym in draw(st.lists(st.sampled_from([IHBAR, "A1", "A2"]), max_size=2)):
        out = out + Scalar.symbol(sym).__mul__(Scalar.of(draw(rationals)))
    return out


@st.composite
def polys(draw):
    vars_pool = [qvar(1), qvar(2), pivar(1, 1), pivar(2, 1), pvar(1)]
    out = Poly.constant(draw(rationals))
    for _ in range(draw(st.integers(0, 3))):
        term = Poly.constant(draw(rationals))
        for v in draw(st.lists(st.sampled_from(vars_pool), max_size=3)):
            term = term * Poly.var(v)
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_scalar_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Scalar.zero() == a
    assert a * Scalar.one() == a
    assert (a - a).is_zero()


def merged(m1, m2):
    """The product of two sorted (key, power) monomials."""
    powers = dict(m1)
    for key, pw in m2:
        powers[key] = powers.get(key, 0) + pw
    return tuple(sorted(powers.items()))


def general_product(a, b):
    """Term-by-term product of two Scalars' term maps, zero sums dropped."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = merged(m1, m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def general_poly_product(a, b):
    """Term-by-term product of two Polys' term maps, each coefficient product
    formed by general_product, zero sums dropped."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = merged(m1, m2)
            out[mono] = out.get(mono, Scalar.zero()) + Scalar(general_product(c1, c2))
    return {m: c for m, c in out.items() if c}


# one symbol power times a rational: the shape the rational fast path must not take
symbol_terms = st.builds(
    lambda sym, pw, c: Scalar({((sym, pw),): c}),
    st.sampled_from([IHBAR, "A1"]),
    st.integers(1, 3),
    nonzero_rationals,
)
operands = st.one_of(scalars(), symbol_terms, rationals.map(Scalar.of), rationals, st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(st.one_of(scalars(), symbol_terms, rationals.map(Scalar.of)), operands)
def test_scalar_product_matches_general_path(a, b):
    expected = general_product(a, b if isinstance(b, Scalar) else Scalar.of(b))
    for prod in (a * b, b * a):
        assert prod.terms == expected
        assert all(type(c) is Fraction and c != 0 for c in prod.terms.values())


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.constant(1) == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_poly_diff_is_derivation(a, b):
    v = qvar(1)
    lhs = (a * b).diff(v)
    rhs = a.diff(v) * b + a * b.diff(v)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(Poly.zero()), polys()), st.integers(0, 4))
def test_poly_power_is_the_repeated_product(p, k):
    product = Poly.constant(1)
    for _ in range(k):
        product = product * p
    assert p**k == product
    with pytest.raises(ValueError):
        p ** -1


@st.composite
def single_terms(draw):
    """A one-term Poly or Scalar: powers of up to three keys, some of them
    above 1, times a nonzero rational or symbolic coefficient."""
    if draw(st.booleans()):
        keys, coeff = [IHBAR, "A1", "A2"], draw(nonzero_rationals)
    else:
        keys, coeff = [qvar(1), qvar(2), pivar(1, 1), pvar(1)], draw(scalars().filter(bool))
    powers = draw(st.dictionaries(st.sampled_from(keys), st.integers(1, 3), max_size=3))
    mono = tuple(sorted(powers.items()))
    return Scalar({mono: coeff}) if isinstance(coeff, Fraction) else Poly({mono: coeff})


def repeated_product(x, k):
    """The term map of x ** k as k general products, from the term map of 1."""
    if isinstance(x, Scalar):
        terms = {(): Fraction(1)}
        for _ in range(k):
            terms = general_product(Scalar(terms), x)
    else:
        terms = {(): Scalar.of(1)}
        for _ in range(k):
            terms = general_poly_product(Poly(terms), x)
    return terms


@settings(max_examples=150, deadline=None)
@given(single_terms(), st.integers(0, 5))
def test_single_term_power_is_the_repeated_product(x, k):
    power = x**k
    assert type(power) is type(x)
    assert power.terms == repeated_product(x, k)
    assert zero_free(power)


@settings(max_examples=100, deadline=None)
@given(st.one_of(scalars(), polys()))
def test_unit_products_return_the_other_operand(x):
    unit = ONE if isinstance(x, Scalar) else ONE_POLY
    expected = general_product(x, unit) if isinstance(x, Scalar) else general_poly_product(x, unit)
    for prod in (unit * x, x * unit):
        assert prod is x
        assert prod.terms == expected


def test_units_are_shared():
    assert Scalar.of(1) is Scalar.one() is _coerce(1) is Scalar.symbol(IHBAR, 0) is ONE
    assert Scalar.of(Fraction(1)) is ONE and Scalar.of(True) is ONE
    assert Poly.constant(1) is Poly.constant(ONE) is Poly.var(qvar(1), 0) is ONE_POLY
    assert Poly.var(qvar(1)) ** 0 is ONE_POLY and ONE_POLY**3 is ONE_POLY
    assert Poly.var(qvar(1)).terms[((qvar(1), 1),)] is ONE
    # refusals of the unit constructors are those of the general ones
    for bad in (1.0, "1"):
        with pytest.raises(TypeError):
            Scalar.of(bad)
        with pytest.raises(TypeError):
            Poly.constant(bad)
    for bad in (2.0, 1.0, 0.0, Fraction(2)):
        for x in (Scalar.symbol("A1"), Poly.var(qvar(1)), ONE_POLY):
            with pytest.raises(TypeError):
                x**bad


SHARED = [
    (ONE, {(): Fraction(1)}),
    (ONE_POLY, {(): ONE}),
    (ZERO_POLY, {}),
]


def test_shared_units_survive_a_full_verify(capsys):
    # every layer may hold the shared units; none may write into them
    assert cli.main(["verify", "--suite", "all", "-n", "2", "--gauge-seed", "5"]) == 0
    capsys.readouterr()
    for value, terms in SHARED:
        assert value.terms == terms
        assert all(type(c) is type(t) for c, t in zip(value.terms.values(), terms.values()))
    assert ONE_POLY.terms[()] is ONE
    assert Scalar.of(1) is ONE and Scalar.of(1).terms == {(): 1}


def test_scalar_symbol_bookkeeping():
    ih = Scalar.symbol(IHBAR)
    assert Scalar.of(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        ih.as_fraction()


def test_poly_substitute_and_evaluate():
    p = Poly.var(qvar(1)) * Poly.var(pivar(1, 2)) + Poly.constant(3)
    sub = p.substitute({pivar(1, 2): Poly.constant(5)})
    assert sub == Poly.var(qvar(1)).scale(5) + Poly.constant(3)
    val = p.evaluate({qvar(1): Fraction(2), pivar(1, 2): Fraction(1, 2)})
    assert val.as_fraction() == Fraction(4)


def test_poly_canonical_form_drops_zeros():
    p = Poly.var(qvar(1)) - Poly.var(qvar(1))
    assert p.is_zero()
    assert p.terms == {}


def test_multi_term_coefficients_print_in_parentheses():
    a1, a2 = Scalar.symbol("A1"), Scalar.symbol("A2")
    q1 = ((qvar(1), 1),)
    assert str(Poly({q1: -(a1 + a2)})) == "(-A1 - A2)*q1"
    assert str(Poly({q1: a1 - a2})) == "(A1 - A2)*q1"
    assert str(Poly({(): a1 + a2, q1: -a1})) == "(A1 + A2) - A1*q1"
    assert format_operator(DiffOperator(1, {(1,): Poly({q1: -(a1 + a2)})})) == "((-A1 - A2)*q1) d/dq1"


# -- the sparse-combination base ------------------------------------------------

VARS = [qvar(1), qvar(2), pivar(1, 1), pivar(2, 1)]


def term_maps(keys, values):
    return st.dictionaries(st.sampled_from(keys), values, max_size=3)


def vector_fields():
    return st.builds(
        VectorField,
        term_maps([1, 2], polys()),
        term_maps([(1, 1), (1, 2), (2, 1)], polys()),
    )


def observables():
    """n=2 observables over generator monomials in any factor order."""
    monomials = st.lists(st.sampled_from(full_tags(2)), min_size=1, max_size=3).map(tuple)
    return st.builds(Observable, st.just(2), st.dictionaries(monomials, rationals, max_size=3))


# One strategy per class; each draws term maps that may hold zero values,
# TwoForm keys that are reversed or on the diagonal, and observable
# monomials whose factors are not sorted.
COMBINATIONS = {
    "Scalar": scalars(),
    "Poly": polys(),
    "VectorField": vector_fields(),
    "OneForm": st.builds(OneForm, term_maps(VARS, polys())),
    "TwoForm": st.builds(TwoForm, term_maps(list(itertools.product(VARS, VARS)), polys())),
    "HamVF": st.builds(HamVF, st.just(2), term_maps([(), (1,), (2,), (1, 2)], vector_fields())),
    "DiffOperator": st.builds(DiffOperator, st.just(2), term_maps([(0, 0), (1, 0), (0, 2)], polys())),
    "Observable": observables(),
}


@st.composite
def combination_pairs(draw):
    kind = draw(st.sampled_from(sorted(COMBINATIONS)))
    return draw(COMBINATIONS[kind]), draw(COMBINATIONS[kind])


def zero_free(x) -> bool:
    """No stored value is zero, at any level of nesting."""
    return all(bool(v) and (not isinstance(v, LinComb) or zero_free(v)) for v in x.terms.values())


@settings(max_examples=80, deadline=None)
@given(combination_pairs(), nonzero_rationals)
def test_sparse_combination_laws(pair, c):
    a, b = pair
    results = [a, b, -a, a + b, a - b, a.scale(c), a.scale(0), a + (-a)]
    assert all(zero_free(x) for x in results)
    assert (a + (-a)).terms == {}
    assert (a + b) - b == a
    assert a.scale(0).is_zero()
    assert a.scale(c).scale(1 / c) == a


def lincomb_classes(cls=LinComb):
    for sub in cls.__subclasses__():
        yield sub
        yield from lincomb_classes(sub)


# every concrete class whose space is fixed by attributes, declared or inherited;
# a class with subclasses of its own is a shared base, not a combination
SPACED = sorted({c.__name__ for c in lincomb_classes() if c._space and not c.__subclasses__()})
ELSEWHERE = {"n": 3, "slot": 1}


def test_the_packed_forms_are_checked_across_spaces():
    assert {"HamVF", "DiffOperator", "Observable"} <= set(SPACED)


@pytest.mark.parametrize("kind", SPACED)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sums_across_spaces_raise(kind, data):
    a, b = data.draw(COMBINATIONS[kind]), data.draw(COMBINATIONS[kind])
    for name in a._space:
        moved = b._like(dict(b.terms))
        setattr(moved, name, ELSEWHERE[name])
        for left, right in ((a, moved), (moved, a)):
            with pytest.raises(DimensionMismatch, match=f"^{name} differs"):
                left + right
            with pytest.raises(DimensionMismatch, match=f"^{name} differs"):
                left - right
