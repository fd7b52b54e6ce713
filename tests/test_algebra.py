"""Index machinery, generators, symmetric products and evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsq import algebra
from nsq.algebra import (
    FramePoint,
    Observable,
    canonicalize,
    evaluate,
    full_tags,
    make_pihat,
    make_qhat,
    make_rhat,
    pitag,
    qtag,
    rtag,
    sym_mul,
)
from nsq.errors import EngineError, IndexRangeError
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import IHBAR, ONE, Scalar, _coerce, accumulate


def test_canonicalize():
    assert canonicalize([3, 1, 2], 3) == (1, 2, 3)
    assert canonicalize([], 3) == ()
    assert canonicalize([2, 2, 1], 2) == (1, 2, 2)
    assert canonicalize(canonicalize([3, 1, 2], 3), 3) == (1, 2, 3)
    with pytest.raises(IndexRangeError):
        canonicalize([0, 1], 2)
    with pytest.raises(IndexRangeError):
        canonicalize([3], 2)


def test_generator_components():
    n = 2
    q12 = make_qhat(n, 1, 2)
    assert q12.component((1,)).is_zero()
    assert q12.component((2,)) == Poly.var(qvar(1))

    pi1 = make_pihat(n, 1)
    assert pi1.component((1,)) == Poly.var(pivar(1, 1))
    assert pi1.component((2,)) == Poly.var(pivar(2, 1))

    r2 = make_rhat(n, 2)
    assert r2.component((1,)).is_zero()
    assert r2.component((2,)) == Poly.constant(1)

    with pytest.raises(IndexRangeError):
        make_qhat(2, 3, 1)


def test_sym_mul_components():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    prod = sym_mul(q11, pi1)
    q1 = Poly.var(qvar(1))
    assert prod.component((1, 1)) == q1 * Poly.var(pivar(1, 1))
    assert prod.component((1, 2)) == (q1 * Poly.var(pivar(2, 1))).scale(Fraction(1, 2))
    assert prod.component((2, 2)).is_zero()

    zero = Observable.zero(n)
    assert sym_mul(q11, zero).is_zero()

    r1 = make_rhat(n, 1)
    square = sym_mul(r1, r1)
    assert square.component((1, 1)) == Poly.constant(1)
    assert square.component((1, 2)).is_zero()
    assert square.component((2, 2)).is_zero()


def test_truth_value_is_on_the_components():
    # qh(1,1) rh(2) and qh(1,2) rh(1) expand to the same components, so the
    # difference keeps two terms but is the zero observable
    n = 2
    diff = sym_mul(make_qhat(n, 1, 1), make_rhat(n, 2)) - sym_mul(make_qhat(n, 1, 2), make_rhat(n, 1))
    assert len(diff.terms) == 2 and diff.is_zero()
    for obs in (diff, make_qhat(n, 1, 1)):
        assert bool(obs) == (not obs.is_zero())


def test_sym_mul_commutative_associative():
    n = 3
    rng = random.Random(3)
    tags = (
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )
    for _ in range(25):
        f, g, h = (
            Observable(n, {(rng.choice(tags),): Scalar.one()}) for _ in range(3)
        )
        assert sym_mul(f, g) == sym_mul(g, f)
        assert sym_mul(sym_mul(f, g), h) == sym_mul(f, sym_mul(g, h))


def test_sym_mul_bilinear():
    n = 2
    f = make_qhat(n, 1, 1).scale(Fraction(3, 2)) + make_pihat(n, 2)
    g = make_rhat(n, 1)
    lhs = sym_mul(f, g)
    rhs = sym_mul(make_qhat(n, 1, 1), g).scale(Fraction(3, 2)) + sym_mul(
        make_pihat(n, 2), g
    )
    assert lhs == rhs


def test_observable_equality_is_on_components():
    # Different generator decompositions of the same observable compare equal.
    n = 2
    a = sym_mul(make_qhat(n, 1, 1), make_rhat(n, 2))
    b = sym_mul(make_qhat(n, 1, 2), make_rhat(n, 1))
    assert a.terms != b.terms
    assert a == b


def test_monomials_are_stored_sorted():
    # factor order is not part of a monomial: keys that differ only in it sum
    n = 2
    built = sym_mul(make_qhat(n, 1, 1), make_pihat(n, 1))
    given_order = Observable(n, {(qtag(1, 1), pitag(1)): 1})
    assert repr(given_order - built) == "0"
    assert repr(given_order + built) == "2 pih(1)*qh(1,1)"
    assert given_order.terms == built.terms == {(pitag(1), qtag(1, 1)): Scalar.one()}
    both = Observable(n, {(qtag(1, 1), pitag(1)): 1, (pitag(1), qtag(1, 1)): -1})
    assert both.terms == {}


@pytest.mark.parametrize(
    "tag", [("x", 1), ("q", 1), ("pi", 1, 1), ("r",), ("r", 1, 2), ()]
)
def test_unknown_generator_tags_are_rejected(tag):
    with pytest.raises(EngineError, match="not a generator tag"):
        Observable(2, {(tag,): 1})
    with pytest.raises(EngineError, match="not a generator tag"):
        Observable(2, {(rtag(1), tag): 1})


def test_empty_monomial_is_rejected():
    # a monomial without factors has no rank and no expansion
    with pytest.raises(EngineError, match="at least one factor"):
        Observable(2, {(): 1})


def check_then_sort(n, terms):
    """Observable terms built without the monomial memo: every factor
    checked, then the monomial sorted."""
    out = {}
    for mono, c in terms.items():
        if not mono:
            raise EngineError("a generator monomial has at least one factor")
        for tag in mono:
            algebra._check_tag(tag, n)
        accumulate(out, tuple(sorted(mono)), _coerce(c))
    return out


def outcome(build):
    """The terms of what build() returns, or the type of what it raises."""
    try:
        out = build()
    except Exception as exc:  # the exception type is the outcome
        return type(exc)
    return out.terms if isinstance(out, Observable) else out


@settings(max_examples=4, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
def test_memoized_monomials_match_check_then_sort(c):
    # every full-set monomial of degree <= 3 at n 1..3, in both factor
    # orders, from a cold memo and then a warm one; the degree <= 2
    # monomials over the next dimension's tags hold refused indices
    algebra._SORTED_MONOMIALS.clear()
    for _warm in range(2):
        for n in (1, 2, 3):
            monos = [m for d in (1, 2, 3) for m in itertools.combinations_with_replacement(full_tags(n), d)]
            monos += [m for d in (1, 2) for m in itertools.combinations_with_replacement(full_tags(n + 1), d)]
            for mono in monos:
                for order in (mono, mono[::-1]):
                    terms = {order: c}
                    assert outcome(lambda: Observable(n, terms)) == outcome(lambda: check_then_sort(n, terms))


# (dimension and monomial that warm the memo, dimension and input refused after them, error)
REFUSED_AFTER_WARMING = [
    (2, (qtag(1, 1),), 2, (("q", 1.0, 1),), IndexRangeError),
    (2, (qtag(1, 1),), 2, (("q", Fraction(1), 1),), IndexRangeError),
    (2, (qtag(1, 1), pitag(2)), 2, (("q", 1, 1.0), pitag(2)), IndexRangeError),
    (3, (qtag(3, 1),), 2, (qtag(3, 1),), IndexRangeError),
    (2, (qtag(1, 1),), 2, (), EngineError),
    (2, (qtag(1, 1),), 2, (qtag(1, 1), ("x", 1)), EngineError),
    (2, (rtag(1),), 2, (rtag(1), 1), EngineError),
    (2, (qtag(1, 1),), 2, (("q", True, 1),), IndexRangeError),
    (2, (qtag(1, 1), pitag(1)), 2, (("q", 1, True), pitag(1)), IndexRangeError),
    (2, (pitag(1), rtag(1)), 2, (("pi", True), ("r", True)), IndexRangeError),
]


@pytest.mark.parametrize("warm_n, warm, n, refused, error", REFUSED_AFTER_WARMING)
def test_memo_keeps_every_refusal(warm_n, warm, n, refused, error):
    Observable(warm_n, {warm: 1})
    with pytest.raises(error):
        Observable(n, {refused: 1})


# ways to spoil one generator tag: each is refused by _check_and_sort
SPOILERS = {
    "bool": lambda tag, n: (tag[0], True, *tag[2:]),
    "float": lambda tag, n: (tag[0], float(tag[1]), *tag[2:]),
    "out of range": lambda tag, n: (tag[0], n + 1, *tag[2:]),
    "zero": lambda tag, n: (*tag[:-1], 0),
    "wrong arity": lambda tag, n: (*tag, 1),
    "unknown kind": lambda tag, n: ("x", *tag[1:]),
    "non-tuple tag": lambda tag, n: "".join(map(str, tag)),
}


@st.composite
def monomial_inputs(draw):
    """(n, a monomial of fresh tuples): a generator monomial at n, one with a spoiled tag, or ()."""
    n = draw(st.integers(1, 3))
    tags = [tuple([*t]) for t in draw(st.lists(st.sampled_from(full_tags(n)), max_size=3))]
    if tags and draw(st.booleans()):
        i = draw(st.integers(0, len(tags) - 1))
        tags[i] = SPOILERS[draw(st.sampled_from(sorted(SPOILERS)))](tags[i], n)
    return n, tuple(tags)


def built(n, mono, c):
    """Observable(n, {mono: c}).terms, or the type and message of its refusal."""
    try:
        return Observable(n, {mono: c}).terms
    except Exception as exc:  # the refusal is the outcome
        return type(exc), str(exc)


def checked(n, mono, c):
    """The same outcome from _check_and_sort, which reads no memo."""
    try:
        key = algebra._check_and_sort(mono, n)
    except Exception as exc:
        return type(exc), str(exc)
    out = {}
    accumulate(out, key, _coerce(c))
    return out


def lookalike(mono, index):
    """A separate monomial equal to mono, each int index i replaced by index(i)."""
    return tuple(
        tuple([t[0], *(index(i) if type(i) is int else i for i in t[1:])]) if type(t) is tuple else t
        for t in mono
    )


@settings(max_examples=300, deadline=None)
@given(monomial_inputs(), st.sampled_from([ONE, 1, -2, Fraction(1, 3), Scalar.symbol(IHBAR)]))
def test_constructor_memo_matches_check_and_sort(case, c):
    n, mono = case
    algebra._SORTED_MONOMIALS.clear()
    expected = checked(n, mono, c)
    assert built(n, mono, c) == expected  # cold: a generator monomial is stored
    assert built(n, mono, c) == expected  # the same object: an exact-object hit
    assert built(n, lookalike(mono, int), c) == expected  # an equal, separate tuple
    for index in (lambda i: True if i == 1 else i, float):
        # equal to the memoized int version, with the same hash, but refused
        other = lookalike(mono, index)
        assert built(n, other, c) == checked(n, other, c)
    for m in (n - 1, n + 1):
        if m >= 1:
            assert built(m, mono, c) == checked(m, mono, c)  # the same object at another dimension


def test_non_int_dimension_is_refused_after_warming():
    Observable(2, {(qtag(1, 1),): 1})
    for n in (2.0, Fraction(2), "2", True):
        with pytest.raises(IndexRangeError, match="dimension"):
            Observable(n, {(qtag(1, 1),): 1})


def test_bool_indices_and_dimensions_are_refused():
    # True == 1 and hashes like it, so a bool index would print as
    # qh(True,1), which does not parse, and could reach a memo keyed on the
    # monomial of ints; every constructor takes exact ints only
    from nsq.parsing import parse_observable, print_observable
    from nsq.poisson import bracket
    from nsq.quantization import DiffOperator

    algebra._SORTED_MONOMIALS.clear()
    for refused in ((("q", True, 1),), (("q", 1, True),), (("pi", True),), (("r", True),)):
        with pytest.raises(IndexRangeError, match="index True out of range 1..2"):
            Observable(2, {refused: 1})
    for n in (True, False):
        with pytest.raises(IndexRangeError, match=f"dimension must be a positive integer, got {n}"):
            Observable(n, {})
    with pytest.raises(IndexRangeError):
        Observable(2, {(pitag(1),): 1}, slot=True)
    for slot in (5, 0):
        with pytest.raises(IndexRangeError, match=f"index {slot} out of range 1..2"):
            Observable(2, {}, slot=slot)
    with pytest.raises(IndexRangeError):
        DiffOperator.derivative(2, True)
    with pytest.raises(IndexRangeError):
        canonicalize([True, 2], 2)
    f = Observable(2, {(pitag(1), qtag(1, 1)): 1})
    g = Observable(2, {(pitag(1), qtag(1, 2)): 1})
    text = print_observable(bracket(f, g))
    assert "True" not in text and parse_observable(text, 2) == bracket(f, g)


def test_component_lookup_is_permutation_invariant():
    n = 2
    f = sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2))
    assert f.component((2, 1)) == f.component((1, 2))
    assert sorted(f.components[2]) == [k for k in f.components[2]]


def test_grading_helpers():
    n = 2
    q11 = make_qhat(n, 1, 1)
    mixed = q11 + sym_mul(q11, make_pihat(n, 2))
    assert mixed.ranks() == [1, 2]
    assert mixed.min_rank() == 1
    assert mixed.grade_part(2) == sym_mul(q11, make_pihat(n, 2))
    assert Observable.zero(n).min_rank() is None
    with pytest.raises(ValueError):
        mixed.rank()


def test_frame_point_validation():
    with pytest.raises(ValueError):
        FramePoint((0, 0), [[1, 0], [2, 0]])
    u = FramePoint((1, 2), [[0, 1], [1, 0]])
    assert u.pi[0][1] == 1


def test_evaluate_examples():
    n = 2
    u = FramePoint.identity(n, q=(2, 0))
    vals = evaluate(make_qhat(n, 1, 1), u)
    assert vals[(1,)].as_fraction() == 2
    assert vals[(2,)].as_fraction() == 0

    u0 = FramePoint.identity(n)
    vals = evaluate(make_pihat(n, 1), u0)
    assert vals[(1,)].as_fraction() == 1
    assert vals[(2,)].as_fraction() == 0

    u1 = FramePoint.identity(n, q=(1, 0))
    vals = evaluate(sym_mul(make_qhat(n, 1, 1), make_pihat(n, 1)), u1)
    assert vals[(1, 1)].as_fraction() == 1
    assert vals[(1, 2)].as_fraction() == 0
    assert vals[(2, 2)].as_fraction() == 0


def test_evaluate_is_multiplicative():
    # evaluate(sym_mul(f,g)) equals the pointwise symmetric product of the values
    n = 2
    rng = random.Random(11)
    u = FramePoint((1, -2), [[2, 1], [0, Fraction(1, 2)]])
    f = sym_mul(make_qhat(n, 1, 2), make_pihat(n, 1))
    g = make_pihat(n, 2)
    vf, vg = evaluate(f, u), evaluate(g, u)
    vfg = evaluate(sym_mul(f, g), u)
    # symmetric product of the value maps, positionwise
    import itertools

    for K in vfg:
        acc = Scalar.zero()
        for subset in itertools.combinations(range(3), 2):
            sub = set(subset)
            i_f = tuple(sorted(K[t] for t in subset))
            j_g = tuple(sorted(K[t] for t in range(3) if t not in sub))
            acc = acc + vf[i_f] * vg[j_g]
        assert vfg[K] == acc * Scalar.of(Fraction(1, 3))
