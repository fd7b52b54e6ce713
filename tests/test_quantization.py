"""Operator algebra, the two quantization maps, and the axiom machinery."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsq.algebra import Observable, in_b1_algebra, make_pihat, make_qhat, make_rhat, pitag, qtag, rtag, sym_mul, sym_pow
from nsq.errors import DimensionMismatch, EngineError, IndexRangeError, NotInGeneratorAlgebra
from nsq.packed import POWER_BOUND, pack_term, unpack_term
from nsq.quantization import (
    DiffOperator,
    QuantizationMap,
    _dirac_residual,
    _layout,
    _leibniz,
    b1_monomials,
    commutator,
    dirac_check,
    formal_adjoint,
    format_operator,
    make_q1,
    make_q2,
    op_compose,
    operators_linearly_independent,
    quantize,
)
from nsq.poisson import bracket
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import IHBAR, LinComb, Scalar, accumulate
from nsq.suites import axiom_report, random_b1_monomial


def _qop(n, i):
    return DiffOperator.multiplication(n, Poly.var(qvar(i)))


def _pop(n, k):
    return DiffOperator.derivative(n, k, -Scalar.symbol(IHBAR))


def test_quantize_q1():
    n = 2
    q1m = make_q1(n)
    assert quantize(q1m, make_pihat(n, 2)) == _pop(n, 2)
    assert format_operator(quantize(q1m, make_pihat(n, 2))) == "-i*hbar d/dq2"
    assert quantize(q1m, make_qhat(n, 1, 1)) == _qop(n, 1)
    assert quantize(q1m, make_rhat(n, 1)) == DiffOperator.identity(n)
    assert quantize(q1m, sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2))).is_zero()
    with pytest.raises(NotInGeneratorAlgebra):
        quantize(q1m, make_qhat(n, 1, 2))


def test_quantize_q2():
    n = 2
    q2m = make_q2(n)
    p1p2 = Poly.var(pivar(1, 1)) * Poly.var(pivar(1, 2))
    assert quantize(q2m, sym_mul(make_pihat(n, 1), make_pihat(n, 2))) == (
        DiffOperator.multiplication(n, p1p2)
    )
    a1a2 = Poly.constant(Scalar.symbol("A1") * Scalar.symbol("A2"))
    assert quantize(q2m, sym_mul(make_qhat(n, 1, 1), make_qhat(n, 2, 1))) == (
        DiffOperator.multiplication(n, a1a2)
    )
    assert quantize(q2m, sym_mul(make_qhat(n, 1, 1), make_rhat(n, 1))).is_zero()
    assert quantize(q2m, sym_pow(make_rhat(n, 1), 2)).is_zero()
    assert quantize(
        q2m, sym_mul(sym_mul(make_qhat(n, 1, 1), make_pihat(n, 1)), make_pihat(n, 2))
    ).is_zero()


def test_op_compose_and_commutator():
    n = 2
    q1, p1, p2 = _qop(n, 1), _pop(n, 1), _pop(n, 2)
    # [q1, -ih d1] = ih
    ih = Scalar.symbol(IHBAR)
    assert commutator(q1, p1) == DiffOperator.multiplication(n, Poly.constant(ih))
    assert commutator(p1, p2).is_zero()
    # P variables commute with derivatives
    pmul = DiffOperator.multiplication(n, Poly.var(pivar(1, 1)))
    assert commutator(pmul, p1).is_zero()
    # composition is associative
    ops = [q1, p1, pmul, commutator(q1, p1)]
    for a in ops:
        for b in ops:
            for c in ops:
                assert op_compose(op_compose(a, b), c) == op_compose(a, op_compose(b, c))


def test_operators_refuse_other_dimensions():
    a, b = _pop(2, 1), _pop(3, 1)
    for op in (op_compose, commutator):
        with pytest.raises(DimensionMismatch):
            op(a, b)
    with pytest.raises(DimensionMismatch):
        DiffOperator.identity(2) + DiffOperator.identity(3)
    with pytest.raises(DimensionMismatch, match="n differs: 2 vs 3"):
        quantize(make_q1(2), make_qhat(3, 1, 1))


def test_bracket_and_dirac_check_refuse_operands_of_two_algebras():
    f, g = make_qhat(2, 1, 1), make_pihat(3, 1)
    with pytest.raises(DimensionMismatch, match="^n differs: 2 vs 3$"):
        bracket(f, g)
    with pytest.raises(DimensionMismatch, match="^n differs: 2 vs 3$"):
        dirac_check(make_q1(2), f, g)
    sliced = Observable(2, {(pitag(1),): 1}, slot=2)
    with pytest.raises(DimensionMismatch, match="^slot differs: None vs 2$"):
        bracket(make_pihat(2, 1), sliced)


def test_quantization_maps_refuse_a_bad_dimension():
    for build in (lambda: make_q1(True), lambda: make_q2(0), lambda: make_q1(2.0), lambda: QuantizationMap("x", 0, 2)):
        with pytest.raises(IndexRangeError, match="dimension must be a positive integer"):
            build()


def test_operator_constructors_refuse_a_bad_dimension():
    from nsq.forms import HamVF

    builds = [
        lambda n: DiffOperator(n, {}),
        DiffOperator.identity,
        DiffOperator.zero,
        HamVF.zero,
        lambda n: DiffOperator.multiplication(n, Poly.constant(2)),
        lambda n: DiffOperator.derivative(n, 1),
    ]
    for build in builds:
        for n in (True, False, 0, -3, 2.0):
            with pytest.raises(IndexRangeError, match="dimension must be a positive integer"):
                build(n)
    # a refused True never reaches the shared zero of 1, nor 2.0 that of 2
    assert type(DiffOperator.zero(1).n) is int and DiffOperator.zero(1).n == 1
    assert type(DiffOperator.zero(2).n) is int and DiffOperator.zero(2) is DiffOperator.zero(2)
    with pytest.raises(IndexRangeError, match="got True"):
        DiffOperator.zero(True)
    assert make_q1(DiffOperator.zero(1).n).n == 1


def test_quantize_scales_every_coefficient_but_one():
    n = 2
    q1m = make_q1(n)
    ih = Scalar.symbol(IHBAR)
    assert quantize(q1m, make_qhat(n, 1, 1).scale(2)) == _qop(n, 1).scale(2)
    assert quantize(q1m, Observable(n, {(pitag(1),): ih})) == _pop(n, 1).scale(ih)
    assert quantize(q1m, make_qhat(n, 1, 1) + make_pihat(n, 1).scale(ih)) == _qop(n, 1) + _pop(n, 1).scale(ih)
    # a unit coefficient leaves the image unscaled: one term is the map's memoized image
    assert quantize(q1m, make_qhat(n, 1, 1)) is q1m.image_of_monomial((qtag(1, 1),))


def test_formal_adjoint():
    n = 2
    q1 = _qop(n, 1)
    assert formal_adjoint(q1) == q1
    p1 = _pop(n, 1)
    assert formal_adjoint(p1) == p1
    d1 = DiffOperator.derivative(n, 1)
    assert formal_adjoint(d1) == -d1
    # involution on a composite
    op = op_compose(q1, p1)
    assert formal_adjoint(formal_adjoint(op)) == op


def test_divide_by_ihbar_and_ihbar_degree():
    n = 2
    ih = Scalar.symbol(IHBAR)
    q1, d1 = _qop(n, 1), DiffOperator.derivative(n, 1)
    base = q1.scale(Fraction(2, 3)) + d1.scale(Scalar.symbol("A1"))
    op = base.scale(ih) + op_compose(q1, d1).scale(ih * ih * ih)
    assert op.ihbar_degree() == 3
    assert op.divide_by_ihbar() == base + op_compose(q1, d1).scale(ih * ih)
    assert op.divide_by_ihbar().ihbar_degree() == 2
    assert _pop(n, 2).divide_by_ihbar() == DiffOperator.derivative(n, 2, -1)
    assert DiffOperator.zero(n).ihbar_degree() == 0
    assert base.ihbar_degree() == 0
    # one IHBAR-free term is enough to refuse the division
    for bad in (base, op + q1, DiffOperator.identity(n)):
        with pytest.raises(ValueError, match="is not divisible by ih"):
            bad.divide_by_ihbar()


def test_dirac_examples():
    n = 2
    q1m, q2m = make_q1(n), make_q2(n)
    q11, pi1, pi2 = make_qhat(n, 1, 1), make_pihat(n, 1), make_pihat(n, 2)
    assert dirac_check(q1m, q11, pi1)
    assert dirac_check(q1m, sym_mul(q11, pi1), pi2)
    assert dirac_check(q2m, sym_mul(q11, pi1), pi2)
    assert dirac_check(q2m, sym_mul(q11, pi1), pi1)


def test_dirac_random_with_gauge():
    n = 2
    rng = random.Random(19)
    q1m, q2m = make_q1(n), make_q2(n)
    for _ in range(15):
        f, g = random_b1_monomial(n, rng), random_b1_monomial(n, rng)
        assert dirac_check(q1m, f, g)
        assert dirac_check(q2m, f, g)
        assert dirac_check(q2m, f, g, gauge_seed=101)


def test_quantize_linear():
    n = 2
    q1m = make_q1(n)
    f = make_qhat(n, 1, 1).scale(Fraction(2, 3)) + make_pihat(n, 2).scale(-2)
    expected = _qop(n, 1).scale(Fraction(2, 3)) + _pop(n, 2).scale(-2)
    assert quantize(q1m, f) == expected


def test_faithfulness_and_symmetry():
    n = 2
    q1m = make_q1(n)
    gens = [make_qhat(n, i, 1) for i in (1, 2)]
    gens += [make_pihat(n, k) for k in (1, 2)]
    gens.append(make_rhat(n, 1))
    images = [quantize(q1m, g) for g in gens]
    assert operators_linearly_independent(images)
    for img in images:
        assert formal_adjoint(img) == img
    # a dependent family is detected
    dependent = images + [images[0].scale(2) + images[1]]
    assert not operators_linearly_independent(dependent)
    # fractional and symbolic coefficients: rows of different denominators
    scaled = [images[0].scale(Fraction(2, 3)), images[1].scale(Fraction(-1, 5)), images[2]]
    assert operators_linearly_independent(scaled)
    assert not operators_linearly_independent(scaled + [images[0].scale(Fraction(1, 7)) - images[1]])
    assert not operators_linearly_independent([DiffOperator.zero(n)])


def test_axiom_report_passes():
    for label, factory in [("q1", make_q1), ("q2", make_q2)]:
        report = axiom_report(factory(2), 2, 3)
        assert report.all_passed, report.failures[:3]
        assert len(report.out_of_scope) == 3
        assert "out of computational scope" in report.summary()


def test_axiom_report_catches_corruption():
    n = 2
    from nsq.algebra import pitag, rtag

    bad = QuantizationMap(
        "q1-corrupt",
        n,
        kill_rank=2,
        overrides={(pitag(1), rtag(1)): DiffOperator.identity(n)},
    )
    report = axiom_report(bad, n, 2)
    assert not report.all_passed
    named = [f.case for f in report.failures if f.case.startswith("dirac")]
    assert named, "the sweep must name the failing pair"


def test_override_at_or_above_kill_rank_takes_precedence():
    # an override is the image at every rank, the killed ranks included
    from nsq.algebra import Observable, pitag, qtag, rtag

    n = 2
    overrides = {
        (pitag(1), rtag(1)): DiffOperator.identity(n),
        (pitag(1), pitag(2), qtag(1, 1)): DiffOperator.derivative(n, 2),
    }
    bad = QuantizationMap("q1-corrupt", n, kill_rank=2, overrides=overrides)
    assert not bad.kills((pitag(1), rtag(1))) and bad.kills((pitag(2), rtag(1)))
    f = Observable(
        n,
        {
            (pitag(1), rtag(1)): 3,
            (pitag(1), pitag(2), qtag(1, 1)): Scalar.symbol(IHBAR),
            (pitag(2), rtag(1)): 5,
            (qtag(1, 1),): 1,
        },
    )
    expected = (
        DiffOperator.identity(n).scale(3)
        + DiffOperator.derivative(n, 2).scale(Scalar.symbol(IHBAR))
        + quantize(make_q1(n), make_qhat(n, 1, 1))
    )
    assert quantize(bad, f) == expected
    assert quantize(bad, Observable(n, {(pitag(2), rtag(1)): 5})).is_zero()
    # {qhat(1,1), pihat(1)^2} = 2 pihat(1) rhat(1): the override breaks the Dirac condition
    g = sym_pow(make_pihat(n, 1), 2)
    assert dirac_check(make_q1(n), make_qhat(n, 1, 1), g)
    assert not dirac_check(bad, make_qhat(n, 1, 1), g)


def test_b1_monomial_count():
    # 5 generators at n=2: 5 + 15 + 35 monomials through degree 3
    assert len(b1_monomials(2, 3)) == 55


def test_dirac_failures_carry_the_residual(monkeypatch):
    from nsq import suites
    from nsq.algebra import Observable, pitag, rtag
    from nsq.poisson import bracket

    n = 2
    corruption = {(pitag(1), rtag(1)): DiffOperator.identity(n)}
    bad = {
        k: QuantizationMap(f"q{k}-corrupt", n, kill_rank=k + 1, overrides=corruption)
        for k in (1, 2)
    }
    monkeypatch.setattr(suites, "make_q1", lambda n: bad[1])
    monkeypatch.setattr(suites, "make_q2", lambda n: bad[2])
    pairs = {}
    monos = b1_monomials(n, 3)
    for m1 in monos:
        for m2 in monos:
            f, g = Observable(n, {m1: 1}), Observable(n, {m2: 1})
            pairs[f"dirac ({f!r}; {g!r})"] = (f, g)
    reports = [
        (suites.run_suite("dirac-q1", n), bad[1]),
        (suites.run_suite("dirac-q2", n), bad[2]),
        (axiom_report(bad[1], n, 2), bad[1]),
    ]
    for report, qmap in reports:
        failures = [f for f in report.failures if f.case.startswith("dirac")]
        assert failures, report.suite
        for failure in failures:
            f, g = pairs[failure.case]
            residual = commutator(quantize(qmap, f), quantize(qmap, g)) - quantize(
                qmap, bracket(f, g)
            ).scale(Scalar.symbol(IHBAR))
            assert not residual.is_zero()
            assert failure.actual == format_operator(residual)


# -- the integer composition kernel ----------------------------------------------


def ref_op_compose(a, b):
    """The Leibniz rule on Poly coefficients: one Poly.diff per lowered power."""
    acc = {}
    for alpha, c1 in a.terms.items():
        for beta, c2 in b.terms.items():
            for gamma in itertools.product(*(range(d + 1) for d in alpha)):
                weight = 1
                for d, g in zip(alpha, gamma):
                    weight *= comb(d, g)
                dc2 = c2
                for i, g in enumerate(gamma):
                    for _ in range(g):
                        dc2 = dc2.diff(qvar(i + 1))
                if dc2.is_zero():
                    continue
                degree = tuple(d - g + e for d, g, e in zip(alpha, gamma, beta))
                accumulate(acc, degree, (c1 * dc2).scale(weight))
    return DiffOperator(a.n, acc)


COEFFICIENTS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.sampled_from([
        Scalar.symbol(IHBAR),
        -Scalar.symbol(IHBAR, 2),
        Scalar.symbol("A1"),
        Scalar.symbol("A1") * Scalar.symbol(IHBAR) - Scalar.of(Fraction(1, 2)),
    ]),
)


@st.composite
def coefficient_polys(draw, n):
    """Polynomials in q^1..q^n and P_1..P_n with rational and symbolic coefficients."""
    variables = [qvar(i) for i in range(1, n + 1)] + [pivar(1, k) for k in range(1, n + 1)]
    out = Poly.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = Poly.constant(draw(COEFFICIENTS))
        for v in draw(st.lists(st.sampled_from(variables), max_size=4)):
            term = term * Poly.var(v)
        out = out + term
    return out


@st.composite
def operator_tuples(draw, count):
    """count operators of one dimension n in 1..3, with derivative degrees 0..3; zero allowed."""
    n = draw(st.integers(1, 3))
    degrees = st.tuples(*[st.integers(0, 3)] * n)
    return tuple(
        DiffOperator(n, draw(st.dictionaries(degrees, coefficient_polys(n), max_size=3)))
        for _ in range(count)
    )


def zero_free_operator(op):
    return all(
        poly.terms and all(s.terms and all(c != 0 for c in s.terms.values()) for s in poly.terms.values())
        for poly in op.terms.values()
    )


KERNEL_SETTINGS = settings(max_examples=150, deadline=None)


@KERNEL_SETTINGS
@given(operator_tuples(2))
def test_op_compose_matches_leibniz_reference(ops):
    a, b = ops
    got = op_compose(a, b)
    assert got == ref_op_compose(a, b)
    assert zero_free_operator(got)


@KERNEL_SETTINGS
@given(operator_tuples(2))
def test_commutator_matches_leibniz_reference(ops):
    a, b = ops
    got = commutator(a, b)
    assert got == ref_op_compose(a, b) - ref_op_compose(b, a)
    assert zero_free_operator(got)
    assert commutator(b, a) == -got


@st.composite
def leading_only_pairs(draw):
    """Two operators whose every Leibniz entry is gamma = 0: two multiplications, or two c d^alpha with c free of q."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return tuple(DiffOperator.multiplication(n, draw(coefficient_polys(n))) for _ in range(2))
    degrees = st.tuples(*[st.integers(0, 3)] * n)
    momenta = [pivar(1, k) for k in range(1, n + 1)]

    def q_free():
        out = Poly.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = Poly.constant(draw(COEFFICIENTS))
            for v in draw(st.lists(st.sampled_from(momenta), max_size=2)):
                term = term * Poly.var(v)
            out = out + term
        return out

    return tuple(DiffOperator(n, {draw(degrees): q_free() for _ in range(draw(st.integers(1, 3)))}) for _ in range(2))


@KERNEL_SETTINGS
@given(leading_only_pairs())
def test_commutator_of_leading_only_terms_is_zero(ops):
    # a o b and b o a hold only their cancelling gamma = 0 terms
    a, b = ops
    assert ref_op_compose(a, b) == ref_op_compose(b, a)
    got = commutator(a, b)
    assert got.is_zero() and got == DiffOperator.zero(a.n)
    assert zero_free_operator(got)


@st.composite
def cubic_pairs(draw):
    """Two operators at n in 1..3 whose derivative degrees and q powers are 0 or 3 along each q^i."""
    n = draw(st.integers(1, 3))
    cubes = st.sampled_from([0, 3])

    def operator():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            term = Poly.constant(draw(COEFFICIENTS))
            for i in range(1, n + 1):
                term = term * Poly.var(qvar(i)) ** draw(cubes)
            accumulate(terms, tuple(draw(cubes) for _ in range(n)), term)
        return DiffOperator(n, terms)

    return operator(), operator()


@KERNEL_SETTINGS
@given(cubic_pairs())
def test_commutator_of_third_derivatives_and_cubes(ops):
    a, b = ops
    got = commutator(a, b)
    assert got == ref_op_compose(a, b) - ref_op_compose(b, a)
    assert zero_free_operator(got)
    assert commutator(b, a) == -got


def test_commutator_of_d_cubed_and_q_cubed():
    # d^3 o q^3 = q^3 d^3 + 9 q^2 d^2 + 18 q d + 6
    n = 1
    d3 = DiffOperator(n, {(3,): Poly.constant(1)})
    q3 = DiffOperator.multiplication(n, Poly.var(qvar(1), 3))
    q = Poly.var(qvar(1))
    expected = DiffOperator(n, {(2,): (q**2).scale(9), (1,): q.scale(18), (0,): Poly.constant(6)})
    assert commutator(d3, q3) == expected == -commutator(q3, d3)


@settings(max_examples=60, deadline=None)
@given(operator_tuples(3))
def test_op_compose_is_associative(ops):
    a, b, c = ops
    assert op_compose(op_compose(a, b), c) == op_compose(a, op_compose(b, c))


def ref_formal_adjoint(a):
    """(c d^alpha)* = (-1)^|alpha| d^alpha o c*, one view term at a time, IHBAR -> -IHBAR in c."""
    out = DiffOperator.zero(a.n)
    for alpha, poly in a.terms.items():
        conj = {}
        for mono, s in poly.terms.items():
            conj[mono] = Scalar({sym: -c if dict(sym).get(IHBAR, 0) % 2 else c for sym, c in s.terms.items()})
        derivative = DiffOperator(a.n, {alpha: Poly.constant((-1) ** sum(alpha))})
        out = out + ref_op_compose(derivative, DiffOperator.multiplication(a.n, Poly(conj)))
    return out


@st.composite
def adjoint_operators(draw):
    """Operators at n in 1..3: derivative degrees 0..2, q^i powers 0..2, P_k, IHBAR^0..3, A_i, rationals."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    degrees = st.tuples(*[st.integers(0, 2)] * n)

    @st.composite
    def term(draw):
        c = Scalar.of(draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)))
        c = c * Scalar.symbol(IHBAR, draw(st.integers(0, 3)))
        for i in draw(st.lists(index, max_size=2)):
            c = c * Scalar.symbol(f"A{i}")
        out = Poly.constant(c)
        for i in range(1, n + 1):
            out = out * Poly.var(qvar(i)) ** draw(st.integers(0, 2))
        for k in draw(st.lists(index, max_size=2)):
            out = out * Poly.var(pivar(1, k))
        return out

    polys = st.lists(term(), min_size=1, max_size=3).map(lambda ts: sum(ts, Poly.zero()))
    return DiffOperator(n, draw(st.dictionaries(degrees, polys, max_size=4)))


@KERNEL_SETTINGS
@given(adjoint_operators())
def test_formal_adjoint_matches_the_view_reference(a):
    got = formal_adjoint(a)
    assert got == ref_formal_adjoint(a)
    assert zero_free_operator(got)
    assert formal_adjoint(got) == a


def ref_leibniz(alpha, mono):
    """d^alpha o mono as {(alpha - gamma, lowered monomial): weight}, through Poly.diff."""
    out = {}
    for gamma in itertools.product(*(range(d + 1) for d in alpha)):
        poly = Poly({mono: 1})
        for i, g in enumerate(gamma):
            for _ in range(g):
                poly = poly.diff(qvar(i + 1))
        weight = 1
        for d, g in zip(alpha, gamma):
            weight *= comb(d, g)
        for lowered, c in poly.terms.items():
            out[(tuple(d - g for d, g in zip(alpha, gamma)), lowered)] = weight * c.as_fraction()
    return out


def test_leibniz_memo_matches_poly_diff():
    # every degree up to (3, 3) against every monomial q1^a q2^b P1^c, from
    # an empty memo in both loop orders, so a key missing either part shows
    n = 2
    units, _, q_mask = _layout(n)
    degrees = list(itertools.product(range(4), repeat=n))
    monos = [
        tuple(sorted(
            (v, pw) for v, pw in ((qvar(1), a), (qvar(2), b), (pivar(1, 1), c)) if pw
        ))
        for a in range(4) for b in range(3) for c in range(2)
    ]
    for outer, inner in ((degrees, monos), (monos, degrees)):
        _leibniz.cache_clear()
        for x in outer:
            for y in inner:
                alpha, mono = (x, y) if outer is degrees else (y, x)
                alpha_key = sum(du * d for (du, _), d in zip(units, alpha))
                mono_key = pack_term(mono, (), n)[0]
                got = {}
                for delta, weight in _leibniz(n, alpha_key, mono_key & q_mask):
                    lowered, sym, derivs = unpack_term(alpha_key + mono_key - delta, n)
                    assert sym == ()
                    rest = tuple(dict(derivs).get(i, 0) for i in range(1, n + 1))
                    got[(rest, lowered)] = weight
                assert got == ref_leibniz(alpha, mono)


# -- the integer form against the Poly view ------------------------------------------


@KERNEL_SETTINGS
@given(operator_tuples(2))
def test_lazy_views_equal_eager_operators(ops):
    # a kernel result holds only its integer form; its view, unpacked on
    # first read, equals the operator built eagerly from Polys
    a, b = ops
    ab, ba = ref_op_compose(a, b), ref_op_compose(b, a)
    for got, ref in (
        (op_compose(a, b), ab),
        (commutator(a, b), DiffOperator(a.n, (LinComb(ab.terms) - LinComb(ba.terms)).terms)),
    ):
        assert got._view is None
        assert got.terms == ref.terms
        assert DiffOperator(a.n, got.terms) == got


@KERNEL_SETTINGS
@given(operator_tuples(2), COEFFICIENTS)
def test_integer_linear_structure_matches_the_views(ops, c):
    # +, -, scale, == and is_zero on integer forms against LinComb on the views
    a, b = ops
    va, vb = LinComb(a.terms), LinComb(b.terms)
    assert (a + b).terms == (va + vb).terms
    assert (a - b).terms == (va - vb).terms
    assert (-a).terms == (-va).terms
    assert a.scale(c).terms == va.scale(c).terms
    assert a.scale(0).is_zero() and a.scale(1) == a
    assert (a == b) == (va == vb)
    assert a == DiffOperator(a.n, dict(a.terms)) and (a - a).is_zero()
    assert a.is_zero() == va.is_zero() == (not a)
    assert zero_free_operator(a + b) and zero_free_operator(a.scale(c))


def test_operator_powers_at_the_field_bound():
    n = 2

    def q1(power):
        return DiffOperator.multiplication(n, Poly.var(qvar(1), power))

    # every field holds POWER_BOUND: a power there survives the round trip
    assert POWER_BOUND == 255
    at = op_compose(q1(200), q1(55))
    assert at.terms == {(0, 0): Poly.var(qvar(1), 255)}
    d = DiffOperator(n, {(255, 0): Poly.var(pivar(1, 2), 255).scale(Scalar.symbol("A2", 255))})
    assert op_compose(d, DiffOperator.identity(n)).terms == d.terms
    # one step past it is refused, before any field can carry
    past = [
        lambda: op_compose(q1(200), q1(56)),
        lambda: commutator(q1(56), q1(200)),
        lambda: q1(200).scale(Scalar.symbol(IHBAR, 56)),
        lambda: q1(256),
        lambda: DiffOperator(n, {(256, 0): Poly.constant(1)}),
        lambda: DiffOperator.multiplication(n, Poly.constant(Scalar.symbol(IHBAR, 256))),
    ]
    for build in past:
        with pytest.raises(EngineError, match="past the 255"):
            build()


def _dirac_q2_pairs(n):
    """The pairs of the dirac-q2 suite at its default seed."""
    rng = random.Random(7)
    generators, monos = b1_monomials(n, 2), b1_monomials(n, 3)
    pairs = list(itertools.product(generators, generators))
    return pairs + [(rng.choice(monos), rng.choice(monos)) for _ in range(100)]


def _corrupted_maps(n):
    corruption = {(pitag(1), rtag(1)): DiffOperator.identity(n)}
    return [
        QuantizationMap("q1-corrupt", n, kill_rank=2, overrides=corruption),
        QuantizationMap("q2-corrupt", n, kill_rank=3, overrides=corruption),
        QuantizationMap(
            "q1-corrupt-cubic",
            n,
            kill_rank=2,
            overrides={**corruption, (pitag(1), pitag(n), qtag(1, 1)): DiffOperator.derivative(n, n)},
        ),
    ]


def test_integer_dirac_comparison_matches_operator_equality():
    n = 2
    for qmap in [make_q2(n)] + _corrupted_maps(n):
        failed = 0
        for m1, m2 in _dirac_q2_pairs(n):
            f, g = Observable(n, {m1: 1}), Observable(n, {m2: 1})
            lhs = commutator(quantize(qmap, f), quantize(qmap, g))
            rhs = quantize(qmap, bracket(f, g)).scale(Scalar.symbol(IHBAR))
            residual = _dirac_residual(qmap, f, g, None)
            assert (residual is None) == (lhs == rhs) == (lhs.terms == rhs.terms)
            assert dirac_check(qmap, f, g) == (residual is None)
            if residual is not None:
                failed += 1
                assert residual == lhs - rhs and residual.terms == (lhs - rhs).terms
        assert (failed == 0) == (qmap.label == "q2"), qmap.label


def test_memoized_images_equal_fresh_ones():
    for n in (1, 2, 3):
        maps = [make_q1(n), make_q2(n), _corrupted_maps(n)[0]]
        for mono in b1_monomials(n, 3):
            for qmap in maps:
                image = qmap.image_of_monomial(mono)
                assert image == qmap.build_image(mono)
                assert image.terms == qmap.build_image(mono).terms
                assert qmap.image_of_monomial(mono) is image


def test_a_corrupted_map_never_sees_a_clean_maps_images():
    n = 2
    mono = (pitag(1), rtag(1))
    clean = make_q1(n)
    for m in b1_monomials(n, 3):
        clean.image_of_monomial(m)
    overrides = {mono: DiffOperator.identity(n)}
    bad = QuantizationMap("q1-corrupt", n, kill_rank=2, overrides=overrides)
    assert bad.image_of_monomial(mono) == DiffOperator.identity(n)
    assert quantize(bad, Observable(n, {mono: 1})) == DiffOperator.identity(n)
    assert not dirac_check(bad, make_qhat(n, 1, 1), sym_pow(make_pihat(n, 1), 2))
    # and the clean map never sees the corrupted map's images
    assert clean.image_of_monomial(mono).is_zero()
    assert dirac_check(clean, make_qhat(n, 1, 1), sym_pow(make_pihat(n, 1), 2))
    # the overrides are copied and read-only, so the memo cannot go stale
    overrides[mono] = DiffOperator.zero(n)
    assert bad.image_of_monomial(mono) == bad.build_image(mono) == DiffOperator.identity(n)
    with pytest.raises(TypeError):
        bad.overrides[mono] = DiffOperator.zero(n)


@pytest.mark.parametrize("mono", [(qtag(1, 2),), (qtag(1, 2), qtag(1, 2)), (pitag(1), rtag(2))])
def test_membership_memo_keeps_refusing_outside_the_basic_algebra(mono):
    # membership is per slot: after mono is accepted as a member of the
    # slot-2 algebra, and after a warm quantize of every basic monomial,
    # quantize on the full bundle (slot 1) still refuses it on every call,
    # also when q1 kills it by rank
    n = 2
    q1 = make_q1(n)
    for m in b1_monomials(n, 3):
        quantize(q1, Observable(n, {m: 1}))
    Observable(n, {mono: 1}, slot=2)
    assert in_b1_algebra(Observable(n, {mono: 1}), 2)
    outside = Observable(n, {mono: 1})
    for _ in range(3):
        assert not in_b1_algebra(outside)
        with pytest.raises(NotInGeneratorAlgebra):
            quantize(q1, outside)
    # a monomial outside the algebra refuses a sum whose other terms are members
    with pytest.raises(NotInGeneratorAlgebra):
        quantize(q1, Observable(n, {(pitag(1),): 1, mono: 3}))


def test_passing_dirac_cases_form_no_label(monkeypatch):
    # a case label prints both observables; only a failure keeps it
    from nsq import suites
    from nsq.algebra import Observable as Obs

    def refuse(self):
        raise AssertionError("label formed for a passing case")

    report = suites.run_suite("dirac-q1", 2)
    monkeypatch.setattr(Obs, "__repr__", refuse)
    again = suites.run_suite("dirac-q1", 2)
    assert again.all_passed and again.cases == report.cases == 55 * 55


# -- constructor validation --------------------------------------------------------


def test_derivative_index_is_checked():
    assert DiffOperator.derivative(2, 2) == DiffOperator(2, {(0, 1): Poly.constant(1)})
    for k in (0, 3, -1, 1.0, True):
        with pytest.raises(IndexRangeError):
            DiffOperator.derivative(2, k)


def test_negative_or_non_integer_degree_is_refused():
    q1 = Poly.var(qvar(1))
    for degree in ((-1, 0), (0, -2), (1.0, 0), (Fraction(1, 2), 0), ("1", 0), (True, 0), (0, False)):
        with pytest.raises(EngineError, match="derivative degree"):
            DiffOperator(2, {degree: q1})
    with pytest.raises(EngineError, match="length"):
        DiffOperator(2, {(1,): q1})
    # a degree is checked before its zero coefficient is dropped
    with pytest.raises(EngineError, match="natural numbers"):
        DiffOperator(2, {(0, 0): q1, (-1, 0): Poly.zero()})
    assert DiffOperator(2, {(0, 0): q1, (1, 0): Poly.zero()}).terms == {(0, 0): q1}


@pytest.mark.parametrize("slot", [0, 3, 9, True, 1.0])
def test_membership_refuses_a_slot_out_of_range(slot):
    # the slot is checked before any term, so neither a warm call nor an
    # observable without terms answers for it; True and 1.0 equal 1 but
    # are no slot 1, so only the exact int 1 skips the check
    n = 2
    f = make_pihat(n, 1)
    for _ in range(2):
        with pytest.raises(IndexRangeError, match=f"index {slot} out of range 1..{n}"):
            in_b1_algebra(f, slot)
    with pytest.raises(IndexRangeError, match=f"index {slot} out of range 1..{n}"):
        in_b1_algebra(Observable.zero(n), slot)
    assert in_b1_algebra(f, n)
    assert in_b1_algebra(make_qhat(n, 2, 1), 1)
    assert in_b1_algebra(Observable.zero(n), 1) and in_b1_algebra(Observable.zero(1))
    # the same monomial at a dimension where slot 3 exists is a member there
    if slot == 3:
        assert in_b1_algebra(make_pihat(3, 1), 3)
        with pytest.raises(IndexRangeError):
            in_b1_algebra(f, slot)


def test_a_killed_bracket_still_checks_the_commutator():
    # Q({f, g}) is zero whenever q1 kills the bracket's rank-2 monomials, and
    # the residual is then the commutator itself: a nonzero override at rank 2
    # must still fail, with that commutator as the residual
    n = 2
    f, g = make_pihat(n, 1), sym_pow(make_qhat(n, 1, 1), 2)
    q1 = make_q1(n)
    assert quantize(q1, bracket(f, g)) is DiffOperator.zero(n)
    assert dirac_check(q1, f, g) and _dirac_residual(q1, f, g, None) is None
    square = DiffOperator.multiplication(n, Poly.var(qvar(1), 2))
    bad = QuantizationMap("q1-corrupt", n, kill_rank=2, overrides={(qtag(1, 1), qtag(1, 1)): square})
    assert quantize(bad, bracket(f, g)).is_zero()
    residual = _dirac_residual(bad, f, g, None)
    assert residual == commutator(_pop(n, 1), square) and residual == _qop(n, 1).scale(Scalar.symbol(IHBAR) * -2)
    assert not dirac_check(bad, f, g)


def test_shared_zeros_stay_zero_after_a_full_verify(capsys):
    # every killed image and every empty kernel result is the shared zero of
    # its class; a full verify run must leave it unchanged
    from nsq import cli
    from nsq.forms import HamVF

    zeros = [cls.zero(n) for cls in (DiffOperator, HamVF) for n in (1, 2, 3)]
    assert all(cls.zero(n) is cls.zero(n) for cls in (DiffOperator, HamVF) for n in (1, 2, 3))
    assert quantize(make_q1(2), sym_pow(make_pihat(2, 1), 2)) is DiffOperator.zero(2)
    assert cli.main(["verify", "--suite", "all", "-n", "2"]) == 0
    capsys.readouterr()
    for zero in zeros:
        assert zero.is_zero() and not zero.terms and zero._den == 1 and zero._top == 0
        zero.terms[()] = "written"  # a zero's view is a fresh map each time it is read
        assert zero._nums == {} and zero.terms == {} and zero._view is None
    assert zeros == [cls.zero(n) for cls in (DiffOperator, HamVF) for n in (1, 2, 3)]
