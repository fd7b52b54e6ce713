"""Operator algebra, the two quantization maps, and the axiom machinery."""

import random
from fractions import Fraction

import pytest

from nsq.algebra import make_pihat, make_qhat, make_rhat, sym_mul, sym_pow
from nsq.errors import DimensionMismatch, NotInGeneratorAlgebra
from nsq.quantization import (
    AxiomReport,
    DiffOperator,
    QuantizationMap,
    axiom_report,
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
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import IHBAR, Scalar
from nsq.suites import random_b1_monomial


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


def test_b1_monomial_count():
    # 5 generators at n=2: 5 + 15 + 35 monomials through degree 3
    assert len(b1_monomials(2, 3)) == 55


def test_dirac_failures_carry_the_residual(monkeypatch):
    from nsq import suites
    from nsq.algebra import Observable, monomial_str, pitag, rtag
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
            pairs[f"dirac ({monomial_str(m1)}, {monomial_str(m2)})"] = (f, g)
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
