"""Cross-module consistency probes beyond the low-degree sweeps."""

import random
from fractions import Fraction

from nsq.algebra import Observable, make_pihat, make_qhat, pitag, qtag, rtag
from nsq.basic_sets import HLElement, adjoint_generator
from nsq.forms import ham_vf, lie_preserves_form, structure_eq_check
from nsq.poisson import bracket
from nsq.quantization import (
    DiffOperator,
    dirac_check,
    formal_adjoint,
    make_q1,
    make_q2,
    op_compose,
)
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import IHBAR, Scalar


def _random_monomial(n, rng, degree):
    tags = (
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )
    mono = tuple(sorted(rng.choice(tags) for _ in range(degree)))
    return Observable(n, {mono: Scalar.one()})


def test_structure_equation_degree_four_and_five():
    rng = random.Random(101)
    for n in (2, 3):
        for degree in (4, 5):
            for _ in range(5):
                f = _random_monomial(n, rng, degree)
                assert structure_eq_check(f, ham_vf(f))
                assert lie_preserves_form(ham_vf(f))


def test_bracket_routes_agree_at_degree_four():
    # bracket() asserts the two computation routes agree internally;
    # calling it on higher-degree samples exercises that assertion.
    rng = random.Random(102)
    for n in (2, 3):
        for _ in range(8):
            f = _random_monomial(n, rng, rng.randint(3, 4))
            g = _random_monomial(n, rng, rng.randint(1, 3))
            result = bracket(f, g)
            assert result.is_zero() or result.rank() == f.rank() + g.rank() - 1


def test_dirac_holds_beyond_the_degree_cap():
    rng = random.Random(103)
    n = 2
    q1m, q2m = make_q1(n), make_q2(n)
    b1tags = [qtag(i, 1) for i in (1, 2)] + [pitag(1), pitag(2), rtag(1)]
    for _ in range(10):
        d1, d2 = rng.randint(4, 5), rng.randint(1, 4)
        f = Observable(n, {tuple(sorted(rng.choice(b1tags) for _ in range(d1))): Scalar.one()})
        g = Observable(n, {tuple(sorted(rng.choice(b1tags) for _ in range(d2))): Scalar.one()})
        assert dirac_check(q1m, f, g)
        assert dirac_check(q2m, f, g)


def test_adjoint_is_anti_homomorphism():
    n = 2
    rng = random.Random(104)
    pool = [
        DiffOperator.multiplication(n, Poly.var(qvar(1))),
        DiffOperator.multiplication(n, Poly.var(pivar(1, 2))),
        DiffOperator.derivative(n, 1, -Scalar.symbol(IHBAR)),
        DiffOperator.derivative(n, 2),
        DiffOperator.multiplication(n, Poly.var(qvar(2)) * Poly.var(qvar(2))),
    ]
    for _ in range(15):
        a, b = rng.choice(pool), rng.choice(pool)
        assert formal_adjoint(op_compose(a, b)) == op_compose(
            formal_adjoint(b), formal_adjoint(a)
        )
        assert formal_adjoint(formal_adjoint(a)) == a


def test_adjoint_action_matches_generator_brackets():
    # The adjoint action on the momentum directions reproduces the
    # generator bracket table {qhat(i,j), pihat(k)} = delta(i,k) rhat(j).
    n = 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                xi = HLElement(n, qcoef={(i, j): Fraction(1)})
                m = HLElement(n, pcoef={k: Fraction(1)})
                coeffs = adjoint_generator(xi, m)
                expected_obs = bracket(make_qhat(n, i, j), make_pihat(n, k))
                expected = {j: Fraction(1)} if i == k else {}
                assert coeffs == expected
                rebuilt = Observable(
                    n, {(("r", b),): Scalar.of(c) for b, c in coeffs.items()}
                )
                assert rebuilt == expected_obs


def test_scalar_coefficients_flow_through_brackets():
    # brackets are bilinear over the full scalar ring, symbols included
    n = 2
    a1 = Scalar.symbol("A1")
    f = make_qhat(n, 1, 1).scale(a1)
    g = make_pihat(n, 1).scale(Fraction(2, 3))
    got = bracket(f, g)
    expected = bracket(make_qhat(n, 1, 1), make_pihat(n, 1)).scale(
        a1 * Scalar.of(Fraction(2, 3))
    )
    assert got == expected
