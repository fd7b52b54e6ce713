"""Cotangent-bundle reference algebra and the ordering obstruction witness."""

import itertools
import random
from fractions import Fraction

from nsq.polynomials import Poly, pvar, qvar
from nsq.quantization import DiffOperator, commutator
from nsq.scalars import IHBAR, Scalar
from nsq.symplectic_ref import (
    classical_bracket,
    groenewold_witness,
    lift_symplectic,
    sp_p,
    sp_q,
    symplectic_table,
    tables_correspond,
    weyl_quantize,
    weyl_quantize_brute,
)

# Golden value computed by the brute-force word-average oracle
# (weyl_quantize_brute) before being frozen here: the witness is
# (1/3) * IHBAR^2 times the identity, i.e. -hbar^2/3.
WITNESS_COEFF = Scalar.symbol(IHBAR, 2) * Scalar.of(Fraction(1, 3))


def test_classical_bracket_examples():
    assert classical_bracket(sp_q(1), sp_p(1), 1) == Poly.constant(1)
    assert classical_bracket(sp_q(1), sp_p(2), 2).is_zero()
    assert classical_bracket(sp_q(1) ** 2, sp_p(1) ** 2, 1) == (
        sp_q(1) * sp_p(1)
    ).scale(4)
    assert classical_bracket(sp_q(1) ** 3, sp_p(1) ** 3, 1) == (
        sp_q(1) ** 2 * sp_p(1) ** 2
    ).scale(9)
    assert classical_bracket(sp_q(1) ** 2 * sp_p(1), sp_q(1) * sp_p(1) ** 2, 1) == (
        sp_q(1) ** 2 * sp_p(1) ** 2
    ).scale(3)


def test_golden_table_all_lines():
    for n in (2, 3):
        for label, f, g, expected in symplectic_table(n):
            assert classical_bracket(f, g, n) == expected, label


def test_classical_bracket_laws():
    rng = random.Random(14)
    n = 2

    def rand_poly():
        out = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            term = Poly.constant(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3)):
                v = rng.choice([qvar(1), qvar(2), pvar(1), pvar(2)])
                term = term * Poly.var(v)
            out = out + term
        return out

    for _ in range(20):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert classical_bracket(f, g, n) == -classical_bracket(g, f, n)
        jac = (
            classical_bracket(f, classical_bracket(g, h, n), n)
            + classical_bracket(g, classical_bracket(h, f, n), n)
            + classical_bracket(h, classical_bracket(f, g, n), n)
        )
        assert jac.is_zero()
        # Leibniz in the second slot
        assert classical_bracket(f, g * h, n) == (
            classical_bracket(f, g, n) * h + g * classical_bracket(f, h, n)
        )


def test_weyl_examples():
    n = 1
    assert weyl_quantize(sp_q(1), n) == DiffOperator.multiplication(
        n, Poly.var(qvar(1))
    )
    assert weyl_quantize(sp_p(1), n) == DiffOperator.derivative(
        n, 1, -Scalar.symbol(IHBAR)
    )
    # the mixed quadratic: half the anticommutator of q and the momentum
    qop = DiffOperator.multiplication(n, Poly.var(qvar(1)))
    pop = DiffOperator.derivative(n, 1, -Scalar.symbol(IHBAR))
    from nsq.quantization import op_compose

    expected = (op_compose(qop, pop) + op_compose(pop, qop)).scale(Fraction(1, 2))
    assert weyl_quantize(sp_q(1) * sp_p(1), n) == expected


def test_weyl_matches_brute_force():
    # every one-mode monomial q^m p^k of total degree <= 6
    for m, k in itertools.product(range(7), repeat=2):
        if m + k <= 6:
            poly = sp_q(1) ** m * sp_p(1) ** k
            assert weyl_quantize(poly, 1) == weyl_quantize_brute(poly, 1), (m, k)
    # every monomial q1^a q2^b p1^c p2^d of total degree <= 4 at n=2
    n = 2
    letters = [sp_q(1), sp_q(2), sp_p(1), sp_p(2)]
    powers = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    assert len(powers) == 70
    for exponents in powers:
        poly = Poly.constant(1)
        for letter, e in zip(letters, exponents):
            poly = poly * letter**e
        assert weyl_quantize(poly, n) == weyl_quantize_brute(poly, n), exponents
    # a two-mode case of degree 5, beyond the sweep
    poly = sp_q(1) * sp_p(1) ** 2 * sp_q(2) ** 2
    assert weyl_quantize(poly, 2) == weyl_quantize_brute(poly, 2)


def test_groenewold_witness_golden():
    w = groenewold_witness()
    assert not w.is_zero()
    assert w.ihbar_degree() == 2
    assert w == DiffOperator.multiplication(1, Poly.constant(WITNESS_COEFF))
    # the brute-force oracle agrees with the McCoy route, also in two modes
    assert groenewold_witness(brute=True) == w
    w2 = groenewold_witness(2)
    assert w2 == DiffOperator.multiplication(2, Poly.constant(WITNESS_COEFF))
    assert groenewold_witness(2, brute=True) == w2


def test_weyl_is_bracket_compatible_at_low_degree():
    # degree <= 2 polynomials quantize consistently; the witness needs cubics
    n = 1
    pairs = [
        (sp_q(1), sp_p(1)),
        (sp_q(1) ** 2, sp_p(1)),
        (sp_q(1) ** 2, sp_p(1) ** 2),
        (sp_q(1) * sp_p(1), sp_p(1) ** 2),
    ]
    ih = Scalar.symbol(IHBAR)
    for f, g in pairs:
        lhs = commutator(weyl_quantize(f, n), weyl_quantize(g, n))
        rhs = weyl_quantize(classical_bracket(f, g, n), n).scale(ih)
        assert lhs == rhs


def test_tables_correspond():
    assert tables_correspond(2)


def test_lift_symplectic():
    from nsq.algebra import make_pihat, make_qhat, make_rhat, sym_mul

    n = 2
    lifted = lift_symplectic(sp_q(1) * sp_p(2), n, 3)
    expected = sym_mul(
        sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2)), make_rhat(n, 1)
    )
    assert lifted == expected
