"""Slice geometry, structure group, reduction and the slice bracket."""

import random
from fractions import Fraction

import pytest

from nsq.algebra import (
    FramePoint,
    Observable,
    make_pihat,
    make_qhat,
    make_rhat,
    pitag,
    qtag,
    rtag,
    sym_mul,
    sym_pow,
)
from nsq.errors import DimensionMismatch, NotInGeneratorAlgebra
from nsq.poisson import bracket
from nsq.forms import TwoForm, ham_vf, soldering_dtheta, structure_eq_check
from nsq.polynomials import Poly, pivar, qvar
from nsq.subbundle import (
    G1Element,
    SubbundlePoint,
    frame_from_params,
    g1_embed,
    g1_identity,
    g1_inv,
    g1_mul,
    gauge_fix_for_B1,
    pullback_two_form,
    reduce_observable,
    reduced_bracket,
    reduction_homomorphism_check,
    right_action,
    slice_check,
    substituted_components,
    tangency_check,
    two_form_rank,
)
from nsq.suites import random_b1_monomial


def test_slice_check():
    assert slice_check(FramePoint.identity(2))
    u = FramePoint((0, 0), [[3, 5], [0, 1]])
    assert slice_check(u)
    assert not slice_check(FramePoint((0, 0), [[1, 0], [0, 2]]))


def test_frame_from_params():
    p0 = SubbundlePoint((0, 0), 1, (0,))
    assert frame_from_params(p0) == FramePoint.identity(2)

    p = SubbundlePoint((0, 0), 2, (3,))
    u = frame_from_params(p)
    assert u.pi == ((Fraction(1, 2), Fraction(-3, 2)), (Fraction(0), Fraction(1)))
    assert slice_check(u)
    from nsq.linalg import exact_det

    assert exact_det([list(r) for r in u.pi]) == Fraction(1, 2)  # det(pi) = 1/alpha

    with pytest.raises(ValueError):
        SubbundlePoint((0, 0), 0, (1,))


def test_g1_group_laws():
    n = 2
    e = g1_identity(n)
    g = G1Element(2, (1,))
    h = G1Element(3, (4,))
    assert g1_mul(e, g) == g
    assert g1_mul(g, h) == G1Element(6, (9,))
    assert g1_mul(g, g1_inv(g)) == e
    # associativity on a few random triples
    rng = random.Random(6)
    for _ in range(10):
        a, b, c = (
            G1Element(
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2])),
                (Fraction(rng.randint(-3, 3)),),
            )
            for _ in range(3)
        )
        assert g1_mul(g1_mul(a, b), c) == g1_mul(a, g1_mul(b, c))


def test_right_action():
    n = 2
    u = frame_from_params(SubbundlePoint((1, 2), 2, (3,)))
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert right_action(u, ident) == u

    g = g1_embed(G1Element(5, (7,)), n)
    assert slice_check(right_action(u, g))

    assert not slice_check(right_action(u, [[1, 0], [0, 2]]))
    with pytest.raises(ValueError):
        right_action(u, [[1, 1], [1, 1]])


def test_pullback_two_form():
    for n in (1, 2, 3):
        pulled = pullback_two_form(n)
        assert pulled == soldering_dtheta(n, 1)
        assert pulled[1] == TwoForm(
            {(pivar(1, j), qvar(j)): Poly.constant(1) for j in range(1, n + 1)}
        )
        for i in range(2, n + 1):
            assert pulled[i].is_zero()
        assert two_form_rank(pulled[1], n) == 2 * n
        for slot in range(1, n + 1):
            assert soldering_dtheta(n, slot) == pullback_two_form(n, slot)


def test_tangency_and_gauge_fix():
    n = 2
    pi1 = make_pihat(n, 1)
    assert tangency_check(ham_vf(pi1))

    f = sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2))
    assert tangency_check(gauge_fix_for_B1(f))

    # a position generator of another slot points off the slice
    assert not tangency_check(ham_vf(make_qhat(n, 1, 2)))
    with pytest.raises(NotInGeneratorAlgebra):
        gauge_fix_for_B1(make_qhat(n, 1, 2))


def test_gauge_fix_random_monomials():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(25):
            f = random_b1_monomial(n, rng)
            assert tangency_check(gauge_fix_for_B1(f))


def test_reduce_observable():
    n = 2
    q11 = make_qhat(n, 1, 1)
    red_q = reduce_observable(q11)
    assert red_q.component((1,)) == Poly.var(qvar(1))

    red_pi2 = reduce_observable(make_pihat(n, 2))
    assert red_pi2.component((1,)) == Poly.var(pivar(1, 2))
    assert red_pi2.component((2,)) == Poly.constant(1)

    got = reduced_bracket(red_q, reduce_observable(make_pihat(n, 1)))
    assert got == reduce_observable(make_rhat(n, 1))
    got0 = reduced_bracket(red_q, Observable(n, red_pi2.terms, slot=1))
    assert got0.is_zero()

    with pytest.raises(NotInGeneratorAlgebra):
        reduce_observable(make_qhat(n, 1, 2))
    with pytest.raises(NotInGeneratorAlgebra, match="outside the slot-1 basic algebra"):
        Observable(n, {(("q", 1, 2),): 1}, slot=1)

    # a slice observable prints its generators by their slice names
    f = Observable(n, {(pitag(2), qtag(1, 1)): 1, (rtag(1),): Fraction(-1, 2)}, slot=1)
    assert repr(f) == "Pih(2)*Qh(1) - 1/2 rh"
    assert f == reduce_observable(Observable(n, f.terms))

    # the slice rhat is not the upstairs rhat, though the tags agree
    assert reduce_observable(make_rhat(n, 1)) != make_rhat(n, 1)


def test_reduction_matches_substitution():
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(15):
            f = random_b1_monomial(n, rng)
            assert reduce_observable(f).components == substituted_components(f)


def test_reduction_homomorphism():
    rng = random.Random(34)
    for n in (2, 3):
        for _ in range(20):
            f, g = random_b1_monomial(n, rng), random_b1_monomial(n, rng)
            assert reduction_homomorphism_check(f, g)
        assert reduction_homomorphism_check(sym_mul(f, g), g, gauge_seed=11)

    n = 3
    for slot in (2, 3):
        tags = [qtag(i, slot) for i in range(1, n + 1)]
        tags += [pitag(k) for k in range(1, n + 1)] + [rtag(slot)]
        for _ in range(20):
            f, g = (
                Observable(n, {tuple(sorted(rng.choices(tags, k=rng.randint(1, 3)))): 1})
                for _ in range(2)
            )
            assert reduction_homomorphism_check(f, g, slot=slot)


def test_reduced_structure_equation():
    rng = random.Random(55)
    n = 2
    for _ in range(20):
        f = reduce_observable(random_b1_monomial(n, rng))
        assert structure_eq_check(f, ham_vf(f))
    # degree-3 sanity: the p!-normalization is the one that closes
    f3 = reduce_observable(sym_pow(make_qhat(n, 1, 1), 3))
    assert structure_eq_check(f3, ham_vf(f3))


def test_slice_structure_equation_every_slot():
    # the two-form comes from the observable's slot
    n = 2
    q1, pi1, pi2 = make_qhat(n, 1, 1), make_pihat(n, 1), make_pihat(n, 2)
    for f in (pi1, pi2, sym_mul(pi2, q1)):
        red = reduce_observable(f)
        assert structure_eq_check(red, ham_vf(red)), red
    rng = random.Random(89)
    for n in (2, 3):
        for slot in range(1, n + 1):
            for _ in range(10):
                f = Observable(n, {random_slice_monomial(n, slot, rng): 1}, slot=slot)
                assert structure_eq_check(f, ham_vf(f)), f


def random_slice_monomial(n, slot, rng):
    tags = [qtag(i, slot) for i in range(1, n + 1)]
    tags += [pitag(k) for k in range(1, n + 1)] + [rtag(slot)]
    return tuple(rng.choices(tags, k=rng.randint(1, 3)))


def test_other_slots():
    n = 3
    slot = 2
    u = FramePoint(
        (0, 0, 0),
        [[1, 0, 0], [Fraction(1, 2), 4, Fraction(-2)], [0, 0, 1]],
    )
    assert slice_check(u, slot=slot)
    assert not slice_check(u, slot=1)

    f = sym_mul(make_qhat(n, 3, slot), make_pihat(n, 1))
    assert tangency_check(gauge_fix_for_B1(f, slot=slot), slot=slot)
    red = reduce_observable(f, slot=slot)
    assert red.component((1, 2)) == Poly.var(qvar(3)).scale(Fraction(1, 2))
    assert red.component((2, 2)) == Poly.var(qvar(3)) * Poly.var(pivar(2, 1))

    # brackets never mix slices, nor a slice with the full bundle
    with pytest.raises(DimensionMismatch):
        reduced_bracket(red, reduce_observable(make_pihat(n, 1), slot=1))
    with pytest.raises(DimensionMismatch):
        reduced_bracket(red, make_pihat(n, 1))
    with pytest.raises(DimensionMismatch):
        bracket(make_pihat(n, 1), red)

    pulled = pullback_two_form(n, slot=slot)
    assert pulled[slot] == TwoForm(
        {(pivar(slot, j), qvar(j)): Poly.constant(1) for j in range(1, n + 1)}
    )
    assert pulled[1].is_zero() and pulled[3].is_zero()
