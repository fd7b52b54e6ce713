"""Heisenberg-like algebra, momentum components and basic-set axioms."""

import random
from fractions import Fraction

import pytest

from nsq.algebra import FramePoint, Observable, make_qhat, make_rhat, sym_pow
from nsq.basic_sets import (
    BasicSet,
    HLElement,
    adjoint_generator,
    bracket_table,
    hl_bracket,
    make_b1,
    make_bL,
    momentum_components,
    momentum_map_condition_check,
    verify_complete,
    verify_separating,
    verify_transitive,
)
from nsq.errors import EngineError, NotInGeneratorAlgebra
from nsq.suites import random_frame_point, random_slice_point


def test_hl_bracket_examples():
    n = 2
    e_q = HLElement(n, qcoef={(1, 1): Fraction(1)})
    e_pi = HLElement(n, pcoef={1: Fraction(1)})
    e_pi2 = HLElement(n, pcoef={2: Fraction(1)})
    e_r = HLElement(n, center={2: Fraction(1)})

    assert hl_bracket(e_q, e_r).is_zero()

    lb = hl_bracket(e_q, e_pi)
    # engine orientation: the value is minus the center direction rhat(1)
    assert lb.qcoef == {} and lb.pcoef == {}
    assert lb.center == {1: Fraction(-1)}

    assert hl_bracket(e_pi, e_pi2).is_zero()


def test_hl_bracket_antisymmetric_and_central():
    n = 2
    rng = random.Random(4)
    basis = [
        HLElement(n, qcoef={(i, j): Fraction(1)})
        for i in (1, 2)
        for j in (1, 2)
    ] + [HLElement(n, pcoef={k: Fraction(1)}) for k in (1, 2)]
    for x in basis:
        for y in basis:
            xy = hl_bracket(x, y)
            yx = hl_bracket(y, x)
            assert {k: -v for k, v in xy.center.items()} == yx.center
            # double bracket with anything vanishes: the center is central
            assert hl_bracket(xy, x).is_zero()


def test_adjoint_generator_examples():
    n = 2
    xi = HLElement(n, qcoef={(1, 1): Fraction(1)})
    m = HLElement(n, pcoef={1: Fraction(1)})
    assert adjoint_generator(xi, m) == {1: Fraction(1)}

    xi_p = HLElement(n, pcoef={1: Fraction(1)})
    m_p = HLElement(n, pcoef={2: Fraction(1)})
    assert adjoint_generator(xi_p, m_p) == {}

    xi_q = HLElement(n, qcoef={(1, 2): Fraction(1)})
    m_q = HLElement(n, qcoef={(2, 1): Fraction(1)})
    assert adjoint_generator(xi_q, m_q) == {}


def test_momentum_components():
    n = 2
    comps = momentum_components(n)
    assert len(comps["J_q"]) == 4
    assert len(comps["J_pi"]) == 2
    assert len(comps["J_r"]) == 2
    from nsq.forms import ham_vf

    for obs in comps["J_r"]:
        assert ham_vf(obs).is_zero()
    assert momentum_map_condition_check(2)
    assert momentum_map_condition_check(3)


def test_basic_set_sizes_and_table():
    n = 2
    bL, b1 = make_bL(n), make_b1(n)
    assert len(bL.generators) == 8   # n^2 + n + n
    assert len(b1.generators) == 5   # n + n + 1

    # b1 closes with Heisenberg relations only
    table = bracket_table(b1)
    nonzero = {pair: val for pair, val in table.items() if not val.is_zero()}
    assert set(nonzero) == {("qh(1,1)", "pih(1)"), ("qh(2,1)", "pih(2)")}
    for val in nonzero.values():
        assert val == make_rhat(n, 1)

    # b_L: the only nonzero brackets are {qh(i,j), pih(k)} = delta(i,k) rh(j)
    tL = bracket_table(bL)
    for (na, nb), val in tL.items():
        if na.startswith("qh") and nb.startswith("pih"):
            i, j = map(int, na[3:-1].split(","))
            k = int(nb[4:-1])
            expected = make_rhat(n, j) if i == k else Observable.zero(n)
            assert val == expected
        else:
            assert val.is_zero()


def test_transitivity():
    n = 2
    rng = random.Random(9)
    bL, b1 = make_bL(n), make_b1(n)
    points = [FramePoint.identity(n)] + [random_frame_point(n, rng) for _ in range(3)]
    assert verify_transitive(bL, points).all_passed

    slice_points = [random_slice_point(n, rng) for _ in range(3)]
    assert verify_transitive(b1, slice_points, on_B1=True).all_passed

    # the small set does not span the full bundle
    assert not verify_transitive(b1, points).all_passed

    # on the slice each generator is reduced, so one outside b_1 is refused
    with pytest.raises(NotInGeneratorAlgebra):
        verify_transitive(bL, slice_points, on_B1=True)


def test_separating():
    n = 2
    b1 = make_b1(n)
    u1 = FramePoint.identity(n)
    u2 = FramePoint.identity(n, q=(1, 0))
    u3 = FramePoint((0, 0), [[2, 0], [0, 1]])
    report = verify_separating(b1, [(u1, u2), (u1, u3)])
    assert report.all_passed
    with pytest.raises(EngineError):
        verify_separating(b1, [(u1, u1)])


def test_complete():
    n = 2
    assert verify_complete(make_bL(n)).all_passed
    assert verify_complete(make_b1(n)).all_passed

    q11 = make_qhat(n, 1, 1)
    quad = BasicSet("with-square", n, [sym_pow(q11, 2)], ["qh(1,1)^2"])
    report = verify_complete(quad)
    assert not report.all_passed
    assert "undetermined" in report.failures[0].actual
