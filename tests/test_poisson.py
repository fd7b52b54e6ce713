"""Bracket algebra: golden values, Jacobi, grading, ideals, gauge freedom."""

import random
from fractions import Fraction

import pytest

from nsq.algebra import (
    Observable,
    make_pihat,
    make_qhat,
    make_rhat,
    sym_mul,
    sym_pow,
)
from nsq.errors import NotInGeneratorAlgebra
from nsq.poisson import (
    bracket,
    grade_of_bracket,
    in_b1_algebra,
    is_in_Pk,
    jacobi_residual,
    min_rank,
    tensor_extension_identity_check,
    theorem1_check,
    theorem1_constant,
)
from nsq.suites import random_b1_monomial, random_full_monomial


def test_bracket_generator_relations():
    n = 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                got = bracket(make_qhat(n, i, j), make_pihat(n, k))
                expected = make_rhat(n, j) if i == k else Observable.zero(n)
                assert got == expected


def test_bracket_golden_powers():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    r1 = make_rhat(n, 1)
    assert bracket(sym_pow(q11, 2), sym_pow(pi1, 2)) == sym_mul(
        sym_mul(q11, pi1), r1
    ).scale(4)
    assert bracket(sym_pow(q11, 3), sym_pow(pi1, 3)) == sym_mul(
        sym_mul(sym_pow(q11, 2), sym_pow(pi1, 2)), r1
    ).scale(9)


def test_bracket_groenewold_pattern():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    r1 = make_rhat(n, 1)
    lhs = bracket(sym_mul(sym_pow(q11, 2), pi1), sym_mul(q11, sym_pow(pi1, 2)))
    assert lhs == sym_mul(sym_mul(sym_pow(q11, 2), sym_pow(pi1, 2)), r1).scale(3)


def test_bracket_groenewold_pattern_general_indices():
    # off the coincident pattern the full expansion carries a cross term:
    # {(qh_i)^2 pih_b, qh_a (pih_j)^2}
    #   = 4 d(i,j) qh_i qh_a pih_b pih_j rh1 - d(a,b) (qh_i)^2 (pih_j)^2 rh1
    n = 2
    i, b, a, j = 1, 2, 2, 1
    q_i, q_a = make_qhat(n, i, 1), make_qhat(n, a, 1)
    pi_b, pi_j = make_pihat(n, b), make_pihat(n, j)
    r1 = make_rhat(n, 1)
    lhs = bracket(sym_mul(sym_pow(q_i, 2), pi_b), sym_mul(q_a, sym_pow(pi_j, 2)))
    cross = sym_mul(sym_mul(sym_mul(sym_mul(q_i, q_a), pi_b), pi_j), r1).scale(4)
    diag = sym_mul(sym_mul(sym_pow(q_i, 2), sym_pow(pi_j, 2)), r1)
    assert lhs == cross - diag


def test_bracket_antisymmetry_random():
    rng = random.Random(2)
    for n in (2, 3):
        for _ in range(15):
            f, g = random_full_monomial(n, rng), random_full_monomial(n, rng)
            assert (bracket(f, g) + bracket(g, f)).is_zero()
            assert bracket(f, f).is_zero()


def test_jacobi_examples():
    n = 2
    q11, pi1, pi2, r1 = (
        make_qhat(n, 1, 1),
        make_pihat(n, 1),
        make_pihat(n, 2),
        make_rhat(n, 1),
    )
    assert jacobi_residual(q11, pi1, r1).is_zero()
    assert jacobi_residual(
        sym_mul(q11, pi1), sym_mul(pi1, pi2), make_qhat(n, 2, 2)
    ).is_zero()
    assert jacobi_residual(sym_pow(q11, 2), sym_pow(pi1, 2), q11).is_zero()
    assert jacobi_residual(sym_pow(q11, 2), sym_pow(pi1, 2), q11, gauge_seed=3).is_zero()


def test_theorem1_examples():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    assert theorem1_constant(1, 1) == 1
    assert theorem1_constant(2, 1) == 1
    assert theorem1_constant(2, 2) == Fraction(3, 2)
    assert theorem1_check(q11, pi1)
    assert theorem1_check(sym_pow(q11, 2), pi1)
    assert theorem1_check(sym_pow(q11, 2), sym_pow(pi1, 2))
    assert theorem1_check(sym_pow(q11, 2), sym_pow(pi1, 2), gauge_seed=5)


def test_grade_of_bracket():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    assert grade_of_bracket(q11, pi1)
    assert bracket(q11, pi1).rank() == 1
    f, g = sym_pow(q11, 2), sym_pow(pi1, 2)
    assert grade_of_bracket(f, g)
    assert bracket(f, g).rank() == 3
    assert grade_of_bracket(q11, sym_pow(pi1, 3))
    assert bracket(q11, sym_pow(pi1, 3)).rank() == 3
    assert grade_of_bracket(q11, make_qhat(n, 2, 1))
    assert bracket(q11, make_qhat(n, 2, 1)).is_zero()


def test_tensor_extension_identity():
    n = 2
    q11, pi1 = make_qhat(n, 1, 1), make_pihat(n, 1)
    assert tensor_extension_identity_check(q11, pi1, 1, 1)
    assert tensor_extension_identity_check(q11, pi1, 0, 0)
    assert tensor_extension_identity_check(sym_pow(q11, 2), pi1, 1, 0)
    rng = random.Random(8)
    for _ in range(10):
        f, g = random_b1_monomial(n, rng, 2), random_b1_monomial(n, rng, 2)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        assert tensor_extension_identity_check(f, g, k, l)


def test_min_rank_and_ideal_membership():
    n = 2
    q11, pi2 = make_qhat(n, 1, 1), make_pihat(n, 2)
    assert min_rank(q11) == 1
    assert not is_in_Pk(q11, 2)
    f = sym_mul(q11, pi2)
    assert min_rank(f) == 2
    assert is_in_Pk(f, 2)
    b = bracket(f, sym_mul(q11, make_pihat(n, 1)))
    assert is_in_Pk(b, 2) and is_in_Pk(b, 3)
    assert min_rank(Observable.zero(n)) is None
    assert is_in_Pk(Observable.zero(n), 5)
    with pytest.raises(NotInGeneratorAlgebra):
        is_in_Pk(make_qhat(n, 1, 2), 1)


def test_ideal_property_random():
    # bracketing the basic algebra against the rank-k ideal stays in the ideal
    rng = random.Random(31)
    n = 2
    for k in (2, 3):
        for _ in range(20):
            f = random_b1_monomial(n, rng)
            g = random_b1_monomial(n, rng, 1)
            for _ in range(k - 1):
                g = sym_mul(g, random_b1_monomial(n, rng, 1))
            assert g.min_rank() == k
            assert is_in_Pk(bracket(f, g), k)
            # sums with higher grades keep the membership
            tail = sym_mul(g, random_b1_monomial(n, rng, 1))
            assert is_in_Pk(bracket(f, g + tail), k)


def test_rank1_derivation_law():
    n = 2
    rng = random.Random(12)
    gens = [
        make_qhat(n, 1, 1),
        make_qhat(n, 2, 1),
        make_qhat(n, 1, 2),
        make_pihat(n, 1),
        make_pihat(n, 2),
        make_rhat(n, 1),
        make_rhat(n, 2),
    ]
    for _ in range(15):
        h = rng.choice(gens)
        f, g = random_full_monomial(n, rng, 2), random_full_monomial(n, rng, 2)
        lhs = bracket(h, sym_mul(f, g))
        rhs = sym_mul(bracket(h, f), g) + sym_mul(f, bracket(h, g))
        assert lhs == rhs


def test_bracket_gauge_independence():
    rng = random.Random(77)
    for n in (2, 3):
        for trial in range(10):
            f, g = random_full_monomial(n, rng), random_full_monomial(n, rng)
            plain = bracket(f, g)
            for gs in (5, 1000 + trial):
                assert bracket(f, g, gauge_seed=gs) == plain


def test_in_b1_algebra():
    n = 2
    assert in_b1_algebra(sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2)))
    assert not in_b1_algebra(make_qhat(n, 1, 2))
    assert not in_b1_algebra(make_rhat(n, 2))
    assert in_b1_algebra(make_qhat(n, 1, 2), slot=2)


def _double_first_component(monkeypatch, n):
    """Corrupt route 1: double the component at its first multi-index.

    Route 1 returns a flat map: each key holds its multi-index K in the low
    n fields, as the count of each index value.
    """
    from nsq import poisson
    from nsq.packed import _FIELD_MASK, FIELD_BITS

    real = poisson._route1_numerators

    def index(key):
        return tuple(j for j in range(1, n + 1) for _ in range(key >> FIELD_BITS * (j - 1) & _FIELD_MASK))

    def corrupted(*args):
        out = real(*args)
        K = min(map(index, out))
        return {key: 2 * c if index(key) == K else c for key, c in out.items()}

    monkeypatch.setattr(poisson, "_route1_numerators", corrupted)


def _assert_disagreement_named(monkeypatch, f, g, bracket_fn):
    from nsq.errors import EngineError

    good = bracket_fn(f, g)
    rank = good.rank()
    K = min(good.components[rank])
    route2 = good.components[rank][K]
    _double_first_component(monkeypatch, f.n)
    with pytest.raises(EngineError) as err:
        bracket_fn(f, g)
    message = str(err.value)
    assert f"rank {rank}, multi-index {K}:" in message
    assert f"route 1 (structure equation) gives {route2.scale(2)}," in message
    assert f"route 2 (generator expansion) gives {route2}," in message


def test_route_disagreement_names_index_and_both_values(monkeypatch):
    n = 2
    f = sym_mul(sym_pow(make_qhat(n, 1, 1), 2), make_qhat(n, 2, 2))
    g = sym_mul(make_pihat(n, 1), make_pihat(n, 2))
    _assert_disagreement_named(monkeypatch, f, g, bracket)


def test_slice_route_disagreement_names_index_and_both_values(monkeypatch):
    from nsq.algebra import pitag, qtag
    from nsq.subbundle import reduced_bracket

    n = 3
    f = Observable(n, {(qtag(1, 1), qtag(1, 1), qtag(2, 1)): 1}, slot=1)
    g = Observable(n, {(pitag(1), pitag(2)): 1}, slot=1)
    _assert_disagreement_named(monkeypatch, f, g, reduced_bracket)
