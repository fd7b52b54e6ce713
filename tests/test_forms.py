"""Soldering structure, Hamiltonian fields and the structure equation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsq.algebra import (
    Observable,
    all_multi_indices,
    make_pihat,
    make_qhat,
    make_rhat,
    pitag,
    qtag,
    rtag,
    sym_mul,
)
from nsq.errors import DimensionMismatch, GaugeConditionError, IndexRangeError
from nsq.forms import (
    HamVF,
    TwoForm,
    VectorField,
    add_gauge,
    gauge_condition_holds,
    ham_vf,
    lie_preserves_form,
    make_valid_gauge,
    random_valid_gauge,
    soldering_dtheta,
    structure_eq_check,
    vf_bracket,
)
from nsq.polynomials import Poly, pivar, qvar
from nsq.scalars import Scalar, accumulate


def test_soldering_dtheta():
    one = soldering_dtheta(1)
    assert one[1] == TwoForm({(pivar(1, 1), qvar(1)): Poly.constant(1)})
    two = soldering_dtheta(2)
    assert two[1] == TwoForm(
        {
            (pivar(1, 1), qvar(1)): Poly.constant(1),
            (pivar(1, 2), qvar(2)): Poly.constant(1),
        }
    )
    assert two[2] == TwoForm(
        {
            (pivar(2, 1), qvar(1)): Poly.constant(1),
            (pivar(2, 2), qvar(2)): Poly.constant(1),
        }
    )
    # built once per (n, slot) and shared read-only
    assert soldering_dtheta(2) is two
    assert soldering_dtheta(2, 1) is soldering_dtheta(2, 1) != two
    with pytest.raises(TypeError):
        two[1] = TwoForm()


def test_generator_fields():
    n = 2
    assert ham_vf(make_qhat(n, 1, 2)).field(()) == VectorField(
        v={(2, 1): Poly.constant(-1)}
    )
    assert ham_vf(make_pihat(n, 2)).field(()) == VectorField(h={2: Poly.constant(1)})
    assert ham_vf(make_rhat(n, 1)).is_zero()


def test_ham_vf_rank2_examples():
    n = 2
    half = Fraction(1, 2)
    # momentum pair: purely horizontal with symmetrized coefficients
    f = sym_mul(make_pihat(n, 1), make_pihat(n, 2))
    x = ham_vf(f)
    for a in (1, 2):
        expected = VectorField(
            h={
                2: Poly.var(pivar(a, 1)).scale(half),
                1: Poly.var(pivar(a, 2)).scale(half),
            }
        )
        assert x.field((a,)) == expected

    # position times the constant generator
    g = sym_mul(make_qhat(n, 1, 1), make_rhat(n, 1))
    xg = ham_vf(g)
    assert xg.field((1,)) == VectorField(v={(1, 1): Poly.constant(-half)})
    assert xg.field((2,)).is_zero()


def test_ham_vf_rank3_example():
    # two positions and one momentum: the sixth/twelfth-weight pattern
    n = 2
    i, j, k = 1, 2, 1
    f = sym_mul(sym_mul(make_qhat(n, i, 1), make_qhat(n, j, 1)), make_pihat(n, k))
    x = ham_vf(f)
    qq = Poly.var(qvar(i)) * Poly.var(qvar(j))
    sixth, twelfth = Fraction(1, 6), Fraction(1, 12)
    expect_11 = VectorField(
        h={k: qq.scale(sixth)},
        v={
            (1, i): (Poly.var(pivar(1, k)) * Poly.var(qvar(j))).scale(-2 * twelfth),
            (1, j): (Poly.var(pivar(1, k)) * Poly.var(qvar(i))).scale(-2 * twelfth),
        },
    )
    assert x.field((1, 1)) == expect_11
    expect_12 = VectorField(
        v={
            (1, i): (Poly.var(pivar(2, k)) * Poly.var(qvar(j))).scale(-twelfth),
            (1, j): (Poly.var(pivar(2, k)) * Poly.var(qvar(i))).scale(-twelfth),
        }
    )
    assert x.field((1, 2)) == expect_12
    assert structure_eq_check(f, x)


def test_structure_eq_check_examples():
    n = 2
    pi1 = make_pihat(n, 1)
    assert structure_eq_check(pi1, ham_vf(pi1))
    # wrong sign fails
    q11 = make_qhat(n, 1, 1)
    wrong = HamVF(n, {(): VectorField(v={(1, 1): Poly.constant(1)})})
    assert not structure_eq_check(q11, wrong)
    f = sym_mul(pi1, make_pihat(n, 2))
    assert structure_eq_check(f, ham_vf(f))


def test_structure_eq_rank_mismatch():
    from nsq.errors import RankMismatch

    n = 2
    f = sym_mul(make_pihat(n, 1), make_pihat(n, 2))  # rank 2
    wrong_grade = ham_vf(sym_mul(f, make_rhat(n, 1)))  # grades of rank 2
    with pytest.raises(RankMismatch):
        structure_eq_check(f, wrong_grade)


def test_structure_eq_exhaustive_degree3():
    n = 2
    tags = (
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )
    import itertools

    count = 0
    for deg in (1, 2, 3):
        for mono in itertools.combinations_with_replacement(sorted(tags), deg):
            f = Observable(n, {mono: Scalar.one()})
            assert structure_eq_check(f, ham_vf(f)), mono
            count += 1
    assert count == 164


def test_add_gauge():
    n = 2
    f = sym_mul(make_pihat(n, 1), make_pihat(n, 2))
    x = ham_vf(f)
    assert add_gauge(x, HamVF(n)) == x

    rng = random.Random(5)
    t = random_valid_gauge(n, 1, rng)
    assert gauge_condition_holds(t)
    shifted = add_gauge(x, t)
    assert structure_eq_check(f, shifted)

    # a symmetric nonzero vertical term is rejected
    bad = HamVF(n, {(1,): VectorField(v={(1, 1): Poly.constant(1)})})
    assert not gauge_condition_holds(bad)
    with pytest.raises(GaugeConditionError):
        add_gauge(x, bad)


def test_make_valid_gauge_projects():
    n = 2
    rng = random.Random(17)
    raw = HamVF(
        n,
        {
            (1,): VectorField(v={(1, 2): Poly.var(qvar(1)), (2, 1): Poly.constant(3)}),
            (2,): VectorField(v={(1, 1): Poly.var(pivar(1, 1))}),
        },
    )
    t = make_valid_gauge(raw)
    assert gauge_condition_holds(t)


def test_vf_bracket_examples():
    n = 2
    x_q = ham_vf(make_qhat(n, 1, 1))
    x_pi = ham_vf(make_pihat(n, 1))
    assert vf_bracket(x_q, x_pi).is_zero()

    f = sym_mul(make_pihat(n, 1), make_pihat(n, 2))
    assert vf_bracket(ham_vf(f), x_pi).is_zero()

    g = sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2))
    nonzero = vf_bracket(ham_vf(g), ham_vf(make_pihat(n, 1)))
    assert not nonzero.is_zero()


def test_grade_indices_are_canonicalized_and_checked():
    # a grade index is a multi-index: sorted on the way in, so orders that
    # sort alike are one grade, and refused outside 1..n, where its count
    # would have no index field
    n = 2
    vf = VectorField(h={1: Poly.var(qvar(2))})
    x = HamVF(n, {(2, 1): vf})
    assert x == HamVF(n, {(1, 2): vf}) and x.terms == {(1, 2): vf}
    assert x.field((1, 2)) == vf and x.field((2, 1)) == vf and x.field((1, 1)).is_zero()
    assert repr(x) == "X[1,2] = (q2) d/dq1"
    assert HamVF(n, {(2, 1): vf, (1, 2): vf}) == HamVF(n, {(1, 2): vf + vf})
    assert HamVF(n, {(2, 1): vf, (1, 2): -vf}).is_zero()
    for bad in ((3,), (0,), (1, 3), (True,), (1.0,)):
        with pytest.raises(IndexRangeError):
            HamVF(n, {bad: vf})
        with pytest.raises(IndexRangeError):
            x.field(bad)


def test_field_operations_refuse_other_dimensions():
    x = ham_vf(sym_mul(make_pihat(2, 1), make_pihat(2, 2)))
    with pytest.raises(DimensionMismatch):
        add_gauge(x, random_valid_gauge(3, 1, random.Random(5)))
    with pytest.raises(DimensionMismatch):
        vf_bracket(x, ham_vf(make_pihat(3, 1)))
    with pytest.raises(DimensionMismatch):
        vf_bracket(ham_vf(make_pihat(3, 1)), x)


def test_lie_preserves_form():
    n = 2
    assert lie_preserves_form(ham_vf(make_pihat(n, 1)))
    f = sym_mul(make_qhat(n, 1, 1), make_qhat(n, 2, 1))
    assert lie_preserves_form(ham_vf(f))
    # a non-Hamiltonian dilation field does not preserve the form
    bad = HamVF(1, {(): VectorField(h={1: Poly.var(qvar(1))})})
    assert not lie_preserves_form(bad)


def test_gauge_never_changes_structure_or_lie_check():
    n = 2
    rng = random.Random(23)
    from nsq.suites import random_full_monomial

    for _ in range(10):
        f = random_full_monomial(n, rng)
        p = f.rank()
        x = ham_vf(f)
        if p >= 2:
            x2 = add_gauge(x, random_valid_gauge(n, p - 1, rng))
            assert structure_eq_check(f, x2)


# -- the gauge projection against position sums ----------------------------------


def gauge_position_sum(u, K, b):
    """Sum over the positions t of a sorted K of U^{K without K_t} on the leg d/dpi^{K_t}_b."""
    acc = Poly.zero()
    for t in range(len(K)):
        acc = acc + u.field(K[:t] + K[t + 1 :]).coefficient(pivar(K[t], b))
    return acc


def ref_make_valid_gauge(u):
    """U - Sym(U) on every leg of every grade: Sym(U)^{I,a}_b is the position
    sum at K = sorted(I + (a,)) divided by the rank of K."""
    n = u.n
    grades = {}
    for g in set(map(len, u.terms)):
        for I in all_multi_indices(n, g):
            legs = {}
            for a in range(1, n + 1):
                K = tuple(sorted(I + (a,)))
                for b in range(1, n + 1):
                    sym = gauge_position_sum(u, K, b).scale(Fraction(1, g + 1))
                    legs[(a, b)] = u.field(I).coefficient(pivar(a, b)) - sym
            grades[I] = VectorField(v=legs)
    return HamVF(n, grades)


@st.composite
def vertical_fields(draw):
    """A vertical graded field: n 1..3, one or two grade ranks in 1..3, repeated indices."""
    n = draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    index = st.integers(1, n)
    grades = {}
    for _ in range(draw(st.integers(1, 5))):
        g = draw(st.sampled_from(ranks))
        idx = tuple(sorted(draw(st.lists(index, min_size=g, max_size=g))))
        a, b = draw(index), draw(index)
        coeff = draw(st.sampled_from([Fraction(-2), Fraction(-1, 2), Fraction(1), Fraction(3, 2)]))
        var = draw(st.sampled_from([None, qvar(draw(index)), pivar(draw(index), draw(index))]))
        poly = Poly.constant(coeff) if var is None else Poly.var(var).scale(coeff)
        accumulate(grades, idx, VectorField(v={(a, b): poly}))
    return HamVF(n, grades)


@settings(max_examples=150, deadline=None)
@given(vertical_fields())
def test_make_valid_gauge_equals_position_sum_projection(u):
    t = make_valid_gauge(u)
    assert t == ref_make_valid_gauge(u)
    assert gauge_condition_holds(t)
    assert make_valid_gauge(t) == t
    n = u.n
    x = ham_vf(sym_mul(make_qhat(n, 1, n), make_pihat(n, 1)))
    assert add_gauge(x, t) - x == t
    # a d/dq leg is never a gauge direction
    horizontal = HamVF(n, {(1,): VectorField(h={1: Poly.constant(1)})})
    assert not gauge_condition_holds(t + horizontal)
    with pytest.raises(GaugeConditionError):
        make_valid_gauge(u + horizontal)
    with pytest.raises(GaugeConditionError):
        add_gauge(x, t + horizontal)


def test_random_valid_gauge_is_a_nonzero_vertical_field():
    t = random_valid_gauge(2, 1, random.Random(5))
    assert not t.is_zero()
    assert gauge_condition_holds(t)
    x = ham_vf(sym_mul(make_pihat(2, 1), make_pihat(2, 2)))
    assert add_gauge(x, t) - x == t
    assert add_gauge(x, t) != x
    rng = random.Random(5)
    assert random_valid_gauge(2, 0, rng) == HamVF(2)
    assert rng.random() == random.Random(5).random()  # grade 0 draws nothing
