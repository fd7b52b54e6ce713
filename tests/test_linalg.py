"""The exact linear-algebra helpers against the Leibniz determinant."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsq.linalg import exact_det, exact_inverse, exact_rank

# zeros are drawn often so that singular matrices and pivot swaps are common
entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


square_matrices = st.integers(1, 4).flatmap(lambda n: matrices(n, n))


def leibniz_det(m):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)]."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_det_rank_and_inverse_agree_with_leibniz(m):
    n = len(m)
    det = leibniz_det(m)
    assert exact_det(m) == det
    assert (exact_rank(m) < n) == (det == 0)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            exact_inverse(m)
    else:
        inv = exact_inverse(m)
        product = [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_of_a_rectangular_matrix_equals_its_transposes(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    rank = exact_rank(m)
    assert rank == exact_rank([list(col) for col in zip(*m)])
    assert rank <= min(rows, cols)
