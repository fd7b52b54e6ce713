"""Cotangent-bundle reference algebra and the ordering obstruction witness."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsq import quantization, symplectic_ref
from nsq.errors import EngineError, IndexRangeError
from nsq.packed import _normal, field_unit
from nsq.polynomials import Poly, pivar, pvar, qvar
from nsq.quantization import DiffOperator, _layout, commutator, op_compose
from nsq.scalars import IHBAR, Scalar, accumulate
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
    # the brute-force oracle agrees with the closed form, also in two modes
    assert groenewold_witness(brute=True) == w
    w2 = groenewold_witness(2)
    assert w2 == DiffOperator.multiplication(2, Poly.constant(WITNESS_COEFF))
    assert groenewold_witness(2, brute=True) == w2


# -- the closed form against the word-walk oracle --------------------------------


def ref_weyl_brute(f, n):
    """The word average, every distinct word composed from the identity."""
    out = DiffOperator.zero(n)
    for mono, coeff in f.terms.items():
        letters = []
        for v, pw in mono:
            letters += [v] * pw
        words = set(itertools.permutations(letters))
        acc = DiffOperator.zero(n)
        for word in sorted(words):
            piece = DiffOperator.identity(n)
            for v in word:
                if v[0] == "q":
                    op = DiffOperator.multiplication(n, Poly.var(v))
                else:
                    op = DiffOperator.derivative(n, v[1], -Scalar.symbol(IHBAR))
                piece = op_compose(piece, op)
            acc = acc + piece
        out = out + acc.scale(coeff * Fraction(1, len(words)))
    return out


COEFFICIENTS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.sampled_from([Scalar.symbol(IHBAR), Scalar.symbol("A1") - Scalar.of(Fraction(1, 2))]),
)


@st.composite
def cotangent_polys(draw):
    """(f, n): n in 1..3 and one or two monomials in q^i, p^i of degree <= 6."""
    n = draw(st.integers(1, 3))
    variables = [qvar(i) for i in range(1, n + 1)] + [pvar(i) for i in range(1, n + 1)]
    f = Poly.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = Poly.constant(draw(COEFFICIENTS))
        for v in draw(st.lists(st.sampled_from(variables), max_size=6)):
            term = term * Poly.var(v)
        f = f + term
    return f, n


WEYL_SETTINGS = settings(max_examples=60, deadline=None)


@WEYL_SETTINGS
@given(cotangent_polys())
def test_weyl_closed_form_matches_prefix_oracle(draw):
    f, n = draw
    assert weyl_quantize(f, n) == weyl_quantize_brute(f, n)


def ref_weyl_closed_form(f, n):
    """The closed form built term by term on Poly coefficients of Scalars."""
    terms = {}
    for mono, coeff in f.terms.items():
        modes = {}
        for v, pw in mono:
            modes.setdefault(v[1], [0, 0])[v[0] == "p"] += pw
        modes = sorted((mode, m, k) for mode, (m, k) in modes.items())
        prefactor = coeff * Scalar.symbol(IHBAR, sum(k for _, _, k in modes))
        per_mode = [
            [(j, Fraction((-1) ** k * factorial(j) * comb(m, j) * comb(k, j), 2**j)) for j in range(min(m, k) + 1)]
            for _, m, k in modes
        ]
        for choice in itertools.product(*per_mode):
            alpha = [0] * n
            term = []
            factor = Fraction(1)
            for (mode, m, k), (j, w) in zip(modes, choice):
                alpha[mode - 1] = k - j
                if m > j:
                    term.append((qvar(mode), m - j))
                factor *= w
            accumulate(terms.setdefault(tuple(alpha), {}), tuple(term), prefactor * factor)
    return DiffOperator(n, {alpha: Poly(poly) for alpha, poly in terms.items()})


@WEYL_SETTINGS
@given(cotangent_polys())
def test_weyl_numerators_match_the_poly_closed_form(draw):
    # weyl_quantize writes integer numerators; its view equals the closed
    # form built on Polys, and so does its integer form
    f, n = draw
    got = weyl_quantize(f, n)
    ref = ref_weyl_closed_form(f, n)
    assert got._view is None
    assert got == ref
    assert got.terms == ref.terms


@WEYL_SETTINGS
@given(cotangent_polys())
def test_prefix_oracle_matches_word_average(draw):
    f, n = draw
    assert weyl_quantize_brute(f, n) == ref_weyl_brute(f, n)


def test_prefix_oracle_matches_word_average_at_n2():
    letters = [sp_q(1), sp_q(2), sp_p(1), sp_p(2)]
    powers = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    assert len(powers) == 70
    for exponents in powers:
        poly = Poly.constant(1)
        for letter, e in zip(letters, exponents):
            poly = poly * letter**e
        assert weyl_quantize_brute(poly, 2) == ref_weyl_brute(poly, 2), exponents


def refuse_the_kernel(monkeypatch):
    """Make every call of the operator kernel fail, under each name it is reached by."""

    def refuse(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(quantization, "_compose_into", refuse)
    monkeypatch.setattr(symplectic_ref, "_compose_into", refuse)


def test_weyl_quantize_composes_nothing(monkeypatch):
    poly = sp_q(1) ** 2 * sp_p(1) * sp_q(2) * sp_p(2) ** 2
    expected = weyl_quantize_brute(poly, 2)
    refuse_the_kernel(monkeypatch)
    with pytest.raises(AssertionError, match="kernel called"):
        weyl_quantize_brute(poly, 2)
    assert weyl_quantize(poly, 2) == expected


def test_brute_oracle_cost_follows_the_distinct_words():
    # 3,432 distinct words of q^7 p^7 among 14! = 8.7e10 orderings
    start = time.process_time()
    for k in (6, 7):
        poly = sp_q(1) ** k * sp_p(1) ** k
        assert weyl_quantize_brute(poly, 1) == weyl_quantize(poly, 1), k
    assert time.process_time() - start < 5


def test_brute_oracle_composes_each_trie_node_once(monkeypatch):
    # one kernel call per distinct nonempty prefix: a node is its parent
    # (a proper prefix, or the empty word) composed with one letter
    poly = sp_q(1) ** 2 * sp_p(1) * sp_q(2) * sp_p(2)
    letters = ["q1", "q1", "p1", "q2", "p2"]
    words = set(itertools.permutations(letters))
    nodes = {word[:k] for word in words for k in range(1, len(letters) + 1)}
    assert (len(words), len(nodes)) == (60, 4 + 13 + 33 + 60 + 60)
    kernel, calls = symplectic_ref._compose_into, [0]

    def counted(*args):
        calls[0] += 1
        kernel(*args)

    monkeypatch.setattr(symplectic_ref, "_compose_into", counted)
    assert weyl_quantize_brute(poly, 2) == weyl_quantize(poly, 2)
    assert calls[0] == len(nodes)


def test_word_budget_at_the_bound_and_one_past(monkeypatch):
    poly = sp_q(1) ** 5 * sp_p(1) ** 5  # comb(10, 5) = 252 distinct words
    monkeypatch.setattr(symplectic_ref, "WORD_BUDGET", 252)
    assert weyl_quantize_brute(poly, 1) == weyl_quantize(poly, 1)
    monkeypatch.setattr(symplectic_ref, "WORD_BUDGET", 251)
    refuse_the_kernel(monkeypatch)
    with pytest.raises(EngineError, match="252 distinct operator words, past the word budget of 251"):
        weyl_quantize_brute(poly, 1)
    # a monomial within the budget, met first, is not composed either
    f = sp_q(1) * sp_p(1) + poly
    assert next(iter(f.terms)) == ((pvar(1), 1), (qvar(1), 1))
    with pytest.raises(EngineError, match="252 distinct operator words"):
        weyl_quantize_brute(f, 1)


def test_word_budget_refuses_before_any_work(monkeypatch):
    refuse_the_kernel(monkeypatch)
    for k, words in ((10, 184756), (20, 137846528820)):
        with pytest.raises(EngineError, match=f"{words} distinct operator words, past the word budget of 100000"):
            weyl_quantize_brute(sp_q(1) ** k * sp_p(1) ** k, 1)
    # q powers of two modes sit in two fields, so q1^200 q2^56 holds no
    # power past 200; its comb(256, 56) words are refused by the budget
    with pytest.raises(EngineError, match=f"{comb(256, 56)} distinct operator words, past the word budget of 100000"):
        weyl_quantize_brute(sp_q(1) ** 200 * sp_q(2) ** 56, 2)
    # the power bound, checked before composing: one mode's q power, and
    # the IHBAR power that p1^128 p2^128 reaches, on both routes
    for route in (weyl_quantize_brute, weyl_quantize):
        with pytest.raises(EngineError, match="could reach 256, past the 255"):
            route(sp_q(1) ** 256, 1)
        with pytest.raises(EngineError, match="could reach 256, past the 255"):
            route(sp_p(1) ** 128 * sp_p(2) ** 128, 2)


def test_brute_oracle_at_the_power_bound():
    for poly in (sp_q(1) ** 255, sp_p(1) ** 255, sp_q(1) ** 254 * sp_p(1)):
        assert weyl_quantize_brute(poly, 1) == weyl_quantize(poly, 1)
    # a symbol coefficient on q^254 p: its largest power is 254, 255 after the scale
    poly = sp_q(1) ** 254 * sp_p(1) * Poly.constant(Scalar.symbol("A1"))
    assert weyl_quantize_brute(poly, 1) == weyl_quantize(poly, 1)


@pytest.mark.parametrize("route", [weyl_quantize, weyl_quantize_brute])
def test_weyl_refuses_non_cotangent_variables(route):
    n = 2
    # a frame-bundle variable is not a momentum
    for f in (Poly.var(pivar(1, 1)), sp_q(1) * Poly.var(pivar(1, 2))):
        with pytest.raises(EngineError, match="not a cotangent variable"):
            route(f, n)
    # a mode outside 1..n, whether it stands alone or beside a valid one
    for f in (sp_q(3), sp_p(3), sp_p(1) * sp_q(3)):
        with pytest.raises(IndexRangeError, match="out of range 1..2"):
            route(f, n)


# -- the per-mode tables against the enumerated closed form ----------------------


def ref_weyl_enumerated(f, n):
    """The closed form enumerated per monomial: every choice of one term per mode.

    Each choice is written on its packed key, the monomial's map is reduced
    by the gcd, and its operator is scaled and added to the zero operator.
    """
    units, ihbar = _layout(n)[0], field_unit("sym", IHBAR, n)
    out = DiffOperator.zero(n)
    for modes, coeff in symplectic_ref._monomial_modes(f, n):
        momenta = sum(k for _, _, k in modes)
        nums = {}
        for choice in itertools.product(*(enumerate(symplectic_ref._mode_terms(m, k)) for _, m, k in modes)):
            key, num = momenta * ihbar, 1
            for (mode, m, k), (j, w) in zip(modes, choice):
                du, qu = units[mode - 1]
                key += (k - j) * du + (m - j) * qu
                num *= w
            nums[key] = num
        den = 1 << sum(min(m, k) for _, m, k in modes)
        top = max([momenta] + [m for _, m, _ in modes])
        out = out + DiffOperator._of(n, *_normal(nums, den), top).scale(coeff)
    return out


# (q power of mode i, p power of mode j) of a monomial at the power bound;
# each has at most 256 distinct words, so the word oracle stays cheap
BOUND_SHAPES = [(255, 0), (0, 255), (254, 1), (1, 254)]


@st.composite
def weyl_inputs(draw):
    """(f, n): n in 1..3 and zero to three monomials, each at the power bound one time in four."""
    n = draw(st.integers(1, 3))
    variables = [qvar(i) for i in range(1, n + 1)] + [pvar(i) for i in range(1, n + 1)]
    f = Poly.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = Poly.constant(draw(COEFFICIENTS))
        if draw(st.integers(0, 3)):
            for v in draw(st.lists(st.sampled_from(variables), max_size=6)):
                term = term * Poly.var(v)
        else:
            a, b = draw(st.sampled_from(BOUND_SHAPES))
            term = term * sp_q(draw(st.integers(1, n))) ** a * sp_p(draw(st.integers(1, n))) ** b
        f = f + term
    return f, n


def outcome(route, f, n):
    """route(f, n), or the message it is refused with."""
    try:
        return route(f, n)
    except EngineError as refusal:
        return str(refusal)


@WEYL_SETTINGS
@given(weyl_inputs())
def test_weyl_tables_match_the_enumeration_and_the_oracle(draw):
    # an IHBAR coefficient on p^255 is refused by all three, and a symbol
    # coefficient on q^254 p, whose largest power is 254, by none
    f, n = draw
    got = outcome(weyl_quantize, f, n)
    assert got == outcome(ref_weyl_enumerated, f, n)
    assert got == outcome(weyl_quantize_brute, f, n)
    if isinstance(got, DiffOperator):
        assert _normal(got._nums, got._den) == (got._nums, got._den)


def test_mode_tables_are_keyed_on_the_dimension():
    symplectic_ref._mode_image.cache_clear()
    for n in (1, 2, 3, 1):
        poly = sp_q(1) ** 2 * sp_p(1) ** 2 * sp_q(n) * sp_p(n) ** 3
        assert weyl_quantize(poly, n) == weyl_quantize_brute(poly, n), n
    assert 0 < symplectic_ref._mode_image.cache_info().maxsize <= 4096


def test_weyl_refuses_past_the_power_bound_before_any_table(monkeypatch):
    polys = {p: sp_q(1) ** p * sp_p(1) ** p * sp_q(2) ** p * sp_p(2) ** p for p in (256, 600, 1200)}
    start = time.process_time()
    with pytest.raises(EngineError, match="an operator power could reach 2400, past the 255"):
        weyl_quantize(polys[1200], 2)
    assert time.process_time() - start < 0.1

    def refuse(*args):
        raise AssertionError("table read")

    monkeypatch.setattr(symplectic_ref, "_mode_image", refuse)
    for p, poly in polys.items():
        # a monomial within the bound reads no table before the refusal either
        for f in (poly, sp_q(1) * sp_p(2) + poly):
            with pytest.raises(EngineError, match=f"an operator power could reach {2 * p}, past the 255"):
                weyl_quantize(f, 2)


BAD_DIMENSIONS = [(sp_q(1), True), (Poly.constant(2), 0), (Poly.zero(), -3), (sp_q(1), 2.0), (Poly.zero(), True)]

ZERO_AFTER_A_REFUSAL = """
from nsq.errors import IndexRangeError
from nsq.polynomials import Poly
from nsq.quantization import DiffOperator, make_q1
from nsq.symplectic_ref import weyl_quantize
try:
    weyl_quantize(Poly.zero(), True)
except IndexRangeError:
    pass
zero = DiffOperator.zero(1)
print(type(zero.n).__name__, zero.n, make_q1(zero.n).n)
"""


@pytest.mark.parametrize("route", [weyl_quantize, weyl_quantize_brute])
def test_weyl_routes_refuse_a_bad_dimension(route):
    for f, n in BAD_DIMENSIONS:
        with pytest.raises(IndexRangeError, match=f"dimension must be a positive integer, got {n!r}"):
            route(f, n)
    assert type(DiffOperator.zero(1).n) is int


def test_a_refused_dimension_leaves_the_shared_zero_alone():
    # in a fresh process, where the refused call would be the zero's first
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", ZERO_AFTER_A_REFUSAL], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["int", "1", "1"]


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
