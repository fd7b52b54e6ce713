"""Reference Poisson algebra on the cotangent bundle and the obstruction witness.

Polynomials in (q^i, p_j) with the standard bracket serve as the
comparison target for the frame-bundle algebra: the golden bracket tables
correspond line by line under q^i <-> qhat(i,1), p_j <-> pihat(j),
1 <-> rhat(1), up to trailing rhat(1) factors that carry the tensor rank.

Weyl (totally symmetrized) operator ordering exhibits the classical
inconsistency: the two classically equal cubic-bracket expressions for
q^2 p^2 quantize to operators that differ by a multiple of hbar^2.  The
ordering is computed twice, by two independent routes:

* :func:`weyl_quantize` writes the q-left standard-order terms down by
  their closed form, per mode
  W(q^m p^k) = sum_j j! C(m,j) C(k,j) (-i*hbar/2)^j q^(m-j) p^(k-j)
  (McCoy, PNAS 18 (1932) 674; Agarwal and Wolf, Phys. Rev. D 2 (1970)
  2161), and composes no operators.  Each mode's terms sit in one table
  in the operators' integer form (see :mod:`nsq.packed`): an integer
  numerator on the packed key of IHBAR^k q^(m-j) d^(k-j), over
  2^min(m, k), reduced by the gcd once and memoized on (n, mode, m, k),
  at most 1,024 tables.  A monomial's image is the product of its modes'
  tables (keys added, numerators and denominators multiplied), which is
  already reduced: each reduced table holds an odd numerator over a power
  of two, and keys of different modes never meet.  That unscaled image is
  memoized on (monomial, n), at most 1,024 images, and served only to a
  monomial whose every index and power is an exact int, since ``True``
  and ``1.0`` equal 1; a miss, or any other monomial, takes the checked
  path.  No Poly, Scalar or Fraction is built, and on a memo hit nothing
  is split into modes, enumerated or reduced;
* :func:`weyl_quantize_brute` averages over every distinct operator word
  of the letters q^i and -i*hbar d/dq^i.  A depth-first walk over the
  letters' remaining counts reaches each distinct word once, in sorted
  order, and composes each node of the trie of words once, on integer
  numerator maps, with the Leibniz kernel of :mod:`nsq.quantization`; it
  refuses up front a monomial of more than ``WORD_BUDGET`` distinct words,
  and memoizes no image, so that it stays independent of the memo.

The witness value is frozen against the brute-force oracle in the tests.
Both routes accept only the cotangent variables ("q", i) and ("p", i) with
1 <= i <= n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .algebra import Observable, check_index, make_pihat, make_qhat, make_rhat, sym_mul, sym_pow
from .errors import EngineError
from .polynomials import Poly, pvar, qvar
from .packed import _normal, check_dimension, field_unit
from .quantization import DiffOperator, _compose_into, _layout, commutator
from .scalars import IHBAR, ONE, Scalar


def sp_q(i: int) -> Poly:
    return Poly.var(qvar(i))


def sp_p(j: int) -> Poly:
    return Poly.var(pvar(j))


def classical_bracket(f: Poly, g: Poly, n: int) -> Poly:
    """Standard cotangent-bundle Poisson bracket."""
    out = Poly.zero()
    for k in range(1, n + 1):
        out = out + f.diff(qvar(k)) * g.diff(pvar(k))
        out = out - f.diff(pvar(k)) * g.diff(qvar(k))
    return out


def _mode_powers(mono, n: int) -> list[tuple[int, int, int]]:
    """Sorted (mode, q-power, p-power) of one monomial over the modes 1..n.

    Refuses a variable other than ("q", i) or ("p", i): EngineError for a
    foreign variable, IndexRangeError for a mode outside 1..n.
    """
    modes: dict[int, list[int]] = {}
    for v, pw in mono:
        if len(v) != 2 or v[0] not in ("q", "p"):
            raise EngineError(f"{v!r} is not a cotangent variable")
        modes.setdefault(check_index(v[1], n), [0, 0])[v[0] == "p"] += pw
    return [(mode, m, k) for mode, (m, k) in sorted(modes.items())]


def _monomial_modes(f: Poly, n: int) -> list[tuple[list, Scalar]]:
    """(mode powers, coefficient) per monomial of f, every variable checked first."""
    return [(_mode_powers(mono, n), coeff) for mono, coeff in f.terms.items()]


def _operator_top(modes: list[tuple[int, int, int]]) -> int:
    """The largest power of a monomial's Weyl image or of any node of its word trie; EngineError past the bound.

    IHBAR's power is at most the summed p-powers, and a mode's q- and
    d-powers its own m and k.
    """
    return DiffOperator._checked(max([sum(k for _, _, k in modes)] + [m for _, m, _ in modes]))


def _mode_terms(m: int, k: int) -> list[int]:
    """W(q^m p^k) of one mode: entry j is the numerator over 2^min(m,k) of IHBAR^k q^(m-j) d^(k-j).

    The closed form sum_j j! C(m,j) C(k,j) (-i*hbar/2)^j q^(m-j) p^(k-j)
    with p = -i*hbar d/dq, so every term carries (-1)^k IHBAR^k / 2^j.
    """
    top = min(m, k)
    return [((-1) ** k * factorial(j) * comb(m, j) * comb(k, j)) << (top - j) for j in range(top + 1)]


@lru_cache(maxsize=1024, typed=True)
def _mode_image(n: int, mode: int, m: int, k: int) -> tuple[dict, int]:
    """W(q^m p^k) of one mode at dimension n, reduced: (packed key -> numerator, denominator).

    The keys are those of IHBAR^k q^(m-j) d^(k-j) along the mode, and the
    numerators those of :func:`_mode_terms` over 2^min(m,k), both taken
    through the gcd once.  Memoized by argument type as well as value, so
    that a power of 1.0 is refused by :func:`_mode_terms` and never served
    the table of 1.  Shared: read it, never mutate it.
    """
    du, qu = _layout(n)[0][mode - 1]
    shift = k * field_unit("sym", IHBAR, n)
    terms = {(k - j) * du + (m - j) * qu + shift: w for j, w in enumerate(_mode_terms(m, k))}
    return _normal(terms, 1 << min(m, k))


WEYL_MEMO_BOUND = 1024  # (monomial, n) pairs whose Weyl image weyl_quantize memoizes
_WEYL_IMAGES: dict = {}


def _exact_modes(mono) -> bool:
    """Whether every variable of mono is a pair whose index, and every power, is an exact int."""
    for v, pw in mono:
        if type(pw) is not int or len(v) != 2 or type(v[1]) is not int:
            return False
    return True


def _monomial_image(modes: list[tuple[int, int, int]], n: int) -> tuple[dict, int]:
    """A checked monomial's unscaled Weyl image (nums, den): the product of its modes' tables."""
    nums, den = {0: 1}, 1
    for mode, m, k in modes:
        table, d = _mode_image(n, mode, m, k)
        nums = {key + tk: v * tv for key, v in nums.items() for tk, tv in table.items()}
        den *= d
    return nums, den


def weyl_quantize(f: Poly, n: int) -> DiffOperator:
    """Weyl ordering by its closed form in q-left standard order, extended linearly.

    For one mode, W(q^m p^k) = sum_j j! C(m,j) C(k,j) (-i*hbar/2)^j q^(m-j) p^(k-j)
    (McCoy, PNAS 18 (1932) 674; Agarwal and Wolf, Phys. Rev. D 2 (1970)
    2161); different modes commute, so a monomial's image is the product
    of its modes' images, each one reduced table of :func:`_mode_image`,
    memoized on (n, mode, m, k) up to 1,024 tables.  The product adds keys
    and multiplies numerators and denominators, and is already canonical:

    * a mode's j = 0 numerator is +-2^min(m,k), its denominator, so the
      gcd a table is reduced by is a power of two, and the reduced table
      holds an odd numerator (the j = 0 one when its denominator is 1);
    * a product's denominator is a power of two and one of its numerators,
      the product of an odd numerator of each mode, is odd, so the
      product of reduced tables is reduced;
    * keys of different modes sit in disjoint fields, so no two products
      share a key, and no product is zero.

    Each monomial's unscaled image (nums, den, top) is memoized in
    ``_WEYL_IMAGES`` on (monomial, n), at most ``WEYL_MEMO_BOUND`` entries,
    the oldest dropped first; its maps are shared: read them, never mutate
    them.  An equal key does not vouch for an input: ``("q", True)`` and
    ``("q", 1.0)`` equal ``("q", 1)``, and a power of 1.0 equals 1.  So an
    entry is served, and an image stored, only when every index and power
    of the monomial is an exact int (:func:`_exact_modes`); any other
    monomial takes the checked path every time.  A refusal raises and is
    not stored.

    The monomial's operator is scaled by its coefficient unless that is
    ``ONE``, and the monomials' operators are summed; nothing is composed.
    n must be an exact int >= 1 (IndexRangeError).  Every monomial that
    misses the memo is split into its modes (:func:`_mode_powers`) and its
    largest power checked (:func:`_operator_top`) before any table is
    built or read, so a monomial whose operator could pass the power bound
    is refused with EngineError first.
    """
    check_dimension(n)
    memo = _WEYL_IMAGES
    images, misses = [], []
    for mono in f.terms:
        exact = _exact_modes(mono)
        image = memo.get((mono, n)) if exact else None
        if image is None:
            modes = _mode_powers(mono, n)
            misses.append((len(images), mono if exact else None, modes, _operator_top(modes)))
        images.append(image)
    for i, mono, modes, top in misses:
        image = images[i] = (*_monomial_image(modes, n), top)
        if mono is not None:
            if len(memo) >= WEYL_MEMO_BOUND:
                del memo[next(iter(memo))]
            memo[mono, n] = image
    out = None
    for image, coeff in zip(images, f.terms.values()):
        op = DiffOperator._of(n, *image)
        if coeff is not ONE:
            op = op.scale(coeff)
        out = op if out is None else out + op
    return DiffOperator.zero(n) if out is None else out


WORD_BUDGET = 100_000  # the most distinct operator words weyl_quantize_brute composes for one monomial


def _word_count(modes: list[tuple[int, int, int]]) -> int:
    """The number of distinct words of a monomial's letters: the multinomial of the letter counts."""
    words, degree = 1, 0
    for _, m, k in modes:
        for count in (m, k):
            degree += count
            words *= comb(degree, count)
    return words


def weyl_quantize_brute(f: Poly, n: int) -> DiffOperator:
    """Independent oracle: the average over every distinct ordering of the operator word.

    The letters q^i and -i*hbar d/dq^i are integer numerator maps, each
    held with its remaining count.  A depth-first walk takes a letter in
    sorted order, composes the node's product with it by the operator
    kernel (:func:`~nsq.quantization._compose_into`) and goes down, so that
    it reaches each distinct word once and composes each node of the trie
    of words once; a word's last letter is composed straight into the one
    sum of all words.  That sum is divided by the number of words and
    scaled by the monomial's coefficient.  Before anything is composed,
    every monomial's largest power (:func:`_operator_top`, the rule
    :func:`weyl_quantize` checks too) is checked against the power bound
    and its word count against ``WORD_BUDGET``, past which it is refused
    with EngineError; n must be an exact int >= 1 (IndexRangeError).
    """
    check_dimension(n)
    units, ihbar = _layout(n)[0], field_unit("sym", IHBAR, n)
    plans = []
    for modes, coeff in _monomial_modes(f, n):
        top = _operator_top(modes)
        words = _word_count(modes)
        if words > WORD_BUDGET:
            raise EngineError(f"a monomial of {words} distinct operator words, past the word budget of {WORD_BUDGET}")
        letters = []
        for mode, m, k in modes:
            du, qu = units[mode - 1]
            letters += [[count, num] for count, num in ((m, {qu: 1}), (k, {du + ihbar: -1})) if count]
        plans.append((letters, top, words, coeff))
    out = DiffOperator.zero(n)
    for letters, top, words, coeff in plans:
        total = _word_sum(letters, n)
        out = out + DiffOperator._of(n, *_normal(total, words), top).scale(coeff)
    return out


def _word_sum(letters: list[list], n: int) -> dict:
    """The sum of the products of every distinct word of the letters, as one numerator map.

    letters holds [remaining count, numerator map] per letter, in sorted
    order.  The walk starts at the empty word, the identity {0: 1}, with
    the sum of the counts left to take; it takes one off a letter's count
    on the way down and puts it back on the way up.
    """
    total: dict = {}

    def extend(node: dict, left: int) -> None:
        for letter in letters:
            count, num = letter
            if count:
                letter[0] = count - 1
                if left == 1:
                    _compose_into(total, node, num, n, 1)
                else:
                    child: dict = {}
                    _compose_into(child, node, num, n, 1)
                    extend(child, left - 1)
                letter[0] = count

    degree = sum(count for count, _ in letters)
    if degree:
        extend({0: 1}, degree)
    else:
        total[0] = 1
    return total


def groenewold_witness(n: int = 1, brute: bool = False) -> DiffOperator:
    """Difference of the two Weyl quantizations of q^2 p^2.

    Classically {q^3, p^3} = 9 q^2 p^2 and {q^2 p, q p^2} = 3 q^2 p^2, so

        (1/(9 i hbar)) [W(q^3), W(p^3)] - (1/(3 i hbar)) [W(q^2 p), W(q p^2)]

    would vanish were Weyl ordering bracket-compatible.  It does not: the
    result is a nonzero constant of hbar-degree exactly two.
    """
    W = weyl_quantize_brute if brute else weyl_quantize
    q, p = sp_q(1), sp_p(1)
    c1 = commutator(W(q**3, n), W(p**3, n)).divide_by_ihbar().scale(Fraction(1, 9))
    c2 = commutator(W(q**2 * p, n), W(q * p**2, n)).divide_by_ihbar().scale(
        Fraction(1, 3)
    )
    return c1 - c2


# -- golden tables and the structured comparison --------------------------------


def symplectic_table(n: int) -> list[tuple[str, Poly, Poly, Poly]]:
    """The six golden brackets on the cotangent bundle, fully instantiated.

    Lines with printed deltas are enumerated over every index combination;
    the final cubic pattern is stated at its coincident indices, where the
    printed right side is the complete answer.
    """
    rows: list[tuple[str, Poly, Poly, Poly]] = []
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            delta = Poly.constant(1 if i == j else 0)
            rows.append((f"{{q{i}, p{j}}}", sp_q(i), sp_p(j), delta))
    for i in rng:
        for j in rng:
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    rows.append(
                        (
                            f"{{q{i}^{a}, q{j}^{b}}}",
                            sp_q(i) ** a,
                            sp_q(j) ** b,
                            Poly.zero(),
                        )
                    )
                    rows.append(
                        (
                            f"{{p{i}^{a}, p{j}^{b}}}",
                            sp_p(i) ** a,
                            sp_p(j) ** b,
                            Poly.zero(),
                        )
                    )
    for i in rng:
        for j in rng:
            delta = 1 if i == j else 0
            rows.append(
                (
                    f"{{q{i}^2, p{j}^2}}",
                    sp_q(i) ** 2,
                    sp_p(j) ** 2,
                    (sp_q(i) * sp_p(j)).scale(4 * delta),
                )
            )
            rows.append(
                (
                    f"{{q{i}^3, p{j}^3}}",
                    sp_q(i) ** 3,
                    sp_p(j) ** 3,
                    (sp_q(i) ** 2 * sp_p(j) ** 2).scale(9 * delta),
                )
            )
    for i in rng:
        rows.append(
            (
                f"{{q{i}^2 p{i}, q{i} p{i}^2}}",
                sp_q(i) ** 2 * sp_p(i),
                sp_q(i) * sp_p(i) ** 2,
                (sp_q(i) ** 2 * sp_p(i) ** 2).scale(3),
            )
        )
    return rows


def frame_table(n: int) -> list[tuple[str, Observable, Observable, Observable]]:
    """The eight golden frame-bundle brackets, fully instantiated.

    Same enumeration policy as :func:`symplectic_table`; trailing rhat(1)
    factors carry the tensor rank p+q-1.
    """
    rows: list[tuple[str, Observable, Observable, Observable]] = []
    rng = range(1, n + 1)
    r1 = make_rhat(n, 1)

    def qh(i):
        return make_qhat(n, i, 1)

    def ph(j):
        return make_pihat(n, j)

    for i in rng:
        for j in rng:
            expect = r1 if i == j else Observable.zero(n)
            rows.append((f"{{qh({i},1), pih({j})}}", qh(i), ph(j), expect))
    for i in rng:
        for j in rng:
            for k in rng:
                expect = Observable.zero(n)
                if i == j:
                    expect = expect + sym_mul(ph(k), r1)
                if i == k:
                    expect = expect + sym_mul(ph(j), r1)
                rows.append(
                    (
                        f"{{qh({i},1), pih({j})*pih({k})}}",
                        qh(i),
                        sym_mul(ph(j), ph(k)),
                        expect,
                    )
                )
    for i in rng:
        for j in rng:
            for k in rng:
                expect = Observable.zero(n)
                if j == k:
                    expect = expect + sym_mul(qh(i), r1)
                if i == k:
                    expect = expect + sym_mul(qh(j), r1)
                rows.append(
                    (
                        f"{{qh({i},1)*qh({j},1), pih({k})}}",
                        sym_mul(qh(i), qh(j)),
                        ph(k),
                        expect,
                    )
                )
    for i in rng:
        for j in rng:
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    rows.append(
                        (
                            f"{{qh({i},1)^{a}, qh({j},1)^{b}}}",
                            sym_pow(qh(i), a),
                            sym_pow(qh(j), b),
                            Observable.zero(n),
                        )
                    )
                    rows.append(
                        (
                            f"{{pih({i})^{a}, pih({j})^{b}}}",
                            sym_pow(ph(i), a),
                            sym_pow(ph(j), b),
                            Observable.zero(n),
                        )
                    )
    for i in rng:
        for j in rng:
            if i == j:
                expect4 = sym_mul(sym_mul(qh(i), ph(j)), r1).scale(4)
                expect9 = sym_mul(
                    sym_mul(sym_pow(qh(i), 2), sym_pow(ph(j), 2)), r1
                ).scale(9)
            else:
                expect4 = Observable.zero(n)
                expect9 = Observable.zero(n)
            rows.append(
                (
                    f"{{qh({i},1)^2, pih({j})^2}}",
                    sym_pow(qh(i), 2),
                    sym_pow(ph(j), 2),
                    expect4,
                )
            )
            rows.append(
                (
                    f"{{qh({i},1)^3, pih({j})^3}}",
                    sym_pow(qh(i), 3),
                    sym_pow(ph(j), 3),
                    expect9,
                )
            )
    for i in rng:
        rows.append(
            (
                f"{{qh({i},1)^2 pih({i}), qh({i},1) pih({i})^2}}",
                sym_mul(sym_pow(qh(i), 2), ph(i)),
                sym_mul(qh(i), sym_pow(ph(i), 2)),
                sym_mul(sym_mul(sym_pow(qh(i), 2), sym_pow(ph(i), 2)), r1).scale(3),
            )
        )
    return rows


def lift_symplectic(poly: Poly, n: int, target_rank: int) -> Observable:
    """Map a cotangent polynomial to the frame bundle at a given rank.

    Monomials map factor-wise (q -> qhat, p -> pihat) and are padded with
    rhat(1) factors up to the target rank.
    """
    out = Observable.zero(n)
    for mono, coeff in poly.terms.items():
        factors: list[Observable] = []
        for v, pw in mono:
            base = make_qhat(n, v[1], 1) if v[0] == "q" else make_pihat(n, v[1])
            factors += [base] * pw
        if len(factors) > target_rank:
            raise EngineError("monomial degree exceeds the target rank")
        factors += [make_rhat(n, 1)] * (target_rank - len(factors))
        term = factors[0]
        for f in factors[1:]:
            term = sym_mul(term, f)
        out = out + term.scale(coeff)
    return out


def tables_correspond(n: int) -> bool:
    """Line-by-line correspondence of the two golden tables.

    For each cotangent row {f, g} = h of degrees (p, q), the frame-bundle
    bracket of the lifted entries must equal h lifted to rank p+q-1.
    """
    from .poisson import bracket

    for label, f, g, h in symplectic_table(n):
        p, q = f.total_degree(), g.total_degree()
        lf = lift_symplectic(f, n, p)
        lg = lift_symplectic(g, n, q)
        expected = lift_symplectic(h, n, p + q - 1)
        if bracket(lf, lg) != expected:
            return False
    return True
