"""Reference Poisson algebra on the cotangent bundle and the obstruction witness.

Polynomials in (q^i, p_j) with the standard bracket serve as the
comparison target for the frame-bundle algebra: the golden bracket tables
correspond line by line under q^i <-> qhat(i,1), p_j <-> pihat(j),
1 <-> rhat(1), up to trailing rhat(1) factors that carry the tensor rank.

Weyl (totally symmetrized) operator ordering exhibits the classical
inconsistency: the two classically equal cubic-bracket expressions for
q^2 p^2 quantize to operators that differ by a multiple of hbar^2.  The
ordering is computed twice: through the per-mode McCoy formula and through
a brute-force average over all operator words; the witness value is frozen
against the brute-force oracle in the tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from .algebra import Observable, make_pihat, make_qhat, make_rhat, sym_mul, sym_pow
from .errors import EngineError
from .polynomials import Poly, pvar, qvar
from .quantization import DiffOperator, commutator, op_compose
from .scalars import IHBAR, Scalar


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


def _mode_powers(mono) -> dict[int, list[int]]:
    """Per-mode (q-power, p-power) split of one monomial."""
    modes: dict[int, list[int]] = {}
    for v, pw in mono:
        mode = v[1]
        slot = 0 if v[0] == "q" else 1
        modes.setdefault(mode, [0, 0])[slot] += pw
    return modes


def _q_op(n: int, mode: int) -> DiffOperator:
    return DiffOperator.multiplication(n, Poly.var(qvar(mode)))


def _p_op(n: int, mode: int) -> DiffOperator:
    return DiffOperator.derivative(n, mode, -Scalar.symbol(IHBAR))


def weyl_quantize(f: Poly, n: int) -> DiffOperator:
    """Weyl ordering by the per-mode McCoy formula, extended linearly.

    For one mode, S(q^m p^k) = 2^-k sum_r C(k, r) p^r q^m p^(k-r) with the
    momentum operator -i*hbar d/dq; different modes commute.
    """
    out = DiffOperator.zero(n)
    for mono, coeff in f.terms.items():
        term = DiffOperator.identity(n)
        for mode, (m, k) in sorted(_mode_powers(mono).items()):
            qop, pop = _q_op(n, mode), _p_op(n, mode)
            mode_sum = DiffOperator.zero(n)
            for r in range(k + 1):
                piece = DiffOperator.identity(n)
                for _ in range(r):
                    piece = op_compose(piece, pop)
                for _ in range(m):
                    piece = op_compose(piece, qop)
                for _ in range(k - r):
                    piece = op_compose(piece, pop)
                mode_sum = mode_sum + piece.scale(Fraction(comb(k, r), 2**k))
            term = op_compose(term, mode_sum)
        out = out + term.scale(coeff)
    return out


def weyl_quantize_brute(f: Poly, n: int) -> DiffOperator:
    """Independent oracle: average over every ordering of the operator word."""
    out = DiffOperator.zero(n)
    for mono, coeff in f.terms.items():
        letters: list[tuple[int, int]] = []
        for mode, (m, k) in sorted(_mode_powers(mono).items()):
            letters += [(mode, 0)] * m + [(mode, 1)] * k
        words = set(itertools.permutations(letters))
        acc = DiffOperator.zero(n)
        for word in sorted(words):
            piece = DiffOperator.identity(n)
            for mode, which in word:
                op = _q_op(n, mode) if which == 0 else _p_op(n, mode)
                piece = op_compose(piece, op)
            acc = acc + piece
        out = out + acc.scale(coeff * Fraction(1, len(words)))
    return out


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
