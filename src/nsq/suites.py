"""Named verification suites with deterministic seeding.

Each suite runs one cluster of engine identities and returns a structured
report.  Suites accept an optional ``gauge_seed``: when set, every Poisson
bracket inside the suite is computed from a representative shifted by a
seeded random valid gauge term, which must leave all results unchanged.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .algebra import (
    FramePoint,
    Observable,
    basic_tags,
    full_tags,
    make_pihat,
    make_qhat,
    make_rhat,
    pitag,
    qtag,
    rtag,
    sym_mul,
    sym_pow,
    tag_str,
)
from .basic_sets import (
    bracket_table,
    hl_bracket,
    HLElement,
    make_b1,
    make_bL,
    momentum_map_condition_check,
    verify_complete,
    verify_separating,
    verify_transitive,
)
from .forms import (
    HamVF,
    VectorField,
    ham_vf,
    lie_preserves_form,
    soldering_dtheta,
    structure_eq_check,
)
from .poisson import (
    bracket,
    jacobi_residual,
    theorem1_check,
    theorem1_constant,
)
from .polynomials import Poly, accumulate, pivar, qvar
from .quantization import b1_monomials, make_q1, make_q2, quantize, record_dirac
from .reports import VerificationReport
from .scalars import Scalar
from .subbundle import (
    SubbundlePoint,
    frame_from_params,
    gauge_fix_for_B1,
    pullback_two_form,
    reduce_observable,
    reduction_homomorphism_check,
    tangency_check,
    two_form_rank,
    slice_check,
    G1Element,
    g1_embed,
    g1_identity,
    g1_inv,
    g1_mul,
    right_action,
)
from .symplectic_ref import (
    classical_bracket,
    frame_table,
    groenewold_witness,
    symplectic_table,
    tables_correspond,
)

DEFAULT_N = 2
DEFAULT_SEED = 7


def _timed(fn):
    def wrapper(n: int = DEFAULT_N, seed: int = DEFAULT_SEED, gauge_seed=None):
        t0 = time.perf_counter()
        report = fn(n, seed, gauge_seed)
        report.millis = int((time.perf_counter() - t0) * 1000)
        return report

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _case_seed(gauge_seed, case: int):
    """The gauge seed of one case of a seeded suite: None stays None."""
    return None if gauge_seed is None else gauge_seed + case


# -- random sampling helpers -----------------------------------------------------


def random_monomial(n: int, rng: random.Random, tags: list, degree: int) -> Observable:
    """Random unit monomial of one degree over a list of generator tags."""
    mono = tuple(sorted(rng.choice(tags) for _ in range(degree)))
    return Observable(n, {mono: Scalar.one()})


def random_full_monomial(n: int, rng: random.Random, max_degree: int = 3) -> Observable:
    """Random monomial over the full generator set qh(i,j), pih(k), rh(k)."""
    return random_monomial(n, rng, full_tags(n), rng.randint(1, max_degree))


def random_b1_monomial(n: int, rng: random.Random, max_degree: int = 3) -> Observable:
    """Random monomial in the basic polynomial algebra of slot 1."""
    return random_monomial(n, rng, basic_tags(n), rng.randint(1, max_degree))


def random_frame_point(n: int, rng: random.Random) -> FramePoint:
    """Random rational frame point with a guaranteed invertible coframe."""
    q = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
    while True:
        pi = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return FramePoint(q, pi)
        except ValueError:
            continue


def random_slice_point(n: int, rng: random.Random) -> FramePoint:
    alpha = Fraction(0)
    while alpha == 0:
        alpha = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
    mu = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n - 1))
    q = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
    return frame_from_params(SubbundlePoint(q, alpha, mu))


# -- golden-table suites ----------------------------------------------------------


@_timed
def suite_eq13(n, seed, gauge_seed):
    """Golden cotangent-bundle bracket table, all instantiations."""
    report = VerificationReport("eq13", n, seed)
    for label, f, g, expected in symplectic_table(n):
        actual = classical_bracket(f, g, n)
        report.record(label, actual == expected, str(expected), str(actual))
    return report


@_timed
def suite_eq14(n, seed, gauge_seed):
    """Golden frame-bundle bracket table, trailing constant factors included."""
    report = VerificationReport("eq14", n, seed)
    for label, f, g, expected in frame_table(n):
        actual = bracket(f, g, gauge_seed=gauge_seed)
        report.record(label, actual == expected, repr(expected), repr(actual))
    report.record(
        "line-by-line correspondence with the cotangent table",
        tables_correspond(n),
    )
    return report


def _table1_rows(n: int):
    """The nine golden observables with hand-built expected fields."""

    def mono(*tags) -> Observable:
        return Observable(n, {tuple(sorted(tags)): Scalar.one()})

    minus_half = Fraction(-1, 2)
    half = Fraction(1, 2)
    rows = []
    for i in range(1, n + 1):
        rows.append(
            (
                f"row1 qh({i},1)",
                mono(qtag(i, 1)),
                HamVF(n, {(): VectorField(v={(1, i): Poly.constant(-1)})}),
            )
        )
        rows.append(
            (
                f"row2 qh({i},1)*rh(1)",
                mono(qtag(i, 1), rtag(1)),
                HamVF(n, {(1,): VectorField(v={(1, i): Poly.constant(minus_half)})}),
            )
        )
    for k in range(1, n + 1):
        rows.append(
            (
                f"row3 pih({k})",
                mono(pitag(k)),
                HamVF(n, {(): VectorField(h={k: Poly.constant(1)})}),
            )
        )
        rows.append(
            (
                f"row4 pih({k})*rh(1)",
                mono(pitag(k), rtag(1)),
                HamVF(n, {(1,): VectorField(h={k: Poly.constant(half)})}),
            )
        )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v: dict[tuple, Poly] = {}
            accumulate(v, (1, j), Poly.var(qvar(i)).scale(minus_half))
            accumulate(v, (1, i), Poly.var(qvar(j)).scale(minus_half))
            rows.append(
                (
                    f"row5 qh({i},1)*qh({j},1)",
                    mono(qtag(i, 1), qtag(j, 1)),
                    HamVF(n, {(1,): VectorField(v=v)}),
                )
            )
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            grades = {}
            for a in range(1, n + 1):
                h: dict[int, Poly] = {}
                accumulate(h, k, Poly.var(pivar(a, j)).scale(half))
                accumulate(h, j, Poly.var(pivar(a, k)).scale(half))
                grades[(a,)] = VectorField(h=h)
            rows.append(
                (f"row6 pih({j})*pih({k})", mono(pitag(j), pitag(k)), HamVF(n, grades))
            )
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            grades = {}
            for a in range(1, n + 1):
                h = {k: Poly.var(qvar(i)).scale(half)} if a == 1 else {}
                v = {(1, i): Poly.var(pivar(a, k)).scale(minus_half)}
                grades[(a,)] = VectorField(h=h, v=v)
            rows.append(
                (f"row7 qh({i},1)*pih({k})", mono(qtag(i, 1), pitag(k)), HamVF(n, grades))
            )
    sixth = Fraction(1, 6)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                v = {}
                accumulate(v, (1, i), (Poly.var(qvar(j)) * Poly.var(qvar(k))).scale(-sixth))
                accumulate(v, (1, j), (Poly.var(qvar(i)) * Poly.var(qvar(k))).scale(-sixth))
                accumulate(v, (1, k), (Poly.var(qvar(i)) * Poly.var(qvar(j))).scale(-sixth))
                rows.append(
                    (
                        f"row8 qh({i},1)*qh({j},1)*qh({k},1)",
                        mono(qtag(i, 1), qtag(j, 1), qtag(k, 1)),
                        HamVF(n, {(1, 1): VectorField(v=v)}),
                    )
                )
    twelfth = Fraction(1, 12)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                grades = {}
                qq = Poly.var(qvar(i)) * Poly.var(qvar(j))
                for a in range(1, n + 1):
                    for b in range(a, n + 1):
                        h = {}
                        if a == 1 and b == 1:
                            accumulate(h, k, qq.scale(sixth))
                        v = {}
                        sym = Poly.zero()
                        if a == 1:
                            sym = sym + Poly.var(pivar(b, k))
                        if b == 1:
                            sym = sym + Poly.var(pivar(a, k))
                        if not sym.is_zero():
                            accumulate(v, (1, i), (sym * Poly.var(qvar(j))).scale(-twelfth))
                            accumulate(v, (1, j), (sym * Poly.var(qvar(i))).scale(-twelfth))
                        vf = VectorField(h=h, v=v)
                        if not vf.is_zero():
                            grades[(a, b)] = vf
                rows.append(
                    (
                        f"row9 qh({i},1)*qh({j},1)*pih({k})",
                        mono(qtag(i, 1), qtag(j, 1), pitag(k)),
                        HamVF(n, grades),
                    )
                )
    return rows


@_timed
def suite_table1(n, seed, gauge_seed):
    """Golden table of Hamiltonian vector fields for the low-degree observables."""
    report = VerificationReport("table1", n, seed)
    for label, obs, expected in _table1_rows(n):
        actual = ham_vf(obs)
        ok = actual == expected and structure_eq_check(obs, actual)
        report.record(label, ok, repr(expected), repr(actual))
    return report


# -- algebraic-law suites ----------------------------------------------------------


@_timed
def suite_jacobi(n, seed, gauge_seed):
    """Jacobi identity on seeded random monomial triples."""
    report = VerificationReport("jacobi", n, seed)
    rng = random.Random(seed)
    for case in range(100):
        f = random_full_monomial(n, rng)
        g = random_full_monomial(n, rng)
        h = random_full_monomial(n, rng)
        residual = jacobi_residual(f, g, h, _case_seed(gauge_seed, case))
        report.record(
            f"jacobi({f!r}; {g!r}; {h!r})",
            residual.is_zero(),
            "0",
            repr(residual),
        )
    return report


@_timed
def suite_thm1(n, seed, gauge_seed):
    """Field-bracket compatibility with constant (p+q-1)!/(p!q!)."""
    report = VerificationReport("thm1", n, seed)
    rng = random.Random(seed)
    required = [(1, 1), (2, 1), (2, 2), (3, 1)]
    cases = []
    for p, q in required:
        for _ in range(5):
            f = random_monomial(n, rng, full_tags(n), p)
            g = random_monomial(n, rng, full_tags(n), q)
            cases.append((f, g))
    while len(cases) < 50:
        f = random_full_monomial(n, rng)
        g = random_full_monomial(n, rng)
        cases.append((f, g))
    for f, g in cases:
        ok = theorem1_check(f, g, gauge_seed)
        report.record(f"thm1({f!r}; {g!r}) C={theorem1_constant(f.rank(), g.rank())}", ok)
    return report


@_timed
def suite_lemma1(n, seed, gauge_seed):
    """The golden-table fields preserve the two-form."""
    report = VerificationReport("lemma1", n, seed)
    for label, obs, _ in _table1_rows(n):
        report.record(label, lie_preserves_form(ham_vf(obs)))
    return report


@_timed
def suite_lemma2_tangency(n, seed, gauge_seed):
    """Slice tangency of gauge-fixed representatives on random basic monomials."""
    report = VerificationReport("lemma2-tangency", n, seed)
    rng = random.Random(seed)
    for _ in range(100):
        f = random_b1_monomial(n, rng)
        x = gauge_fix_for_B1(f)
        report.record(f"tangency({f!r})", tangency_check(x))
    return report


# -- geometry suites ----------------------------------------------------------------


@_timed
def suite_basic_sets(n, seed, gauge_seed):
    """Transitivity, separation, completeness and the Heisenberg table."""
    report = VerificationReport("basic-sets", n, seed)
    rng = random.Random(seed)
    bL, b1 = make_bL(n), make_b1(n)

    points = [random_frame_point(n, rng) for _ in range(10)]
    trans = verify_transitive(bL, points)
    report.record("b_L transitive on the full bundle", trans.all_passed)

    slice_points = [random_slice_point(n, rng) for _ in range(10)]
    trans_b1 = verify_transitive(b1, slice_points, on_B1=True)
    report.record("reduced b_1 transitive on the slice", trans_b1.all_passed)

    if n >= 2:
        full_rank = n + n * n
        under = verify_transitive(b1, points)
        report.record(
            "b_1 fails transitivity on the full bundle",
            not under.all_passed,
            expected=f"rank < {full_rank}",
            actual="spans the full bundle",
        )

    pairs = []
    while len(pairs) < 10:
        u1, u2 = random_frame_point(n, rng), random_frame_point(n, rng)
        if u1 != u2:
            pairs.append((u1, u2))
    report.record("b_L separating", verify_separating(bL, pairs).all_passed)
    report.record("b_1 separating", verify_separating(b1, pairs).all_passed)

    report.record("b_L complete (constant-coefficient criterion)", verify_complete(bL).all_passed)
    report.record("b_1 complete (constant-coefficient criterion)", verify_complete(b1).all_passed)

    # the bracket table of b_1 is the Heisenberg table
    ok = True
    table = bracket_table(b1)
    for s, t in itertools.combinations(basic_tags(n), 2):
        heisenberg = s[0] == "q" and t[0] == "pi" and s[1] == t[1]
        expected = make_rhat(n, 1) if heisenberg else Observable.zero(n)
        if table[(tag_str(s), tag_str(t))] != expected:
            ok = False
    report.record("b_1 bracket table is the Heisenberg table", ok)

    report.record("momentum-map condition on the generator basis", momentum_map_condition_check(n))

    # central extension bracket: antisymmetry and centrality on the basis
    e_q = HLElement(n, qcoef={(1, 1): Fraction(1)})
    e_p = HLElement(n, pcoef={1: Fraction(1)})
    e_r = HLElement(n, center={1: Fraction(1)})
    lb = hl_bracket(e_q, e_p)
    report.record(
        "algebra bracket drops to the center",
        lb.qcoef == {} and lb.pcoef == {} and lb.center != {},
    )
    report.record("center is central", hl_bracket(e_q, e_r).is_zero() and hl_bracket(e_p, e_r).is_zero())
    return report


@_timed
def suite_pullback_eq12(n, seed, gauge_seed):
    """Slice pullback of the two-form and the slice group structure."""
    report = VerificationReport("pullback-eq12", n, seed)
    rng = random.Random(seed)
    pulled = pullback_two_form(n)
    intrinsic = soldering_dtheta(n, 1)
    report.record("pullback equals dP_j ^ dQ^j in the surviving slot", pulled == intrinsic)
    report.record("other slots vanish", all(pulled[i].is_zero() for i in range(2, n + 1)))
    report.record("nondegenerate on the slice", two_form_rank(pulled[1], n) == 2 * n)

    for case in range(5):
        point = random_slice_point(n, rng)
        report.record(f"slice parametrization {case}", slice_check(point))
        a = Fraction(0)
        while a == 0:
            a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        g = G1Element(a, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n - 1)))
        moved = right_action(point, g1_embed(g, n))
        report.record(f"structure group preserves the slice {case}", slice_check(moved))
        gid = g1_mul(g, g1_inv(g))
        report.record(f"group inverse {case}", gid == g1_identity(n))
    return report


@_timed
def suite_reduction_homomorphism(n, seed, gauge_seed):
    """Slice reduction is a bracket homomorphism; slice structure equation."""
    report = VerificationReport("reduction-homomorphism", n, seed)
    rng = random.Random(seed)
    for case in range(100):
        f = random_b1_monomial(n, rng)
        g = random_b1_monomial(n, rng)
        ok = reduction_homomorphism_check(f, g, gauge_seed=_case_seed(gauge_seed, case))
        report.record(f"reduce bracket ({f!r}; {g!r})", ok)
    for _ in range(20):
        f = random_b1_monomial(n, rng)
        red = reduce_observable(f)
        report.record(
            f"slice structure equation ({f!r})",
            structure_eq_check(red, ham_vf(red)),
        )
    return report


# -- quantization suites --------------------------------------------------------------


@_timed
def suite_dirac_q1(n, seed, gauge_seed):
    """Bracket-to-commutator for the rank-killing map on all low-degree pairs."""
    report = VerificationReport("dirac-q1", n, seed)
    qmap = make_q1(n)
    monos = b1_monomials(n, 3)
    for m1, m2 in itertools.product(monos, monos):
        f = Observable(n, {m1: Scalar.one()})
        g = Observable(n, {m2: Scalar.one()})
        record_dirac(report, f"dirac ({f!r}; {g!r})", qmap, f, g, gauge_seed)
    return report


@_timed
def suite_dirac_q2(n, seed, gauge_seed):
    """Bracket-to-commutator for the symbol-carrying quadratic map."""
    report = VerificationReport("dirac-q2", n, seed)
    rng = random.Random(seed)
    qmap = make_q2(n)
    generators = b1_monomials(n, 2)
    for m1, m2 in itertools.product(generators, generators):
        f = Observable(n, {m1: Scalar.one()})
        g = Observable(n, {m2: Scalar.one()})
        record_dirac(report, f"dirac ({f!r}; {g!r})", qmap, f, g, gauge_seed)
    all_monos = b1_monomials(n, 3)
    for _ in range(100):
        m1, m2 = rng.choice(all_monos), rng.choice(all_monos)
        f = Observable(n, {m1: Scalar.one()})
        g = Observable(n, {m2: Scalar.one()})
        record_dirac(report, f"dirac ({f!r}; {g!r})", qmap, f, g, gauge_seed)
    return report


@_timed
def suite_groenewold(n, seed, gauge_seed):
    """Obstruction witness downstairs, exact consistency upstairs."""
    report = VerificationReport("groenewold", n, seed)
    w = groenewold_witness()
    report.record("witness nonzero", not w.is_zero(), "nonzero", "0")
    report.record(
        "witness hbar-degree exactly 2", w.ihbar_degree() == 2, "2", str(w.ihbar_degree())
    )
    report.record("witness matches the brute-force oracle", w == groenewold_witness(brute=True))
    const = w.terms.get((0,) * 1)
    report.record(
        "witness is a constant multiple of the identity",
        list(w.terms) == [(0,)] and const is not None and const.is_constant(),
    )

    # frame-bundle contrast: the same expressions quantize consistently
    qmap = make_q1(n)
    q1h, pi1h = make_qhat(n, 1, 1), make_pihat(n, 1)
    cubic_pairs = [
        (sym_pow(q1h, 3), sym_pow(pi1h, 3)),
        (sym_mul(sym_pow(q1h, 2), pi1h), sym_mul(q1h, sym_pow(pi1h, 2))),
    ]
    for f, g in cubic_pairs:
        record_dirac(report, f"frame-bundle consistency ({f!r}; {g!r})", qmap, f, g, gauge_seed)
        report.record(
            f"both sides vanish ({f!r}; {g!r})",
            quantize(qmap, bracket(f, g)).is_zero()
            and quantize(qmap, f).is_zero()
            and quantize(qmap, g).is_zero(),
        )
    return report


SUITES = {
    "eq13": suite_eq13,
    "eq14": suite_eq14,
    "table1": suite_table1,
    "jacobi": suite_jacobi,
    "thm1": suite_thm1,
    "lemma1": suite_lemma1,
    "lemma2-tangency": suite_lemma2_tangency,
    "basic-sets": suite_basic_sets,
    "pullback-eq12": suite_pullback_eq12,
    "dirac-q1": suite_dirac_q1,
    "dirac-q2": suite_dirac_q2,
    "groenewold": suite_groenewold,
    "reduction-homomorphism": suite_reduction_homomorphism,
}


def run_suite(name: str, n: int = DEFAULT_N, seed: int = DEFAULT_SEED, gauge_seed=None):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](n, seed, gauge_seed)
