"""Acceptance gate: every criterion at its stated tolerance and time budget.

All checks are exact (rational arithmetic); the stated tolerances are
therefore exact equality plus a wall-clock budget per criterion.  Each test
prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

import itertools
import random
import time

from nsq.algebra import Observable
from nsq.forms import ham_vf, structure_eq_check
from nsq.scalars import Scalar
from nsq.suites import (
    random_full_monomial,
    run_suite,
    suite_basic_sets,
    suite_dirac_q1,
    suite_dirac_q2,
    suite_eq13,
    suite_eq14,
    suite_groenewold,
    suite_jacobi,
    suite_lemma1,
    suite_lemma2_tangency,
    suite_pullback_eq12,
    suite_reduction_homomorphism,
    suite_table1,
    suite_thm1,
)


class _Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        line = (
            f"[{status}] criterion {self.number}: {self.label} "
            f"({elapsed:.2f}s < {self.budget:.0f}s)"
        )
        if detail:
            line += f" -- {detail}"
        print(line)
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
        )


def _suite_ok(report):
    return report.all_passed, f"{report.passed}/{report.cases} cases"


def test_criterion_01_symplectic_golden_table():
    c = _Criterion(1, "cotangent golden brackets exact at n=3", 1.0)
    ok, detail = _suite_ok(suite_eq13(n=3))
    c.finish(ok, detail)


def test_criterion_02_frame_golden_table():
    c = _Criterion(2, "frame-bundle golden brackets with trailing factors, n=3", 5.0)
    ok, detail = _suite_ok(suite_eq14(n=3))
    c.finish(ok, detail)


def test_criterion_03_field_golden_table():
    c = _Criterion(3, "all nine golden vector-field rows exact at n=3", 5.0)
    report = suite_table1(n=3)
    ok = report.all_passed and report.cases == 93
    c.finish(ok, f"{report.passed}/{report.cases} instantiations")


def test_criterion_04_structure_equation_roundtrip():
    c = _Criterion(4, "structure equation for every low-degree monomial", 30.0)
    from nsq.algebra import pitag, qtag, rtag

    failures = 0
    count = 0
    n = 2
    tags = sorted(
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )
    for deg in (1, 2, 3):
        for mono in itertools.combinations_with_replacement(tags, deg):
            f = Observable(n, {mono: Scalar.one()})
            if not structure_eq_check(f, ham_vf(f)):
                failures += 1
            count += 1
    rng = random.Random(7)
    for _ in range(200):
        f = random_full_monomial(3, rng)
        if not structure_eq_check(f, ham_vf(f)):
            failures += 1
        count += 1
    c.finish(failures == 0, f"{count - failures}/{count} monomials (n=2 exhaustive + n=3 random)")


def test_criterion_05_jacobi():
    c = _Criterion(5, "Jacobi identity on 200 seeded random triples", 60.0)
    r2 = suite_jacobi(n=2, seed=7)
    r3 = suite_jacobi(n=3, seed=8)
    ok = r2.all_passed and r3.all_passed
    c.finish(ok, f"{r2.passed + r3.passed}/{r2.cases + r3.cases} triples")


def test_criterion_06_theorem1():
    c = _Criterion(6, "field-bracket constant (p+q-1)!/(p!q!) on 100 pairs", 60.0)
    r2 = suite_thm1(n=2, seed=7)
    r3 = suite_thm1(n=3, seed=8)
    ok = r2.all_passed and r3.all_passed
    c.finish(ok, f"{r2.passed + r3.passed}/{r2.cases + r3.cases} pairs")


def test_criterion_07_form_preservation():
    c = _Criterion(7, "golden-table fields preserve the two-form", 5.0)
    ok, detail = _suite_ok(suite_lemma1(n=3))
    c.finish(ok, detail)


def test_criterion_08_dirac_q1_exhaustive():
    c = _Criterion(8, "bracket-to-commutator, rank-killing map, all pairs", 60.0)
    report = suite_dirac_q1(n=2)
    ok = report.all_passed and report.cases == 55 * 55
    c.finish(ok, f"{report.passed}/{report.cases} ordered pairs")


def test_criterion_09_dirac_q2():
    c = _Criterion(9, "bracket-to-commutator, symbol map, generators + random", 60.0)
    report = suite_dirac_q2(n=2)
    ok, detail = _suite_ok(report)
    c.finish(ok, detail)


def test_criterion_10_subbundle_reduction():
    c = _Criterion(10, "pullback form, reduction homomorphism, tangency", 60.0)
    pb = suite_pullback_eq12(n=2)
    homo = suite_reduction_homomorphism(n=2)
    tang = suite_lemma2_tangency(n=2)
    ok = pb.all_passed and homo.all_passed and tang.all_passed
    c.finish(
        ok,
        f"pullback {pb.passed}/{pb.cases}, homomorphism {homo.passed}/{homo.cases}, "
        f"tangency {tang.passed}/{tang.cases}",
    )


def test_criterion_11_basic_sets():
    c = _Criterion(11, "transitivity ranks, separation, completeness, Heisenberg", 5.0)
    ok, detail = _suite_ok(suite_basic_sets(n=2))
    c.finish(ok, detail)


def test_criterion_12_obstruction_contrast():
    c = _Criterion(12, "ordering witness nonzero downstairs, consistent upstairs", 5.0)
    report = suite_groenewold(n=2)
    ok, detail = _suite_ok(report)
    c.finish(ok, detail)


def test_criterion_13_gauge_invariance():
    c = _Criterion(13, "suites unchanged under injected gauge terms", 60.0)
    names = ["eq14", "jacobi", "thm1", "dirac-q1", "dirac-q2", "reduction-homomorphism"]
    ok = True
    details = []
    for name in names:
        plain = run_suite(name, n=2, seed=7, gauge_seed=None).to_dict()
        gauged = run_suite(name, n=2, seed=7, gauge_seed=1234).to_dict()
        plain.pop("millis")
        gauged.pop("millis")
        same = plain == gauged and not gauged["failed"]
        ok = ok and same
        details.append(f"{name}:{'=' if same else '!='}")
    c.finish(ok, " ".join(details))
