"""Structured pass/fail records for identity suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

DEFAULT_N = 2  # the dimension of a suite run when none is given
DEFAULT_SEED = 7  # the seed of a suite run when none is given


@dataclass
class Failure:
    case: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    """Outcome of one named verification suite.

    ``passed + failed == cases`` always holds; reports are deterministic
    for a fixed seed and case ordering is by case id.
    """

    suite: str
    n: int
    seed: int
    cases: int = 0
    passed: int = 0
    failed: int = 0
    failures: list[Failure] = field(default_factory=list)
    millis: int = 0

    def record(self, case, ok: bool, expected: str = "pass", actual: str = "fail"):
        """Count one case.  ``case`` is its name, or a function of no
        arguments that forms it: only a failure keeps the name, so a
        function is called only then."""
        self.cases += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(Failure(case() if callable(case) else case, expected, actual))

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [
                {"case": f.case, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
            "millis": self.millis,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "PASS" if self.all_passed else "FAIL"
        head = (
            f"[{status}] suite={self.suite} n={self.n} seed={self.seed} "
            f"cases={self.cases} passed={self.passed} failed={self.failed} "
            f"millis={self.millis}"
        )
        lines = [head]
        for f in self.failures:
            lines.append(f"  case {f.case}: expected {f.expected}, got {f.actual}")
        return "\n".join(lines)
