"""The full verification report is pinned byte for byte.

``nsq verify --suite all -n 2 --format json``, with and without
``--gauge-seed 5``, runs in-process through ``cli.main``.  Its stdout must
equal ``tests/golden/<name>.txt`` once run times (``"millis": <digits>``)
are replaced by ``"millis": N``.
"""

import re
from pathlib import Path

import pytest

from nsq import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

REPORTS = {
    "verify-all-n2": [],
    "verify-all-n2-gauge5": ["--gauge-seed", "5"],
}


def verify_report(extra: list[str], capsys) -> str:
    code = cli.main(["verify", "--suite", "all", "-n", "2", "--format", "json", *extra])
    assert code == 0
    return re.sub(r'"millis": \d+', '"millis": N', capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_verify_report_matches_golden(name, capsys):
    golden = (GOLDEN / name).with_suffix(".txt").read_text()
    assert verify_report(REPORTS[name], capsys) == golden
