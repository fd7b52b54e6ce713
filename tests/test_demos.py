"""The narrative demos run to completion and print their golden output.

Every ``demos/*.py`` is run.  Each demo's stdout must equal
``tests/golden/<demo>.txt`` byte for byte, once run times
(``millis=<digits>``) are replaced by ``millis=N``; a demo without a
golden file fails.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "demo", [p.name for p in sorted((ROOT / "demos").glob("*.py"))]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stdout = re.sub(r"millis=\d+", "millis=N", proc.stdout)
    golden = (GOLDEN / demo).with_suffix(".txt").read_text()
    assert stdout == golden
