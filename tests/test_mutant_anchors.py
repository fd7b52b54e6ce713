"""The mutation check's anchors: each occurs exactly once in the source it edits.

``tools/mutants.py`` refuses a mutant whose anchor is missing or not unique,
but only when the slow mutation job runs; this reads the same sources, and
changes none of them, so that a stale anchor fails with the fast tests.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("nsq_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_anchor_occurs_exactly_once():
    stale = []
    for mutant in load_mutants():
        for path, anchor, _ in mutant.edits:
            source = ROOT / "src" / "nsq" / path
            count = source.read_text().count(anchor) if source.exists() else 0
            if count != 1:
                stale.append(f"{mutant.name}: {count} times in {path}: {anchor.splitlines()[0].strip()!r}")
    assert not stale, "\n".join(stale)
