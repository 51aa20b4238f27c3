"""Each demo runs in a fresh interpreter and prints exactly its golden text.

The goldens in tests/golden/demos were captured from the demos themselves;
a change to what a demo prints must come with a new golden.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert goldens == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr.decode()
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert r.stdout == golden.read_bytes()
