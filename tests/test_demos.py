"""Each demo prints exactly what demos/expected/<name>.txt holds."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_output_matches_expected(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert done.stdout == expected.read_bytes()
