"""Examples as smokes: each runs as a user would, exits 0 inside its
time bound and prints its report.

``custom_realms.py`` installs a hand-written ``RealmStrategy`` (interval
realms, like every contiguous strategy); ``pfr_checkpoint.py`` runs
persistent cyclic realms.  Both assert their own byte checks.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: example -> lines its report must contain
EXAMPLES = {
    "custom_realms.py": ["even partition of the AAR", "histogram load-balanced", "hand-written FrontLoaded"],
    "pfr_checkpoint.py": ["PFR=off: data OK", "PFR=on : data OK"],
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env=env, capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    for line in EXAMPLES[name]:
        assert line in proc.stdout, proc.stdout
    assert elapsed < 30, elapsed
