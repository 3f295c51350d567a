"""Examples as smokes: each runs as a user would, exits 0 inside its
time bound and prints its report.

``custom_realms.py`` installs a hand-written ``RealmStrategy`` (interval
realms, like every contiguous strategy); ``pfr_checkpoint.py`` runs
persistent cyclic realms; ``darray_checkpoint.py`` gives every rank its
own filetype, so each aggregator receives one distinct description per
client; ``conditional_sieving.py``, ``quickstart.py`` and
``hpio_scaling.py`` print their tables; ``mpe_timeline.py`` writes
``mpe_timeline.json`` into its working directory, so it runs in a
temporary one.  The examples assert their own byte checks.
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
    "darray_checkpoint.py": ["2x2 grid", "checkpoint written, restored, and verified collectively."],
    "conditional_sieving.py": [
        "-> conditional picked the datasieve side (100% of the better fixed method)",
        "-> conditional picked the naive side (100% of the better fixed method)",
    ],
    "quickstart.py": ["collective write + read-back verified on the server", "totals: 8 rounds"],
    "hpio_scaling.py": ["new+struct", "new+vect", "old+vect", "the paper's headline"],
    "mpe_timeline.py": ["filetype = succinct", "filetype = enumerated", "wrote mpe_timeline.json"],
}

#: examples that write into their working directory
IN_TMP = {"mpe_timeline.py": "mpe_timeline.json"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cwd = tmp_path if name in IN_TMP else ROOT
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env=env, capture_output=True, text=True, timeout=60, cwd=cwd,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    for line in EXAMPLES[name]:
        assert line in proc.stdout, proc.stdout
    assert elapsed < 30, elapsed
    if name in IN_TMP:
        assert (tmp_path / IN_TMP[name]).stat().st_size > 0
