"""Every demo script runs to completion against the in-tree package and
prints the bytes it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_worked_example.py":
        "07081aae012ac2903f7dafcb018169ad7f24cf075d68b7b7026934c9addf51f8",
    "02_reed_muller_merge.py":
        "450a39d9128f1f2f08cec9895b482fcfa336027970d689b04ad41b6b2c5a3df5",
    "03_bounds_audit.py":
        "77551b8770467e3ec5dc5e36978d4338ebe847d27f8823960fa37767bfae05a7",
    "04_oracle_search.py":
        "de038328748eb10e6fd556493881c4c43c7101dd7172ab1f9560dae4b2a3cf82",
}


def test_demos_found():
    assert DEMOS
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT,
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
