"""Self-test of the benchmark.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that a tiny-size run of every workload emits exactly the
metrics BENCHMARK.json names, that a corrupted conversion matrix is
counted as a failed operation, that operation counts do not depend on
how often passes repeat, that the tracer restores what it patches,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # Every layer appears with its call count and self time.
    for short in MODULES:
        assert f"{short}.calls" in names and f"{short}.self_s" in names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                     "0.2", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        calls = {k: v["value"] for k, v in result["metrics"].items()}
        assert calls["trace.spans"] > 0
        assert calls["gf2.calls"] > 0


def _corrupt(y):
    """Flip the first bit of the last column of a conversion matrix."""
    words = list(y.y.row_words)
    words[0] ^= 1 << (y.y.cols - 1)
    return workloads.conversion.ConversionMatrix(
        workloads.gf2.BitMatrix(words, y.y.cols), y.blocks)


def test_corrupted_conversion_matrix_is_a_failed_op():
    wl = workloads.build("convert_stream", "tiny", 7, ROOT, ROOT)
    clean = workloads.Tally()
    wl.run_pass(0, clean, False)
    assert clean.attempted > 0 and clean.failed == 0

    wl.y = _corrupt(wl.y)
    bad = workloads.Tally()
    wl.run_pass(0, bad, False)
    assert bad.attempted == clean.attempted
    assert bad.failed > 0 and bad.incorrect == bad.failed


def test_operation_counts_do_not_depend_on_repeats():
    wl = workloads.build("oracle_sweep", "tiny", 7, ROOT, ROOT)
    once, again = workloads.Tally(), workloads.Tally()
    once.run_pass(wl, 0, False)
    for j in (0, 1, 0, 1):
        again.run_pass(wl, j, False)
    once.run_pass(wl, 1, False)
    assert (again.attempted, again.failed, again.incorrect) == \
        (once.attempted, once.failed, once.incorrect)
    assert len(again.pass_rates["primary"]) == 4


def test_repeated_pass_with_another_outcome_is_a_failed_op():
    wl = workloads.build("convert_stream", "tiny", 7, ROOT, ROOT)
    t = workloads.Tally()
    t.run_pass(wl, 0, False)
    assert t.failed == 0
    wl.y = _corrupt(wl.y)
    t.run_pass(wl, 0, False)
    assert t.failed == t.incorrect == 1
    assert t.failures == {"repeated pass gave another outcome": 1}


def test_tracer_restores_patched_attributes():
    import convcode
    from convcode import codes, gf2

    before = (gf2.rank, codes.rank, gf2.BitMatrix.__dict__["from_columns"])
    wl = workloads.build("oracle_sweep", "tiny", 7, ROOT, ROOT)
    t0 = time.perf_counter()
    with Tracer("selftest") as tracer:
        assert codes.rank is not before[1]
        wl.run_pass(0, workloads.Tally(), False)
    wall = time.perf_counter() - t0
    after = (gf2.rank, codes.rank, gf2.BitMatrix.__dict__["from_columns"])
    assert after == before and convcode.rank is gf2.rank
    stats = tracer.stats
    assert stats["oracle.min_access_cost"].calls == len(wl.shapes) + 1
    assert stats["gf2.enumerate_invertible"].calls > 0
    # Self times partition the traced time, which lies inside the pass.
    assert 0 < sum(st.self_s for st in stats.values()) <= wall


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "oracle_sweep", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
