#!/usr/bin/env python3
"""Benchmark of the convcode library: three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload runs in one process, on one thread.  With ``--trace 0`` it
measures the end-to-end metrics named in BENCHMARK.json, untraced.  With
``--trace 1`` it runs passes untraced, then the same passes again with
every public convcode function wrapped in spans, and reports the
per-layer metrics plus the tracing overhead between the two.  ``all``
runs each workload in its own child process, both ways, and prints every
metric with its unit.

The speed of a shared machine's cores drifts by tens of percent within
seconds to minutes.  So the untraced run times a fixed pure-Python
reference loop (no convcode code) before every pass and around every
set-up probe, and scales each time to a nominal core on which that loop
takes ``NOMINAL_CALIBRATION_S``: a pass that took 0.6 s while the loop
took 0.12 s counts as 0.5 s.  The ``*_norm_*`` metrics and ``setup_s``
are scaled this way; the raw times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, sample counts, failure kinds) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``; traced runs also
write their spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
CALIBRATION_ITERS = 400_000
NOMINAL_CALIBRATION_S = 0.1
# Units of the end-to-end measurements, including those only printed.
UNITS = {"setup_s": "s", "wall_norm_s": "s", "primary_per_norm_s": "1/s",
         "secondary_per_norm_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "raw_setup_s": "s", "raw_wall_s": "s",
         "raw_primary_per_s": "1/s", "raw_secondary_per_s": "1/s",
         "reference_loop_s": "s"}
# Measured but not gated: the unscaled times and the reference loop.
RAW = ("raw_setup_s", "raw_wall_s", "raw_primary_per_s",
       "raw_secondary_per_s", "reference_loop_s")

def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Import convcode from this checkout's src/, never from elsewhere."""
    if not (SRC / "convcode" / "__init__.py").is_file():
        fail(f"no convcode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import convcode

    if Path(convcode.__file__).resolve().parent != (SRC / "convcode").resolve():
        fail(f"convcode imported from {convcode.__file__}, not {SRC}")


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "convcode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def quantile(xs, q: float) -> float:
    """Inclusive linear-interpolated quantile of the samples."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# measuring


def calibrate() -> float:
    """Seconds a fixed pure-Python integer loop takes on this core now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        x = (x << 1 | x >> 31) & 0xFFFFFFFF
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor from this core's seconds to the nominal core's, from the
    reference loop timed before and after the measured work."""
    return NOMINAL_CALIBRATION_S * 2 / (before + after)


def run_passes(wl, tally, seconds: float, tracer=None, probe=None):
    """Closed loop: pass after pass until `seconds` have passed.

    Runs at least the workload's corpus of distinct passes, so that its
    operation counts do not depend on the machine's speed.  Returns the
    wall times of the untraced and of the traced passes and of the
    set-up probes, and the speed scales of the untraced passes and of
    the probes (untraced runs only).  With a tracer, pass i runs twice,
    untraced and traced, in alternating order so that both sides see the
    same machine load; the CLI then runs in-process so that its spans are visible.
    `probe`, when given, runs SETUP_REPEATS times between passes, spread
    over the run, so that its median is not taken from one moment of a
    machine whose speed drifts.
    """
    def timed(i: int, cli_in_process: bool) -> float:
        return tally.run_pass(wl, i % wl.corpus_passes, cli_in_process)

    plain, traced, setups, setup_scales = [], [], [], []
    calibrations = []  # before each untraced pass, and after the last

    def probes_due(elapsed: float) -> bool:
        return (probe is not None and len(setups) < SETUP_REPEATS
                and len(setups) * seconds <= elapsed * SETUP_REPEATS)

    def run_probe() -> None:
        before = calibrate()
        setups.append(probe())
        setup_scales.append(speed_scale(before, calibrate()))

    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < wl.corpus_passes:
        if probes_due(time.perf_counter() - start):
            run_probe()
        if tracer is None:
            calibrations.append(calibrate())
            plain.append(timed(i, cli_in_process=False))
        else:
            for with_trace in ((False, True), (True, False))[i % 2]:
                if with_trace:
                    with tracer:
                        traced.append(timed(i, cli_in_process=True))
                else:
                    plain.append(timed(i, cli_in_process=True))
        i += 1
    while probes_due(float("inf")):
        run_probe()
    if tracer is None:
        calibrations.append(calibrate())
    scales = [speed_scale(a, b) for a, b in zip(calibrations, calibrations[1:])]
    return plain, traced, setups, scales, setup_scales


def setup_probe(args) -> float:
    """Wall time for a fresh process to import convcode and build the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail("set-up probe failed: " + proc.stderr.decode()[-2000:])
    return elapsed


def end_to_end(tally, walls, scales, setup_times, setup_scales) -> dict:
    def median(xs):
        return statistics.median(xs), len(xs)

    ops = tally.op_ms
    out = {
        "setup_s": median([t * k for t, k in zip(setup_times, setup_scales)]),
        "wall_norm_s": median([t * k for t, k in zip(walls, scales)]),
        "raw_setup_s": median(setup_times),
        "raw_wall_s": median(walls),
        "reference_loop_s": median([NOMINAL_CALIBRATION_S / k
                                    for k in scales]),
        "op_p50_ms": (quantile(ops, 0.5), len(ops)),
        "op_p90_ms": (quantile(ops, 0.9), len(ops)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    for key in ("primary", "secondary"):
        rates = [(r, k) for r, k in zip(tally.pass_rates[key], scales)
                 if r is not None]
        out[f"{key}_per_norm_s"] = median([r / k for r, k in rates])
        out[f"raw_{key}_per_s"] = median([r for r, _ in rates])
    return out


def per_layer(tracer, walls_ref, walls_traced) -> dict:
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = (st.calls, 1)
        out[f"{name}.self_s"] = (st.self_s, st.calls)
        out[f"{name}.errors"] = (st.errors, st.calls)
        for key, value in st.extra.items():
            out[f"{name}.{key}"] = (value, st.calls)
        out[f"{name}.self_s_per_item"] = (st.self_s / max(st.calls, 1),
                                          st.calls)
    candidates = out.pop("oracle.candidate_count.candidate_space", (0, 0))
    out["oracle.candidate_space"] = candidates
    for short, (calls, self_s) in tracer.module_totals().items():
        out[f"{short}.calls"] = (calls, 1)
        out[f"{short}.self_s"] = (self_s, calls)
    out["trace.untraced_wall_s"] = (statistics.mean(walls_ref), len(walls_ref))
    out["trace.wall_s"] = (statistics.mean(walls_traced), len(walls_traced))
    out["trace.overhead_frac"] = (statistics.median(
        t / p for p, t in zip(walls_ref, walls_traced)) - 1, len(walls_traced))
    out["trace.spans"] = (tracer.span_count, 1)
    return out


def run_one(args, spec) -> int:
    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        wl = workloads.build(args.workload, args.scale, args.seed, ROOT,
                             scratch)
        tally = workloads.Tally()
        if not args.trace:
            walls, _, setup_times, scales, setup_scales = run_passes(
                wl, tally, args.seconds, probe=lambda: setup_probe(args))
            found = end_to_end(tally, walls, scales, setup_times,
                               setup_scales)
            wanted = spec["end_to_end"]
        else:
            run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
            tracer = Tracer(run_id)
            walls_ref, walls, *_ = run_passes(wl, tally, args.seconds,
                                              tracer)
            tracer.write_spans(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            found = per_layer(tracer, walls_ref, walls)
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    samples = {}
    for m in wanted:
        if m["name"] not in found:
            fail(f"metric {m['name']} is not measured by {args.workload}")
        value, n = found[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = n
    details = {}
    if not args.trace:
        for alias, generic in wl.aliases.items():
            value, n = found[generic]
            details[alias] = {"value": value, "unit": UNITS[generic],
                              "samples": n}
        for name in RAW:
            value, n = found[name]
            details[name] = {"value": value, "unit": UNITS[name],
                             "samples": n}
        for phase, times in tally.phase_s.items():
            details[phase] = {"value": statistics.median(times), "unit": "s",
                              "samples": len(times)}
    details["failed_frac"] = {"value": tally.failed / max(tally.attempted, 1),
                              "unit": "fraction", "samples": tally.attempted}
    result = {"correct": tally.incorrect == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(provenance(args), passes=len(walls),
                  corpus_passes=wl.corpus_passes, samples=samples,
                  details=details, failures=dict(tally.failures),
                  raw={"pass_wall_s": walls, "op_ms": tally.op_ms},
                  **result)
    if not args.trace:
        record["raw"].update(pass_scale=scales, setup_s=setup_times,
                             setup_scale=setup_scales)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")

    prov = {k: record[k] for k in ("git_sha", "src_sha256", "python", "nproc")}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} {json.dumps(prov)}")
    for name, m in list(metrics.items()) + list(details.items()):
        n = samples.get(name, m.get("samples"))
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<8} n={n}")
    for kind, count in sorted(tally.failures.items()):
        print(f"  failure: {kind}: {count}")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own child process, untraced then traced."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                fail(f"{name} trace={trace} failed:\n{proc.stderr[-4000:]}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            keep = result["metrics"] if trace == 0 else {
                k: v for k, v in result["metrics"].items()
                if k.startswith("trace.")}
            for key, value in keep.items():
                merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="oracle_sweep, rm_merge, convert_stream or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance, for self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        workloads.build(args.workload, args.scale, args.seed, ROOT, OUT_DIR)
        return 0
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
