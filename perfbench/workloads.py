"""The benchmark's three workloads.

Each workload is built once from its seed (the set-up), then runs passes
in a closed loop: pass j draws its inputs from (seed, j), calls the
program, times the calls, and checks every output against a reference.
A pass is a fixed amount of work, so pass wall times compare across
seeds.  Reference checks run outside the per-operation timers.

A run's operations are the `corpus_passes` distinct passes of its
workload: run i executes pass i mod corpus_passes, so `attempted` and
`failed` depend on the seed alone, not on how many passes fit into the
measured seconds.  A repeated pass only checks that it gives the outcome
its first run gave.

Every workload fills the same generic measurements, so each one reports
the same end-to-end metric names:

  primary    items of the workload's main phase per second of its time
  secondary  items of its second phase per second of its time
  op_ms      latency samples of its unit operation

and its `aliases` map its own metric names onto them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from convcode import (bounds, cli, codes, conversion, gf2, matio, oracle,
                      reedmuller)

perf = time.perf_counter

# Bounds that hold for every individual conversion matrix; the
# unchanged-symbol floors only bind conversions that keep the maximum.
PER_MATRIX_BOUNDS = frozenset({
    "unchanged_upper_singleton", "unchanged_upper_dual",
    "read_lower_delta", "read_lower_omega",
})


class Tally:
    """Operation counts, reference mismatches and timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: Counter = Counter()  # failure kind -> count
        self.primary = [0, 0.0]    # items, seconds
        self.secondary = [0, 0.0]  # items, seconds
        self.op_ms: List[float] = []
        self.phase_s: Dict[str, List[float]] = {}  # per-pass phase times
        # Per-pass rates of the primary and secondary items, items/s, or
        # None for a pass without such items.
        self.pass_rates: Dict[str, List[float]] = {"primary": [],
                                                   "secondary": []}
        self.outcomes: Dict[int, tuple] = {}  # pass -> its first outcome

    def fail(self, kind: str, wrong: bool) -> None:
        """A failed op; `wrong` marks an output that disagrees with its
        reference, as opposed to a call that raised."""
        self.attempted += 1
        self.failed += 1
        self.failures[kind] += 1
        if wrong:
            self.incorrect += 1

    def check(self, ok: bool, kind: str) -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(kind, wrong=True)

    def phase(self, name: str, seconds: float) -> None:
        self.phase_s.setdefault(name, []).append(seconds)

    def run_pass(self, wl, j: int, cli_in_process: bool) -> float:
        """Runs pass j of workload `wl` and returns its wall time.

        The first run of pass j counts its operations; a later run is
        undone from the counts and only compared with the first, and a
        different outcome is one more failed, incorrect operation.
        """
        before = (self.attempted, self.failed, self.incorrect,
                  Counter(self.failures))
        items = (self.primary[:], self.secondary[:])
        t0 = perf()
        wl.run_pass(j, self, cli_in_process)
        wall = perf() - t0
        for key, (n0, s0), (n1, s1) in zip(
                ("primary", "secondary"), items,
                (self.primary, self.secondary)):
            self.pass_rates[key].append(
                (n1 - n0) / (s1 - s0) if s1 > s0 else None)
        a, f, w, kinds = before
        outcome = (self.attempted - a, self.failed - f, self.incorrect - w,
                   self.failures - kinds)
        first = self.outcomes.setdefault(j, outcome)
        if first is not outcome:
            self.attempted, self.failed, self.incorrect = a, f, w
            self.failures = kinds
            if outcome != first:
                self.fail("repeated pass gave another outcome", wrong=True)
        return wall


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _stack(words: Sequence[gf2.BitVector]) -> gf2.BitVector:
    mask, shift = 0, 0
    for w in words:
        mask |= w.mask << shift
        shift += w.n
    return gf2.BitVector(shift, mask)


def _in_code(parity_rows: Sequence[int], x: gf2.BitVector) -> bool:
    """Membership through the parity checks of the code."""
    return all((h & x.mask).bit_count() % 2 == 0 for h in parity_rows)


def _parity_rows(code: codes.LinearCode) -> Tuple[int, ...]:
    return codes.dual(code).generator.row_words


# ---------------------------------------------------------------------------
# oracle_sweep


# (n1, k1, n2, k2, n_F, copies per pass).  Fixed shapes keep the mix of
# solve sizes the same on every seed; the codes themselves are drawn
# fresh from the seed with no distance filter, so degenerate final codes
# (repeated or zero coordinates) occur at their natural rate.
SWEEP_SHAPES = {
    "full": (
        (1, 1, 1, 1, 3, 1), (1, 1, 1, 1, 5, 1), (1, 1, 2, 1, 3, 1),
        (2, 1, 1, 1, 4, 1), (1, 1, 2, 1, 5, 1), (2, 1, 2, 1, 4, 1),
        (1, 1, 2, 2, 4, 2), (1, 1, 2, 2, 5, 2), (1, 1, 2, 2, 6, 2),
        (2, 2, 1, 1, 4, 2), (2, 2, 1, 1, 5, 2), (2, 2, 1, 1, 6, 2),
        (1, 1, 3, 2, 4, 1), (2, 1, 2, 2, 4, 1), (2, 2, 2, 1, 4, 1),
        (3, 2, 1, 1, 4, 1),
    ),
    "tiny": ((1, 1, 1, 1, 3, 1), (2, 1, 1, 1, 4, 1), (1, 1, 2, 2, 4, 1)),
}
# The worked example: two [3,2] parity codes into one [5,4] code.  Its
# 20.6M-candidate enumeration is far past a pass, so it is solved only,
# against its known optimum.
WORKED_GI = ([[1, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 1, 1]])
WORKED_GF = [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
             [0, 0, 0, 1, 1]]
WORKED_OPTIMUM = 3


class OracleSweep:
    name = "oracle_sweep"
    corpus_passes = 4
    aliases = {"sweep_conversions_per_s": "primary_per_norm_s",
               "oracle_solves_per_s": "secondary_per_norm_s",
               "oracle_solve_p50_ms": "op_p50_ms",
               "oracle_solve_p90_ms": "op_p90_ms"}

    def __init__(self, scale: str, seed: int):
        self.seed = seed
        self.shapes = [s[:5] for s in SWEEP_SHAPES[scale] for _ in range(s[5])]

    def instances(self, i: int):
        rng = _rng(self.seed, i)
        for n1, k1, n2, k2, n_f in self.shapes:
            c1 = codes.random_code(n1, k1, rng)
            c2 = codes.random_code(n2, k2, rng)
            cf = codes.random_code(n_f, k1 + k2, rng)
            yield conversion.make_instance([c1, c2], cf), True
        g1, g2 = (codes.from_generator(gf2.BitMatrix.from_rows(r))
                  for r in WORKED_GI)
        gf = codes.from_generator(gf2.BitMatrix.from_rows(WORKED_GF))
        yield conversion.make_instance([g1, g2], gf), False

    def run_pass(self, i: int, t: Tally, cli_in_process: bool) -> None:
        for inst, enumerate_all in self.instances(i):
            self._instance(inst, enumerate_all, t)

    def _instance(self, inst, enumerate_all: bool, t: Tally) -> None:
        cf = inst.final_code
        p = bounds.ParamSet(inst.n_initial, inst.k_initial, inst.n_final,
                            inst.k_final, codes.min_distance(cf),
                            codes.dual_distance(cf))
        t0 = perf()
        try:
            y, best = oracle.min_access_cost(inst)
        except Exception as exc:
            t.fail(f"min_access_cost raised {type(exc).__name__}", False)
            return
        dt = perf() - t0
        t.op_ms.append(dt * 1e3)
        t.secondary[0] += 1
        t.secondary[1] += dt
        consistent = (conversion.verify_conversion(inst, y) and
                      conversion.classify_symbols(inst, y).to_record()
                      == best.to_record())
        if not enumerate_all:
            t.check(consistent and best.access_cost == WORKED_OPTIMUM,
                    "oracle optimum differs from the worked example's")
            return

        lowest: Optional[int] = None
        count = 0
        t0 = perf()
        for _, report in oracle.enumerate_conversions(inst):
            count += 1
            cost = report.access_cost
            if lowest is None or cost < lowest:
                lowest = cost
            try:
                audited = bounds.audit(p, report)
            except bounds.BoundsError:
                t.fail("audit raised BoundsError", False)
                continue
            t.check(not any(v.name in PER_MATRIX_BOUNDS
                            for v in audited.violations),
                    "per-matrix bound violated")
        dt = perf() - t0
        t.primary[0] += count
        t.primary[1] += dt
        expected = gf2.gl2_order(inst.k_final) << (
            (inst.total_initial_length - inst.k_final) * inst.n_final)
        t.check(consistent and count == expected
                and best.access_cost == lowest,
                "oracle cost differs from the enumerated minimum")


# ---------------------------------------------------------------------------
# rm_merge


RM_PLANS = {
    # merges (r, m), chain (r, m, depth), CLI (rm/info code, merge code)
    "full": (((3, 8), (4, 9), (5, 10)), (3, 9, 2), (2, 6), (4, 9)),
    "tiny": (((2, 4), (2, 5)), (2, 5, 2), (1, 4), (2, 5)),
}


def _closed_forms_hold(inst, report) -> bool:
    """|U1| = n1, |U2| = k2, |R2| = min(k2, n2 - k2)."""
    n1, n2 = inst.n_initial
    _, k2 = inst.k_initial
    return (report.unchanged_counts == (n1, k2)
            and report.read_counts[1] == min(k2, n2 - k2))


class RmMerge:
    name = "rm_merge"
    corpus_passes = 1
    aliases = {"merges_per_s": "primary_per_norm_s",
               "cli_commands_per_s": "secondary_per_norm_s",
               "merge_or_cli_p50_ms": "op_p50_ms",
               "merge_or_cli_p90_ms": "op_p90_ms"}

    def __init__(self, scale: str, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.merges, self.chain, self.rm_code, self.cli_merge = RM_PLANS[scale]
        self.src = root / "src"
        self.scratch = scratch
        self.rm_path = scratch / "rm.txt"

    def run_pass(self, i: int, t: Tally, cli_in_process: bool) -> None:
        build_s = 0.0
        merge_costs = {}
        for r, m in self.merges:
            t0 = perf()
            try:
                inst, y, report = conversion.rm_merge_procedure(r, m)
            except Exception as exc:
                t.fail(f"rm_merge_procedure raised {type(exc).__name__}", False)
                continue
            dt = perf() - t0
            build_s += dt
            t.op_ms.append(dt * 1e3)
            merge_costs[(r, m)] = report.to_record()
            p = bounds.ParamSet(inst.n_initial, inst.k_initial, inst.n_final,
                                inst.k_final, 1 << (m - r), 1 << (r + 1))
            t.check(conversion.verify_conversion(inst, y)
                    and _closed_forms_hold(inst, report)
                    and not bounds.audit(p, report).violations,
                    f"merge ({r},{m}) fails verification or closed forms")
        r, m, depth = self.chain
        t0 = perf()
        try:
            inst, y, report = conversion.rm_merge_chain(r, m, depth)
        except Exception as exc:
            t.fail(f"rm_merge_chain raised {type(exc).__name__}", False)
        else:
            dt = perf() - t0
            build_s += dt
            t.op_ms.append(dt * 1e3)
            p = bounds.ParamSet(inst.n_initial, inst.k_initial, inst.n_final,
                                inst.k_final, 1 << (m - r), 1 << (r + 1))
            t.check(conversion.verify_conversion(inst, y)
                    and inst.lam == depth + 1
                    and report.unchanged_total + report.write_cost
                    == inst.n_final
                    and not bounds.audit(p, report).violations,
                    f"chain ({r},{m},{depth}) fails verification")
        t.primary[0] += len(self.merges) + 1
        t.primary[1] += build_s
        t.phase("merge_build_s", build_s)
        self._cli_script(t, cli_in_process, merge_costs)

    def _cli_script(self, t: Tally, in_process: bool, merge_costs) -> None:
        """rm --out, info on that file, merge --format json."""
        r, m = self.rm_code
        mr, mm = self.cli_merge
        steps = (
            ["rm", "--r", str(r), "--m", str(m), "--out", str(self.rm_path)],
            ["info", str(self.rm_path)],
            ["merge", "--r", str(mr), "--m", str(mm), "--format", "json"],
        )
        cli_s = 0.0
        outputs = []
        for argv in steps:
            t0 = perf()
            code, out = (self._cli_in_process(argv) if in_process
                         else self._cli_subprocess(argv))
            dt = perf() - t0
            cli_s += dt
            t.op_ms.append(dt * 1e3)
            outputs.append((code, out))
        t.secondary[0] += len(steps)
        t.secondary[1] += cli_s
        t.phase("cli_s", cli_s)

        (rc_rm, _), (rc_info, info_out), (rc_merge, merge_out) = outputs
        written = matio.parse_matrix(self.rm_path.read_text())[0] \
            if rc_rm == 0 else None
        t.check(rc_rm == 0 and written == reedmuller.rm_generator(r, m),
                "cli rm output differs from rm_generator")
        k = reedmuller.rm_dimension(r, m)
        d_dual = (1 << (r + 1)) if (1 << m) - k <= cli.DISTANCE_K_LIMIT \
            else "unknown"
        t.check(rc_info == 0 and info_out.strip()
                == f"n={1 << m} k={k} d={1 << (m - r)} d_dual={d_dual}",
                "cli info output differs from the Reed-Muller parameters")
        expected = merge_costs.get((mr, mm))
        if expected is None:
            expected = conversion.rm_merge_procedure(mr, mm)[2].to_record()
        try:
            record = json.loads(merge_out)["costs"]
        except (ValueError, KeyError, TypeError):
            record = None
        t.check(rc_merge == 0 and record == expected,
                "cli merge cost record differs from the in-process report")

    def _cli_subprocess(self, argv: List[str]) -> Tuple[int, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
        proc = subprocess.run(
            [sys.executable, "-m", "convcode.cli", *argv], env=env,
            cwd=self.scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def _cli_in_process(argv: List[str]) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()


# ---------------------------------------------------------------------------
# convert_stream


STREAM_PLANS = {
    # merge (r, m), codewords per pass, rm_merge_apply every k-th,
    # chain (r, m, depth), chain codewords per pass
    "full": ((4, 9), 96, 24, (3, 8, 2), 64),
    "tiny": ((2, 4), 8, 4, (2, 4, 2), 8),
}


class ConvertStream:
    name = "convert_stream"
    corpus_passes = 8
    aliases = {"codewords_per_s": "primary_per_norm_s",
               "rm_apply_codewords_per_s": "secondary_per_norm_s",
               "apply_p50_ms": "op_p50_ms",
               "apply_p90_ms": "op_p90_ms"}

    def __init__(self, scale: str, seed: int):
        self.seed = seed
        (self.rm, self.batch, self.rm_every, chain,
         self.chain_batch) = STREAM_PLANS[scale]
        self.inst, self.y, _ = conversion.rm_merge_procedure(*self.rm)
        self.parity = _parity_rows(self.inst.final_code)
        self.chain_inst, self.chain_y, _ = conversion.rm_merge_chain(*chain)
        self.chain_parity = _parity_rows(self.chain_inst.final_code)

    @staticmethod
    def _codewords(inst, rng: random.Random) -> List[gf2.BitVector]:
        return [codes.encode(c, gf2.BitVector(c.k, rng.getrandbits(c.k)))
                for c in inst.initial_codes]

    def run_pass(self, i: int, t: Tally, cli_in_process: bool) -> None:
        rng = _rng(self.seed, i)
        for j in range(self.batch):
            words = self._codewords(self.inst, rng)
            out = self._convert(self.inst, self.y, self.parity, words, t,
                                latency=True)
            if out is None or j % self.rm_every:
                continue
            t0 = perf()
            try:
                via_rm = conversion.rm_merge_apply(*self.rm, *words)
            except Exception as exc:
                t.fail(f"rm_merge_apply raised {type(exc).__name__}", False)
                continue
            dt = perf() - t0
            t.secondary[0] += 1
            t.secondary[1] += dt
            t.check(via_rm == out, "rm_merge_apply differs from apply_conversion")
        for _ in range(self.chain_batch):
            words = self._codewords(self.chain_inst, rng)
            self._convert(self.chain_inst, self.chain_y, self.chain_parity,
                          words, t, latency=False)

    @staticmethod
    def _convert(inst, y, parity, words, t: Tally, latency: bool):
        t0 = perf()
        try:
            out = conversion.apply_conversion(inst, y, words)
        except Exception as exc:
            t.fail(f"apply_conversion raised {type(exc).__name__}", False)
            return None
        dt = perf() - t0
        t.primary[0] += 1
        t.primary[1] += dt
        if latency:
            t.op_ms.append(dt * 1e3)
        t.check(out == gf2.vec_mat(_stack(words), y.y)
                and _in_code(parity, out),
                "converted codeword is not the final codeword vec_mat gives")
        return out


WORKLOADS = ("oracle_sweep", "rm_merge", "convert_stream")


def build(name: str, scale: str, seed: int, root: Path, scratch: Path):
    if name == "oracle_sweep":
        return OracleSweep(scale, seed)
    if name == "rm_merge":
        return RmMerge(scale, seed, root, scratch)
    if name == "convert_stream":
        return ConvertStream(scale, seed)
    raise ValueError(f"unknown workload {name!r}")
