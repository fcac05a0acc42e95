"""Command-line front end.

Subcommands: rm, merge, verify, report, bounds, oracle, apply, info.
Exit codes: 0 success, 1 semantic failure (e.g. an invalid conversion
matrix), 2 usage/parameter/I-O errors.  Coordinates in text output are
1-indexed; JSON output uses the documented report schema.

Stdout has two writers: _emit prints a command's text lines, or its
record as JSON under --format json, and matio.write_matrix streams
matrix text to --out or stdout.  Stderr carries warnings and errors.

Each command imports only the modules it runs: the module level loads
gf2, codes, reedmuller and matio, and the commands that need
conversion, bounds, oracle or json import them when they are called.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from . import matio
from .codes import (
    DEFAULT_K_LIMIT,
    CodeError,
    LinearCode,
    dual_distance,
    from_generator,
    min_distance,
)
from .gf2 import BitMatrix, BitVector, DimensionError, SizeGuardError
from .reedmuller import rm_generator, rm_transformed_generator

if TYPE_CHECKING:
    from .bounds import BoundReport, ParamSet
    from .conversion import ConvertibleInstance, CostReport

OK, FAIL, USAGE = 0, 1, 2
DISTANCE_K_LIMIT = DEFAULT_K_LIMIT


class CliError(Exception):
    """Usage or I/O level failure (exit code 2)."""


def _parse_int_list(text: Optional[str]) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in (text or "").split(",") if p)
    except ValueError as exc:
        raise CliError(f"bad integer list: {text!r}") from exc


def _load_matrix(path: str) -> Tuple[BitMatrix, Optional[Tuple[int, ...]]]:
    try:
        return matio.read_matrix(path)
    except (OSError, matio.MatrixFormatError) as exc:
        raise CliError(f"cannot read matrix from {path}: {exc}") from exc


def _blocks(*choices: Optional[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The first nonempty choice: the --blocks flag, then file #blocks."""
    for blocks in choices:
        if blocks:
            return blocks
    raise CliError("no --blocks given and none recorded in the file")


def _split_blocks(g: BitMatrix, blocks: Tuple[int, ...]) -> List[LinearCode]:
    """Cut a block-diagonal stacked generator into its initial codes:
    block i takes the next rows that meet its columns, each inside them."""
    if min(blocks) < 1 or sum(blocks) != g.cols:
        raise CliError("block sizes must be >= 1 and sum to the G_I width")
    codes = []
    row = col = 0
    for n_i in blocks:
        mask, start = ((1 << n_i) - 1) << col, row
        while row < g.rows and g.row_words[row] & mask:
            if g.row_words[row] & ~mask:
                raise CliError("stacked generator is not block diagonal")
            row += 1
        try:
            codes.append(from_generator(
                BitMatrix([w >> col for w in g.row_words[start:row]], n_i)))
        except (CodeError, DimensionError) as exc:
            raise CliError(f"bad generator block: {exc}") from exc
        col += n_i
    if row != g.rows:
        raise CliError("stacked generator is not block diagonal")
    return codes


def _instance_from_files(
    gi_path: str, gf_path: str, flag_blocks: Tuple[int, ...]
) -> ConvertibleInstance:
    from .conversion import make_instance

    gi, file_blocks = _load_matrix(gi_path)
    blocks = _blocks(flag_blocks, file_blocks)
    gf, _ = _load_matrix(gf_path)
    return make_instance(_split_blocks(gi, blocks), from_generator(gf))


def _format_cost_text(report: CostReport) -> List[str]:
    lines = []
    for i, (u, r) in enumerate(
        zip(report.unchanged_per_code, report.read_per_code), start=1
    ):
        u_str = ",".join(str(j + 1) for j in sorted(u)) or "-"
        r_str = ",".join(str(j + 1) for j in sorted(r)) or "-"
        lines.append(f"code {i}: |U|={len(u)} (final {u_str})  |R|={len(r)} (local {r_str})")
    w_str = ",".join(str(j + 1) for j in sorted(report.new_symbols)) or "-"
    lines.append(f"new symbols: |W|={report.write_cost} (final {w_str})")
    lines.append(
        f"read={report.read_cost} write={report.write_cost} "
        f"access={report.access_cost}"
    )
    return lines


def _report_record(
    p: ParamSet,
    costs: CostReport,
    bound_report: BoundReport,
) -> dict:
    return {
        "params": p.to_record(),
        "costs": costs.to_record(),
        "bounds": bound_report.to_records(),
    }


def _bound_lines(bound_report: BoundReport) -> List[str]:
    lines = []
    for rec in bound_report.records:
        where = "total" if rec.index is None else f"i={rec.index + 1}"
        if not rec.applicable:
            lines.append(f"  {rec.name:<28} {where:<6} not applicable")
            continue
        verdict = ""
        if rec.satisfied is not None:
            verdict = " TIGHT" if rec.tight else f" slack={rec.slack}"
            verdict += "" if rec.satisfied else " VIOLATED"
        lines.append(f"  {rec.name:<28} {where:<6} value={rec.value}{verdict}")
    return lines


def _audit_lines(
    costs: CostReport, bound_report: BoundReport
) -> List[str]:
    """The cost lines, then the audited bounds, as merge and report print
    them."""
    return [*_format_cost_text(costs), "bounds:", *_bound_lines(bound_report)]


def _code_distances(code: LinearCode) -> Tuple[Optional[int], Optional[int]]:
    """d and d_dual of the code; None where the scan exceeds the limit."""
    d = min_distance(code) if code.k <= DISTANCE_K_LIMIT else None
    d_dual = (dual_distance(code) if 0 < code.n - code.k <= DISTANCE_K_LIMIT
              else None)
    return d, d_dual


def _emit(lines: Iterable[str], record: object = None, fmt: str = "text") -> None:
    """Print the command's record as JSON when fmt is "json", else its
    text lines."""
    if fmt == "json":
        import json

        print(json.dumps(record, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_rm(args) -> int:
    if args.transformed:
        mat, blocks = rm_transformed_generator(args.r, args.m)
    else:
        mat, blocks = rm_generator(args.r, args.m), None
    # --out '' writes to stdout, as no --out does.
    matio.write_matrix(args.out or None, mat, blocks, block_sep=" ")
    return OK


def _merge_audit(r: int, m: int, source: str):
    """The RM merge (r, m) with its ParamSet and bound audit.

    source "formula" takes d_F and d_F_dual as rm_code presets them;
    "exhaustive" scans a fresh copy of the final code and its dual, keeping
    the formula where the scan limit stops a scan.  Also returns sources.
    """
    from .bounds import ParamSet, audit
    from .conversion import rm_merge_procedure

    inst, y, costs = rm_merge_procedure(r, m)
    final = inst.final_code
    dists = [min_distance(final), dual_distance(final)]
    sources = ["formula", "formula"]
    if source == "exhaustive":
        scanned = _code_distances(from_generator(final.generator))
        for j, d in enumerate(scanned):
            if d is not None:
                dists[j], sources[j] = d, "exhaustive"
    p = ParamSet(
        inst.n_initial, inst.k_initial, inst.n_final, inst.k_final, *dists
    )
    distance_source = dict(zip(("d_F", "d_F_dual"), sources))
    return inst, y, costs, p, audit(p, costs), distance_source


def cmd_merge(args) -> int:
    r, m = args.r, args.m
    inst, y, costs, p, bound_report, _ = _merge_audit(r, m, "formula")
    if args.emit_y:
        matio.write_matrix(args.emit_y, y.y, blocks=inst.n_initial)
    _emit([f"merge RM({r},{m-1}) x RM({r-1},{m-1}) -> RM({r},{m})",
           *_audit_lines(costs, bound_report)],
          _report_record(p, costs, bound_report), args.format)
    return FAIL if bound_report.violations else OK


def cmd_verify(args) -> int:
    from .conversion import ConversionError, ConversionMatrix, classify_symbols

    flag_blocks = _parse_int_list(args.blocks)
    inst = _instance_from_files(args.gi, args.gf, flag_blocks)
    y_mat, y_blocks = _load_matrix(args.y)
    y = ConversionMatrix(y_mat, _blocks(flag_blocks, y_blocks, inst.n_initial))
    try:
        report = classify_symbols(inst, y)
    except ConversionError:
        _emit(["INVALID: matrix does not convert the initial codes to the final code"])
        return FAIL
    _emit(["VALID conversion", *_format_cost_text(report)])
    return OK


def cmd_report(args) -> int:
    from .conversion import _check_merge_size

    if args.m_min > args.m_max:
        raise CliError("empty range: --m-min must be <= --m-max")
    if args.m_max >= 4:
        # The merge's guard is monotone in m: refuse before building any.
        _check_merge_size(args.m_max)
    records, lines, violated = [], [], False
    for m in range(args.m_min, args.m_max + 1):
        if m < 4:
            print(f"warning: skipping m={m} (analysis assumes m = r+2 >= 4)",
                  file=sys.stderr)
            continue
        r = m - 2
        _, _, costs, p, bound_report, distance_source = _merge_audit(
            r, m, "exhaustive"
        )
        records.append({**_report_record(p, costs, bound_report),
                        "distance_source": distance_source})
        lines.append(f"m={m} r={r}: n_I={list(p.n_initial)} k_I={list(p.k_initial)} "
                     f"n_F={p.n_final} k_F={p.k_final} d_F={p.d_final} "
                     f"d_F_dual={p.d_final_dual}")
        lines += ["  " + line for line in _audit_lines(costs, bound_report)]
        violated |= bool(bound_report.violations)
    _emit(lines, records, args.format)
    return FAIL if violated else OK


def cmd_bounds(args) -> int:
    from .bounds import ParamSet, evaluate_bounds

    n_i = _parse_int_list(args.nI)
    k_i = _parse_int_list(args.kI)
    if args.lam is not None and args.lam != len(n_i):
        raise CliError("--lambda disagrees with the length of --nI")
    p = ParamSet(n_i, k_i, args.nF, args.kF, args.dF, args.dFdual)
    bound_report = evaluate_bounds(p)
    _emit(_bound_lines(bound_report),
          {"params": p.to_record(), "bounds": bound_report.to_records()},
          args.format)
    return OK


def cmd_oracle(args) -> int:
    from .oracle import min_access_cost

    inst = _instance_from_files(args.gi, args.gf, _parse_int_list(args.blocks))
    y, report = min_access_cost(inst)
    if args.emit_y:
        matio.write_matrix(args.emit_y, y.y, blocks=inst.n_initial)
    _emit([f"optimal access cost: {report.access_cost}",
           *_format_cost_text(report)])
    return OK


def cmd_apply(args) -> int:
    from .conversion import (ConversionError, ConversionMatrix, _run_matrix,
                             apply_conversion)

    if args.gi and not args.gf:
        raise CliError("--gi requires --gf for membership checking")
    if args.gf and not args.gi:
        raise CliError("--gf requires --gi for membership checking")
    y_mat, y_blocks = _load_matrix(args.y)
    blocks = _blocks(_parse_int_list(args.blocks), y_blocks)
    y = ConversionMatrix(y_mat, blocks)
    input_paths = [p for p in args.inputs.split(",") if p]
    if len(input_paths) != len(blocks):
        raise CliError("need exactly one input file per block")
    words = []
    for path, n_i in zip(input_paths, blocks):
        mat, _ = _load_matrix(path)
        if mat.rows != 1 or mat.cols != n_i:
            raise CliError(f"{path}: expected a 1x{n_i} matrix")
        words.append(BitVector(n_i, mat.row_words[0]))
    if args.gi:
        inst = _instance_from_files(args.gi, args.gf, blocks)
        try:
            out = apply_conversion(inst, y, words)
        except ConversionError as exc:
            _emit([f"INVALID input: {exc}"])
            return FAIL
    else:
        out = _run_matrix(y, words)
    matio.write_matrix(args.out or None, BitMatrix([out.mask], out.n))
    return OK


def cmd_info(args) -> int:
    mat, _ = _load_matrix(args.matrix)
    code = from_generator(mat)
    d, d_dual = _code_distances(code)
    d_str = str(d) if d is not None else "unknown"
    dd_str = str(d_dual) if d_dual is not None else "unknown"
    _emit([f"n={code.n} k={code.k} d={d_str} d_dual={dd_str}"])
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convcode",
        description="Convertible binary codes in the merge regime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rm = sub.add_parser("rm", help="emit a Reed-Muller generator matrix")
    p_rm.add_argument("--r", type=int, required=True)
    p_rm.add_argument("--m", type=int, required=True)
    p_rm.add_argument("--transformed", action="store_true",
                      help="three-block row-equivalent form with #blocks")
    p_rm.add_argument("--out", help="output path (default stdout)")
    p_rm.set_defaults(func=cmd_rm)

    p_merge = sub.add_parser("merge", help="Reed-Muller merge report")
    p_merge.add_argument("--r", type=int, required=True)
    p_merge.add_argument("--m", type=int, required=True)
    p_merge.add_argument("--emit-y", dest="emit_y")
    p_merge.add_argument("--format", choices=["text", "json"], default="text")
    p_merge.set_defaults(func=cmd_merge)

    p_verify = sub.add_parser("verify", help="check a conversion matrix")
    p_verify.add_argument("--gi", required=True,
                          help="stacked block-diagonal initial generator file")
    p_verify.add_argument("--blocks", help="initial lengths n1,n2,...")
    p_verify.add_argument("--gf", required=True, help="final generator file")
    p_verify.add_argument("--y", required=True, help="conversion matrix file")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser(
        "report", help="merge-vs-bounds comparison at m = r + 2"
    )
    p_report.add_argument("--m-min", type=int, default=4)
    p_report.add_argument("--m-max", type=int, default=6)
    p_report.add_argument("--format", choices=["text", "json"], default="text")
    p_report.set_defaults(func=cmd_report)

    p_bounds = sub.add_parser("bounds", help="evaluate cost bounds")
    p_bounds.add_argument("--lambda", dest="lam", type=int)
    p_bounds.add_argument("--nI", required=True)
    p_bounds.add_argument("--kI", required=True)
    p_bounds.add_argument("--nF", type=int, required=True)
    p_bounds.add_argument("--kF", type=int, required=True)
    p_bounds.add_argument("--dF", type=int, required=True)
    p_bounds.add_argument("--dFdual", type=int, required=True)
    p_bounds.add_argument("--format", choices=["text", "json"], default="text")
    p_bounds.set_defaults(func=cmd_bounds)

    p_oracle = sub.add_parser("oracle", help="exhaustive minimum access cost")
    p_oracle.add_argument("--gi", required=True)
    p_oracle.add_argument("--blocks")
    p_oracle.add_argument("--gf", required=True)
    p_oracle.add_argument("--emit-y", dest="emit_y")
    p_oracle.set_defaults(func=cmd_oracle)

    p_apply = sub.add_parser("apply", help="run a conversion on codewords")
    p_apply.add_argument("--y", required=True)
    p_apply.add_argument("--blocks")
    p_apply.add_argument("--inputs", required=True,
                         help="comma-separated 1xn matrix files, one per block")
    p_apply.add_argument("--gi", help="optional stacked generator for membership checks")
    p_apply.add_argument("--gf", help="final generator (with --gi)")
    p_apply.add_argument("--out")
    p_apply.set_defaults(func=cmd_apply)

    p_info = sub.add_parser("info", help="basic parameters of a code")
    p_info.add_argument("matrix", help="generator matrix file")
    p_info.set_defaults(func=cmd_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (CliError, OSError, SizeGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
