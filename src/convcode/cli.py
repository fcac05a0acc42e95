"""Command-line front end.

Subcommands: rm, merge, verify, report, bounds, oracle, apply, info.
Exit codes: 0 success, 1 semantic failure (e.g. an invalid conversion
matrix), 2 usage/parameter/I-O errors.  Coordinates in text output are
1-indexed; JSON output uses the documented report schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from . import matio
from .codes import (
    CodeError,
    LinearCode,
    dual,
    from_generator,
    min_distance,
)
from .conversion import (
    ConversionError,
    ConversionMatrix,
    ConvertibleInstance,
    CostReport,
    _stack_codewords,
    apply_conversion,
    classify_symbols,
    make_instance,
    rm_merge_procedure,
)
from .gf2 import BitMatrix, BitVector, DimensionError, SizeGuardError, vec_mat
from .oracle import SearchLimits, min_access_cost
from .reedmuller import rm_generator, rm_transformed_generator

OK, FAIL, USAGE = 0, 1, 2
DISTANCE_K_LIMIT = 24


class CliError(Exception):
    """Usage or I/O level failure (exit code 2)."""


def _parse_int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise CliError(f"bad integer list: {text!r}") from exc


def _load_matrix(path: str) -> Tuple[BitMatrix, Optional[Tuple[int, ...]]]:
    try:
        return matio.read_matrix(path)
    except (OSError, matio.MatrixFormatError) as exc:
        raise CliError(f"cannot read matrix from {path}: {exc}") from exc


def _split_blocks(g: BitMatrix, blocks: Tuple[int, ...]) -> List[LinearCode]:
    """Cut a block-diagonal stacked generator into its initial codes."""
    if sum(blocks) != g.cols:
        raise CliError("block sizes must sum to the stacked generator width")
    codes = []
    col = 0
    row = 0
    for n_i in blocks:
        cols_i = list(range(col, col + n_i))
        sub = g.select_columns(cols_i)
        # Rows belonging to this block are exactly the nonzero ones.
        rows_i = [w for j, w in enumerate(sub.row_words) if w]
        nz = [j for j, w in enumerate(sub.row_words) if w]
        if nz != list(range(row, row + len(nz))):
            raise CliError("stacked generator is not block diagonal")
        row += len(nz)
        try:
            codes.append(from_generator(BitMatrix(rows_i, n_i)))
        except (CodeError, DimensionError) as exc:
            raise CliError(f"bad generator block: {exc}") from exc
        col += n_i
    if row != g.rows:
        raise CliError("stacked generator is not block diagonal")
    return codes


def _instance_from_files(
    gi_path: str, blocks: Tuple[int, ...], gf_path: str
) -> ConvertibleInstance:
    gi, file_blocks = _load_matrix(gi_path)
    if not blocks:
        if file_blocks is None:
            raise CliError("no --blocks given and none recorded in the file")
        blocks = file_blocks
    gf, _ = _load_matrix(gf_path)
    try:
        return make_instance(_split_blocks(gi, blocks), from_generator(gf))
    except (CodeError, ConversionError) as exc:
        raise CliError(str(exc)) from exc


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


def _params_record(p: bounds_mod.ParamSet) -> dict:
    return {
        "lambda": p.lam,
        "n_I": list(p.n_initial),
        "k_I": list(p.k_initial),
        "n_F": p.n_final,
        "k_F": p.k_final,
        "d_F": p.d_final,
        "d_F_dual": p.d_final_dual,
    }


def _report_record(
    p: bounds_mod.ParamSet,
    costs: CostReport,
    bound_report: bounds_mod.BoundReport,
) -> dict:
    return {
        "params": _params_record(p),
        "costs": costs.to_record(),
        "bounds": bound_report.to_records(),
    }


def _bound_lines(bound_report: bounds_mod.BoundReport) -> List[str]:
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


def _code_distances(
    code: LinearCode, k_limit: int = DISTANCE_K_LIMIT
) -> Tuple[Optional[int], Optional[int]]:
    d = min_distance(code, k_limit) if code.k <= k_limit else None
    d_dual = (
        min_distance(dual(code), k_limit)
        if 0 < code.n - code.k <= k_limit
        else None
    )
    return d, d_dual


def cmd_rm(args) -> int:
    r, m = args.r, args.m
    if not (0 <= r <= m and m >= 1) or (args.transformed and not 1 <= r <= m - 1):
        raise CliError(f"invalid Reed-Muller parameters r={r}, m={m}")
    if args.transformed:
        mat, row_blocks = rm_transformed_generator(r, m)
        text = matio.format_matrix(mat, blocks=row_blocks, block_sep=" ")
    else:
        text = matio.format_matrix(rm_generator(r, m))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def _merge_audit(r: int, m: int, source: str):
    """The RM merge (r, m) with its ParamSet and bound audit.

    source "formula" takes d_F = 2^(m-r) and d_F_dual = 2^(r+1);
    "exhaustive" scans the final code and its dual, falling back to the
    formula beyond the scan limit.  Also returns the source of each.
    """
    inst, y, costs = rm_merge_procedure(r, m)
    d_f = d_f_dual = None
    if source == "exhaustive":
        d_f, d_f_dual = _code_distances(inst.final_code)
    distance_source = {"d_F": "exhaustive", "d_F_dual": "exhaustive"}
    if d_f is None:
        d_f = 1 << (m - r)
        distance_source["d_F"] = "formula"
    if d_f_dual is None:
        d_f_dual = 1 << (r + 1)
        distance_source["d_F_dual"] = "formula"
    p = bounds_mod.ParamSet(
        inst.n_initial, inst.k_initial, inst.n_final, inst.k_final,
        d_f, d_f_dual,
    )
    return inst, y, costs, p, bounds_mod.audit(p, costs), distance_source


def cmd_merge(args) -> int:
    r, m = args.r, args.m
    if not 1 <= r <= m - 1:
        raise CliError(f"merge needs 1 <= r <= m-1, got r={r}, m={m}")
    inst, y, costs, p, bound_report, _ = _merge_audit(r, m, "formula")
    if args.emit_y:
        matio.write_matrix(args.emit_y, y.y, blocks=inst.n_initial)
    if args.format == "json":
        print(json.dumps(_report_record(p, costs, bound_report), indent=2))
    else:
        print(f"merge RM({r},{m-1}) x RM({r-1},{m-1}) -> RM({r},{m})")
        for line in _format_cost_text(costs):
            print(line)
        print("bounds:")
        for line in _bound_lines(bound_report):
            print(line)
    return FAIL if bound_report.violations else OK


def cmd_verify(args) -> int:
    inst = _instance_from_files(args.gi, _parse_int_list(args.blocks or ""), args.gf)
    y_mat, y_blocks = _load_matrix(args.y)
    blocks = y_blocks or inst.n_initial
    try:
        report = classify_symbols(inst, ConversionMatrix(y_mat, tuple(blocks)))
    except DimensionError as exc:
        raise CliError(str(exc)) from exc
    except ConversionError:
        print("INVALID: matrix does not convert the initial codes to the final code")
        return FAIL
    print("VALID conversion")
    for line in _format_cost_text(report):
        print(line)
    return OK


def cmd_report(args) -> int:
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        if m < 4:
            print(f"warning: skipping m={m} (analysis assumes m = r+2 >= 4)",
                  file=sys.stderr)
            continue
        rows.append((m, m - 2))
    records = []
    for m, r in rows:
        _, _, costs, p, bound_report, distance_source = _merge_audit(
            r, m, "exhaustive"
        )
        rec = _report_record(p, costs, bound_report)
        rec["distance_source"] = distance_source
        records.append((m, r, p, costs, bound_report, rec))
    if args.format == "json":
        print(json.dumps([rec for *_, rec in records], indent=2))
    else:
        for m, r, p, costs, bound_report, _ in records:
            print(f"m={m} r={r}: n_I={list(p.n_initial)} k_I={list(p.k_initial)} "
                  f"n_F={p.n_final} k_F={p.k_final} d_F={p.d_final} "
                  f"d_F_dual={p.d_final_dual}")
            for line in _format_cost_text(costs):
                print("  " + line)
            print("  bounds:")
            for line in _bound_lines(bound_report):
                print("  " + line)
    if any(br.violations for *_, br, _ in records):
        return FAIL
    return OK


def cmd_bounds(args) -> int:
    n_i = _parse_int_list(args.nI)
    k_i = _parse_int_list(args.kI)
    if args.lam is not None and args.lam != len(n_i):
        raise CliError("--lambda disagrees with the length of --nI")
    try:
        p = bounds_mod.ParamSet(n_i, k_i, args.nF, args.kF, args.dF, args.dFdual)
    except bounds_mod.BoundsError as exc:
        raise CliError(str(exc)) from exc
    bound_report = bounds_mod.evaluate_bounds(p)
    if args.format == "json":
        print(json.dumps(
            {"params": _params_record(p), "bounds": bound_report.to_records()},
            indent=2,
        ))
    else:
        for line in _bound_lines(bound_report):
            print(line)
    return OK


def cmd_oracle(args) -> int:
    inst = _instance_from_files(args.gi, _parse_int_list(args.blocks or ""), args.gf)
    lim = SearchLimits(max_k_final=args.max_kf)
    try:
        y, report = min_access_cost(inst, lim)
    except SizeGuardError as exc:
        raise CliError(str(exc)) from exc
    print(f"optimal access cost: {report.access_cost}")
    for line in _format_cost_text(report):
        print(line)
    if args.emit_y:
        matio.write_matrix(args.emit_y, y.y, blocks=inst.n_initial)
    return OK


def cmd_apply(args) -> int:
    if args.gi and not args.gf:
        raise CliError("--gi requires --gf for membership checking")
    y_mat, y_blocks = _load_matrix(args.y)
    blocks = _parse_int_list(args.blocks or "") or y_blocks
    if not blocks:
        raise CliError("no --blocks given and none recorded in the file")
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
        inst = _instance_from_files(args.gi, tuple(blocks), args.gf)
        try:
            out = apply_conversion(
                inst, ConversionMatrix(y_mat, tuple(blocks)), words
            )
        except ConversionError as exc:
            print(f"INVALID input: {exc}")
            return FAIL
    else:
        out = vec_mat(_stack_codewords(words), y_mat)
    text = matio.format_matrix(BitMatrix([out.mask], out.n))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def cmd_info(args) -> int:
    mat, _ = _load_matrix(args.matrix)
    try:
        code = from_generator(mat)
    except CodeError as exc:
        raise CliError(str(exc)) from exc
    d, d_dual = _code_distances(code)
    d_str = str(d) if d is not None else "unknown"
    dd_str = str(d_dual) if d_dual is not None else "unknown"
    print(f"n={code.n} k={code.k} d={d_str} d_dual={dd_str}")
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
    p_oracle.add_argument("--max-kf", dest="max_kf", type=int, default=5)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (CodeError, ConversionError, DimensionError, SizeGuardError,
            bounds_mod.BoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
