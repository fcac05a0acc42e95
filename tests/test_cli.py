import json
import sys

import pytest

from convcode import bounds, conversion, matio
from convcode.bounds import BoundRecord, BoundReport, audit
from convcode.cli import CliError, _split_blocks, main
from convcode.gf2 import BitMatrix, BitVector, vec_mat
from convcode.matio import format_matrix, parse_matrix, read_matrix
from convcode.reedmuller import rm_code, rm_generator, rm_transformed_generator
from tests.conftest import run_fresh


def test_rm_stdout(capsys):
    assert main(["rm", "--r", "1", "--m", "2"]) == 0
    out = capsys.readouterr().out
    m, blocks = parse_matrix(out)
    assert m.to_lists() == [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]
    assert blocks is None


def test_rm_transformed_blocks(tmp_path):
    path = tmp_path / "g.txt"
    assert main(
        ["rm", "--r", "1", "--m", "2", "--transformed", "--out", str(path)]
    ) == 0
    m, blocks = read_matrix(path)
    assert blocks == (1, 1, 1)
    assert m.to_lists() == [[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]]


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    assert main(["rm", "--r", "1", "--m", "2", "--out", missing]) == 2
    assert main(["merge", "--r", "1", "--m", "2", "--emit-y", missing]) == 2
    assert "no-such-dir" in capsys.readouterr().err


def test_rm_bad_params():
    assert main(["rm", "--r", "5", "--m", "2"]) == 2
    assert main(["rm", "--r", "2", "--m", "2", "--transformed"]) == 2


def test_merge_text(capsys):
    assert main(["merge", "--r", "2", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "RM(2,3) x RM(1,3) -> RM(2,4)" in out
    assert "access=15" in out
    assert "VIOLATED" not in out


def test_merge_json_schema(capsys):
    assert main(["merge", "--r", "2", "--m", "4", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"params", "costs", "bounds"}
    assert rec["params"] == {
        "lambda": 2, "n_I": [8, 8], "k_I": [7, 4],
        "n_F": 16, "k_F": 11, "d_F": 4, "d_F_dual": 8,
    }
    assert rec["costs"] == {"U": [8, 4], "W": 4, "R": [7, 4], "access": 15}
    by_name = {(b["name"], b["i"]): b for b in rec["bounds"]}
    sing1 = by_name[("unchanged_upper_singleton", 1)]
    assert sing1["value"] == 8 and sing1["tight"] is True
    dual1 = by_name[("unchanged_upper_dual", 1)]
    assert dual1["applicable"] is False
    dual2 = by_name[("unchanged_upper_dual", 2)]
    assert dual2["value"] == 4 and dual2["tight"] is True
    assert not any(b["satisfied"] is False for b in rec["bounds"])


def test_merge_emit_y_verifies(tmp_path, capsys):
    y_path = tmp_path / "y.txt"
    assert main(
        ["merge", "--r", "2", "--m", "4", "--emit-y", str(y_path)]
    ) == 0
    _, blocks = read_matrix(y_path)
    assert blocks == (8, 8)


def test_merge_bad_params():
    assert main(["merge", "--r", "3", "--m", "3"]) == 2


def test_verify_valid(example_files, capsys):
    gi, gf, y = example_files
    code = main(["verify", "--gi", str(gi), "--gf", str(gf), "--y", str(y)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VALID conversion" in out
    assert "access=3" in out
    # 1-indexed coordinate lists.
    assert "|U|=2 (final 1,2)" in out
    assert "|R|=1 (local 3)" in out
    assert "|W|=1 (final 5)" in out


def test_verify_invalid(example_files, tmp_path, capsys):
    gi, gf, _ = example_files
    bad = tmp_path / "bad.txt"
    bad.write_text(format_matrix(BitMatrix([0] * 6, 5)))
    code = main(["verify", "--gi", str(gi), "--gf", str(gf), "--y", str(bad)])
    assert code == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_blocks_flag_overrides(example_files):
    gi, gf, y = example_files
    assert main(
        ["verify", "--gi", str(gi), "--blocks", "3,3",
         "--gf", str(gf), "--y", str(y)]
    ) == 0


def test_verify_blocks_flag_overrides_y_file(example_files, tmp_path, capsys):
    # As in apply, --blocks beats the Y file's #blocks line.
    gi, gf, y = example_files
    y_mat, _ = read_matrix(y)
    y24 = tmp_path / "y24.txt"
    y24.write_text(format_matrix(y_mat, blocks=(2, 4)))
    assert "#blocks 2,4" in y24.read_text()
    code = main(["verify", "--gi", str(gi), "--blocks", "3,3",
                 "--gf", str(gf), "--y", str(y24)])
    assert code == 0
    assert "VALID conversion" in capsys.readouterr().out
    # Without the flag the file's blocks still apply, and do not match.
    assert main(["verify", "--gi", str(gi), "--gf", str(gf),
                 "--y", str(y24)]) == 2


def test_verify_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(
        ["verify", "--gi", missing, "--gf", missing, "--y", missing]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_report_json(capsys):
    assert main(
        ["report", "--m-min", "4", "--m-max", "5", "--format", "json"]
    ) == 0
    recs = json.loads(capsys.readouterr().out)
    assert [r["params"]["n_F"] for r in recs] == [16, 32]
    for r in recs:
        assert set(r) == {"params", "costs", "bounds", "distance_source"}
        assert not any(b["satisfied"] is False for b in r["bounds"])
    assert recs[0]["distance_source"] == {
        "d_F": "exhaustive", "d_F_dual": "exhaustive"
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_refuses_an_empty_range(capsys, fmt):
    assert main(
        ["report", "--m-min", "5", "--m-max", "4", "--format", fmt]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_report_refuses_a_range_past_the_guard_before_building(
    capsys, monkeypatch
):
    # The merge's size guard grows with m, so the last m decides: nothing
    # in the range is built when it is refused.
    def fail(r, m):
        raise AssertionError(f"built the merge ({r}, {m})")

    monkeypatch.setattr(conversion, "rm_merge_procedure", fail)
    assert main(["report", "--m-min", "4", "--m-max", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_report_skips_small_m(capsys):
    assert main(["report", "--m-min", "3", "--m-max", "4"]) == 0
    captured = capsys.readouterr()
    assert "skipping m=3" in captured.err
    assert "m=4 r=2" in captured.out


def test_bounds_text(capsys):
    assert main(
        ["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5",
         "--kF", "4", "--dF", "2", "--dFdual", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "unchanged_upper_singleton" in out
    assert "value=2" in out


def test_bounds_json(capsys):
    assert main(
        ["bounds", "--lambda", "2", "--nI", "3,3", "--kI", "2,2",
         "--nF", "5", "--kF", "4", "--dF", "2", "--dFdual", "5",
         "--format", "json"]
    ) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"params", "bounds"}
    names = {b["name"] for b in rec["bounds"]}
    assert "read_lower_omega" in names
    pinch = [b for b in rec["bounds"] if b["name"] == "unchanged_total_pinch"]
    assert pinch[0]["applicable"] is True and pinch[0]["value"] == 4


def test_params_record_is_the_param_sets_own(capsys):
    p = bounds.ParamSet((3, 3), (2, 2), 5, 4, 2, 5)
    assert list(p.to_record()) == ["lambda", "n_I", "k_I", "n_F", "k_F",
                                   "d_F", "d_F_dual"]
    assert main(
        ["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5",
         "--kF", "4", "--dF", "2", "--dFdual", "5", "--format", "json"]
    ) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert list(params.items()) == list(p.to_record().items())


def test_bounds_rejects_bad_params(capsys):
    assert main(
        ["bounds", "--lambda", "3", "--nI", "3,3", "--kI", "2,2",
         "--nF", "5", "--kF", "4", "--dF", "2", "--dFdual", "5"]
    ) == 2
    assert main(
        ["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5",
         "--kF", "4", "--dF", "4", "--dFdual", "5"]
    ) == 2
    for d_f, d_f_dual in (("0", "-3"), ("2", "0"), ("2", "99")):
        assert main(
            ["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5",
             "--kF", "4", "--dF", d_f, "--dFdual", d_f_dual]
        ) == 2
    assert "d_F" in capsys.readouterr().err


def test_bounds_bad_integer_list_exits_2(capsys):
    assert main(
        ["bounds", "--nI", "3,x", "--kI", "2,2", "--nF", "5",
         "--kF", "4", "--dF", "2", "--dFdual", "5"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad integer list: '3,x'" in captured.err


def violating_audit(p, costs):
    """An audit that adds one violated record: the read count of code 1
    against a floor one above it."""
    reads = costs.read_counts[0]
    bad = BoundRecord("read_lower_omega", 0, reads + 1, reads, "lower")
    return BoundReport(audit(p, costs).records + (bad,))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["merge", "--r", "2", "--m", "4"],
    ["report", "--m-min", "4", "--m-max", "5"],
])
def test_violated_bound_exits_1(monkeypatch, capsys, argv, fmt):
    monkeypatch.setattr(bounds, "audit", violating_audit)
    assert main(argv + ["--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "text":
        assert "VIOLATED" in out
    else:
        recs = json.loads(out)
        recs = recs if isinstance(recs, list) else [recs]
        assert all(r["bounds"][-1]["satisfied"] is False for r in recs)


def test_oracle_example(example_files, tmp_path, capsys):
    gi, gf, _ = example_files
    y_out = tmp_path / "best.txt"
    code = main(
        ["oracle", "--gi", str(gi), "--gf", str(gf), "--emit-y", str(y_out)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "optimal access cost: 3" in out
    # The emitted matrix must itself verify.
    assert main(
        ["verify", "--gi", str(gi), "--gf", str(gf), "--y", str(y_out)]
    ) == 0


def test_oracle_unwritable_emit_y_prints_nothing(example_files, tmp_path,
                                                 capsys):
    # Y is written before the result is printed, as merge does, so a bad
    # --emit-y path fails the command before any of it reaches stdout.
    gi, gf, _ = example_files
    missing = str(tmp_path / "no-such-dir" / "y.txt")
    code = main(
        ["oracle", "--gi", str(gi), "--gf", str(gf), "--emit-y", missing]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no-such-dir" in captured.err


def test_oracle_refuses_k_final_6_by_its_candidate_count(tmp_path, capsys):
    # I_6 in blocks 3,3 into [I_6 | 1]: inside the shape caps, but
    # |GL(6, 2)| candidates exceed MAX_CANDIDATES.
    gi, gf = tmp_path / "gi6.txt", tmp_path / "gf6.txt"
    gi.write_text(format_matrix(BitMatrix.identity(6)))
    gf.write_text(format_matrix(
        BitMatrix([(1 << i) | 1 << 6 for i in range(6)], 7)))
    code = main(["oracle", "--gi", str(gi), "--blocks", "3,3",
                 "--gf", str(gf)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: search would evaluate 20158709760 "
                            "candidates (> 1000000000)\n")


def test_oracle_has_no_max_kf_option(example_files, capsys):
    gi, gf, _ = example_files
    assert main(
        ["oracle", "--gi", str(gi), "--gf", str(gf), "--max-kf", "5"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-kf 5" in captured.err


def test_apply_plain(example_files, tmp_path, capsys):
    _, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n101\n")
    x2.write_text("1 3\n110\n")
    code = main(["apply", "--y", str(y), "--inputs", f"{x1},{x2}"])
    out = capsys.readouterr().out
    assert code == 0
    m, _ = parse_matrix(out)
    assert m.to_lists() == [[1, 0, 1, 1, 1]]


def test_apply_plain_runs_any_matrix(tmp_path, capsys):
    # Without --gi nothing is checked: a Y that is no conversion (a zero
    # column, one input symbol copied twice, dense columns) is applied as
    # the matrix it is.
    y = BitMatrix.from_columns([0, 1 << 2, 1 << 2, 0b110101, 1 << 6, 127], 7)
    y_path = tmp_path / "y.txt"
    y_path.write_text(format_matrix(y, blocks=(3, 4)))
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n011\n")
    x2.write_text("1 4\n1101\n")
    assert main(["apply", "--y", str(y_path), "--inputs", f"{x1},{x2}"]) == 0
    m, _ = parse_matrix(capsys.readouterr().out)
    expected = vec_mat(BitVector.from_bits([0, 1, 1, 1, 1, 0, 1]), y)
    assert m.row_words == (expected.mask,)
    # Blocks that do not sum to Y's row count are a usage error.
    assert main(["apply", "--y", str(y_path), "--inputs", f"{x1},{x1}",
                 "--blocks", "3,3"]) == 2


def test_apply_membership_check(example_files, tmp_path, capsys):
    gi, gf, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n100\n")  # not a codeword of the first code
    x2.write_text("1 3\n110\n")
    code = main(
        ["apply", "--y", str(y), "--inputs", f"{x1},{x2}",
         "--gi", str(gi), "--gf", str(gf)]
    )
    assert code == 1
    assert "INVALID input" in capsys.readouterr().out


def test_apply_gi_without_gf_exits_2(example_files, tmp_path, capsys):
    gi, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n101\n")
    x2.write_text("1 3\n110\n")
    code = main(
        ["apply", "--y", str(y), "--inputs", f"{x1},{x2}", "--gi", str(gi)]
    )
    assert code == 2
    assert "--gi requires --gf" in capsys.readouterr().err


def test_apply_gf_without_gi_exits_2(example_files, tmp_path, capsys):
    # Without --gi there is nothing to check membership against, so --gf
    # alone is refused rather than ignored: the first input below is no
    # codeword, and with --gi the same command reports it invalid.
    _, gf, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n100\n")
    x2.write_text("1 3\n110\n")
    code = main(
        ["apply", "--y", str(y), "--inputs", f"{x1},{x2}", "--gf", str(gf)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--gf requires --gi" in captured.err


def test_apply_wrong_input_count(example_files, tmp_path):
    _, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x1.write_text("1 3\n101\n")
    assert main(["apply", "--y", str(y), "--inputs", str(x1)]) == 2


def test_apply_y_width_not_n_f_exits_2(example_files, tmp_path, capsys):
    # A 7-symbol G_F with the same codewords' 5-column Y: the width
    # mismatch is refused, not applied.
    gi, _, y = example_files
    gf7 = tmp_path / "gf7.txt"
    gf7.write_text("4 7\n1000100\n0100100\n0010100\n0001100\n")
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n101\n")
    x2.write_text("1 3\n110\n")
    code = main(
        ["apply", "--y", str(y), "--inputs", f"{x1},{x2}",
         "--gi", str(gi), "--gf", str(gf7)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "width must be n_F" in captured.err


@pytest.mark.parametrize("text", ["2 3\n101\n011\n", "1 4\n1011\n"])
def test_apply_input_not_one_row_of_n_i_exits_2(example_files, tmp_path,
                                                capsys, text):
    _, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text(text)
    x2.write_text("1 3\n110\n")
    assert main(["apply", "--y", str(y), "--inputs", f"{x1},{x2}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a 1x3 matrix" in captured.err


def test_apply_block_below_1_exits_2(example_files, tmp_path, capsys):
    _, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 0\n")
    x2.write_text("1 6\n101110\n")
    code = main(["apply", "--y", str(y), "--inputs", f"{x1},{x2}",
                 "--blocks", "0,6"])
    assert code == 2
    assert "block sizes must be >= 1" in capsys.readouterr().err


def test_info(example_files, capsys):
    _, gf, _ = example_files
    assert main(["info", str(gf)]) == 0
    assert capsys.readouterr().out.strip() == "n=5 k=4 d=2 d_dual=5"


def test_info_rejects_rank_deficient(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n11\n11\n")
    assert main(["info", str(path)]) == 2


def test_non_decimal_header_or_blocks_stops_at_parse(example_files, tmp_path,
                                                     capsys):
    # int() takes "+1" and "-1", but the format's fields are ASCII digits.
    header = tmp_path / "h.txt"
    header.write_text("+1 3\n101\n")
    assert main(["info", str(header)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read matrix from" in captured.err
    assert "bad header line" in captured.err
    _, _, y = example_files
    signed = tmp_path / "y.txt"
    signed.write_text(y.read_text().replace("#blocks 3,3", "#blocks -1,7"))
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    x1.write_text("1 3\n101\n")
    x2.write_text("1 3\n110\n")
    assert main(["apply", "--y", str(signed), "--inputs", f"{x1},{x2}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad #blocks line: '#blocks -1,7'" in captured.err


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["merge"]) == 2
    assert main(["no-such-command"]) == 2


def test_report_exhaustive_scans_instead_of_reading_the_preset(
    monkeypatch, capsys
):
    # A wrong preset on the shared RM(2, 4) must not pass as a scan.
    monkeypatch.setattr(rm_code(2, 4), "_d", 3)
    assert main(
        ["report", "--m-min", "4", "--m-max", "4", "--format", "json"]
    ) == 0
    (rec,) = json.loads(capsys.readouterr().out)
    assert (rec["params"]["d_F"], rec["params"]["d_F_dual"]) == (4, 8)
    assert rec["distance_source"] == {
        "d_F": "exhaustive", "d_F_dual": "exhaustive"
    }


# Stacked G_I rows (bit j is column j) of the worked example's two codes.
GI_ROWS = (0b000101, 0b000110, 0b011000, 0b110000)


@pytest.mark.parametrize(
    "rows,blocks,message",
    [
        (GI_ROWS, (3, 2), "sum to the G_I width"),
        (GI_ROWS, (-1, 7), "must be >= 1"),
        (GI_ROWS, (2, 4), "not block diagonal"),   # the first row meets both
        ((0b000101, 0b011000, 0b000110, 0b110000), (3, 3),
         "not block diagonal"),                     # block rows interleaved
        ((0b000101, 0b000110, 0b011000, 0), (3, 3),
         "not block diagonal"),                     # a zero row
        ((0b000101, 0b000101, 0b011000, 0b110000), (3, 3),
         "bad generator block"),                    # dependent rows
        (GI_ROWS, (6, 0), "must be >= 1"),
        ((0b000101, 0b000110), (3, 3),
         "bad generator block"),                    # no rows for block 2
    ],
)
def test_split_blocks_errors(rows, blocks, message):
    with pytest.raises(CliError, match=message):
        _split_blocks(BitMatrix(rows, 6), blocks)


class WriteRecorder:
    """A text sink that keeps each write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_matrix_text_is_written_one_row_at_a_time(monkeypatch):
    # The text is 2^m + 1 characters a row; no write may hold more, so a
    # writer never builds the whole text (stdout and --out alike).
    g = rm_generator(2, 10)
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["rm", "--r", "2", "--m", "10"]) == 0
    assert "".join(out.writes) == format_matrix(g)
    assert max(map(len, out.writes)) == g.cols + 1

    files = {}

    def recording_open(path, mode="r"):
        assert mode == "w"
        return files.setdefault(path, WriteRecorder())

    monkeypatch.setattr(matio, "open", recording_open, raising=False)
    assert main(["rm", "--r", "2", "--m", "10", "--transformed",
                 "--out", "g.txt"]) == 0
    mat, blocks = rm_transformed_generator(2, 10)
    writes = files["g.txt"].writes
    assert "".join(writes) == format_matrix(mat, blocks, block_sep=" ")
    assert max(map(len, writes)) == mat.cols + 1


# Each command, and modules it must not load: rm and info run no
# conversion, bound, search or JSON, bounds no conversion or search, and
# merge no search.
_HEAVY = ("convcode.conversion", "convcode.bounds", "convcode.oracle",
          "dataclasses", "json")


@pytest.mark.parametrize("argv, unloaded", [
    (["rm", "--r", "2", "--m", "6", "--out", "{tmp}/o.txt"], _HEAVY),
    (["info", "{tmp}/g.txt"], _HEAVY),
    (["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5", "--kF", "4",
      "--dF", "2", "--dFdual", "5"], ("convcode.conversion", "convcode.oracle")),
    (["merge", "--r", "2", "--m", "4", "--format", "json"],
     ("convcode.oracle",)),
], ids=["rm", "info", "bounds", "merge"])
def test_each_command_imports_only_what_it_runs(argv, unloaded, tmp_path):
    (tmp_path / "g.txt").write_text(format_matrix(rm_generator(1, 3)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    # A fresh interpreter: this one has imported every module already.
    # The script itself imports nothing but sys and the CLI.
    rc, *loaded = run_fresh(
        "import sys\n"
        "from convcode import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, *sorted(sys.modules))\n",
        *argv,
    ).splitlines()[-1].split()
    assert rc == "0"
    assert "convcode.cli" in loaded
    assert not set(unloaded) & set(loaded)
