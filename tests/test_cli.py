import json

from convcode.cli import main
from convcode.gf2 import BitMatrix
from convcode.matio import format_matrix, parse_matrix, read_matrix


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


def test_bounds_rejects_bad_params(capsys):
    assert main(
        ["bounds", "--lambda", "3", "--nI", "3,3", "--kI", "2,2",
         "--nF", "5", "--kF", "4", "--dF", "2", "--dFdual", "5"]
    ) == 2
    assert main(
        ["bounds", "--nI", "3,3", "--kI", "2,2", "--nF", "5",
         "--kF", "4", "--dF", "4", "--dFdual", "5"]
    ) == 2


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


def test_oracle_respects_max_kf(example_files, capsys):
    gi, gf, _ = example_files
    assert main(
        ["oracle", "--gi", str(gi), "--gf", str(gf), "--max-kf", "2"]
    ) == 2
    assert "error:" in capsys.readouterr().err


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


def test_apply_wrong_input_count(example_files, tmp_path):
    _, _, y = example_files
    x1 = tmp_path / "x1.txt"
    x1.write_text("1 3\n101\n")
    assert main(["apply", "--y", str(y), "--inputs", str(x1)]) == 2


def test_info(example_files, capsys):
    _, gf, _ = example_files
    assert main(["info", str(gf)]) == 0
    assert capsys.readouterr().out.strip() == "n=5 k=4 d=2 d_dual=5"


def test_info_rejects_rank_deficient(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n11\n11\n")
    assert main(["info", str(path)]) == 2


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["merge"]) == 2
    assert main(["no-such-command"]) == 2
