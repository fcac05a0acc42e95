"""The CLI's outputs past the golden sizes (m <= 9), one case per check:
digests of matrix text, the (5, 10) merge's costs, `info` lines, the
refusals past the size budget, and the exact oracle on three initial
codes.  Each calls cli.main in process."""

import hashlib
import json
import sys

import pytest

from convcode import conversion, reedmuller
from convcode.cli import main
from convcode.codes import from_generator
from convcode.conversion import make_instance, rm_merge_chain
from convcode.gf2 import BitMatrix
from convcode.matio import format_matrix
from convcode.oracle import candidate_count, enumerate_conversions


class Sha256Writer:
    """A stdout that keeps only the sha256 of the text written to it, so
    the 21 MB text of RM(1, 20) is never held."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, prefix", [
    # The Moebius-built generator.
    (["rm", "--r", "5", "--m", "11"], "a6e1f540b1b3a555"),
    # 21 rows of 2^20 characters, streamed row by row.
    (["rm", "--r", "1", "--m", "20"], "473fcc11f26ade98"),
], ids=["rm-5-11", "rm-1-20"])
def test_rm_stdout_digest(monkeypatch, argv, prefix):
    out = Sha256Writer()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.sha256.hexdigest().startswith(prefix)


def test_merge_5_11_emit_y_digest(tmp_path, capsys):
    path = tmp_path / "y511.txt"
    assert main(["merge", "--r", "5", "--m", "11", "--emit-y", str(path)]) == 0
    assert sha256_hex(path.read_bytes()).startswith("f3742082aae87670")


def test_chain_3_10_3_text_digest():
    inst, y, _ = rm_merge_chain(3, 10, 3)
    text = format_matrix(y.y, blocks=inst.n_initial)
    assert sha256_hex(text.encode()).startswith("a155116b267e497a")


def test_merge_5_10_json_costs(capsys):
    assert main(["merge", "--r", "5", "--m", "10", "--format", "json"]) == 0
    costs = json.loads(capsys.readouterr().out)["costs"]
    assert costs == {"U": [512, 256], "W": 256, "R": [382, 256],
                     "access": 894}


@pytest.mark.parametrize("rm_argv, line", [
    (["--r", "3", "--m", "7"], "n=128 k=64 d=unknown d_dual=unknown"),
    (["--r", "2", "--m", "4", "--transformed"], "n=16 k=11 d=4 d_dual=8"),
    # The bit-sliced scan of all 4.2M codewords of RM(2, 6).
    (["--r", "2", "--m", "6"], "n=64 k=22 d=16 d_dual=unknown"),
    (["--r", "1", "--m", "16"], "n=65536 k=17 d=32768 d_dual=unknown"),
], ids=["rm-3-7", "rm-2-4-transformed", "rm-2-6", "rm-1-16"])
def test_info_of_rm_text(tmp_path, capsys, rm_argv, line):
    path = tmp_path / "g.txt"
    assert main(["rm", *rm_argv, "--out", str(path)]) == 0
    assert main(["info", str(path)]) == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("argv", [
    ["merge", "--r", "1", "--m", "20"],
    ["rm", "--r", "10", "--m", "20"],
], ids=["merge-1-20", "rm-10-20"])
def test_refused_past_the_bit_budget_before_building(monkeypatch, capsys,
                                                     argv):
    def unbuilt(*args):
        raise AssertionError("built past the bit budget")

    monkeypatch.setattr(conversion, "_build_rm_merge", unbuilt)
    monkeypatch.setattr(reedmuller, "monomial_basis", unbuilt)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_on_three_initial_codes(tmp_path, capsys):
    # lambda = 3: [1,1], [1,1] and [2,1] into a [4,3] code.  The pick's
    # cost is 4, the emitted Y verifies, and the uncut stream has every
    # candidate once with 4 as its least cost.
    gi, gf, best = (tmp_path / n for n in ("gi3.txt", "gf3.txt", "y3.txt"))
    gi.write_text("3 4\n1000\n0100\n0011\n")
    gf.write_text("3 4\n1001\n0101\n0011\n")
    args = ["--gi", str(gi), "--blocks", "1,1,2", "--gf", str(gf)]
    assert main(["oracle", *args, "--emit-y", str(best)]) == 0
    assert "optimal access cost: 4" in capsys.readouterr().out.splitlines()
    assert main(["verify", *args, "--y", str(best)]) == 0
    f = lambda rows: from_generator(BitMatrix.from_rows(rows))
    inst = make_instance([f([[1]]), f([[1]]), f([[1, 1]])],
                         f([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))
    costs = [r.access_cost for _, r in enumerate_conversions(inst)]
    assert len(costs) == candidate_count(inst) == 2688
    assert min(costs) == 4
