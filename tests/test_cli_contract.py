"""The CLI's outputs past the golden sizes (m <= 9), one case per check:
digests of matrix text, the (5, 10) merge's costs, `info` lines, the
refusals past the size budget, the exact oracle on three initial codes,
the ANF apply at (5, 11) and (3, 10, 3), and two peak-RSS caps.  The
CLI checks call cli.main in process, except the peak-RSS caps, which run
the CLI as the child of a fresh interpreter."""

import hashlib
import json
import os
import random
import sys

import pytest

from convcode import conversion, reedmuller
from convcode.cli import main
from convcode.codes import encode, from_generator
from convcode.conversion import (
    _stack_codewords,
    apply_conversion,
    make_instance,
    rm_merge_apply,
    rm_merge_chain,
    rm_merge_procedure,
)
from convcode.gf2 import BitMatrix, BitVector, vec_mat
from convcode.matio import format_matrix
from convcode.oracle import candidate_count, enumerate_conversions

from tests.conftest import run_fresh


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


@pytest.mark.parametrize("build, apply", [
    (lambda: rm_merge_procedure(5, 11),
     lambda inst, y, words: rm_merge_apply(5, 11, *words)),
    (lambda: rm_merge_chain(3, 10, 3), apply_conversion),
], ids=["merge-5-11", "chain-3-10-3"])
def test_anf_apply_matches_vec_mat_past_tier_1_sizes(build, apply):
    # The fused ANF map against x . Y by gf2.vec_mat, on 20 seeded
    # tuples of one codeword per initial code.
    inst, y, _ = build()
    rng = random.Random(2026)
    for _ in range(20):
        words = [encode(c, BitVector(c.k, rng.getrandbits(c.k)))
                 for c in inst.initial_codes]
        assert apply(inst, y, words) == vec_mat(_stack_codewords(words), y.y)


# Runs the CLI as its own child, its stdout to the file argv[1], and
# prints that child's peak RSS in KiB.  Read in pytest's process,
# RUSAGE_CHILDREN would be the maximum over every child pytest has
# reaped, so the wrapper is a fresh interpreter.
PEAK_RSS_OF_CLI = """\
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    subprocess.run([sys.executable, "-m", "convcode.cli", *sys.argv[2:]],
                   stdout=out, check=True, timeout=60)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def cli_peak_rss_kib(out, *argv):
    return int(run_fresh(PEAK_RSS_OF_CLI, str(out), *argv))


def test_rm_text_is_streamed_under_64_mib():
    # The 5.6 MB RM(2, 18) generator is written without building its
    # 45 MB text.
    peak = cli_peak_rss_kib(os.devnull, "rm", "--r", "2", "--m", "18")
    assert peak < 64 * 1024, f"peak RSS {peak} KiB"


def test_info_of_rm_1_16_under_64_mib(tmp_path):
    # The bit-sliced distance scan of the 65,536-symbol RM(1, 16), in
    # bounded time (the wrapper's 60 s) and memory.
    g, out = tmp_path / "g.txt", tmp_path / "info.txt"
    assert main(["rm", "--r", "1", "--m", "16", "--out", str(g)]) == 0
    peak = cli_peak_rss_kib(out, "info", str(g))
    assert "d=32768" in out.read_text().split()
    assert peak < 64 * 1024, f"peak RSS {peak} KiB"
