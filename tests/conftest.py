import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

import convcode as cc
from convcode import conversion, gf2, reedmuller
from convcode.codes import from_generator, random_code
from convcode.matio import format_matrix
from convcode.oracle import candidate_count


@pytest.fixture(autouse=True)
def fresh_rm_codes():
    # rm_code shares one LinearCode per (r, m), and the RM merges and chains
    # share one (instance, matrix, report) triple per (r, m, depth); a test
    # that resets a distance cache must not leak that into the next test.
    reedmuller._RM_CODES.clear()
    conversion._RM_MERGES.clear()
    yield
    reedmuller._RM_CODES.clear()
    conversion._RM_MERGES.clear()


@pytest.fixture
def eliminations(monkeypatch):
    """List that gains one entry per gf2._eliminate call in the test.

    Every other module calls it as gf2._eliminate, so patching gf2 alone
    counts each call (tests/test_package.py checks that no module binds
    it by a name of its own)."""
    calls = []
    eliminate = gf2._eliminate

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(gf2, "_eliminate", counting)
    return calls


def raises_exactly(err, call):
    """Check that call() raises err itself, not a subclass or a base."""
    with pytest.raises(err) as info:
        call()
    assert type(info.value) is err


def row_space_by_rref(m):
    """Reference canonical form of a row space: the nonzero RREF rows,
    which same_code compares (as verify_conversion used to)."""
    reduced, pivots = cc.rref(m)
    return reduced.row_words[: len(pivots)]


def same_code(a, b):
    """Equality of two codes, whatever their generators: the same n and k,
    then the same canonical row space (row_space_by_rref)."""
    return (a.n, a.k) == (b.n, b.k) and (
        a.is_zero
        or row_space_by_rref(a.generator) == row_space_by_rref(b.generator))


def solve(a, b):
    """Some BitVector x with a . x = b, or None if there is none; free
    variables are 0.  One elimination of a with b as an extra column,
    kept as the reference for the information-set inverse
    (codes._inverse_on) and the oracle's coset table, so it shares no
    code with either."""
    if a.rows != b.n:
        raise cc.DimensionError("right-hand side length must equal row count")
    words = [w | (b.mask >> i & 1) << a.cols
             for i, w in enumerate(a.row_words)]
    pivots, placed = gf2._eliminate(words, a.cols + 1, reduce_above=True)
    if pivots and pivots[-1] == a.cols:
        return None
    return cc.BitVector(a.cols, sum((placed[p] >> a.cols) << p
                                    for p in pivots))


def kernel_words(m):
    """Basis words of {x : m . x = 0}, one per free column, ascending: the
    elimination and null-space read-out that codes.dual and codes.shorten
    run (gf2._eliminate, then gf2._kernel_words)."""
    _, placed = gf2._eliminate(m.row_words, m.cols, reduce_above=True)
    return gf2._kernel_words(placed, m.cols)


def equivalent_instance(inst, rng):
    """An instance equivalent to inst, and the order of its initial codes:
    its initial code t is a map of inst's initial code order[t].

    Each code gets a random change of basis (an invertible k x k matrix
    times its generator) and a random permutation of its coordinates.
    These maps carry each valid conversion of inst to exactly one of the
    new instance, with the same write cost and the same per-code counts
    in the new code order.
    """
    def mapped(c):
        mix = random_code(c.k, c.k, rng).generator  # invertible k x k
        perm = rng.sample(range(c.n), c.n)
        return from_generator(
            gf2.mat_mul(mix, c.generator).select_columns(perm))

    order = rng.sample(range(inst.lam), inst.lam)
    return cc.make_instance([mapped(inst.initial_codes[i]) for i in order],
                            mapped(inst.final_code)), order


def run_fresh(*argv: str) -> str:
    """Stdout of `python -c *argv` in a fresh interpreter that imports the
    convcode package under test, for checks of what an import loads."""
    src = str(Path(cc.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src] + ([path] if path else [])))
    return subprocess.run(
        [sys.executable, "-c", *argv], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout


def reference_conversions(inst):
    """The stream enumerate_conversions yielded before it became the uncut
    case of min_access_cost's walk, kept as the reference that walk is
    checked against.

    Every invertible M in enumerate_invertible's order, then
    itertools.product of the cosets of the columns of M . G_F (every y
    with G_I . y equal to that column, ascending).  Each Y is checked by
    its product G_I . Y = M . G_F and classified by its rows.
    """
    g_stack = inst.stacked_generator()
    table = [[] for _ in range(1 << inst.k_final)]
    for y in range(1 << g_stack.cols):
        syndrome = sum(((w & y).bit_count() & 1) << i
                       for i, w in enumerate(g_stack.row_words))
        table[syndrome].append(y)
    for m in gf2.enumerate_invertible(inst.k_final, limit=None):
        target = gf2.mat_mul(m, inst.final_code.generator)
        cosets = [table[target.column_mask(j)] for j in range(inst.n_final)]
        for cols in itertools.product(*cosets):
            y = cc.BitMatrix.from_columns(cols, g_stack.cols)
            assert gf2.mat_mul(g_stack, y) == target
            yield (cc.ConversionMatrix(y, inst.n_initial),
                   conversion._classify_rows(inst, y.row_words))


# Worked merge example used throughout: two [3,2] single-parity codes
# merged into one [5,4] code, with a known access-cost-3 conversion.

GI1_ROWS = [[1, 0, 1], [0, 1, 1]]
GI2_ROWS = [[1, 1, 0], [0, 1, 1]]
GF_ROWS = [
    [1, 0, 0, 0, 1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
]


@pytest.fixture
def example_codes():
    c1 = cc.from_generator(cc.BitMatrix.from_rows(GI1_ROWS))
    c2 = cc.from_generator(cc.BitMatrix.from_rows(GI2_ROWS))
    cf = cc.from_generator(cc.BitMatrix.from_rows(GF_ROWS))
    return c1, c2, cf


@pytest.fixture
def example_instance(example_codes):
    c1, c2, cf = example_codes
    return cc.make_instance([c1, c2], cf)


@pytest.fixture
def example_y(example_instance):
    # sigma(x1..x6) = (x1, x2, x4, x5, x3 + x6)
    cols = [1 << 0, 1 << 1, 1 << 3, 1 << 4, (1 << 2) | (1 << 5)]
    return cc.ConversionMatrix(
        cc.BitMatrix.from_columns(cols, 6), example_instance.n_initial
    )


@pytest.fixture
def example_files(tmp_path):
    """Files of the worked example: stacked G_I with blocks, G_F, Y."""
    gi = cc.block_diag(
        [cc.BitMatrix.from_rows(GI1_ROWS), cc.BitMatrix.from_rows(GI2_ROWS)]
    )
    gi_path = tmp_path / "gi.txt"
    gi_path.write_text(format_matrix(gi, blocks=(3, 3)))
    gf_path = tmp_path / "gf.txt"
    gf_path.write_text(format_matrix(cc.BitMatrix.from_rows(GF_ROWS)))
    y = cc.BitMatrix.from_columns(
        [1 << 0, 1 << 1, 1 << 3, 1 << 4, (1 << 2) | (1 << 5)], 6
    )
    y_path = tmp_path / "y.txt"
    y_path.write_text(format_matrix(y, blocks=(3, 3)))
    return gi_path, gf_path, y_path


@st.composite
def small_instances(draw, max_candidates=4096):
    """Seeded random merge instances with lambda = 2 or 3, without the
    d >= 2, d_dual >= 3 filter of the acceptance sweeps.

    The final code is drawn as is, or degenerate: a random [n_F - 1, k_F]
    code with one more coordinate that repeats an existing one or is
    zero.  Every instance is small enough to enumerate all conversions.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ks = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 1, 1)]))
    ns = [k + draw(st.integers(0, 1)) for k in ks]
    k_f = sum(ks)
    kind = draw(st.sampled_from(["random", "repeated", "zero"]))
    n_f = k_f + draw(st.integers(0 if kind == "random" else 1, 2))
    initial = [random_code(n, k, rng) for n, k in zip(ns, ks)]
    if kind == "random":
        final = random_code(n_f, k_f, rng)
    else:
        base = random_code(n_f - 1, k_f, rng).generator.row_words
        src = rng.randrange(n_f - 1)
        copy = 1 if kind == "repeated" else 0
        final = from_generator(cc.BitMatrix(
            [w | (((w >> src) & copy) << (n_f - 1)) for w in base], n_f
        ))
    inst = cc.make_instance(initial, final)
    assume(candidate_count(inst) <= max_candidates)
    return inst
