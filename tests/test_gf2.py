import random

import pytest
from hypothesis import given, settings, strategies as st

import convcode as cc
from convcode.conversion import rm_merge_procedure
from convcode.gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    _eliminate,
    enumerate_invertible,
    gl2_order,
    inverse,
    mat_mul,
    rank,
    right_kernel_basis,
    rref,
    solve,
    vec_mat,
)
from convcode.reedmuller import rm_generator
from tests.conftest import GI1_ROWS, GI2_ROWS, raises_exactly


def stacked_gi() -> BitMatrix:
    g1 = BitMatrix.from_rows(GI1_ROWS)
    g2 = BitMatrix.from_rows(GI2_ROWS)
    return cc.block_diag([g1, g2])


def test_rank_identity():
    assert rank(BitMatrix.identity(3)) == 3


def test_rank_dependent_row():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert rank(m) == 2


def test_rank_stacked_block_diagonal():
    assert rank(stacked_gi()) == 4


def test_rref_identity():
    r, pivots = rref(BitMatrix.identity(3))
    assert r == BitMatrix.identity(3)
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    r, pivots = rref(BitMatrix.from_rows([[1, 1], [1, 1]]))
    assert r.to_lists() == [[1, 1], [0, 0]]
    assert pivots == (0,)


def test_rref_row_swap():
    r, pivots = rref(BitMatrix.from_rows([[0, 1], [1, 0]]))
    assert r == BitMatrix.identity(2)
    assert pivots == (0, 1)


def test_mat_mul_identity():
    a = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert mat_mul(a, BitMatrix.identity(3)) == a


def test_mat_mul_gf2_addition():
    a = BitMatrix.from_rows([[1, 1]])
    b = BitMatrix.from_rows([[1], [1]])
    assert mat_mul(a, b).to_lists() == [[0]]


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_mul(BitMatrix.identity(2), BitMatrix.identity(3))


def test_solve_identity():
    b = BitVector.from_bits([1, 0, 1])
    assert solve(BitMatrix.identity(3), b) == b


def test_solve_underdetermined_any_valid():
    a = BitMatrix.from_rows([[1, 1]])
    b = BitVector.from_bits([1])
    x = solve(a, b)
    assert x is not None
    assert vec_mat(x, a.transpose()) == b


def test_solve_inconsistent():
    a = BitMatrix.from_rows([[1], [1]])
    assert solve(a, BitVector.from_bits([1, 0])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(BitMatrix.identity(2), BitVector.from_bits([1, 0, 0]))


def test_kernel_identity_empty():
    assert right_kernel_basis(BitMatrix.identity(3)) == []


def test_kernel_single_parity():
    basis = right_kernel_basis(BitMatrix.from_rows([[1, 1]]))
    assert [v.mask for v in basis] == [0b11]


def test_kernel_of_stacked_example():
    basis = right_kernel_basis(stacked_gi())
    assert len(basis) == 2
    span = {0}
    for v in basis:
        span |= {s ^ v.mask for s in span}
    assert span == {0, 0b000111, 0b111000, 0b111111}


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(50):
        rows = [rng.getrandbits(8) for _ in range(4)]
        m = BitMatrix(rows, 8)
        basis = right_kernel_basis(m)
        assert len(basis) == 8 - rank(m)
        for v in basis:
            assert vec_mat(v, m.transpose()).mask == 0
        if basis:
            stacked = BitMatrix([v.mask for v in basis], 8)
            assert rank(stacked) == len(basis)


def test_rref_idempotent_and_rank_consistent():
    rng = random.Random(11)
    for _ in range(100):
        rows = [rng.getrandbits(6) for _ in range(rng.randint(1, 6))]
        m = BitMatrix(rows, 6)
        r, pivots = rref(m)
        assert len(pivots) == rank(m) == rank(r)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots


def test_solve_consistency_property():
    rng = random.Random(13)
    for _ in range(100):
        rows = [rng.getrandbits(5) for _ in range(3)]
        a = BitMatrix(rows, 5)
        b = BitVector(3, rng.getrandbits(3))
        x = solve(a, b)
        if x is not None:
            assert vec_mat(x, a.transpose()) == b


def test_enumerate_invertible_k1():
    mats = list(enumerate_invertible(1))
    assert len(mats) == 1
    assert mats[0].to_lists() == [[1]]


def test_enumerate_invertible_k2_count():
    assert len(list(enumerate_invertible(2))) == 6 == gl2_order(2)


@pytest.mark.parametrize("k,count", [(1, 1), (2, 6), (3, 168), (4, 20160)])
def test_enumerate_invertible_counts_distinct_full_rank(k, count):
    seen = set()
    for m in enumerate_invertible(k):
        assert m.row_words not in seen
        seen.add(m.row_words)
        assert rank(m) == k
    assert len(seen) == count == gl2_order(k)


def test_enumerate_invertible_size_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_invertible(4, limit=100))
    # total > nan is never true; the guard runs at call time, so nothing
    # is iterated (GL(7, 2) has 1.6e14 elements).
    with pytest.raises(SizeGuardError):
        enumerate_invertible(7, limit=float("nan"))


def test_enumerate_invertible_deterministic_lex_order():
    first = list(enumerate_invertible(2))

    def row_string(m):
        return "".join(
            "".join(str((w >> j) & 1) for j in range(m.cols))
            for w in m.row_words
        )

    strings = [row_string(m) for m in first]
    assert strings == sorted(strings)
    assert [m.row_words for m in enumerate_invertible(2)] == [
        m.row_words for m in first
    ]


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        while True:
            m = BitMatrix([rng.getrandbits(5) for _ in range(5)], 5)
            if rank(m) == 5:
                break
        assert mat_mul(m, inverse(m)) == BitMatrix.identity(5)


# Bit-by-bit references for the word-parallel transpose in gf2: these are
# the loops that column_mask, from_columns, transpose and select_columns
# used before, kept here as the reference they are checked against.

def column_mask_by_bits(m: BitMatrix, j: int) -> int:
    mask = 0
    for i, w in enumerate(m.row_words):
        mask |= ((w >> j) & 1) << i
    return mask


def from_columns_by_bits(col_masks, rows: int) -> BitMatrix:
    words = []
    for i in range(rows):
        w = 0
        for j, cm in enumerate(col_masks):
            w |= ((cm >> i) & 1) << j
        words.append(w)
    return BitMatrix(words, len(col_masks))


def select_columns_by_bits(m: BitMatrix, cols) -> BitMatrix:
    words = []
    for w in m.row_words:
        v = 0
        for t, j in enumerate(cols):
            v |= ((w >> j) & 1) << t
        words.append(v)
    return BitMatrix(words, len(cols))


@st.composite
def sparse_matrices(draw):
    """Matrices up to 70 wide whose rows and columns may be all zero."""
    rows = draw(st.integers(1, 70))
    cols = draw(st.integers(1, 70))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    keep = sum(1 << j for j in range(cols) if j not in zero_cols)
    words = [
        0 if i in zero_rows else draw(st.integers(0, (1 << cols) - 1)) & keep
        for i in range(rows)
    ]
    return BitMatrix(words, cols)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_transpose_matches_bit_loops(m, data):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert list(t.row_words) == [
        column_mask_by_bits(m, j) for j in range(m.cols)
    ]
    assert t.transpose() == m
    assert BitMatrix.from_columns(t.row_words, m.rows) == m
    assert [m.column_mask(j) for j in range(m.cols)] == list(t.row_words)
    picks = data.draw(
        st.lists(st.integers(0, m.cols - 1), min_size=1, max_size=80)
    )
    assert m.select_columns(picks) == select_columns_by_bits(m, picks)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 70),
    st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=70),
)
def test_from_columns_matches_bit_loop(rows, col_masks):
    # Bits at or above `rows` (and the sign of a negative mask) are
    # ignored, exactly as the bit-by-bit loop ignores them.
    assert BitMatrix.from_columns(col_masks, rows) == from_columns_by_bits(
        col_masks, rows
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(65, 300), st.data())
def test_wide_transpose_matches_bit_loops(rows, cols, data):
    # Wide words, each spread to one byte per bit, eight rows per byte.
    words = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    m = BitMatrix(words, cols)
    t = m.transpose()
    assert list(t.row_words) == [
        column_mask_by_bits(m, j) for j in range(cols)
    ]
    assert t.transpose() == m


def test_transpose_of_rm_1_16():
    # Column j of RM(1, m)'s generator has bit 0 (the constant row) and
    # bit i where X_i, bit m - i of the point j, is set.
    m = 16
    cols = rm_generator(1, m).transpose().row_words
    assert list(cols) == [
        1 | int(format(j, f"0{m}b")[::-1], 2) << 1 for j in range(1 << m)
    ]


def test_transpose_edge_shapes():
    for width in range(1, 71):
        row = BitMatrix([(1 << width) - 1], width)
        assert row.transpose() == BitMatrix([1] * width, 1)
        zero = BitMatrix.zeros(3, width)
        assert zero.transpose() == BitMatrix.zeros(width, 3)
        assert zero.select_columns([width - 1, 0]) == BitMatrix.zeros(3, 2)
    for rows in (3, 100):
        with pytest.raises(DimensionError):
            BitMatrix.from_columns([], rows)
    with pytest.raises(DimensionError):
        BitMatrix.from_columns([1], 0)
    with pytest.raises(DimensionError):
        BitMatrix.identity(3).select_columns([])
    with pytest.raises(IndexError):
        BitMatrix.identity(3).select_columns([3])


# Column-scan reference for the pivot-indexed elimination in gf2: the
# loop that _eliminate ran before, kept here as the reference it is
# checked against.  For each column it searches the remaining rows for a
# pivot, then tests every other row for that column's bit.

def eliminate_by_columns(words, cols, reduce_above):
    pivots = []
    pivot_row = 0
    for col in range(cols):
        bit = 1 << col
        found = -1
        for r in range(pivot_row, len(words)):
            if words[r] & bit:
                found = r
                break
        if found < 0:
            continue
        words[pivot_row], words[found] = words[found], words[pivot_row]
        start = 0 if reduce_above else pivot_row + 1
        for r in range(start, len(words)):
            if r != pivot_row and words[r] & bit:
                words[r] ^= words[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(words):
            break
    return pivots


def assert_eliminates_like_column_scan(words, cols):
    """Both modes: the pivot lists agree; with reduce_above the words
    (the RREF) agree; without it the words are a row echelon form of
    the same row space."""
    ref_rref = list(words)
    ref_pivots = eliminate_by_columns(ref_rref, cols, reduce_above=True)
    got = list(words)
    assert _eliminate(got, cols, reduce_above=True) == ref_pivots
    assert got == ref_rref

    got = list(words)
    pivots = _eliminate(got, cols, reduce_above=False)
    assert pivots == eliminate_by_columns(list(words), cols, False)
    n = len(pivots)
    assert [(w & -w).bit_length() - 1 for w in got[:n]] == pivots
    assert not any(got[n:])
    eliminate_by_columns(got, cols, reduce_above=True)
    assert got == ref_rref


@st.composite
def elimination_inputs(draw):
    """(words, cols) with zero, duplicate and dependent rows, sparse and
    dense rows, possibly more rows than columns, in the plain layout or
    the augmented ones that solve (cols + 1) and inverse (2n) build.

    Hypothesis draws the shape and each row's kind; the words come from
    a drawn seed, so an example costs a few draws rather than one per
    word, sparse bit and dependent-row pick.
    """
    layout = draw(st.sampled_from(["plain", "solve", "inverse"]))
    cols = draw(st.integers(1, 130 if layout != "inverse" else 65))
    n_rows = cols if layout == "inverse" else draw(st.integers(1, 40))
    kinds = draw(st.lists(
        st.sampled_from(["zero", "dense", "sparse", "duplicate", "dependent"]),
        min_size=n_rows, max_size=n_rows,
    ))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = []
    for kind in kinds:
        if kind == "dense":
            w = rng.getrandbits(cols)
        elif kind == "sparse":
            w = sum({1 << rng.randrange(cols) for _ in range(rng.randint(0, 4))})
        elif kind in ("duplicate", "dependent") and words:
            w = 0
            for v in rng.choices(
                words, k=1 if kind == "duplicate" else rng.randint(1, 4)
            ):
                w ^= v
        else:
            w = 0
        words.append(w)
    if layout == "solve":
        b = rng.getrandbits(n_rows)
        words = [w | ((b >> i) & 1) << cols for i, w in enumerate(words)]
        return words, cols + 1
    if layout == "inverse":
        return [w | 1 << (cols + i) for i, w in enumerate(words)], 2 * cols
    return words, cols


@settings(max_examples=400, deadline=None)
@given(elimination_inputs())
def test_eliminate_matches_column_scan(case):
    words, cols = case
    assert_eliminates_like_column_scan(words, cols)


@pytest.mark.parametrize("m", range(1, 10))
def test_eliminate_matches_column_scan_on_rm_matrices(m):
    for r in range(m + 1):
        g = rm_generator(r, m)
        assert_eliminates_like_column_scan(list(g.row_words), g.cols)
    for r in range(1, m):
        inst, y, _ = rm_merge_procedure(r, m)
        product = mat_mul(inst.stacked_generator(), y.y)
        assert_eliminates_like_column_scan(
            list(product.row_words), product.cols
        )


# References for the shared kernels: the row-combination loops that
# mat_mul and vec_mat ran inline, and the enumeration that kept its own
# dict of reduced rows keyed by lowest set bit, before gf2._combine and
# gf2._reduce replaced them.

def mat_mul_by_rows(a, b):
    words = []
    for w in a.row_words:
        acc = 0
        t = w
        while t:
            acc ^= b.row_words[(t & -t).bit_length() - 1]
            t &= t - 1
        words.append(acc)
    return BitMatrix(words, b.cols)


def vec_mat_by_rows(x, a):
    acc = 0
    t = x.mask
    while t:
        acc ^= a.row_words[(t & -t).bit_length() - 1]
        t &= t - 1
    return BitVector(a.cols, acc)


def enumerate_invertible_by_dict(k):
    candidates = []
    for w in range(1, 1 << k):
        out = 0
        for i in range(k):
            out |= ((w >> i) & 1) << (k - 1 - i)
        candidates.append(out)
    chosen, pivot = [], {}

    def reduce_row(v):
        while v:
            low = v & -v
            if low not in pivot:
                return v
            v ^= pivot[low]
        return 0

    def descend():
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for v in candidates:
            red = reduce_row(v)
            if red == 0:
                continue
            key = red & -red
            chosen.append(v)
            pivot[key] = red
            yield from descend()
            chosen.pop()
            del pivot[key]

    return descend()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 70), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
def test_products_match_row_loops(rows, inner, cols, seed):
    rng = random.Random(seed)
    a = BitMatrix([rng.getrandbits(inner) for _ in range(rows)], inner)
    b = BitMatrix([rng.getrandbits(cols) for _ in range(inner)], cols)
    assert mat_mul(a, b) == mat_mul_by_rows(a, b)
    x = BitVector(inner, rng.getrandbits(inner))
    assert vec_mat(x, b) == vec_mat_by_rows(x, b)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerate_invertible_matches_dict_reference_order(k):
    got = [m.row_words for m in enumerate_invertible(k)]
    assert got == list(enumerate_invertible_by_dict(k))


@pytest.mark.parametrize("err, call", [
    (DimensionError, lambda: BitVector(0)),
    (ValueError, lambda: BitVector(3, 0b1000)),
    (ValueError, lambda: BitVector(3, -1)),
    (ValueError, lambda: BitVector.from_bits([0, 2])),
    (ValueError, lambda: BitMatrix.from_rows([[1, 0], [0, -1]])),
    (DimensionError, lambda: BitMatrix.from_rows([])),
    (DimensionError, lambda: BitMatrix.from_rows([[1, 0], [1]])),
    (IndexError, lambda: BitVector(3)[3]),
    (IndexError, lambda: BitVector(3)[-1]),
    (IndexError, lambda: BitMatrix.identity(2).get(2, 0)),
    (IndexError, lambda: BitMatrix.identity(2).get(0, -1)),
    (IndexError, lambda: BitMatrix.identity(2).column_mask(2)),
    (DimensionError, lambda: BitVector(2) ^ BitVector(3)),
    (DimensionError, lambda: cc.block_diag([])),
    (DimensionError, lambda: inverse(BitMatrix.from_rows([[1, 0, 0],
                                                          [0, 1, 0]]))),
    (ValueError, lambda: enumerate_invertible(0)),
], ids=["vector-empty", "vector-mask-high", "vector-mask-negative",
        "from-bits-entry", "from-rows-entry", "from-rows-empty",
        "from-rows-ragged", "getitem-high", "getitem-negative", "get-row",
        "get-col", "column-mask", "xor-length", "block-diag-empty",
        "inverse-non-square", "invertible-k0"])
def test_refusals_raise_their_typed_error(err, call):
    raises_exactly(err, call)


def test_bit_vector_length_weight_support_and_hash():
    v = BitVector.from_bits([1, 0, 1, 1, 0])
    assert len(v) == 5
    assert v.weight() == 3
    assert v.support() == (0, 2, 3)
    assert BitVector(5).weight() == 0 and BitVector(5).support() == ()
    assert hash(v) == hash(BitVector(5, 0b01101))
    assert {v, BitVector(5, 0b01101), BitVector(6, 0b01101)} == {
        v, BitVector(6, 0b01101)}
