import random

import pytest
from hypothesis import given, settings, strategies as st

import convcode as cc
from convcode.codes import contains, encode, random_code
from convcode.conversion import (
    ConversionError,
    ConversionMatrix,
    apply_conversion,
    classify_symbols,
    default_conversion,
    make_instance,
    rm_merge_apply,
    rm_merge_chain,
    rm_merge_procedure,
    verify_conversion,
)
from convcode.gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    mat_mul,
    rank,
    right_kernel_basis,
)
from convcode.oracle import enumerate_conversions
from convcode.reedmuller import (
    degree_block_a,
    rm_code,
    rm_dimension,
    zero_columns,
)

from tests.conftest import (
    GI1_ROWS,
    GI2_ROWS,
    row_space_by_rref,
    small_instances,
)


def test_make_instance_checks_dimension_sum(example_codes):
    c1, c2, cf = example_codes
    with pytest.raises(ConversionError):
        make_instance([c1], cf)
    inst = make_instance([c1, c2], cf)
    assert inst.lam == 2
    assert inst.n_initial == (3, 3)
    assert inst.k_initial == (2, 2)
    assert inst.n_final == 5 and inst.k_final == 4
    assert inst.total_initial_length == 6
    assert inst.block_starts() == (0, 3)
    assert inst.owner_of(0) == (0, 0)
    assert inst.owner_of(4) == (1, 1)


def test_stacked_generator_block_diagonal(example_instance):
    g = example_instance.stacked_generator()
    assert g.rows == 4 and g.cols == 6
    assert g.to_lists()[0][:3] == GI1_ROWS[0]
    assert g.to_lists()[2][3:] == GI2_ROWS[0]
    assert all(v == 0 for v in g.to_lists()[0][3:])
    assert all(v == 0 for v in g.to_lists()[2][:3])


def test_verify_example_matrix(example_instance, example_y):
    assert verify_conversion(example_instance, example_y)


def test_verify_rejects_wrong_shape(example_instance):
    bad = ConversionMatrix(BitMatrix.identity(6), (3, 3))
    with pytest.raises(DimensionError):
        verify_conversion(example_instance, bad)
    mismatched = ConversionMatrix(BitMatrix([0] * 5, 5), (2, 3))
    with pytest.raises(DimensionError):
        verify_conversion(example_instance, mismatched)


def test_verify_detects_rank_drop(example_instance, example_y):
    cols = [example_y.y.column_mask(j) for j in range(5)]
    cols[4] = 0
    broken = ConversionMatrix(BitMatrix.from_columns(cols, 6), (3, 3))
    assert not verify_conversion(example_instance, broken)


def test_verify_detects_wrong_code(example_instance, example_y):
    cols = [example_y.y.column_mask(j) for j in range(5)]
    cols[4] = 1 << 2  # full rank but no longer the final code
    wrong = ConversionMatrix(BitMatrix.from_columns(cols, 6), (3, 3))
    assert not verify_conversion(example_instance, wrong)


def test_example_costs(example_instance, example_y):
    report = classify_symbols(example_instance, example_y)
    assert report.to_record() == {
        "U": [2, 2], "W": 1, "R": [1, 1], "access": 3
    }
    assert report.unchanged_per_code == (
        frozenset({0, 1}), frozenset({2, 3})
    )
    assert report.new_symbols == frozenset({4})
    assert report.read_per_code == (frozenset({2}), frozenset({2}))
    assert report.unchanged_total + report.write_cost == 5


def test_classify_rejects_invalid(example_instance):
    bad = ConversionMatrix(BitMatrix([0] * 6, 5), (3, 3))
    with pytest.raises(ConversionError):
        classify_symbols(example_instance, bad)


def owner_by_blocks(inst, row):
    """Row ownership by a scan of the block starts (the old owner_of)."""
    for i, start in enumerate(inst.block_starts()):
        if start <= row < start + inst.n_initial[i]:
            return i, row - start
    raise IndexError(row)


def classify_by_owner(inst, y):
    """The per-column classification that classify_symbols replaced: one
    column_mask per final column and a block scan per support row."""
    if not verify_conversion(inst, y):
        raise ConversionError("matrix is not a valid conversion for instance")
    unchanged = [set() for _ in range(inst.lam)]
    reads = [set() for _ in range(inst.lam)]
    new = set()
    for j in range(inst.n_final):
        col = y.y.column_mask(j)
        if col.bit_count() == 1:
            i, _ = owner_by_blocks(inst, col.bit_length() - 1)
            unchanged[i].add(j)
        else:
            new.add(j)
            for row in range(col.bit_length()):
                if (col >> row) & 1:
                    i, local = owner_by_blocks(inst, row)
                    reads[i].add(local)
    return (
        tuple(frozenset(u) for u in unchanged),
        frozenset(new),
        tuple(frozenset(r) for r in reads),
    )


def report_sets(report):
    return report.unchanged_per_code, report.new_symbols, report.read_per_code


def test_owner_of_matches_block_scan():
    rng = random.Random(5)
    codes = [random_code(n, 1, rng) for n in (3, 1, 4, 2)]
    inst = make_instance(codes, random_code(6, 4, rng))
    for row in range(inst.total_initial_length):
        assert inst.owner_of(row) == owner_by_blocks(inst, row)
    assert inst._row_owner is inst._row_owner  # built once
    for row in (-1, inst.total_initial_length):
        with pytest.raises(IndexError):
            owner_by_blocks(inst, row)
        with pytest.raises(IndexError):
            inst.owner_of(row)


@settings(max_examples=40, deadline=None)
@given(small_instances(max_candidates=1536))
def test_enumerated_reports_match_old_classification(inst):
    count = 0
    for y, report in enumerate_conversions(inst):
        assert report_sets(report) == classify_by_owner(inst, y)
        assert report_sets(classify_symbols(inst, y)) == report_sets(report)
        count += 1
    assert count > 0


def perturbed_default(inst, data):
    """default_conversion with right-kernel vectors added to its columns
    (still valid) and optionally one flip outside the kernel, which
    usually breaks Y."""
    y0 = default_conversion(inst)
    kernel = [v.mask for v in right_kernel_basis(inst.stacked_generator())]
    rows = inst.total_initial_length
    cols = []
    for j in range(inst.n_final):
        col = y0.y.column_mask(j)
        for v in kernel:
            if data.draw(st.booleans()):
                col ^= v
        cols.append(col)
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, inst.n_final - 1))
        cols[j] ^= 1 << data.draw(st.integers(0, rows - 1))
    return ConversionMatrix(BitMatrix.from_columns(cols, rows), inst.n_initial)


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.data())
def test_classify_symbols_matches_old_on_perturbed_default(inst, data):
    y = perturbed_default(inst, data)
    if verify_conversion(inst, y):
        assert report_sets(classify_symbols(inst, y)) == classify_by_owner(
            inst, y
        )
    else:
        with pytest.raises(ConversionError):
            classify_symbols(inst, y)


def verify_by_rref(inst, y):
    """The check verify_conversion replaced: rank k_F, then equal RREF
    row spaces of G_I . Y and the final generator."""
    product = mat_mul(inst.stacked_generator(), y.y)
    return rank(product) == inst.k_final and row_space_by_rref(
        product
    ) == row_space_by_rref(inst.final_code.generator)


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.data())
def test_verify_conversion_matches_rref_reference(inst, data):
    y = perturbed_default(inst, data)
    assert verify_conversion(inst, y) == verify_by_rref(inst, y)


def test_default_conversion_example(example_instance):
    y = default_conversion(example_instance)
    assert verify_conversion(example_instance, y)
    report = classify_symbols(example_instance, y)
    # Keeps all four information symbols, writes the fifth: access 5.
    assert report.unchanged_counts == (2, 2)
    assert report.write_cost == 1
    assert report.access_cost == 5


def test_default_conversion_random_instances():
    rng = random.Random(21)
    for _ in range(25):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        c1 = random_code(k1 + rng.randint(0, 2), k1, rng)
        c2 = random_code(k2 + rng.randint(0, 2), k2, rng)
        cf = random_code(k1 + k2 + rng.randint(0, 3), k1 + k2, rng)
        inst = make_instance([c1, c2], cf)
        y = default_conversion(inst)
        assert verify_conversion(inst, y)


def test_apply_conversion_example(example_instance, example_y):
    c1, c2 = example_instance.initial_codes
    rng = random.Random(4)
    for _ in range(20):
        u1 = BitVector(2, rng.getrandbits(2))
        u2 = BitVector(2, rng.getrandbits(2))
        x1, x2 = encode(c1, u1), encode(c2, u2)
        out = apply_conversion(example_instance, example_y, [x1, x2])
        assert contains(example_instance.final_code, out)
        # Unchanged symbols are copied straight through.
        assert out[0] == x1[0] and out[1] == x1[1]
        assert out[2] == x2[0] and out[3] == x2[1]
        assert out[4] == x1[2] ^ x2[2]


def test_apply_conversion_is_injective(example_instance, example_y):
    c1, c2 = example_instance.initial_codes
    seen = set()
    for u1 in range(4):
        for u2 in range(4):
            out = apply_conversion(
                example_instance,
                example_y,
                [encode(c1, BitVector(2, u1)), encode(c2, BitVector(2, u2))],
            )
            seen.add(out.mask)
    assert len(seen) == 16


def test_apply_conversion_rejects_non_codeword(example_instance, example_y):
    with pytest.raises(ConversionError):
        apply_conversion(
            example_instance,
            example_y,
            [BitVector.from_bits([1, 0, 0]), BitVector(3, 0)],
        )
    with pytest.raises(ConversionError):
        apply_conversion(example_instance, example_y, [BitVector(3, 0)])


def test_rm_merge_2_4_costs():
    inst, y, report = rm_merge_procedure(2, 4)
    assert inst.k_initial == (rm_dimension(2, 3), rm_dimension(1, 3))
    assert verify_conversion(inst, y)
    assert report.unchanged_counts == (8, 4)
    assert report.write_cost == 4
    assert report.read_counts == (7, 4)
    assert report.access_cost == 15


@pytest.mark.parametrize(
    "r,m", [(r, m) for m in range(2, 7) for r in range(1, m)]
)
def test_rm_merge_cost_formulas(r, m):
    inst, y, report = rm_merge_procedure(r, m)
    n1, n2 = inst.n_initial
    k1, k2 = inst.k_initial
    assert verify_conversion(inst, y)
    assert report.unchanged_counts == (n1, k2)
    assert report.write_cost == inst.n_final - n1 - k2
    assert report.read_counts[0] <= k1
    assert report.read_counts[1] == min(k2, n2 - k2)


def test_rm_merge_procedure_rejects_bad_params():
    with pytest.raises(ConversionError):
        rm_merge_procedure(0, 3)
    with pytest.raises(ConversionError):
        rm_merge_procedure(3, 3)


def test_rm_merge_apply_tiny():
    out = rm_merge_apply(
        1, 2, BitVector.from_bits([1, 0]), BitVector.from_bits([1, 1])
    )
    assert out.to_bits() == [1, 0, 1, 0]


@pytest.mark.parametrize("r,m", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5)])
def test_rm_merge_apply_matches_matrix(r, m):
    inst, y, _ = rm_merge_procedure(r, m)
    c1, c2 = inst.initial_codes
    half = 1 << (m - 1)
    zeros = zero_columns(degree_block_a(r, m))
    rng = random.Random(17)
    for _ in range(25):
        x1 = encode(c1, BitVector(c1.k, rng.getrandbits(c1.k)))
        x2 = encode(c2, BitVector(c2.k, rng.getrandbits(c2.k)))
        via_matrix = apply_conversion(inst, y, [x1, x2])
        assert rm_merge_apply(r, m, x1, x2) == via_matrix
        # rm_merge_apply runs this same Y (pinned by tests/test_golden.py);
        # the checks below hold for any correct merge, whatever its Y.
        assert contains(inst.final_code, via_matrix)
        assert via_matrix.mask & ((1 << half) - 1) == x1.mask
        for z in zeros:
            assert via_matrix[half + z] == x2[z]


def test_apply_conversion_eliminates_nothing_once_warm(eliminations):
    # Guards the data path by a count, not a time: after one warm-up call
    # has cached the initial codes' echelon forms, membership checks and
    # the conversion itself run without any Gaussian elimination.
    inst, y, _ = rm_merge_procedure(4, 9)
    rng = random.Random(23)

    def words():
        return [encode(c, BitVector(c.k, rng.getrandbits(c.k)))
                for c in inst.initial_codes]

    before = len(eliminations)
    apply_conversion(inst, y, words())
    warm = len(eliminations)
    assert warm > before  # the counter sees the warm-up's echelon forms
    for _ in range(10):
        apply_conversion(inst, y, words())
    assert len(eliminations) == warm


def test_rm_merge_apply_eliminates_nothing_once_warm(eliminations):
    # The merge matrix is built once per (r, m), so after one warm-up a
    # call is one apply_conversion: no Gaussian elimination at all.
    c1, c2 = rm_code(4, 8), rm_code(3, 8)
    rng = random.Random(29)
    pairs = [
        (encode(c1, BitVector(c1.k, rng.getrandbits(c1.k))),
         encode(c2, BitVector(c2.k, rng.getrandbits(c2.k))))
        for _ in range(11)
    ]
    outs = [rm_merge_apply(4, 9, *pairs[0])]
    warm = len(eliminations)
    assert warm > 0  # the counter sees the warm-up's merge build
    outs += [rm_merge_apply(4, 9, x1, x2) for x1, x2 in pairs[1:]]
    assert len(eliminations) == warm
    inst, y, _ = rm_merge_procedure(4, 9)
    assert rm_merge_procedure(4, 9)[1] is y  # shared, not rebuilt
    for (x1, x2), out in zip(pairs, outs):
        assert out == apply_conversion(inst, y, [x1, x2])
        assert contains(inst.final_code, out)


def test_rm_merge_procedure_verifies_nothing_once_warm(eliminations):
    # The triple is built, classified and verified once per (r, m); a warm
    # call returns the same object and runs no Gaussian elimination.
    first = rm_merge_procedure(4, 9)
    warm = len(eliminations)
    assert warm > 0  # the counter sees the build and its verification
    assert rm_merge_procedure(4, 9) is first
    assert len(eliminations) == warm


def test_rm_merge_apply_rejects_non_codewords():
    c2 = rm_code(1, 3)
    bad = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0, 0])
    ok2 = encode(c2, BitVector(c2.k, 0))
    with pytest.raises(ConversionError):
        rm_merge_apply(2, 4, bad, ok2)


def test_rm_merge_chain_2_4():
    inst, y, report = rm_merge_chain(2, 4, depth=2)
    assert inst.lam == 3
    expected = [rm_code(2, 2), rm_code(1, 2), rm_code(1, 3)]
    for a, b in zip(inst.initial_codes, expected):
        assert cc.same_code(a, b)
    assert cc.same_code(inst.final_code, rm_code(2, 4))
    assert verify_conversion(inst, y)
    assert report.to_record() == {
        "U": [4, 3, 4], "W": 5, "R": [4, 4, 4], "access": 17
    }


def test_rm_merge_chain_depth_one_matches_procedure():
    inst_a, y_a, rep_a = rm_merge_chain(2, 4, depth=1)
    inst_b, y_b, rep_b = rm_merge_procedure(2, 4)
    assert inst_a.n_initial == inst_b.n_initial
    assert y_a.y == y_b.y
    assert rep_a.to_record() == rep_b.to_record()


def test_rm_merge_chain_rejects_bad_depth():
    with pytest.raises(ConversionError):
        rm_merge_chain(2, 4, depth=0)
    with pytest.raises(ConversionError):
        rm_merge_chain(1, 4, depth=2)
    with pytest.raises(ConversionError):
        rm_merge_chain(3, 3, depth=3)
