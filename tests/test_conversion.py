import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import convcode as cc
from convcode import codes, conversion, reedmuller
from convcode.codes import (
    contains,
    encode,
    first_information_set,
    from_generator,
    random_code,
    systematic_generator,
    zero_code,
)
from convcode.conversion import (
    ConversionError,
    ConversionMatrix,
    ConvertibleInstance,
    _run_matrix,
    _stack_codewords,
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
    SizeGuardError,
    block_diag,
    inverse,
    mat_mul,
    rank,
    vec_mat,
)
from convcode.oracle import enumerate_conversions
from convcode.reedmuller import (
    evaluate_monomial,
    low_weight_positions,
    rm_code,
    rm_dimension,
    rm_transformed_generator,
)

from tests.conftest import (
    GF_ROWS,
    GI1_ROWS,
    GI2_ROWS,
    kernel_words,
    row_space_by_rref,
    same_code,
    small_instances,
)


def test_make_instance_checks_dimension_sum(example_codes):
    # The class is the one way to build an instance, and it refuses what
    # breaks the merge regime: such an instance would crash the oracle
    # with a bare ValueError.
    c1, c2, cf = example_codes
    assert make_instance is ConvertibleInstance
    for initial, message in [
        ((c1,), "merge regime requires sum(k_I) = k_F, got 2 != 4"),
        ((), "need at least one initial code"),
        ((zero_code(3), c1, c2), "initial codes must have dimension >= 1"),
    ]:
        with pytest.raises(ConversionError) as err:
            ConvertibleInstance(initial, cf)
        assert str(err.value) == message
    inst = ConvertibleInstance([c1, c2], cf)
    assert inst.initial_codes == (c1, c2)
    assert hash(inst) == hash(ConvertibleInstance((c1, c2), cf))
    assert inst.lam == 2
    assert inst.n_initial == (3, 3)
    assert inst.k_initial == (2, 2)
    assert inst.n_final == 5 and inst.k_final == 4
    assert inst.total_initial_length == 6
    assert inst.block_starts() == (0, 3)
    assert owner_by_blocks(inst, 0) == (0, 0)
    assert owner_by_blocks(inst, 4) == (1, 1)


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
    """(code index, local coordinate) of a stacked row, by a scan of the
    block starts."""
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


@settings(max_examples=40, deadline=None)
@given(small_instances(max_candidates=1536))
def test_enumerated_reports_match_old_classification(inst):
    count = 0
    for y, report in enumerate_conversions(inst):
        assert report_sets(report) == classify_by_owner(inst, y)
        assert report_sets(classify_symbols(inst, y)) == report_sets(report)
        count += 1
    assert count > 0


def test_shared_reports_match_column_reference_on_rm_merges_and_chains():
    # Each memoised report came through the classifier's cache; the column
    # reference rebuilds it from Y's columns, and classifying again returns
    # the very report the memo holds.
    cases = [rm_merge_procedure(r, m) for m in range(2, 9) for r in range(1, m)]
    cases += [rm_merge_chain(r, m, depth)
              for m in range(2, 8) for depth in range(1, m)
              for r in range(depth, m - depth + 1)]
    assert len(cases) == 28 + 34
    for inst, y, report in cases:
        assert report_sets(report) == classify_by_owner(inst, y)
        assert classify_symbols(inst, y) is report


def test_equal_masks_of_another_width_get_their_own_report():
    # Two [1, 1] codes into the [3, 2] parity code, and into the same code
    # with a zero column 3: the Y with rows 101 and 011 has the same
    # single, kept and read masks in both, but the wider code has one more
    # new symbol, so the report cache must key on n_F as well.
    reports = []
    for n_final in (3, 4):
        inst = make_instance(
            [from_generator(BitMatrix([1], 1)) for _ in range(2)],
            from_generator(BitMatrix([0b101, 0b110], n_final)),
        )
        stream = {}
        for y, report in enumerate_conversions(inst):
            assert report_sets(report) == classify_by_owner(inst, y)
            stream[y.y.row_words] = report
        reports.append(stream[(0b101, 0b110)])
    narrow, wide = reports
    assert narrow.unchanged_per_code == wide.unchanged_per_code
    assert narrow.read_per_code == wide.read_per_code
    assert (narrow.new_symbols, wide.new_symbols) == ({2}, {2, 3})


def perturbed_default(inst, data):
    """default_conversion with right-kernel vectors added to its columns
    (still valid) and optionally one flip outside the kernel, which
    usually breaks Y."""
    y0 = default_conversion(inst)
    kernel = kernel_words(inst.stacked_generator())
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


def default_by_systematic_generator(inst):
    """default_conversion as built before it read rref(G_F): Y row of the
    s-th kept symbol is row s of the final code's systematic generator on
    its first information set."""
    final = inst.final_code
    sys_gen = systematic_generator(final, first_information_set(final))
    starts = inst.block_starts()
    kept = [starts[i] + j for i, c in enumerate(inst.initial_codes)
            for j in first_information_set(c)]
    words = [0] * inst.total_initial_length
    for s, row in enumerate(kept):
        words[row] = sys_gen.row_words[s]
    return BitMatrix(words, inst.n_final)


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_default_conversion_is_the_systematic_generator(inst):
    assert default_conversion(inst).y == default_by_systematic_generator(inst)


def test_default_conversion_is_the_systematic_generator_on_rm_merges():
    for r, m in [(1, 3), (2, 4), (3, 6)]:
        inst, _, _ = rm_merge_procedure(r, m)
        y = default_conversion(inst)
        assert y.y == default_by_systematic_generator(inst)
        assert verify_conversion(inst, y)


def test_default_conversion_example(example_instance):
    y = default_conversion(example_instance)
    assert verify_conversion(example_instance, y)
    report = classify_symbols(example_instance, y)
    # Keeps all four information symbols, writes the fifth: access 5.
    assert report.unchanged_counts == (2, 2)
    assert report.write_cost == 1
    assert report.access_cost == 5


def test_default_conversion_reads_the_cached_echelon_form(
    eliminations, example_instance
):
    # The Y rows are the final code's cached reduced rows: with every
    # code's echelon form cached, no second rref of G_F runs.
    inst = example_instance
    for c in (*inst.initial_codes, inst.final_code):
        first_information_set(c)
    before = len(eliminations)
    default_conversion(inst)
    assert len(eliminations) == before


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


def random_codewords(inst, rng):
    return [encode(c, BitVector(c.k, rng.getrandbits(c.k)))
            for c in inst.initial_codes]


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.data())
def test_apply_conversion_matches_vec_mat_valid_or_not(inst, data):
    # apply_conversion checks its inputs, not Y: an invalid Y is applied
    # as the matrix it is.
    y = perturbed_default(inst, data)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(4):
        words = random_codewords(inst, rng)
        assert apply_conversion(inst, y, words) == vec_mat(
            _stack_codewords(words), y.y
        )


@settings(max_examples=40, deadline=None)
@given(small_instances(max_candidates=1536))
def test_plan_on_every_enumerated_conversion(inst):
    # The generic executor's output depends on stacked row i iff
    # classify_symbols reports it as a U source or an R row.
    rng = random.Random(inst.n_final)
    n = inst.total_initial_length
    for y, _ in enumerate_conversions(inst):
        report = classify_symbols(inst, y)
        kept = sum(1 << j for u in report.unchanged_per_code for j in u)
        touched = sum(1 << i for i, w in enumerate(y.y.row_words) if w & kept)
        for start, reads in zip(inst.block_starts(), report.read_per_code):
            touched |= sum(1 << (start + j) for j in reads)
        x = rng.getrandbits(n)
        out = _run_matrix(y, [BitVector(n, x)])
        for i in range(n):
            flipped = _run_matrix(y, [BitVector(n, x ^ (1 << i))])
            assert (flipped != out) == bool((touched >> i) & 1)


def test_classify_symbols_transposes_nothing(monkeypatch):
    # Classification splits Y's columns in one walk over its rows, so it
    # never builds Y's columns.
    cases = [rm_merge_procedure(4, 9)[:2], rm_merge_chain(3, 8, 2)[:2]]
    calls = []
    transpose = BitMatrix.transpose

    def counting(self):
        calls.append(self)
        return transpose(self)

    monkeypatch.setattr(BitMatrix, "transpose", counting)
    for inst, y in cases:
        classify_symbols(inst, y)
    assert calls == []
    cases[0][1].y.transpose()
    assert len(calls) == 1  # the counter sees a transpose


def test_warm_apply_still_checks_its_inputs(example_instance, example_y):
    c1, c2 = example_instance.initial_codes
    x1, x2 = encode(c1, BitVector(2, 1)), encode(c2, BitVector(2, 3))
    apply_conversion(example_instance, example_y, [x1, x2])
    with pytest.raises(ConversionError):
        apply_conversion(
            example_instance, example_y, [x1 ^ BitVector(3, 1), x2]
        )
    # Y with one stacked row more than the two length-3 codewords.
    tall = ConversionMatrix(BitMatrix.identity(7), (3, 4))
    with pytest.raises(DimensionError):
        apply_conversion(example_instance, tall, [x1, x2])
    with pytest.raises(DimensionError):
        _run_matrix(example_y, [x1])


def test_apply_conversion_checks_y_shape(example_instance, example_y):
    # A Y whose width is not n_F or whose blocks are not n_I is refused
    # as verify_conversion refuses it, not applied as the matrix it is.
    c1, c2 = example_instance.initial_codes
    words = [encode(c1, BitVector(2, 1)), encode(c2, BitVector(2, 3))]
    wide = ConversionMatrix(BitMatrix(example_y.y.row_words, 9), (3, 3))
    resplit = ConversionMatrix(example_y.y, (4, 2))
    for y in (wide, resplit):
        with pytest.raises(DimensionError):
            verify_conversion(example_instance, y)
        with pytest.raises(DimensionError):
            apply_conversion(example_instance, y, words)


def test_anf_apply_needs_a_final_code_as_wide_as_y():
    # The (1, 3) merge's Y on its own initial codes, but with a final code
    # of 4 symbols where Y writes 8: the width check of the generic path
    # refuses it, as it refuses the same matrix without its ANF map.
    inst, y, _ = rm_merge_procedure(1, 3)
    narrow = make_instance(inst.initial_codes, rm_code(2, 2))
    words = random_codewords(inst, random.Random(3))
    plain = ConversionMatrix(y.y, y.blocks)
    for matrix in (y, plain):
        with pytest.raises(DimensionError, match="width"):
            apply_conversion(narrow, matrix, words)
    assert apply_conversion(inst, y, words) == vec_mat(
        _stack_codewords(words), y.y
    )


@pytest.mark.parametrize("blocks", [(0, 6), (-1, 7), (6, 0)])
def test_conversion_matrix_refuses_blocks_below_1(blocks):
    with pytest.raises(DimensionError, match=">= 1"):
        ConversionMatrix(BitMatrix.identity(6), blocks)


def test_conversion_matrix_stores_its_blocks_as_a_tuple(example_instance,
                                                        example_y):
    listed = ConversionMatrix(example_y.y, [3, 3])
    assert listed.blocks == (3, 3)
    assert listed == example_y and hash(listed) == hash(example_y)
    assert verify_conversion(example_instance, listed)


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


def test_rm_merge_procedure_refuses_past_bit_budget(monkeypatch):
    # Y of the merge into RM(1, 20) holds 2^19 rows of up to 2^20 bits
    # (about 16 GiB as Python ints): refused before anything is built,
    # also as a chain, and nothing is memoised.
    def unbuilt(*args):
        raise AssertionError("the merge was built")

    monkeypatch.setattr(conversion, "_build_rm_merge", unbuilt)
    for r, m in [(1, 20), (18, 20), (7, 15)]:
        with pytest.raises(SizeGuardError):
            rm_merge_procedure(r, m)
    with pytest.raises(SizeGuardError):
        rm_merge_chain(2, 20, 2)
    assert conversion._RM_MERGES == {}
    assert reedmuller._RM_CODES == {}  # not even a leaf code


@pytest.mark.parametrize("m", range(2, 10))
def test_rm_merge_product_is_the_transformed_generator(m):
    # G_I . Y is the Plotkin form row for row: a monomial g of RM(r, m-1)
    # gives (g, 0) below degree r and (g, g) at degree r, and a row g2 of
    # RM(r-1, m-1) gives (0, g2); this is what `rm --transformed` prints.
    for r in range(1, m):
        inst, y, _ = rm_merge_procedure(r, m)
        product = mat_mul(inst.stacked_generator(), y.y)
        assert product == rm_transformed_generator(r, m)[0], (r, m)


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
    zeros = low_weight_positions(r - 1, m - 1)  # the zero columns of A
    rng = random.Random(17)
    for _ in range(25):
        x1 = encode(c1, BitVector(c1.k, rng.getrandbits(c1.k)))
        x2 = encode(c2, BitVector(c2.k, rng.getrandbits(c2.k)))
        via_matrix = vec_mat(_stack_codewords([x1, x2]), y.y)
        assert rm_merge_apply(r, m, x1, x2) == via_matrix
        # rm_merge_apply runs this same Y (pinned by tests/test_golden.py);
        # the checks below hold for any correct merge, whatever its Y.
        assert contains(inst.final_code, via_matrix)
        assert via_matrix.mask & ((1 << half) - 1) == x1.mask
        for z in zeros:
            assert via_matrix[half + z] == x2[z]


def moebius(values):
    """The binary Moebius transform from its definition: entry j is the
    XOR of the values at the points i whose set bits are a subset of j's
    (evaluations to ANF coefficients, and back)."""
    out = []
    for j in range(len(values)):
        acc, i = values[j], j
        while i:
            i = (i - 1) & j
            acc ^= values[i]
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "r,m", [(r, m) for m in range(2, 9) for r in range(1, m)]
)
def test_rm_merge_output_matches_anf_closed_form(r, m):
    # The merge keeps c1 on the left and writes M(M(c1) & D_r) ^ c2 on the
    # right: the degree-r part of c1's polynomial, evaluated, plus c2.
    inst, _, _ = rm_merge_procedure(r, m)
    c1, c2 = inst.initial_codes
    half = 1 << (m - 1)
    rng = random.Random(31)
    for _ in range(10):
        x1 = encode(c1, BitVector(c1.k, rng.getrandbits(c1.k)))
        x2 = encode(c2, BitVector(c2.k, rng.getrandbits(c2.k)))
        out = rm_merge_apply(r, m, x1, x2).to_bits()
        degree_r = [
            a if j.bit_count() == r else 0
            for j, a in enumerate(moebius(x1.to_bits()))
        ]
        right = [u ^ v for u, v in zip(moebius(degree_r), x2.to_bits())]
        assert out == x1.to_bits() + right


def inverse_built_rm_merge_y(r, m):
    """Y of the RM merge as it was built before the closed form: T from
    the degree-r evaluations A and the inverse of the first generator on
    its weight-<=r points, B from a systematic generator.  The reference
    for conversion._build_rm_merge."""
    c1 = rm_code(r, m - 1)
    c2 = rm_code(r - 1, m - 1)
    half = 1 << (m - 1)
    a = [
        evaluate_monomial(s, m - 1).mask for s in combinations(range(1, m), r)
    ]
    first = c1.k - len(a)  # degree-r coefficients are the last message rows
    s1 = low_weight_positions(r, m - 1)
    inv1 = inverse(c1.generator.select_columns(s1))
    t_rows = [0] * half
    for s, pos in enumerate(s1):
        coeffs = inv1.row_words[s] >> first
        for t, a_row in enumerate(a):
            if (coeffs >> t) & 1:
                t_rows[pos] ^= a_row
    if half - c2.k <= c2.k:
        b_rows = [1 << j for j in range(half)]
    else:
        zeros = low_weight_positions(r - 1, m - 1)
        b_rows = [0] * half
        for z, row in zip(zeros, systematic_generator(c2, zeros).row_words):
            b_rows[z] = row
    words = [(1 << i) | (t << half) for i, t in enumerate(t_rows)]
    words += [b << half for b in b_rows]
    return BitMatrix(words, 2 * half)


@pytest.mark.parametrize("m", range(2, 11))
def test_rm_merge_matrix_matches_inverse_built_reference(m):
    for r in range(1, m):
        _, y = conversion._build_rm_merge(r, m)
        assert y.y == inverse_built_rm_merge_y(r, m), (r, m)


@pytest.mark.parametrize("r,m", [(2, 5), (4, 9), (3, 4)])
def test_rm_merge_build_eliminates_nothing(eliminations, r, m):
    # Y is a closed form over the Moebius transform, so once the three
    # codes exist, building it runs no Gaussian elimination: neither where
    # B re-encodes the second code, (2,5) and (4,9), nor where B = I, (3,4).
    c2 = rm_code(r - 1, m - 1)
    rm_code(r, m - 1)
    rm_code(r, m)
    assert (2 * c2.k < c2.n) == ((r, m) != (3, 4))  # B = I iff not
    before = len(eliminations)
    inst, y = conversion._build_rm_merge(r, m)
    assert len(eliminations) == before
    assert verify_conversion(inst, y)
    assert len(eliminations) > before  # the counter sees the rank


def test_apply_conversion_eliminates_nothing_once_warm(
    eliminations, example_y
):
    # Guards the data path by a count, not a time: each checked code's rank
    # test is its one elimination and fills its echelon form, so membership
    # checks and the conversion itself, the first apply included, run
    # without any Gaussian elimination.
    eliminations.clear()
    inst = make_instance(
        [from_generator(BitMatrix.from_rows(GI1_ROWS)),
         from_generator(BitMatrix.from_rows(GI2_ROWS))],
        from_generator(BitMatrix.from_rows(GF_ROWS)))
    assert len(eliminations) == 3  # the counter sees the three rank tests
    rng = random.Random(23)
    for _ in range(11):
        apply_conversion(inst, example_y, random_codewords(inst, rng))
    assert len(eliminations) == 3


def test_apply_conversion_on_rm_codes_eliminates_nothing(eliminations):
    # RM codes answer membership with their preset degree test, so on the
    # (4,9) merge every apply, the first one included, eliminates nothing.
    inst, y, _ = rm_merge_procedure(4, 9)
    rng = random.Random(23)
    before = len(eliminations)
    for _ in range(11):
        apply_conversion(inst, y, random_codewords(inst, rng))
    assert len(eliminations) == before
    assert all(c._echelon is None for c in inst.initial_codes)


def test_cold_rm_merge_skips_the_final_echelon(monkeypatch):
    # Verifying the merge checks every product row against RM(4, 9) by its
    # degree test, so the final code's echelon form is never computed.
    seen = []
    echelon = codes._echelon

    def recording(c):
        seen.append(c)
        return echelon(c)

    monkeypatch.setattr(codes, "_echelon", recording)
    inst, _, _ = rm_merge_procedure(4, 9)
    assert inst.final_code is rm_code(4, 9)
    assert not any(c is inst.final_code for c in seen)
    assert inst.final_code._echelon is None


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


def rm_merges_and_chains():
    """(instance, Y) of every RM merge with m <= 10 and every chain with
    m <= 9."""
    cases = [rm_merge_procedure(r, m)[:2]
             for m in range(2, 11) for r in range(1, m)]
    cases += [rm_merge_chain(r, m, depth)[:2]
              for m in range(2, 10) for depth in range(1, m)
              for r in range(depth, m - depth + 1)]
    return cases


def test_anf_apply_matches_plan_on_rm_merges_and_chains(monkeypatch):
    # The preset ANF map is the reference's x . Y on codewords, and it
    # rejects inputs as the generic path's membership checks do.
    cases = rm_merges_and_chains()
    assert len(cases) == 45 + 70
    fused = []
    run_anf = conversion._run_anf

    def counting(inst, codewords):
        fused.append(1)
        return run_anf(inst, codewords)

    monkeypatch.setattr(conversion, "_run_anf", counting)

    @settings(max_examples=4, deadline=None)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        for inst, y in cases:
            words = random_codewords(inst, rng)
            before = len(fused)
            out = apply_conversion(inst, y, words)
            assert len(fused) == before + 1
            assert out == vec_mat(_stack_codewords(words), y.y)
            for i, (c, x) in enumerate(zip(inst.initial_codes, words)):
                bad = list(words)
                if c.k < c.n:  # then d >= 2: a flipped codeword is none
                    bad[i] = x ^ BitVector(c.n, 1 << rng.randrange(c.n))
                    with pytest.raises(ConversionError):
                        apply_conversion(inst, y, bad)
                bad[i] = BitVector(c.n + rng.choice([-1, 1]), 0)
                with pytest.raises(DimensionError):
                    apply_conversion(inst, y, bad)
            for count in (words[:-1], words + words[:1]):
                with pytest.raises(ConversionError, match="one codeword"):
                    apply_conversion(inst, y, count)
        # Equal codes that are not the preset's own objects take the
        # generic path, and their membership checks still reject
        # non-codewords.
        inst, y = rng.choice(cases)
        copies = make_instance(
            [from_generator(c.generator) for c in inst.initial_codes],
            inst.final_code,
        )
        words = random_codewords(inst, rng)
        before = len(fused)
        assert apply_conversion(copies, y, words) == vec_mat(
            _stack_codewords(words), y.y
        )
        i = rng.randrange(inst.lam)
        c = inst.initial_codes[i]
        if c.k < c.n:
            words[i] = words[i] ^ BitVector(c.n, 1 << rng.randrange(c.n))
            with pytest.raises(ConversionError):
                apply_conversion(copies, y, words)
        assert len(fused) == before

    check()


def test_rm_merge_chain_2_4():
    inst, y, report = rm_merge_chain(2, 4, depth=2)
    assert inst.lam == 3
    expected = [rm_code(2, 2), rm_code(1, 2), rm_code(1, 3)]
    for a, b in zip(inst.initial_codes, expected):
        assert same_code(a, b)
    assert same_code(inst.final_code, rm_code(2, 4))
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
    # r >= depth and m - 1 >= depth, but the innermost stage would merge
    # into RM(r, m - depth + 1) with r > m - depth.
    for r, m, depth in [(2, 3, 2), (3, 4, 3)]:
        with pytest.raises(ConversionError, match="depth <= r <= m - depth"):
            rm_merge_chain(r, m, depth)


def test_rm_merge_chain_domain_is_its_guard():
    # Inside 1 <= depth <= r <= m - depth every chain builds; outside it
    # the chain's own guard refuses, never a stage's.
    for m in range(1, 8):
        for r in range(m + 1):
            for depth in range(m + 1):
                if 1 <= depth <= r <= m - depth:
                    inst, y, _ = rm_merge_chain(r, m, depth)
                    assert inst.lam == depth + 1
                    assert inst.final_code is rm_code(r, m)
                else:
                    with pytest.raises(ConversionError, match="m - depth"):
                        rm_merge_chain(r, m, depth)


def composed_rm_chain_y(r, m, depth, stages):
    """Y of chain (r, m, depth) as it was built before the by-rows builder:
    the product of the per-stage merge matrices, each later stage's input
    lifted by an identity block for its new leaf.  stages(r, s) gives the
    Y of the merge into RM(r, s).  The reference for
    conversion._build_rm_merge."""
    composed = stages(r, m - depth + 1)
    for out_m in range(m - depth + 2, m + 1):
        lift = block_diag([composed, BitMatrix.identity(1 << (out_m - 1))])
        composed = mat_mul(lift, stages(r, out_m))
    return composed


def test_rm_chain_by_rows_matches_composed_product():
    # Every (r, m, depth) with m <= 9, merges (depth 1) included, against
    # the lift-and-multiply product of the inverse-built stage matrices.
    stage_ys = {}

    def stages(r, s):
        if (r, s) not in stage_ys:
            stage_ys[r, s] = inverse_built_rm_merge_y(r, s)
        return stage_ys[r, s]

    chains = [(r, m, depth) for m in range(2, 10) for depth in range(1, m)
              for r in range(depth, m - depth + 1)]
    assert len(chains) == 70
    for r, m, depth in chains:
        inst, y = conversion._build_rm_merge(r, m, depth)
        assert y.y == composed_rm_chain_y(r, m, depth, stages), (r, m, depth)
        leaves = [rm_code(r, m - depth)]
        leaves += [rm_code(r - 1, s) for s in range(m - depth, m)]
        assert inst.initial_codes == tuple(leaves)
        assert inst.final_code is rm_code(r, m)
        assert y.blocks == inst.n_initial
        assert y._anf is inst.initial_codes


def test_rm_product_matches_mat_mul_on_rm_merges_and_chains(monkeypatch):
    # On every merge with m <= 10 and every chain with m <= 9, the row
    # butterflies give G_I . Y exactly, row order included, without
    # mat_mul; equal codes that are not RM code objects take mat_mul.
    cases = rm_merges_and_chains()
    calls = []

    def counting(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(conversion, "mat_mul", counting)
    for inst, y in cases:
        product = conversion._product(inst, y.y)
        assert product == mat_mul(inst.stacked_generator(), y.y)
        assert product.rows == inst.k_final
    assert calls == []
    inst, y = cases[-1]
    copies = make_instance(
        [from_generator(c.generator) for c in inst.initial_codes],
        inst.final_code,
    )
    assert conversion._product(copies, y.y) == conversion._product(inst, y.y)
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(1, 6),
       st.sampled_from(["random", "kernel", "kernel+flip"]),
       st.randoms(use_true_random=False))
def test_rm_product_and_verify_match_mat_mul_on_any_y(m, r, kind, rng):
    # Over RM merge instances, on random Y, on the merge Y plus right-kernel
    # vectors of G_I in its columns (still valid), and on that with one
    # flipped bit: the butterfly product equals mat_mul, and
    # verify_conversion answers as the mat_mul-and-RREF reference does.
    r = min(r, m - 1)
    inst, y0, _ = rm_merge_procedure(r, m)
    n = inst.n_final
    if kind == "random":
        cols = [rng.getrandbits(n) for _ in range(n)]
    else:
        kernel = kernel_words(inst.stacked_generator())
        cols = [y0.y.column_mask(j) for j in range(n)]
        for j in range(n):
            for v in kernel:
                cols[j] ^= v * rng.getrandbits(1)
        if kind == "kernel+flip":
            cols[rng.randrange(n)] ^= 1 << rng.randrange(n)
    y = ConversionMatrix(BitMatrix.from_columns(cols, n), y0.blocks)
    assert conversion._product(inst, y.y) == mat_mul(
        inst.stacked_generator(), y.y
    )
    expected = verify_by_rref(inst, y)
    assert verify_conversion(inst, y) == expected
    if kind != "random":  # a random Y of a small merge can be valid
        assert expected == (kind == "kernel")


@pytest.mark.parametrize("m", range(2, 6))
def test_verify_conversion_rejects_every_flip_of_a_merge(m):
    # Flipping entry (i, j) of a merge Y adds e_j to every product row
    # whose generator row has a 1 at i; the all-ones row of each RM code
    # has, and e_j is no codeword, so every single flip breaks the merge.
    for r in range(1, m):
        inst, y, _ = rm_merge_procedure(r, m)
        words = y.y.row_words
        for i in range(y.y.rows):
            for j in range(y.y.cols):
                flipped = list(words)
                flipped[i] ^= 1 << j
                bad = ConversionMatrix(BitMatrix(flipped, y.y.cols), y.blocks)
                assert not verify_conversion(inst, bad), (r, m, i, j)
                assert not verify_by_rref(inst, bad)


def test_rm_merges_and_chains_build_without_block_diag_or_mat_mul(
    monkeypatch,
):
    # Built by rows and verified by row butterflies: a cold merge or chain
    # forms no block-diagonal stack and multiplies no matrices.
    def forbidden(*args):
        raise AssertionError("block_diag or mat_mul was called")

    monkeypatch.setattr(conversion, "block_diag", forbidden)
    monkeypatch.setattr(conversion, "mat_mul", forbidden)
    for chain in [(4, 9, 1), (3, 8, 2), (3, 7, 3), (2, 6, 2)]:
        inst, y, report = rm_merge_chain(*chain)
        assert verify_conversion(inst, y)
        assert classify_symbols(inst, y) == report


def test_rm_merge_memo_is_one_entry_per_chain():
    # One memo: a second call returns the identical triple, and a merge is
    # the chain of depth 1.  A chain memoises itself only, not its stages.
    chain = rm_merge_chain(3, 8, 2)
    assert rm_merge_chain(3, 8, 2) is chain
    assert set(conversion._RM_MERGES) == {(3, 8, 2)}
    merge = rm_merge_procedure(3, 8)
    assert rm_merge_chain(3, 8, 1) is merge
    assert rm_merge_procedure(3, 8) is merge
    assert set(conversion._RM_MERGES) == {(3, 8, 2), (3, 8, 1)}


@pytest.mark.parametrize("run", [1, 2])
def test_fresh_rm_codes_empties_the_memo(run):
    # Each run starts from empty memos and fills them: the autouse fixture
    # cleared what the test before left behind.
    assert conversion._RM_MERGES == {}
    assert reedmuller._RM_CODES == {}
    rm_merge_chain(2, 5, 2)
    rm_merge_procedure(2, 4)
    assert set(conversion._RM_MERGES) == {(2, 5, 2), (2, 4, 1)}
