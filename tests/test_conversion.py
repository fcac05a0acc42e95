import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import convcode as cc
from convcode import codes, conversion
from convcode.codes import (
    contains,
    encode,
    random_code,
    systematic_generator,
)
from convcode.conversion import (
    ConversionError,
    ConversionMatrix,
    _run_plan,
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
    inverse,
    mat_mul,
    rank,
    right_kernel_basis,
    vec_mat,
)
from convcode.oracle import enumerate_conversions
from convcode.reedmuller import (
    evaluate_monomial,
    low_weight_positions,
    rm_code,
    rm_dimension,
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


def random_codewords(inst, rng):
    return [encode(c, BitVector(c.k, rng.getrandbits(c.k)))
            for c in inst.initial_codes]


def boundary_words(n):
    """Words of length n with single bits just below, at and at the top
    of every 4-bit window boundary, and every all-low and all-high run
    that starts or ends at one."""
    full = (1 << n) - 1
    words = {0, full}
    for b in range(0, n + 4, 4):
        words.update(1 << i for i in (b - 1, b, b + 3) if 0 <= i < n)
        low = (1 << min(b, n)) - 1
        words.update((low, full ^ low))
    return sorted(words)


def assert_plan_matches_vec_mat(y, rng, random_words=8):
    """The compiled plan of y gives vec_mat's x . Y on the boundary words
    and on random words, for any y."""
    n = y.y.rows
    xs = boundary_words(n) + [rng.getrandbits(n) for _ in range(random_words)]
    for x in xs:
        v = BitVector(n, x)
        assert _run_plan(y, [v]) == vec_mat(v, y.y)


def test_plan_matches_vec_mat_on_random_matrices():
    # Not conversions: columns of weight 0, copies of one source row into
    # several positions at positive and negative offsets, sparse and
    # dense columns, in shapes on both sides of a window boundary.
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randint(1, 70), rng.randint(1, 70)
        sources = [rng.randrange(rows) for _ in range(3)]
        masks = []
        for _ in range(cols):
            kind = rng.choice(["zero", "copy", "repeat", "sparse", "dense"])
            if kind == "zero":
                masks.append(0)
            elif kind == "copy":
                masks.append(1 << rng.randrange(rows))
            elif kind == "repeat":
                masks.append(1 << rng.choice(sources))
            elif kind == "sparse":
                masks.append(sum({1 << rng.randrange(rows) for _ in range(3)}))
            else:
                masks.append(rng.getrandbits(rows))
        y = BitMatrix.from_columns(masks, rows)
        assert_plan_matches_vec_mat(ConversionMatrix(y, (rows,)), rng)


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


@pytest.mark.parametrize("m", range(2, 10))
def test_plan_matches_vec_mat_on_rm_merges(m):
    rng = random.Random(m)
    for r in range(1, m):
        _, y, _ = rm_merge_procedure(r, m)
        assert_plan_matches_vec_mat(y, rng)
        copies, align, _ = y._plan
        # The merge keeps every unchanged symbol at its stacked position.
        assert align == 0 and [shift for _, shift in copies] == [0]


@pytest.mark.parametrize("chain", [(2, 4, 2), (3, 8, 2), (3, 7, 3)])
def test_plan_matches_vec_mat_on_rm_chains(chain):
    _, y, _ = rm_merge_chain(*chain)
    assert_plan_matches_vec_mat(y, random.Random(sum(chain)))


def plan_access(inst, y):
    """Per code, the final positions the plan of y copies into and the
    local rows it reads, plus the mask of every stacked row it touches.
    Row base + t of a window is read iff its table entry 1 << t, the row
    restricted to the new symbols, is nonzero."""
    copies, align, windows = y._plan
    unchanged = [set() for _ in range(inst.lam)]
    reads = [set() for _ in range(inst.lam)]
    touched = 0
    for mask, shift in copies:
        touched |= mask
        for i in range(mask.bit_length()):
            if (mask >> i) & 1:
                unchanged[owner_by_blocks(inst, i)[0]].add(i - (align - shift))
    for base, table in windows:
        assert any(table)  # every window holds a read row
        for t in range(4):
            if table[1 << t]:
                touched |= 1 << (base + t)
                code, local = owner_by_blocks(inst, base + t)
                reads[code].add(local)
    return (tuple(map(frozenset, unchanged)), tuple(map(frozenset, reads)),
            touched)


@settings(max_examples=40, deadline=None)
@given(small_instances(max_candidates=1536))
def test_plan_on_every_enumerated_conversion(inst):
    # The plan computes x . Y and touches exactly the U sources and R sets
    # that classify_symbols reports.
    rng = random.Random(inst.n_final)
    n = inst.total_initial_length
    for y, _ in enumerate_conversions(inst):
        assert_plan_matches_vec_mat(y, rng, random_words=2)
        report = classify_symbols(inst, y)
        unchanged, reads, touched = plan_access(inst, y)
        assert unchanged == report.unchanged_per_code
        assert reads == report.read_per_code
        x = rng.getrandbits(n)
        out = _run_plan(y, [BitVector(n, x)])
        for i in range(n):
            flipped = _run_plan(y, [BitVector(n, x ^ (1 << i))])
            # A touched row is a copy source or a read row: flipping it
            # changes some output symbol; any other row is never read.
            assert (flipped != out) == bool((touched >> i) & 1)


def test_classify_symbols_transposes_nothing(monkeypatch):
    # Classification reads Y by rows with the apply plan's column split,
    # so it never builds Y's columns.
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


def test_plan_compiles_once_per_matrix(monkeypatch, example_instance,
                                       example_y):
    builds = []
    compile_plan = conversion._compile_plan

    def counting(y):
        builds.append(y)
        return compile_plan(y)

    monkeypatch.setattr(conversion, "_compile_plan", counting)
    merge = rm_merge_procedure(3, 6)
    chain = rm_merge_chain(2, 5, 2)
    assert builds == []  # building and classifying a merge compiles nothing
    rng = random.Random(37)
    cases = [(example_instance, example_y), merge[:2], chain[:2]]
    for inst, y in cases:
        for _ in range(10):
            apply_conversion(inst, y, random_codewords(inst, rng))
    assert builds == [y.y for _, y in cases]
    for _ in range(10):
        rm_merge_apply(3, 6, *random_codewords(merge[0], rng))
    assert len(builds) == len(cases)  # rm_merge_apply reuses the merge's


def test_warm_apply_still_checks_its_inputs(example_instance, example_y):
    c1, c2 = example_instance.initial_codes
    x1, x2 = encode(c1, BitVector(2, 1)), encode(c2, BitVector(2, 3))
    apply_conversion(example_instance, example_y, [x1, x2])  # compiles
    with pytest.raises(ConversionError):
        apply_conversion(
            example_instance, example_y, [x1 ^ BitVector(3, 1), x2]
        )
    # Y with one stacked row more than the two length-3 codewords.
    tall = ConversionMatrix(BitMatrix.identity(7), (3, 4))
    with pytest.raises(DimensionError):
        apply_conversion(example_instance, tall, [x1, x2])
    with pytest.raises(DimensionError):
        _run_plan(example_y, [x1])


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
    zeros = low_weight_positions(r - 1, m - 1)  # the zero columns of A
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
    eliminations, example_instance, example_y
):
    # Guards the data path by a count, not a time: after one warm-up call
    # has cached the initial codes' echelon forms, membership checks and
    # the conversion itself run without any Gaussian elimination.
    inst, y = example_instance, example_y
    rng = random.Random(23)
    before = len(eliminations)
    apply_conversion(inst, y, random_codewords(inst, rng))
    warm = len(eliminations)
    assert warm > before  # the counter sees the warm-up's echelon forms
    for _ in range(10):
        apply_conversion(inst, y, random_codewords(inst, rng))
    assert len(eliminations) == warm


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
