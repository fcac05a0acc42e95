import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings

from convcode import conversion, oracle
from convcode.codes import from_generator, random_code
from convcode.conversion import (
    ConversionMatrix,
    classify_symbols,
    default_conversion,
    make_instance,
    verify_conversion,
)
from convcode.gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    _combine,
    _transpose_words,
    enumerate_invertible,
    gl2_order,
    mat_mul,
    right_kernel_basis,
    solve,
)
from convcode.oracle import (
    SearchLimits,
    candidate_count,
    enumerate_conversions,
    min_access_cost,
)

from tests.conftest import reference_conversions, small_instances


def tiny_instance():
    # Two [2,1] repetition codes merged into a [3,2] parity-check code.
    rep = from_generator(BitMatrix.from_rows([[1, 1]]))
    rep2 = from_generator(BitMatrix.from_rows([[1, 1]]))
    final = from_generator(BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    return make_instance([rep, rep2], final)


def wide_instance():
    # Two [1,1] codes merged into a [12,2] code: 6 candidates whose rows
    # are wider than one byte, past the default n_F cap of 8.
    one = from_generator(BitMatrix([1], 1))
    one2 = from_generator(BitMatrix([1], 1))
    final = from_generator(BitMatrix([0b010110101001, 0b001101101100], 12))
    inst = make_instance([one, one2], final)
    assert candidate_count(inst) == 6
    return inst


WIDE = SearchLimits(max_n_final=16)


def brute_force_valid(inst):
    """All valid conversion matrices by raw enumeration of every Y."""
    rows = inst.total_initial_length
    cols = inst.n_final
    found = []
    for bits in range(1 << (rows * cols)):
        words = [(bits >> (i * cols)) & ((1 << cols) - 1) for i in range(rows)]
        y = ConversionMatrix(BitMatrix(words, cols), inst.n_initial)
        if verify_conversion(inst, y):
            found.append(y)
    return found


def test_candidate_count_example(example_instance):
    assert candidate_count(example_instance) == gl2_order(4) * (1 << (2 * 5))


def test_enumerate_matches_brute_force_tiny():
    inst = tiny_instance()
    brute = {y.y.row_words for y in brute_force_valid(inst)}
    enumerated = []
    for y, report in enumerate_conversions(inst):
        assert verify_conversion(inst, y)
        assert report.access_cost >= 0
        enumerated.append(y.y.row_words)
    assert len(enumerated) == len(set(enumerated))  # no duplicates
    assert set(enumerated) == brute
    assert len(enumerated) == candidate_count(inst)


def test_enumerate_identity_blocks():
    # Full-space initial codes: the valid conversions are exactly the
    # invertible 2x2 matrices.
    a = from_generator(BitMatrix.identity(1))
    b = from_generator(BitMatrix.identity(1))
    final = from_generator(BitMatrix.identity(2))
    inst = make_instance([a, b], final)
    ys = [y.y for y, _ in enumerate_conversions(inst)]
    assert len(ys) == 6


def test_min_matches_brute_force_tiny():
    inst = tiny_instance()
    best_brute = min(
        classify_symbols(inst, y).access_cost for y in brute_force_valid(inst)
    )
    _, report = min_access_cost(inst)
    assert report.access_cost == best_brute


def test_min_access_cost_example(example_instance):
    y, report = min_access_cost(example_instance)
    assert verify_conversion(example_instance, y)
    assert report.access_cost == 3
    assert report.to_record() == {
        "U": [2, 2], "W": 1, "R": [1, 1], "access": 3
    }


def test_min_access_cost_never_beats_oracle():
    rng = random.Random(31)
    for _ in range(6):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        c1 = random_code(k1 + rng.randint(0, 1), k1, rng)
        c2 = random_code(k2 + rng.randint(0, 1), k2, rng)
        cf = random_code(k1 + k2 + rng.randint(0, 2), k1 + k2, rng)
        inst = make_instance([c1, c2], cf)
        _, best = min_access_cost(inst)
        fallback = classify_symbols(inst, default_conversion(inst))
        assert best.access_cost <= fallback.access_cost


def test_min_access_cost_cuts_by_its_incumbent(monkeypatch, example_instance):
    # The worked example has 20,643,840 candidates.  min_access_cost's
    # walk cuts by its own incumbent cost, so only about a thousand of them
    # reach it; an uncut walk would reach all of them.  The wrapper counts
    # the candidates the walk yields.
    calls = []
    walk = oracle._walk

    def counting(inst, space, cut):
        for leaf in walk(inst, space, cut):
            calls.append(1)
            assert len(calls) < 10_000, "the walk is not cut"
            yield leaf

    monkeypatch.setattr(oracle, "_walk", counting)
    _, report = min_access_cost(example_instance)
    assert report.access_cost == 3
    assert calls


def test_min_access_cost_deterministic(example_instance):
    y1, r1 = min_access_cost(example_instance)
    y2, r2 = min_access_cost(example_instance)
    assert y1.y == y2.y
    assert r1.to_record() == r2.to_record()


def row_major_key(col_masks, total_rows):
    """Reference tie-break key, bit by bit: Y's row-major bit string, rows
    top to bottom, and within a row column 0 the most significant."""
    key = []
    for i in range(total_rows):
        word = 0
        for cm in col_masks:
            word = (word << 1) | ((cm >> i) & 1)
        key.append(word)
    return tuple(key)


def tie_break_triple(y, report):
    cols = y.y.transpose().row_words
    return report.access_cost, report.write_cost, row_major_key(cols, y.y.rows)


@settings(max_examples=100, deadline=None)
@given(small_instances())
@example(wide_instance())
def test_min_access_cost_pick_is_least_triple(inst):
    # The pick is the least (access, write, row-major Y) over every valid
    # conversion, also when the final code repeats or zeroes a coordinate,
    # and when Y's rows are wider than one byte.
    y, report = min_access_cost(inst, WIDE)
    assert tie_break_triple(y, report) == min(
        tie_break_triple(*cand) for cand in enumerate_conversions(inst, WIDE)
    )


def right_inverse_by_solve(g):
    """Some E with G . E = I for a full-row-rank G: the k canonical solve
    solutions (free variables zero), one per unit syndrome."""
    cols = [solve(g, BitVector(g.rows, 1 << i)).mask for i in range(g.rows)]
    return BitMatrix.from_columns(cols, g.cols)


def kernel_cosets(inst):
    """The coset table as the oracle built it before it bucketed every y
    by its syndrome: per syndrome v, E . v XOR each combination of the
    right kernel basis of G_I, the combinations doubled basis vector by
    basis vector.  Kept as the reference the bucketing is checked
    against."""
    g_stack = inst.stacked_generator()
    e_cols = right_inverse_by_solve(g_stack).transpose().row_words
    combos = [0]
    for v in right_kernel_basis(g_stack):
        combos += [c ^ v.mask for c in combos]
    return [[_combine(v, e_cols) ^ kc for kc in combos]
            for v in range(1 << inst.k_final)]


def min_access_cost_per_m(inst):
    """The walk min_access_cost made before it picked M column by column:
    every invertible M in enumeration order, each M's cosets taken from
    kernel_cosets, then the same depth-first coset walk and tie-break.
    Kept as the reference the two-stage walk is checked against."""
    table = kernel_cosets(inst)
    n_final = inst.n_final
    total_rows = inst.total_initial_length
    best_key = None
    best_cols = []
    chosen = []

    def descend(j, writes, read_mask):
        nonlocal best_key, best_cols
        cost_floor = writes + read_mask.bit_count() + suffix_floor[j]
        if best_key is not None and cost_floor > best_key[0]:
            return
        if j == n_final:
            rows = tuple(_transpose_words(chosen[::-1], total_rows))
            key = (cost_floor, writes, rows)
            if best_key is None or key < best_key:
                best_key = key
                best_cols = list(chosen)
            return
        for mask in cosets[j]:
            chosen.append(mask)
            if mask.bit_count() == 1:
                descend(j + 1, writes, read_mask)
            else:
                descend(j + 1, writes + 1, read_mask | mask)
            chosen.pop()

    for m in enumerate_invertible(inst.k_final, limit=None):
        target = mat_mul(m, inst.final_code.generator).row_words
        cosets = [table[v] for v in _transpose_words(target, n_final)]
        suffix_floor = [0] * (n_final + 1)
        for j in range(n_final - 1, -1, -1):
            suffix_floor[j] = suffix_floor[j + 1] + (
                1 not in map(int.bit_count, cosets[j])
            )
        descend(0, 0, 0)

    y = ConversionMatrix(
        BitMatrix.from_columns(best_cols, total_rows), inst.n_initial
    )
    return y, classify_symbols(inst, y)


def assert_same_pick_as_per_m_walk(inst):
    # The pick's report comes from its leaf: it must be the classification
    # of its Y, sets and all, and the Y must verify.
    y, report = min_access_cost(inst)
    ref_y, ref_report = min_access_cost_per_m(inst)
    assert y.y == ref_y.y
    assert verify_conversion(inst, y)
    assert report == ref_report


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_min_access_cost_matches_per_m_walk(inst):
    assert_same_pick_as_per_m_walk(inst)


# (n1, k1, n2, k2, n_F): the benchmark sweep's sixteen shapes.
SWEEP_SHAPES = (
    (1, 1, 1, 1, 3), (1, 1, 1, 1, 5), (1, 1, 2, 1, 3), (2, 1, 1, 1, 4),
    (1, 1, 2, 1, 5), (2, 1, 2, 1, 4), (1, 1, 2, 2, 4), (1, 1, 2, 2, 5),
    (1, 1, 2, 2, 6), (2, 2, 1, 1, 4), (2, 2, 1, 1, 5), (2, 2, 1, 1, 6),
    (1, 1, 3, 2, 4), (2, 1, 2, 2, 4), (2, 2, 2, 1, 4), (3, 2, 1, 1, 4),
)


def sweep_instances(seed):
    rng = random.Random(seed)
    for n1, k1, n2, k2, n_f in SWEEP_SHAPES:
        yield make_instance(
            [random_code(n1, k1, rng), random_code(n2, k2, rng)],
            random_code(n_f, k1 + k2, rng),
        )


def degenerate_final_instances():
    # Final codes with a zero column and with a repeated column (syndrome
    # 0 and a shared syndrome).
    initial = [from_generator(BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])),
               from_generator(BitMatrix.from_rows([[1, 1]]))]
    for final_rows in (
        [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0]],  # column 3 zero
        [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1]],  # 3 repeats 0
    ):
        final = from_generator(BitMatrix.from_rows(final_rows))
        yield make_instance(initial, final)


@pytest.mark.parametrize("seed", [19, 1919, 191919])
def test_min_access_cost_matches_per_m_walk_on_sweep_shapes(seed):
    for inst in sweep_instances(seed):
        assert_same_pick_as_per_m_walk(inst)


def test_min_access_cost_matches_per_m_walk_on_fixed_instances(
    example_instance,
):
    # The worked example, a single-M instance and degenerate final codes.
    assert_same_pick_as_per_m_walk(example_instance)
    assert_same_pick_as_per_m_walk(one_m_instance())
    for inst in degenerate_final_instances():
        assert_same_pick_as_per_m_walk(inst)


ZERO_COLUMN, REPEATED_COLUMN = degenerate_final_instances()


def leaf_rows(inst, packed):
    """Y's rows from a leaf's packed rows, row i in bits [i * n_F, ...)."""
    mask = (1 << inst.n_final) - 1
    return tuple(packed >> i * inst.n_final & mask
                 for i in range(inst.total_initial_length))


def cut_walk_ties(inst, lim=SearchLimits()):
    """The cost of min_access_cost's pick, and the Ys (rows, counted)
    that its walk, cut by the incumbent, yields at that cost.  The
    wrapper records each leaf."""
    leaves, walk = [], oracle._walk

    def recording(inst, space, cut):
        for leaf in walk(inst, space, cut):
            leaves.append(leaf)
            yield leaf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_walk", recording)
        _, report = min_access_cost(inst, lim)
    cost = report.access_cost
    return cost, Counter(leaf_rows(inst, packed)
                         for writes, reads, packed, _ in leaves
                         if writes + reads.bit_count() == cost)


@settings(max_examples=100, deadline=None)
@given(small_instances())
@example(wide_instance())
@example(ZERO_COLUMN)
@example(REPEATED_COLUMN)
def test_cut_walk_yields_every_tie_of_the_pick(inst):
    # Under an incumbent an unforced column tries only its weight-1
    # members, and both cuts are strict: the cut walk still yields every
    # Y at the final cost, each once, exactly as the uncut walk does.
    cost, cut = cut_walk_ties(inst, WIDE)
    uncut = Counter(
        leaf_rows(inst, packed)
        for writes, reads, packed, _ in oracle._walk(
            inst, oracle._search_space(inst, WIDE), cut=False)
        if writes + reads.bit_count() == cost)
    assert cut == uncut
    assert set(cut.values()) == {1}


def ties_by_per_m_walk(inst, cost):
    """Every valid Y of the given access cost (rows, counted), by the
    walk of min_access_cost_per_m cut at that cost from the start."""
    table = kernel_cosets(inst)
    n_final, total_rows = inst.n_final, inst.total_initial_length
    found = Counter()
    chosen = []

    def descend(j, writes, read_mask):
        if writes + read_mask.bit_count() + suffix_floor[j] > cost:
            return
        if j == n_final:
            if writes + read_mask.bit_count() == cost:
                found[tuple(_transpose_words(chosen, total_rows))] += 1
            return
        for mask in cosets[j]:
            chosen.append(mask)
            weight_1 = mask.bit_count() == 1
            descend(j + 1, writes + (not weight_1),
                    read_mask if weight_1 else read_mask | mask)
            chosen.pop()

    for m in enumerate_invertible(inst.k_final, limit=None):
        target = mat_mul(m, inst.final_code.generator).row_words
        cosets = [table[v] for v in _transpose_words(target, n_final)]
        suffix_floor = [0] * (n_final + 1)
        for j in range(n_final - 1, -1, -1):
            suffix_floor[j] = suffix_floor[j + 1] + (
                1 not in map(int.bit_count, cosets[j])
            )
        descend(0, 0, 0)
    return found


def test_cut_walk_yields_every_tie_on_the_worked_example(example_instance):
    # Its uncut stream has 20,643,840 Ys, so the reference is the per-M
    # walk cut at the final cost: the 1,080 Ys of access cost 3.
    cost, cut = cut_walk_ties(example_instance)
    assert cost == 3 and sum(cut.values()) == 1080
    assert cut == ties_by_per_m_walk(example_instance, cost)


def assert_same_cosets_as_kernel_cosets(inst):
    # Member for member and in the same order, and every y in [0, 2^N)
    # lies in exactly one coset.
    cosets = oracle._search_space(inst, SearchLimits()).cosets
    assert cosets == kernel_cosets(inst)
    members = sorted(y for coset in cosets for y in coset)
    assert members == list(range(1 << inst.total_initial_length))


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_search_space_matches_kernel_cosets(inst):
    assert_same_cosets_as_kernel_cosets(inst)


@pytest.mark.parametrize("seed", [19, 1919, 191919])
def test_search_space_matches_kernel_cosets_on_sweep_shapes(seed):
    for inst in sweep_instances(seed):
        assert_same_cosets_as_kernel_cosets(inst)


def test_search_space_matches_kernel_cosets_on_fixed_instances(
    example_instance,
):
    # The worked example, a single-M instance, a lambda = 3 instance
    # (N = 7, kernel dim 3, the worked example's final code) and
    # degenerate final codes.
    assert_same_cosets_as_kernel_cosets(example_instance)
    assert_same_cosets_as_kernel_cosets(one_m_instance())
    three = make_instance(
        [from_generator(BitMatrix.from_rows([[1, 1]])),
         from_generator(BitMatrix.from_rows([[1, 1]])),
         from_generator(BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))],
        example_instance.final_code,
    )
    assert_same_cosets_as_kernel_cosets(three)
    for inst in degenerate_final_instances():
        assert_same_cosets_as_kernel_cosets(inst)


def test_size_guards(example_instance):
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(max_n_final=4))
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(max_kernel_dim=1))


def test_candidate_cap_refuses_before_building(monkeypatch):
    # A [3,2] and a [4,3] code into an [8,5] code pass every shape cap
    # (k_F = 5, kernel dim 2, n_F = 8) but have 2^16 |GL(5, 2)|
    # candidates: refused before the coset table is built.
    inst = make_instance(
        [from_generator(BitMatrix([0b101, 0b110], 3)),
         from_generator(BitMatrix([0b1001, 0b1010, 0b1100], 4))],
        from_generator(BitMatrix([(1 << i) | 0xE0 for i in range(5)], 8)),
    )
    assert candidate_count(inst) == 655_318_056_960 > oracle.MAX_CANDIDATES

    def unbuilt(*args):
        raise AssertionError("the candidate space was built")

    monkeypatch.setattr(oracle, "_transpose_words", unbuilt)
    with pytest.raises(SizeGuardError, match="candidates"):
        min_access_cost(inst)
    with pytest.raises(SizeGuardError, match="candidates"):
        next(enumerate_conversions(inst))


def test_k_final_6_is_refused_by_the_candidate_cap(monkeypatch):
    # There is no k_F cap: MAX_CANDIDATES refuses every k_F >= 6, since
    # |GL(5, 2)| <= MAX_CANDIDATES < |GL(6, 2)|, before the coset table
    # is built.  I_6 in blocks 3,3 merged into [I_6 | 1] passes the shape
    # caps (kernel dim 0, n_F = 7).
    assert gl2_order(5) <= oracle.MAX_CANDIDATES < gl2_order(6)
    full = from_generator(BitMatrix([0b001, 0b010, 0b100], 3))
    inst = make_instance(
        [full, full],
        from_generator(BitMatrix([(1 << i) | 1 << 6 for i in range(6)], 7)),
    )
    assert inst.k_final == 6
    assert candidate_count(inst) == gl2_order(6) == 20_158_709_760

    def unbuilt(*args):
        raise AssertionError("the candidate space was built")

    monkeypatch.setattr(oracle, "_transpose_words", unbuilt)
    with pytest.raises(SizeGuardError, match="20158709760 candidates"):
        min_access_cost(inst)
    with pytest.raises(SizeGuardError, match="20158709760 candidates"):
        next(enumerate_conversions(inst))


def test_time_budget(example_instance):
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(time_budget=0.0))


def test_time_budget_must_be_a_nonnegative_number():
    # time.monotonic() > nan is never true, so a NaN budget would switch
    # the guard off; it is refused like a negative one.
    for budget in (float("nan"), -1.0, -1e-9):
        with pytest.raises(ValueError, match="time_budget"):
            SearchLimits(time_budget=budget)
    assert SearchLimits(time_budget=0.0).time_budget == 0.0
    assert SearchLimits(time_budget=None).time_budget is None


def one_m_instance():
    # The [4,1] code 1111 merged into the [8,1] code 11111111: one
    # invertible M, kernel dim 3 and 2^24 candidates, inside every cap.
    inst = make_instance(
        [from_generator(BitMatrix([0b1111], 4))],
        from_generator(BitMatrix([0xFF], 8)),
    )
    assert gl2_order(inst.k_final) == 1
    assert candidate_count(inst) == 1 << 24
    return inst


def test_time_budget_holds_inside_one_m():
    # All 2^24 candidates share one M, so a budget checked only between
    # Ms would let this walk run for minutes.
    lim = SearchLimits(time_budget=0.1)
    t = time.monotonic()
    with pytest.raises(SizeGuardError, match="time budget"):
        for _ in enumerate_conversions(one_m_instance(), lim):
            assert time.monotonic() - t < 5.0


def test_min_access_cost_checks_budget_while_picking_m(
    monkeypatch, example_instance
):
    # The fake clock reads 0 for the deadline and for the first column
    # pick, then is far past the deadline.  The walk reads it once per
    # pick and once per coset member, so three reads and no coset looked
    # up mean the budget stopped the walk at the second of M's k_F = 4
    # picks, before M was complete.
    readings = []
    monkeypatch.setattr(oracle.time, "monotonic",
                        lambda: readings.append(1) or
                        (0.0 if len(readings) <= 2 else 1e9))
    looked_up = []

    class Watched(list):
        def __getitem__(self, v):
            looked_up.append(v)
            return list.__getitem__(self, v)

    def watched(space):
        return space._replace(cosets=Watched(space.cosets),
                              trimmed=Watched(space.trimmed))

    build = oracle._search_space
    monkeypatch.setattr(oracle, "_search_space",
                        lambda *args: watched(build(*args)))
    with pytest.raises(SizeGuardError, match="time budget") as err:
        min_access_cost(example_instance, SearchLimits(time_budget=1.0))
    assert len(readings) == 3 and looked_up == []
    assert err.traceback[-1].name == "_walk"


def test_min_access_cost_checks_budget_inside_the_walk(monkeypatch):
    # The fake clock reads 0 for the deadline, for the one pick of stage 1
    # (k_F = 1: the complete M) and for the first node of the coset walk,
    # then is far past the deadline: only a check inside the coset walk of
    # the single M can see that.
    readings = iter([0.0, 0.0, 0.0])
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(readings, 1e9))
    with pytest.raises(SizeGuardError, match="time budget") as err:
        min_access_cost(one_m_instance(), SearchLimits(time_budget=1.0))
    assert err.traceback[-1].name == "_walk"


def test_limits_must_be_positive():
    for cap in ("max_kernel_dim", "max_n_final"):
        with pytest.raises(ValueError):
            SearchLimits(**{cap: 0})


@pytest.mark.parametrize("cap", ["max_kernel_dim", "max_n_final"])
def test_nan_limit_is_refused(cap):
    # Every comparison with NaN is false, so a NaN cap would switch its
    # guard off instead of bounding the search.
    with pytest.raises(ValueError):
        SearchLimits(**{cap: float("nan")})


@settings(max_examples=100, deadline=None)
@given(small_instances(max_candidates=1024))
def test_enumerate_yields_verified_conversions(inst):
    # The walk yields coset members without a per-candidate check: every
    # Y must still verify and carry classify_symbols' report.
    for y, report in enumerate_conversions(inst):
        assert verify_conversion(inst, y)
        assert report == classify_symbols(inst, y)


@settings(max_examples=100, deadline=None)
@given(small_instances())
@example(wide_instance())
def test_enumerate_permutes_reference_stream(inst):
    # The same conversions with the same reports as the reference walk,
    # each once, in stage 1's order of M instead of enumerate_invertible's.
    stream = [(y.y.row_words, r) for y, r in enumerate_conversions(inst, WIDE)]
    reference = dict((y.y.row_words, r) for y, r in reference_conversions(inst))
    assert len(stream) == len(reference) == candidate_count(inst)
    assert dict(stream) == reference


@pytest.mark.parametrize("make,distinct", [(tiny_instance, 43),
                                           (wide_instance, 6)])
def test_enumerate_transposes_only_in_set_up(monkeypatch, make, distinct):
    # Y's rows come from the spread table built with the coset table, so
    # the uncut stream and a solve each transpose only in set-up (G_I's
    # columns and the final code's supports), and the stream's reports
    # come from one cache: one CostReport per distinct classification,
    # shared by every Y with it.
    inst = make()
    transposes, built, checked, classified = [], [], [], []
    transpose, report = oracle._transpose_words, conversion.CostReport
    check, classify = ConversionMatrix.__post_init__, conversion._classify_rows
    monkeypatch.setattr(oracle, "_transpose_words",
                        lambda words, width: transposes.append(1)
                        or transpose(words, width))
    monkeypatch.setattr(conversion, "CostReport",
                        lambda *sets: built.append(1) or report(*sets))
    # The instance guarantees the blocks: the stream checks none.
    monkeypatch.setattr(ConversionMatrix, "__post_init__",
                        lambda self: checked.append(1) or check(self))
    # Each leaf carries its report's key: no row pass per candidate.
    monkeypatch.setattr(conversion, "_classify_rows",
                        lambda *args: classified.append(1) or classify(*args))
    conversion._report.cache_clear()
    stream = enumerate_conversions(inst, WIDE)
    reports = [next(stream)[1]]
    assert len(transposes) == 2 and checked == []
    reports += [r for _, r in stream]
    assert len(transposes) == 2 and checked == [] and classified == []
    assert len(reports) == candidate_count(inst)
    shared = {}
    assert all(shared.setdefault(r, r) is r for r in reports)
    assert len(built) == len(shared) == distinct
    del transposes[:]
    min_access_cost(inst, WIDE)
    assert len(transposes) == 2


@settings(max_examples=100, deadline=None)
@given(small_instances())
@example(wide_instance())
def test_walk_leaf_key_is_the_row_classification(inst):
    # Each leaf's (keeps, reads) keys the very report that the classifier
    # of arbitrary Y returns for the leaf's rows, and the leaves are the
    # reference stream's conversions, each once.
    n_final, rows = inst.n_final, inst.total_initial_length
    mask = (1 << n_final) - 1
    leaves = []
    for writes, reads, packed, keeps in oracle._walk(
            inst, oracle._search_space(inst, WIDE), cut=False):
        words = tuple(packed >> (i * n_final) & mask for i in range(rows))
        report = conversion._report(inst.n_initial, n_final, keeps, reads)
        assert report is conversion._classify_rows(inst, words)
        assert (writes, writes + reads.bit_count()) == \
            (report.write_cost, report.access_cost)
        leaves.append((words, report))
    reference = [(y.y.row_words, r) for y, r in reference_conversions(inst)]
    assert Counter(leaves) == Counter(reference)
    assert len(leaves) == candidate_count(inst)


@settings(max_examples=100, deadline=None)
@given(small_instances())
@example(wide_instance())
def test_enumerate_yields_trusted_y(inst):
    # The stream fills its Y in without the constructors' checks: each is
    # indistinguishable from the one the public constructors build.
    for y, _ in enumerate_conversions(inst, WIDE):
        built = ConversionMatrix(BitMatrix(y.y.row_words, inst.n_final),
                                 inst.n_initial)
        assert y == built and hash(y) == hash(built)
        assert repr(y) == repr(built)
        assert y.blocks == built.blocks == inst.n_initial
        assert y.y.row_words == built.y.row_words
        assert (y.y.rows, y.y.cols) == (built.y.rows, built.y.cols)
        assert y._anf is None
        assert vars(y) == vars(built)


def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="column range"):
        BitMatrix([8], 3)
    y = BitMatrix.identity(3)
    with pytest.raises(DimensionError, match=">= 1"):
        ConversionMatrix(y, (0, 3))
    with pytest.raises(DimensionError, match="sum to the row count"):
        ConversionMatrix(y, (1, 1))


def test_enumerate_eliminates_only_in_set_up(eliminations):
    # Building the instance eliminates (from_generator).  The first stream
    # eliminates at most once: the final code's echelon form, cached on the
    # code.  The coset table comes from computed syndromes and nothing is
    # checked per candidate, so a second stream on the same instance
    # eliminates nothing, and neither does a solve: its pick's report
    # comes from its leaf, so nothing takes the rank of G_I . Y.
    inst = tiny_instance()
    del eliminations[:]
    assert sum(1 for _ in enumerate_conversions(inst)) == candidate_count(inst)
    assert len(eliminations) <= 1
    del eliminations[:]
    assert sum(1 for _ in enumerate_conversions(inst)) == candidate_count(inst)
    assert eliminations == []
    min_access_cost(inst)
    assert eliminations == []
