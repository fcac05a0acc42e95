import random
import time

import pytest
from hypothesis import given, settings

from convcode import oracle
from convcode.codes import from_generator, random_code
from convcode.conversion import (
    ConversionError,
    ConversionMatrix,
    classify_symbols,
    default_conversion,
    make_instance,
    verify_conversion,
)
from convcode.gf2 import BitMatrix, SizeGuardError, gl2_order
from convcode.oracle import (
    SearchLimits,
    candidate_count,
    enumerate_conversions,
    min_access_cost,
)

from tests.conftest import small_instances


def tiny_instance():
    # Two [2,1] repetition codes merged into a [3,2] parity-check code.
    rep = from_generator(BitMatrix.from_rows([[1, 1]]))
    rep2 = from_generator(BitMatrix.from_rows([[1, 1]]))
    final = from_generator(BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    return make_instance([rep, rep2], final)


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
def test_min_access_cost_pick_is_least_triple(inst):
    # The pick is the least (access, write, row-major Y) over every valid
    # conversion, also when the final code repeats or zeroes a coordinate.
    y, report = min_access_cost(inst)
    assert tie_break_triple(y, report) == min(
        tie_break_triple(*cand) for cand in enumerate_conversions(inst)
    )


def test_size_guards(example_instance):
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(max_k_final=2))
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(max_n_final=4))
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(max_kernel_dim=1))


def test_time_budget(example_instance):
    with pytest.raises(SizeGuardError):
        min_access_cost(example_instance, SearchLimits(time_budget=0.0))


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


def test_min_access_cost_checks_budget_inside_the_walk(monkeypatch):
    # The fake clock reads 0 for the deadline and for one more reading,
    # then is far past the deadline: only a check inside the depth-first
    # walk of the single M can see that.
    readings = iter([0.0, 0.0])
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(readings, 1e9))
    with pytest.raises(SizeGuardError, match="time budget"):
        min_access_cost(one_m_instance(), SearchLimits(time_budget=1.0))


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        SearchLimits(max_k_final=0)


def test_enumerate_checks_every_candidate(monkeypatch):
    # Add e_0 to every member of the coset of column 1.  G_I . e_0 is
    # column 0 of G_I, which is nonzero, so G_I . Y != M . G_F and the
    # product check must refuse the first candidate instead of yielding it.
    inst = tiny_instance()
    search_space = oracle._search_space

    def corrupted(inst, lim):
        g_stack, deadline, parts = search_space(inst, lim)

        def wrong():
            for target, cosets in parts:
                cosets = list(cosets)
                cosets[1] = [c ^ 1 for c in cosets[1]]
                yield target, cosets

        return g_stack, deadline, wrong()

    monkeypatch.setattr(oracle, "_search_space", corrupted)
    yielded = []
    with pytest.raises(ConversionError):
        for item in enumerate_conversions(inst):
            yielded.append(item)
    assert yielded == []


def test_enumerate_eliminates_only_in_set_up(eliminations):
    # Per-candidate verification is a product check, not elimination: the
    # elimination count after the first candidate is the whole count.
    inst = tiny_instance()
    stream = enumerate_conversions(inst)
    next(stream)
    set_up = len(eliminations)
    assert set_up > 0  # the counter sees the right inverse and the kernel
    rest = sum(1 for _ in stream)
    assert rest + 1 == candidate_count(inst)
    assert len(eliminations) == set_up
