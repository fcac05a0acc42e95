import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import convcode as cc
from convcode import codes
from convcode.codes import (
    CodeError,
    LinearCode,
    contains,
    decode_from_positions,
    dual,
    dual_distance,
    encode,
    first_information_set,
    from_generator,
    is_information_set,
    min_distance,
    puncture,
    random_code,
    same_code,
    sampled_min_weight,
    shorten,
    systematic_generator,
    zero_code,
)
from convcode.gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    inverse,
    mat_mul,
    rank,
    solve,
    vec_mat,
)
from convcode.reedmuller import rm_code, rm_generator

from tests.conftest import GF_ROWS, GI1_ROWS, raises_exactly, row_space_by_rref


def repetition(n):
    return from_generator(BitMatrix.from_rows([[1] * n]))


def hamming74():
    return from_generator(BitMatrix.from_rows([
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ]))


def test_from_generator_rejects_dependent_rows():
    with pytest.raises(CodeError):
        from_generator(BitMatrix.from_rows([[1, 1], [1, 1]]))


def test_zero_code_marker():
    z = zero_code(4)
    assert z.is_zero and z.k == 0 and z.n == 4 and z.generator is None


def test_same_code_row_space():
    a = from_generator(BitMatrix.from_rows(GI1_ROWS))
    b = from_generator(BitMatrix.from_rows([[1, 0, 1], [1, 1, 0]]))
    c = from_generator(BitMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    assert same_code(a, b)
    assert not same_code(a, c)
    assert not same_code(a, zero_code(3))
    assert same_code(zero_code(3), zero_code(3))


def same_code_by_rref(a, b):
    if a.n != b.n or a.is_zero or b.is_zero:
        return a.n == b.n and a.is_zero and b.is_zero
    return row_space_by_rref(a.generator) == row_space_by_rref(b.generator)


@st.composite
def code_pairs(draw):
    """Two codes: b is a's generator times a random invertible matrix
    (equal spaces), a with one row replaced by a random word (usually
    unequal), or an unrelated code, sometimes zero or of another length."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    a = random_code(n, k, rng) if k else zero_code(n)
    kind = draw(st.sampled_from(["mixed", "row", "other"]))
    if kind == "mixed" and k:
        mix = random_code(k, k, rng).generator  # invertible k x k
        return a, from_generator(mat_mul(mix, a.generator))
    if kind == "row" and k:
        words = list(a.generator.row_words)
        words[rng.randrange(k)] = rng.getrandbits(n)
        if rank(BitMatrix(words, n)) == k:
            return a, from_generator(BitMatrix(words, n))
    n2 = n + draw(st.sampled_from([0, 0, 0, 1]))
    k2 = draw(st.integers(0, n2))
    return a, random_code(n2, k2, rng) if k2 else zero_code(n2)


@settings(max_examples=400, deadline=None)
@given(code_pairs())
def test_same_code_matches_rref_reference(pair):
    a, b = pair
    assert same_code(a, b) == same_code_by_rref(a, b)
    assert same_code(b, a) == same_code_by_rref(a, b)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_min_distance_repetition(n):
    assert min_distance(repetition(n)) == n


def test_min_distance_hamming():
    assert min_distance(hamming74()) == 3


def test_min_distance_example_final():
    assert min_distance(from_generator(BitMatrix.from_rows(GF_ROWS))) == 2


def test_min_distance_size_guard():
    c = random_code(30, 25, random.Random(0))
    with pytest.raises(SizeGuardError):
        min_distance(c, k_limit=24)


def test_min_distance_cached():
    c = hamming74()
    assert min_distance(c) == 3
    assert c._d == 3
    assert min_distance(c, k_limit=1) == 3  # served from cache


# The scan min_distance ran before the bit-sliced kernel, kept as the
# reference it is checked against: all 2^k codewords in Gray-code order,
# one row XOR per step.
def min_weight_by_gray(rows, n, k):
    best = n + 1
    cw = 0
    for i in range(1, 1 << k):
        cw ^= rows[(i & -i).bit_length() - 1]
        best = min(best, cw.bit_count())
    return best


@st.composite
def scan_codes(draw):
    """Codes with n <= 64 and k <= 14, some columns zeroed or repeated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 14))
    n = draw(st.integers(k, 64))
    cols = list(random_code(n, k, rng).generator.transpose().row_words)
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n // 3)):
        cols[j] = 0
    for dst, src in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n // 3)):
        cols[dst] = cols[src]
    g = BitMatrix.from_columns(cols, k)
    assume(rank(g) == k)
    return from_generator(g)


def _splits(k):
    """Every (kb, kg, kl) with kb, kg, kl >= 1 summing to k, with
    kg <= 4 and kl <= 13 (the kernel's own limit)."""
    return [(k - kg - kl, kg, kl)
            for kl in range(1, min(k - 2, 13) + 1)
            for kg in range(1, min(k - kl - 1, 4) + 1)]


@settings(max_examples=150, deadline=None)
@given(scan_codes(), st.data())
def test_min_distance_matches_gray_scan(c, data):
    ref = min_weight_by_gray(c.generator.row_words, c.n, c.k)
    assert min_distance(c) == ref
    if c.k >= 3:
        split = data.draw(st.sampled_from(_splits(c.k)))
        assert codes._min_weight(c.generator.row_words, c.n, *split) == ref


@pytest.mark.parametrize("n", [1, 2, 5, 13, 14])
def test_min_weight_full_space(n):
    full = BitMatrix.identity(n).row_words
    for split in _splits(n) or [codes._split(n, n)]:
        assert codes._min_weight(full, n, *split) == 1
    assert min_distance(from_generator(BitMatrix.identity(n))) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40, 64])
def test_min_weight_repetition(n):
    assert codes._min_weight(((1 << n) - 1,), n, 0, 0, 1) == n
    assert min_distance(repetition(n)) == n


def test_min_weight_finds_a_weight_one_word_in_a_later_block():
    # Rows 0..4 have even weight, so every codeword of the first u_b
    # block (row 5 unused) has even weight.  Row 5 is row 0 plus e_7, so
    # rows 0 and 5 give a weight-1 word, and every weight-1 word needs
    # row 5: each lies in block u_b = 1.
    rng = random.Random(18)
    while True:
        even = [w ^ (w.bit_count() & 1) for w in
                (rng.getrandbits(16) for _ in range(5))]
        if rank(BitMatrix(even, 16)) == 5:
            break
    rows = even + [even[0] ^ 1 << 7]
    assert min_weight_by_gray(rows, 16, 6) == 1
    for split in _splits(6):
        assert codes._min_weight(rows, 16, *split) == 1
    d_even = min_weight_by_gray(even, 16, 5)
    assert d_even >= 2
    assert codes._min_weight(even, 16, 1, 1, 3) == d_even


def test_min_weight_stops_at_weight_one(monkeypatch):
    # The identity's first block already holds weight 1; the other
    # 2^kb - 1 blocks are not weighed.
    kb, kg, kl = codes._split(24, 24)
    assert kb > 0
    calls = []
    plane_sum = codes._plane_sum
    monkeypatch.setattr(codes, "_plane_sum",
                        lambda levels: calls.append(1) or plane_sum(levels))
    assert min_distance(from_generator(BitMatrix.identity(24))) == 1
    assert len(calls) <= 2 << kg


@pytest.mark.parametrize("m", range(1, 9))
def test_min_distance_of_fresh_rm_codes(m):
    for r in range(m + 1):
        c = from_generator(rm_generator(r, m))
        if c.k <= 24:
            assert min_distance(c) == 1 << (m - r)


def test_distance_guards_refuse_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the guard let the scan start")

    monkeypatch.setattr(codes, "_min_weight", no_work)
    monkeypatch.setattr(codes, "dual", no_work)
    with pytest.raises(SizeGuardError):
        min_distance(random_code(30, 25, random.Random(0)))
    # RM(1, 13): n - k = 8178, and building its dual is the slow part.
    c = from_generator(rm_generator(1, 13))
    with pytest.raises(SizeGuardError):
        dual_distance(c)
    assert c._d_dual is None
    with pytest.raises(SizeGuardError):
        dual_distance(hamming74(), k_limit=2)
    # A NaN limit bounds nothing, so it is refused like a small one.
    with pytest.raises(SizeGuardError):
        min_distance(hamming74(), k_limit=float("nan"))
    with pytest.raises(SizeGuardError):
        dual_distance(hamming74(), k_limit=float("nan"))
    with pytest.raises(CodeError):
        min_distance(zero_code(5))


def test_dual_of_repetition_is_even_weight():
    d = dual(repetition(4))
    assert d.k == 3
    for i in range(1 << d.k):
        cw = vec_mat(BitVector(d.k, i), d.generator)
        assert cw.mask.bit_count() % 2 == 0


def test_dual_is_involution():
    c = hamming74()
    assert same_code(dual(dual(c)), c)


def test_dual_degenerate_ends():
    full = from_generator(BitMatrix.identity(3))
    assert dual(full).is_zero
    assert same_code(dual(zero_code(3)), full)


def assert_dual_matches_from_generator(c):
    # dual skips from_generator's rank check; on the same rows the checked
    # constructor must accept them and give the same code, caches empty.
    d = dual(c)
    ref = from_generator(d.generator) if d.k else zero_code(c.n)
    for name in LinearCode.__slots__:
        assert getattr(d, name) == getattr(ref, name), name
    assert d.k == c.n - c.k
    assert d.is_zero or all(
        (g & h).bit_count() % 2 == 0
        for g in c.generator.row_words for h in d.generator.row_words
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.data())
def test_dual_matches_from_generator_on_random_codes(n, data):
    k = data.draw(st.integers(1, n))
    c = random_code(n, k, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    assert_dual_matches_from_generator(c)


@pytest.mark.parametrize("m", range(1, 10))
def test_dual_matches_from_generator_on_rm_1_m(m):
    assert_dual_matches_from_generator(from_generator(rm_generator(1, m)))


def test_dual_eliminates_once(eliminations):
    # The kernel basis comes from one RREF; its rows are not re-ranked.
    c = from_generator(rm_generator(1, 9))
    eliminations.clear()
    dual(c)
    assert len(eliminations) == 1


def test_dual_distance_example_final():
    c = from_generator(BitMatrix.from_rows(GF_ROWS))
    assert dual_distance(c) == 5


def test_dual_distance_hamming():
    # Dual of the [7,4] Hamming code is the simplex code: d = 4.
    assert dual_distance(hamming74()) == 4


def test_puncture_projects():
    c = hamming74()
    p = puncture(c, range(4))
    # The first 4 coordinates are systematic, so the projection is full.
    assert p.n == 4 and p.k == 4


def test_puncture_to_zero_code():
    c = from_generator(BitMatrix.from_rows([[0, 1]]))
    assert puncture(c, [0]).is_zero


def test_shorten_repetition():
    s = shorten(repetition(4), [0, 1])
    # No nonzero codeword of the repetition code vanishes on coords 2, 3.
    assert s.is_zero


def test_shorten_even_weight_code():
    even = dual(repetition(4))
    s = shorten(even, [0, 1, 2])
    assert s.n == 3 and s.k == 2
    for i in range(1 << s.k):
        cw = vec_mat(BitVector(s.k, i), s.generator)
        assert cw.mask.bit_count() % 2 == 0


def test_shorten_full_set_is_identity():
    c = hamming74()
    assert same_code(shorten(c, range(7)), c)


def test_shorten_dimension_formula_random():
    rng = random.Random(5)
    for _ in range(30):
        c = random_code(8, rng.randint(1, 6), rng)
        s = sorted(rng.sample(range(8), rng.randint(1, 8)))
        sh = shorten(c, s)
        # Shortening is dual to puncturing the dual code.
        pd = puncture(dual(c), s)
        if sh.is_zero:
            assert pd.k == len(s)
        else:
            assert same_code(dual(sh), pd)


def test_information_sets():
    c = hamming74()
    assert is_information_set(c, [0, 1, 2, 3])
    # Columns 4 and 5 sum to columns 0 plus 1, so this set is dependent.
    assert not is_information_set(c, [0, 1, 4, 5])
    assert first_information_set(c) == (0, 1, 2, 3)
    with pytest.raises(CodeError):
        is_information_set(c, [0, 1, 2])
    with pytest.raises(CodeError):
        is_information_set(c, [0, 0, 1, 2])


def test_first_information_set_is_lex_first():
    c = from_generator(BitMatrix.from_rows([[0, 1, 1], [0, 0, 1]]))
    assert first_information_set(c) == (1, 2)


def test_encode_decode_round_trip():
    c = hamming74()
    rng = random.Random(9)
    for _ in range(30):
        u = BitVector(4, rng.getrandbits(4))
        cw = encode(c, u)
        assert contains(c, cw)
        s = [0, 1, 2, 3]
        vals = BitVector.from_bits([cw[p] for p in s])
        assert decode_from_positions(c, s, vals) == u


def test_decode_from_non_systematic_positions():
    c = hamming74()
    s = [2, 3, 4, 5]
    assert is_information_set(c, s)
    u = BitVector.from_bits([1, 0, 1, 1])
    cw = encode(c, u)
    vals = BitVector.from_bits([cw[p] for p in sorted(s)])
    assert decode_from_positions(c, s, vals) == u


def test_decode_reads_values_in_sorted_position_order():
    # vals[t] is the symbol at the t-th element of sorted(s), however s is
    # ordered: a reversed s decodes from the same vals.
    c = hamming74()
    s = [5, 4, 3, 2]
    for msg in range(16):
        u = BitVector(4, msg)
        cw = encode(c, u)
        vals = BitVector.from_bits([cw[p] for p in sorted(s)])
        assert decode_from_positions(c, s, vals) == u
        as_given = BitVector.from_bits([cw[p] for p in s])
        if as_given != vals:
            assert decode_from_positions(c, s, as_given) != u


def test_decode_rejects_non_information_set():
    with pytest.raises(CodeError):
        decode_from_positions(
            hamming74(), [0, 1, 4, 5], BitVector.from_bits([0, 0, 0, 0])
        )


def test_contains():
    c = hamming74()
    assert contains(c, BitVector(7, 0))
    assert contains(c, encode(c, BitVector.from_bits([1, 1, 0, 1])))
    assert not contains(c, BitVector.from_bits([1, 0, 0, 0, 0, 0, 0]))
    assert contains(zero_code(3), BitVector(3, 0))
    assert not contains(zero_code(3), BitVector(3, 1))


def contains_by_rank(c, x):
    """Reference membership: x is a codeword iff stacking it onto the
    generator leaves the rank at k (the elimination contains replaced)."""
    if x.n != c.n:
        raise DimensionError("vector length must equal the block length")
    if c.is_zero:
        return x.mask == 0
    if x.mask == 0:
        return True
    stacked = BitMatrix(list(c.generator.row_words) + [x.mask], c.n)
    return rank(stacked) == c.k


@st.composite
def codes_and_words(draw):
    """A random code, spread over a column permutation with some all-zero
    columns (so its pivots need not be a prefix), and a word to test:
    an encoded codeword, a codeword with one flipped bit, or a random word.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))  # k == n is drawn too
    zeros = draw(st.integers(0, 3))
    base = random_code(n, k, random.Random(draw(st.integers(0, 2**32 - 1))))
    perm = draw(st.permutations(range(n + zeros)))
    words = []
    for w in base.generator.row_words:
        words.append(sum(1 << perm[j] for j in range(n) if (w >> j) & 1))
    c = from_generator(BitMatrix(words, n + zeros))
    kind = draw(st.sampled_from(["codeword", "flipped", "random"]))
    if kind == "random":
        x = BitVector(c.n, draw(st.integers(0, (1 << c.n) - 1)))
    else:
        x = encode(c, BitVector(k, draw(st.integers(0, (1 << k) - 1))))
        if kind == "flipped":
            x = x ^ BitVector(c.n, 1 << draw(st.integers(0, c.n - 1)))
    return c, x


@settings(max_examples=400, deadline=None)
@given(codes_and_words())
def test_contains_matches_rank_reference(case):
    c, x = case
    expected = contains_by_rank(c, x)
    assert contains(c, x) == expected
    assert contains(c, x) == expected  # answered again from the cache


def test_contains_edge_codes():
    full = from_generator(
        BitMatrix.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
    )
    for mask in range(8):
        assert contains(full, BitVector(3, mask))
    late = from_generator(BitMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1]]))
    assert first_information_set(late) == (1, 2)
    for mask in range(16):
        x = BitVector(4, mask)
        assert contains(late, x) == contains_by_rank(late, x)
    with pytest.raises(DimensionError):
        contains(late, BitVector(3, 0))
    with pytest.raises(DimensionError):
        contains(zero_code(3), BitVector(4, 0))


def test_contains_repeated_on_memoised_rm_code():
    code = rm_code(2, 5)
    rng = random.Random(12)
    words = [encode(code, BitVector(code.k, rng.getrandbits(code.k)))
             for _ in range(5)]
    words += [BitVector(code.n, rng.getrandbits(code.n)) for _ in range(5)]
    first = [contains(code, x) for x in words]
    assert first == [contains_by_rank(code, x) for x in words]
    assert first[:5] == [True] * 5
    assert rm_code(2, 5) is code
    assert [contains(rm_code(2, 5), x) for x in words] == first


_PRESET_FREE_RM = {}


def preset_free_rm(r, m):
    """RM(r, m) from its generator alone: no degree test is preset, so
    contains re-encodes from the echelon form (the reference path)."""
    if (r, m) not in _PRESET_FREE_RM:
        _PRESET_FREE_RM[r, m] = from_generator(rm_generator(r, m))
    return _PRESET_FREE_RM[r, m]


@st.composite
def rm_words(draw):
    """(r, m, x) with 1 <= m <= 10, 0 <= r <= m and x an encoded codeword
    of RM(r, m), a codeword with one flipped bit, or a random word."""
    m = draw(st.integers(1, 10))
    r = draw(st.integers(0, m))
    c = preset_free_rm(r, m)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["codeword", "flipped", "random"]))
    if kind == "random":
        return r, m, BitVector(c.n, rng.getrandbits(c.n))
    x = encode(c, BitVector(c.k, rng.getrandbits(c.k)))
    if kind == "flipped":
        x = x ^ BitVector(c.n, 1 << rng.randrange(c.n))
    return r, m, x


@settings(max_examples=300, deadline=None)
@given(rm_words())
@example((0, 3, BitVector(8, 0xFF)))  # repetition code: all-ones
@example((0, 3, BitVector(8, 0x7F)))
@example((4, 4, BitVector(16, 0x1234)))  # the full space
@example((3, 10, BitVector(1024, 1 << 1023)))
def test_rm_degree_test_matches_echelon_and_rank(case):
    r, m, x = case
    c = rm_code(r, m)
    assert c._degree_test is not None
    plain = preset_free_rm(r, m)
    assert plain._degree_test is None
    expected = contains_by_rank(plain, x)
    assert contains(c, x) == expected
    assert contains(plain, x) == expected
    for n in (c.n - 1, c.n + 1):
        with pytest.raises(DimensionError):
            contains(c, BitVector(n, 0))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rm_degree_test_on_every_word(m):
    for r in range(m + 1):
        c, plain = rm_code(r, m), preset_free_rm(r, m)
        for mask in range(1 << c.n):
            x = BitVector(c.n, mask)
            assert contains(c, x) == contains(plain, x)


def test_systematic_generator_identity_on_set():
    c = hamming74()
    s = [2, 3, 4, 5]
    g = systematic_generator(c, s)
    assert same_code(from_generator(g), c)
    for t, pos in enumerate(sorted(s)):
        col = [g.get(row, pos) for row in range(g.rows)]
        assert col == [1 if row == t else 0 for row in range(g.rows)]


def test_sampled_min_weight_upper_bounds_distance():
    c = hamming74()
    assert sampled_min_weight(c, trials=2000, seed=1) >= min_distance(c)
    # With this many trials on a tiny code the sample is exact.
    assert sampled_min_weight(c, trials=2000, seed=1) == 3


def test_sampled_min_weight_needs_a_trial():
    # With no trial there is no sample, and n + 1 is no codeword weight.
    for trials in (0, -1, float("nan")):
        with pytest.raises(CodeError, match="trials"):
            sampled_min_weight(rm_code(1, 3), trials=trials)


def test_random_code_shape():
    c = random_code(10, 4, random.Random(2))
    assert c.n == 10 and c.k == 4
    assert cc.rank(c.generator) == 4


# References for the information-set inverse: the rank test followed by
# a solve of the transposed columns, and by an inverse, that
# decode_from_positions and systematic_generator ran before
# codes._inverse_on.

def decode_by_solve(c, s, vals):
    s = sorted(s)
    if len(s) != c.k or not is_information_set(c, s):
        raise CodeError("S is not an information set")
    u = solve(c.generator.select_columns(s).transpose(), vals)
    assert u is not None
    return u


def systematic_by_inverse(c, s):
    s = sorted(s)
    if len(s) != c.k or not is_information_set(c, s):
        raise CodeError("S is not an information set")
    return mat_mul(inverse(c.generator.select_columns(s)), c.generator)


def outcome(fn, *args):
    try:
        return fn(*args)
    except CodeError:
        return CodeError


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_information_set_inverse_matches_solve_and_inverse(n, seed):
    rng = random.Random(seed)
    c = random_code(n, rng.randint(1, n), rng)
    for _ in range(4):
        size = c.k if rng.random() < 0.9 else rng.randint(1, n)
        s = rng.sample(range(n), size)
        vals = BitVector(size, rng.getrandbits(size))
        want = outcome(decode_by_solve, c, s, vals)
        assert outcome(decode_from_positions, c, s, vals) == want
        want = outcome(systematic_by_inverse, c, s)
        assert outcome(systematic_generator, c, s) == want
        assert (want is CodeError) == (
            size != c.k or not is_information_set(c, s)
        )


_RM13 = rm_code(1, 3)  # [8, 4, 4]
_ZERO = zero_code(8)


@pytest.mark.parametrize("err, call", [
    (CodeError, lambda: LinearCode(0, None)),
    (CodeError, lambda: LinearCode(3, BitMatrix.identity(2))),
    (CodeError, lambda: puncture(_RM13, [8])),
    (CodeError, lambda: shorten(_RM13, [-1])),
    (CodeError, lambda: puncture(_RM13, [])),
    (CodeError, lambda: shorten(_RM13, [])),
    (CodeError, lambda: is_information_set(_ZERO, [])),
    (CodeError, lambda: first_information_set(_ZERO)),
    (CodeError, lambda: encode(_ZERO, BitVector(1))),
    (CodeError, lambda: decode_from_positions(_ZERO, [0], BitVector(1))),
    (CodeError, lambda: systematic_generator(_ZERO, [])),
    (CodeError, lambda: sampled_min_weight(_ZERO)),
    (DimensionError, lambda: encode(_RM13, BitVector(3))),
    (DimensionError, lambda: decode_from_positions(
        _RM13, [0, 1, 2, 4], BitVector(3))),
    (CodeError, lambda: random_code(4, 0, random.Random(0))),
    (CodeError, lambda: random_code(4, 5, random.Random(0))),
], ids=["length-0", "width-mismatch", "coord-high", "coord-negative",
        "puncture-empty", "shorten-empty", "zero-information-set",
        "zero-first-information-set", "zero-encode", "zero-decode",
        "zero-systematic", "zero-sampled-weight", "encode-length",
        "decode-length", "random-k0", "random-k-above-n"])
def test_refusals_raise_their_typed_error(err, call):
    raises_exactly(err, call)


def test_shorten_to_the_zero_code():
    # No nonzero codeword of RM(1, 3) (d = 4) lies inside {0}: the
    # kernel is empty.  A zero code shortens to the zero code.
    short = shorten(_RM13, [0])
    assert short.is_zero and short.n == 1
    short = shorten(_ZERO, [5, 1])
    assert short.is_zero and short.n == 2
