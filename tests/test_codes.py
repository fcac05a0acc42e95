import random

import pytest
from hypothesis import given, settings, strategies as st

import convcode as cc
from convcode.codes import (
    CodeError,
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
    mat_mul,
    rank,
    vec_mat,
)
from convcode.reedmuller import rm_code

from tests.conftest import GF_ROWS, GI1_ROWS, row_space_by_rref


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


def test_random_code_shape():
    c = random_code(10, 4, random.Random(2))
    assert c.n == 10 and c.k == 4
    assert cc.rank(c.generator) == 4
