import math
from itertools import combinations

import pytest

from convcode.codes import (
    dual,
    from_generator,
    is_information_set,
    min_distance,
    same_code,
)
from convcode.gf2 import SizeGuardError, rank
from convcode.reedmuller import (
    degree_block_a,
    evaluate_monomial,
    low_weight_positions,
    monomial_basis,
    plotkin_sum,
    rm_code,
    rm_dimension,
    rm_generator,
    rm_transformed_generator,
    zero_columns,
)


def points(m):
    """Reference evaluation points: point j is the big-endian binary
    expansion of j, so X_1 is its most significant coordinate."""
    return tuple(
        tuple((j >> (m - 1 - i)) & 1 for i in range(m)) for j in range(1 << m)
    )


def test_points_lexicographic_big_endian():
    pts = points(3)
    assert pts[0] == (0, 0, 0)
    assert pts[1] == (0, 0, 1)
    assert pts[4] == (1, 0, 0)
    assert pts[7] == (1, 1, 1)
    assert len(pts) == 8


# Exception each RM builder raises per input: m outside [1, 20] is a size
# guard, a bad r a ValueError; monomial_basis builds no vectors.
GUARDS = [
    (rm_generator, (0, 21), SizeGuardError),
    (rm_generator, (0, 0), SizeGuardError),
    (rm_generator, (5, 2), ValueError),
    (rm_code, (1, 21), SizeGuardError),
    (degree_block_a, (1, 22), SizeGuardError),
    (degree_block_a, (0, 5), ValueError),
    (evaluate_monomial, ((), 21), SizeGuardError),
    (evaluate_monomial, ((), 0), SizeGuardError),
    (evaluate_monomial, ((4,), 3), ValueError),
    (monomial_basis, (1, 21), None),
]


@pytest.mark.parametrize(
    "builder,args,error", GUARDS,
    ids=[f"{f.__name__}-{args[-2]}-{args[-1]}" for f, args, _ in GUARDS],
)
def test_rm_builder_guards(builder, args, error):
    if error is None:
        builder(*args)
    else:
        with pytest.raises(error) as info:
            builder(*args)
        assert info.type is error


def test_monomial_order_degree_then_lex():
    basis = monomial_basis(2, 3)
    assert basis == (
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)
    )


@pytest.mark.parametrize(
    "r,m", [(0, 1), (1, 3), (2, 4), (3, 5), (2, 6)]
)
def test_rm_dimension_formula(r, m):
    assert rm_dimension(r, m) == sum(math.comb(m, i) for i in range(r + 1))
    assert rm_generator(r, m).rows == rm_dimension(r, m)


def test_evaluate_monomial_constant_and_single():
    assert evaluate_monomial((), 2).mask == 0b1111
    # X1 is the most significant coordinate: ones at points 2 and 3.
    assert evaluate_monomial((1,), 2).mask == 0b1100
    assert evaluate_monomial((2,), 2).mask == 0b1010


def evaluate_by_points(s, pts):
    """Reference evaluation: test the monomial at every point in turn."""
    mask = 0
    for j, p in enumerate(pts):
        if all(p[i - 1] for i in s):
            mask |= 1 << j
    return mask


@pytest.mark.parametrize("m", range(1, 11))
def test_monomial_masks_match_pointwise_reference(m):
    pts = points(m)
    ref = {}
    for deg in range(m + 1):
        for s in combinations(range(1, m + 1), deg):
            ref[s] = evaluate_by_points(s, pts)
            v = evaluate_monomial(s, m)
            assert (v.n, v.mask) == (1 << m, ref[s])
    for r in range(m + 1):
        g = rm_generator(r, m)
        assert g.cols == 1 << m
        assert list(g.row_words) == [
            ref[s] for s in monomial_basis(r, m)
        ]
        assert rm_code(r, m).generator == g
    # degree_block_a(r, m + 1) evaluates in m variables: this m.
    for r in range(1, m + 1):
        assert list(degree_block_a(r, m + 1).row_words) == [
            ref[s] for s in combinations(range(1, m + 1), r)
        ]


def test_evaluate_monomial_rejects_bad_index():
    for s in [(0,), (4,), (1, 5), (-1, 2)]:
        with pytest.raises(ValueError):
            evaluate_monomial(s, 3)


def test_rm_2_3_generator_rows():
    g = rm_generator(2, 3)
    def bits(w, n=8):
        return "".join(str((w >> j) & 1) for j in range(n))
    assert [bits(w) for w in g.row_words] == [
        "11111111",  # 1
        "00001111",  # X1
        "00110011",  # X2
        "01010101",  # X3
        "00000011",  # X1 X2
        "00000101",  # X1 X3
        "00010001",  # X2 X3
    ]


@pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (1, 4), (3, 4), (2, 5)])
def test_rm_distance(r, m):
    c = rm_code(r, m)
    c._d = None  # force the exhaustive scan past the preset cache
    assert min_distance(c) == 1 << (m - r)


def test_rm_dual_is_rm():
    # RM(r, m)^perp = RM(m - r - 1, m).
    assert same_code(dual(rm_code(1, 4)), rm_code(2, 4))
    assert same_code(dual(rm_code(2, 5)), rm_code(2, 5))


@pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (2, 5)])
def test_plotkin_recursion(r, m):
    left = rm_code(r, m - 1)
    right = rm_code(r - 1, m - 1)
    assert same_code(plotkin_sum(left, right), rm_code(r, m))


@pytest.mark.parametrize("r,m", [(1, 2), (2, 4), (2, 5), (3, 6)])
def test_degree_block_shape_and_zero_columns(r, m):
    a = degree_block_a(r, m)
    assert a.rows == math.comb(m - 1, r)
    assert a.cols == 1 << (m - 1)
    expected = tuple(
        j for j in range(1 << (m - 1)) if j.bit_count() <= r - 1
    )
    assert zero_columns(a) == expected
    assert len(expected) == rm_dimension(r - 1, m - 1)
    assert rank(a) == a.rows


@pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (2, 5), (3, 5)])
def test_low_weight_positions_information_set(r, m):
    s = low_weight_positions(r, m)
    c = rm_code(r, m)
    assert len(s) == c.k
    assert is_information_set(c, s)


def test_transformed_generator_1_2():
    g, blocks = rm_transformed_generator(1, 2)
    assert blocks == (1, 1, 1)
    assert g.to_lists() == [
        [1, 1, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]


@pytest.mark.parametrize("r,m", [(1, 2), (2, 3), (2, 4), (3, 5)])
def test_transformed_generator_row_equivalent(r, m):
    g, (b1, b2, b3) = rm_transformed_generator(r, m)
    assert (b1, b2, b3) == (
        rm_dimension(r - 1, m - 1),
        math.comb(m - 1, r),
        rm_dimension(r - 1, m - 1),
    )
    assert same_code(from_generator(g), rm_code(r, m))
    # Top two blocks generate RM(r, m-1) on the left half; the top block
    # is zero on the right half and the bottom block zero on the left.
    half = 1 << (m - 1)
    left = [w & ((1 << half) - 1) for w in g.row_words]
    right = [w >> half for w in g.row_words]
    assert all(w == 0 for w in right[:b1])
    assert all(w == 0 for w in left[b1 + b2:])
    assert left[b1:b1 + b2] == right[b1:b1 + b2]
    from convcode.gf2 import BitMatrix
    top_left = BitMatrix(left[: b1 + b2], half)
    assert same_code(from_generator(top_left), rm_code(r, m - 1))


def test_rm_code_presets_distance_cache():
    c = rm_code(2, 5)
    assert c._d == 8
