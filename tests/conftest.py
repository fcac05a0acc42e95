import pytest

import convcode as cc
from convcode import reedmuller


@pytest.fixture(autouse=True)
def fresh_rm_codes():
    # rm_code shares one LinearCode per (r, m); a test that resets its
    # distance cache must not leak that into the next test.
    reedmuller._RM_CODES.clear()
    yield
    reedmuller._RM_CODES.clear()


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
