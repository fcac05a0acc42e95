"""Reed-Muller codes RM(r, m) by monomial evaluation.

Builds the square-free monomial basis, the plain and row-transformed
generator matrices, the Plotkin sum, and the degree-r evaluation block
used by the merge construction.

A monomial is evaluated on all points at once: each variable's
evaluations form a periodic mask, and the monomial's row is the AND of
the masks of its variables.

Conventions: evaluation points are listed in lexicographic order (point
j is the big-endian binary expansion of j) and variable X_1 is the most
significant (leftmost) coordinate of a point.  Monomials are ordered by
degree, then lexicographically within each degree.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .gf2 import BitMatrix, BitVector, SizeGuardError, vstack
from .codes import LinearCode, from_generator

MAX_M = 20


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise SizeGuardError(f"m must be in [1, {MAX_M}]")


def monomial_basis(r: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """Square-free monomials of degree <= r in m variables.

    Each monomial is the tuple of its variable indices (1-based),
    ordered by degree then lexicographically within a degree.
    """
    if not (0 <= r <= m and m >= 1):
        raise ValueError("need 0 <= r <= m and m >= 1")
    monos: List[Tuple[int, ...]] = []
    for deg in range(r + 1):
        monos.extend(combinations(range(1, m + 1), deg))
    return tuple(monos)


def rm_dimension(r: int, m: int) -> int:
    return sum(math.comb(m, i) for i in range(r + 1))


def _variable_mask(i: int, m: int) -> int:
    """Evaluations of X_i at all 2^m points, as a mask.

    Point j has X_i = bit m-i of j, so the mask is 2^(m-i) zeros followed
    by 2^(m-i) ones, repeated by doubling to 2^m bits.
    """
    block = 1 << (m - i)
    mask = ((1 << block) - 1) << block
    width = 2 * block
    while width < 1 << m:
        mask |= mask << width
        width *= 2
    return mask


def evaluate_monomial(s: Sequence[int], m: int) -> BitVector:
    """Evaluations of the monomial prod_{i in s} X_i at all 2^m points.

    The points are in lexicographic order.  The result is the AND of the
    variable masks of s (see _variable_mask), so it costs a few
    whole-word operations per variable instead of a pass over the
    points.  The empty monomial evaluates to the all-ones vector.
    """
    _check_m(m)
    s = tuple(s)
    for i in s:
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} outside [1, {m}]")
    n = 1 << m
    mask = (1 << n) - 1
    for i in s:
        mask &= _variable_mask(i, m)
    return BitVector(n, mask)


def rm_generator(r: int, m: int) -> BitMatrix:
    """Generator of RM(r, m): one evaluation row per basis monomial."""
    if not (0 <= r <= m):
        raise ValueError("need 0 <= r <= m")
    _check_m(m)
    words = [evaluate_monomial(s, m).mask for s in monomial_basis(r, m)]
    return BitMatrix(words, 1 << m)


_RM_CODES: Dict[Tuple[int, int], LinearCode] = {}


def rm_code(r: int, m: int) -> LinearCode:
    """RM(r, m), built once per (r, m); later calls return the same code."""
    key = (r, m)
    if key not in _RM_CODES:
        code = from_generator(rm_generator(r, m))
        code._d = 1 << (m - r)  # Reed-Muller distance is known exactly
        _RM_CODES[key] = code
    return _RM_CODES[key]


def plotkin_sum(c: LinearCode, d: LinearCode) -> LinearCode:
    """The [2n, k_c + k_d] code {(x, x + y) : x in c, y in d}."""
    if c.n != d.n:
        raise ValueError("Plotkin sum needs equal block lengths")
    top = BitMatrix(
        [w | (w << c.n) for w in c.generator.row_words], 2 * c.n
    )
    bottom = BitMatrix([w << c.n for w in d.generator.row_words], 2 * c.n)
    return from_generator(vstack(top, bottom))


def degree_block_a(r: int, m: int) -> BitMatrix:
    """Evaluations of the degree-exactly-r monomials in m-1 variables.

    Rows are ordered lexicographically; the matrix has C(m-1, r) rows and
    2^(m-1) columns and its zero columns sit at the points of Hamming
    weight <= r-1.
    """
    if not 1 <= r <= m - 1:
        raise ValueError("need 1 <= r <= m - 1")
    words = [
        evaluate_monomial(s, m - 1).mask
        for s in combinations(range(1, m), r)
    ]
    return BitMatrix(words, 1 << (m - 1))


def zero_columns(a: BitMatrix) -> Tuple[int, ...]:
    """Indices of the all-zero columns of a."""
    full = 0
    for w in a.row_words:
        full |= w
    return tuple(j for j in range(a.cols) if not (full >> j) & 1)


def low_weight_positions(r: int, m: int) -> Tuple[int, ...]:
    """Positions of evaluation points of Hamming weight <= r.

    These form an information set of RM(r, m) (the monomial-vs-point
    evaluation matrix restricted to them is unitriangular under the
    containment order).
    """
    return tuple(j for j in range(1 << m) if j.bit_count() <= r)


def rm_transformed_generator(
    r: int, m: int
) -> Tuple[BitMatrix, Tuple[int, int, int]]:
    """Row-equivalent generator of RM(r, m) in three-block form.

    Returns the matrix

        [ G_{RM(r-1, m-1)}  0                ]
        [ A                 A                ]
        [ 0                 G_{RM(r-1, m-1)} ]

    together with the three row-block sizes.  The first two blocks stack
    to a generator of RM(r, m-1) on the left half.
    """
    if not 1 <= r <= m - 1:
        raise ValueError("need 1 <= r <= m - 1")
    half = 1 << (m - 1)
    g_small = rm_generator(r - 1, m - 1)
    a = degree_block_a(r, m)
    top = BitMatrix(list(g_small.row_words), 2 * half)
    mid = BitMatrix([w | (w << half) for w in a.row_words], 2 * half)
    bottom = BitMatrix([w << half for w in g_small.row_words], 2 * half)
    out = vstack(vstack(top, mid), bottom)
    return out, (g_small.rows, a.rows, g_small.rows)
