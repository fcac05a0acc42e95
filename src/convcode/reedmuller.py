"""Reed-Muller codes RM(r, m) from the binary Moebius transform.

Builds the square-free monomial basis, the plain and row-transformed
generator matrices, and the Plotkin sum.  One map, the Moebius
transform M between evaluations and algebraic-normal-form (ANF)
coefficients (gf2._moebius over gf2._butterflies), gives the generator
rows, and rm_code presets each code's ANF domain (the transform's steps
and the mask of degree-<=r monomials), which the membership test, the
merge matrix's rows and the merge's ANF apply all read.

Conventions: evaluation points are listed in lexicographic order (point
j is the big-endian binary expansion of j) and variable X_1 is the most
significant (leftmost) coordinate of a point.  Monomials are ordered by
degree, then lexicographically within each degree.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .gf2 import BitMatrix, BitVector, SizeGuardError, _butterflies, _moebius
from .codes import LinearCode, _independent, from_generator, zero_code

MAX_M = 20
# Bits of the largest matrix built: a generator of k rows of 2^m bits,
# or the 2^m x 2^m matrix of the merge into RM(r, m).
MAX_BITS = 1 << 28


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise SizeGuardError(f"m must be in [1, {MAX_M}]")


def _check_bits(rows: int, m: int) -> None:
    """Refuse rows x 2^m bits past MAX_BITS (m already checked)."""
    if rows << m > MAX_BITS:
        raise SizeGuardError(f"{rows} rows of 2^{m} bits exceed {MAX_BITS}")


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
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    return sum(math.comb(m, i) for i in range(r + 1))


def evaluate_monomial(s: Sequence[int], m: int) -> BitVector:
    """Evaluations of the monomial prod_{i in s} X_i at all 2^m points.

    The points are in lexicographic order.  The result is M(e_p), p the
    monomial's point (see gf2._butterflies), so it costs m whole-word
    steps instead of a pass over the points.  The empty monomial
    evaluates to the all-ones vector.
    """
    _check_m(m)
    s = tuple(s)
    for i in s:
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} outside [1, {m}]")
    p = sum(1 << (m - i) for i in set(s))  # X_i is bit m-i of a point
    return BitVector(1 << m, _moebius(1 << p, _butterflies(m)))


def rm_generator(r: int, m: int) -> BitMatrix:
    """Generator of RM(r, m): one evaluation row per basis monomial.

    Refuses (SizeGuardError) m outside [1, MAX_M] and a generator of
    more than MAX_BITS bits, before building any row.
    """
    if not (0 <= r <= m):
        raise ValueError("need 0 <= r <= m")
    _check_m(m)
    _check_bits(rm_dimension(r, m), m)
    steps = _butterflies(m)
    points = (sum(1 << (m - i) for i in s) for s in monomial_basis(r, m))
    return BitMatrix([_moebius(1 << p, steps) for p in points], 1 << m)


_RM_CODES: Dict[Tuple[int, int], LinearCode] = {}


def _weight_masks(r: int, m: int) -> List[int]:
    """Masks of the points of weight <= w among 2^m, w = 0..r, grown one
    variable at a time: those among 2^(t+1) are those among 2^t, plus
    those of weight <= w-1 shifted up by 2^t."""
    at_most = [1] * (r + 1)  # weight <= w among the first 2^t points
    for t in range(m):
        at_most = [at_most[0]] + [
            at_most[w] | (at_most[w - 1] << (1 << t)) for w in range(1, r + 1)
        ]
    return at_most


def rm_code(r: int, m: int) -> LinearCode:
    """RM(r, m), built once per (r, m), with its exact distances preset:
    d = 2^(m-r) and, for r < m, d_dual = 2^(r+1) (the dual is RM(m-r-1, m)),
    and with its ANF domain preset as _degree_test = (steps, low): steps
    the Moebius transform's (gf2._butterflies(m)) and low the points of
    weight <= r, the monomials of degree <= r.  A word is a codeword iff
    its ANF has no bit outside low (codes.contains), and the RM merge
    and its ANF apply read the same preset (conversion).  Row p is
    M(e_p), lowest set bit p, so the rows skip the rank test."""
    key = (r, m)
    if key not in _RM_CODES:
        code = _independent(1 << m, rm_generator(r, m).row_words)
        code._d = 1 << (m - r)
        if r < m:
            code._d_dual = 1 << (r + 1)
        code._degree_test = (_butterflies(m), _weight_masks(r, m)[r])
        _RM_CODES[key] = code
    return _RM_CODES[key]


def plotkin_sum(c: LinearCode, d: LinearCode) -> LinearCode:
    """The [2n, k_c + k_d] code {(x, x + y) : x in c, y in d}.

    Its rows are [x | x] per row x of c and [0 | y] per row y of d; a
    zero code adds none, and two zero codes give zero_code(2n).
    """
    if c.n != d.n:
        raise ValueError("Plotkin sum needs equal block lengths")
    n = c.n
    top = () if c.is_zero else c.generator.row_words
    bottom = () if d.is_zero else d.generator.row_words
    rows = [w | w << n for w in top] + [w << n for w in bottom]
    return from_generator(BitMatrix(rows, 2 * n)) if rows else zero_code(2 * n)


def low_weight_positions(r: int, m: int) -> Tuple[int, ...]:
    """Positions of evaluation points of Hamming weight <= r.

    These form an information set of RM(r, m) (the monomial-vs-point
    evaluation matrix restricted to them is unitriangular under the
    containment order).
    """
    _check_m(m)
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
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
    to a generator of RM(r, m-1) on the left half.  The matrix is
    exactly G_I . Y of the merge rm_merge_procedure(r, m) (the Plotkin
    form): a monomial row g of RM(r, m-1) becomes (g, 0) below degree r
    and (g, g) at degree r, and a row g2 of RM(r-1, m-1) becomes (0, g2).
    """
    if not 1 <= r <= m - 1:
        raise ValueError("need 1 <= r <= m - 1")
    _check_m(m)
    _check_bits(rm_dimension(r, m), m)
    half = 1 << (m - 1)
    # Monomials are ordered by degree: the first rows of G_{RM(r, m-1)}
    # are G_{RM(r-1, m-1)}, the rest the degree-r evaluations A.
    g = rm_generator(r, m - 1).row_words
    k = rm_dimension(r - 1, m - 1)
    words = list(g[:k])
    words += [w | (w << half) for w in g[k:]]
    words += [w << half for w in g[:k]]
    return BitMatrix(words, 2 * half), (k, len(g) - k, k)
