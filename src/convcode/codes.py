"""Linear block codes over GF(2) and the structural operations on them.

Covers duals, puncturing, shortening, exact minimum distance by
Gray-code enumeration, information sets, encoding, and decoding from a
coordinate subset.  Codes are immutable except for two lazily filled
caches, the minimum distances and the reduced echelon form of the
generator; each is filled idempotently on first use.  A code built by
reedmuller.rm_code also carries a preset degree test, which contains
uses instead of the echelon form.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    inverse,
    mat_mul,
    rank,
    rref,
    solve,
    right_kernel_basis,
    vec_mat,
)

DEFAULT_K_LIMIT = 24

# Pivot columns of rref(generator), their mask, and pivot -> reduced row.
_Echelon = Tuple[Tuple[int, ...], int, Dict[int, int]]
# Butterfly steps (low mask, shift) to ANF coefficients, and the mask of
# the coefficients a codeword must not have.
_DegreeTest = Tuple[Tuple[Tuple[int, int], ...], int]


class CodeError(ValueError):
    """Invalid code construction or operation argument."""


class LinearCode:
    """An [n, k] binary linear code given by a full-rank generator matrix.

    ``k == 0`` marks the zero code on n coordinates (its generator is
    None); it arises from shortening and is a legal value everywhere the
    structural operations need it.

    Nothing changes after construction except the private caches, each
    filled idempotently: ``_d`` and ``_d_dual`` (the distances) and
    ``_echelon`` (pivots and reduced rows of the generator's RREF).
    ``_degree_test`` is None except on codes built by rm_code, which
    preset it (see contains).
    """

    __slots__ = (
        "n", "k", "generator", "_d", "_d_dual", "_echelon", "_degree_test"
    )

    def __init__(self, n: int, generator: Optional[BitMatrix]):
        if n < 1:
            raise CodeError("block length must be >= 1")
        if generator is None:
            self.n = n
            self.k = 0
            self.generator = None
        else:
            if generator.cols != n:
                raise CodeError("generator width must equal the block length")
            if rank(generator) != generator.rows:
                raise CodeError(
                    "dependent rows in generator; supply a full-rank matrix"
                )
            self.n = n
            self.k = generator.rows
            self.generator = generator
        self._d: Optional[int] = None
        self._d_dual: Optional[int] = None
        self._echelon: Optional[_Echelon] = None
        self._degree_test: Optional[_DegreeTest] = None

    @property
    def is_zero(self) -> bool:
        return self.k == 0

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"


def from_generator(m: BitMatrix) -> LinearCode:
    """Code generated by the rows of m; rejects rank-deficient input."""
    return LinearCode(m.cols, m)


def zero_code(n: int) -> LinearCode:
    return LinearCode(n, None)


def same_code(a: LinearCode, b: LinearCode) -> bool:
    """Row-space equality (generator choice does not matter).

    Generators have full rank, so the codes are equal iff k agrees and
    every generator row of a is a codeword of b.
    """
    if a.n != b.n or a.k != b.k:
        return False
    return a.is_zero or all(
        contains(b, a.generator.row(i)) for i in range(a.k)
    )


def min_distance(c: LinearCode, k_limit: int = DEFAULT_K_LIMIT) -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    Enumerates all 2^k messages in Gray-code order (one row XOR per
    step).  Guarded by k_limit; the result is cached on the code.
    """
    if c.is_zero:
        raise CodeError("the zero code has no nonzero codeword")
    if c._d is not None:
        return c._d
    if c.k > k_limit:
        raise SizeGuardError(
            f"minimum-distance scan of 2^{c.k} codewords exceeds the "
            f"limit k <= {k_limit}"
        )
    rows = c.generator.row_words
    best = c.n + 1
    cw = 0
    for i in range(1, 1 << c.k):
        cw ^= rows[(i & -i).bit_length() - 1]
        w = cw.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    c._d = best
    return best


def dual(c: LinearCode) -> LinearCode:
    """The [n, n-k] dual code {h : x . h = 0 for all x in c}.

    Total on the degenerate ends: dual of the zero code is the full
    space, dual of the full space is the zero code.
    """
    if c.is_zero:
        return from_generator(BitMatrix.identity(c.n))
    if c.k == c.n:
        return zero_code(c.n)
    basis = right_kernel_basis(c.generator)
    gen = BitMatrix([v.mask for v in basis], c.n)
    return from_generator(gen)


def dual_distance(c: LinearCode, k_limit: int = DEFAULT_K_LIMIT) -> int:
    """Minimum distance of the dual code; cached."""
    if c._d_dual is None:
        c._d_dual = min_distance(dual(c), k_limit=k_limit)
    return c._d_dual


def _check_coords(n: int, s: Sequence[int]) -> Tuple[int, ...]:
    s = tuple(s)
    if len(set(s)) != len(s):
        raise CodeError("repeated coordinates in index set")
    for j in s:
        if not 0 <= j < n:
            raise CodeError(f"coordinate {j} out of range for length {n}")
    return tuple(sorted(s))


def puncture(c: LinearCode, s: Sequence[int]) -> LinearCode:
    """Projection of the code onto the coordinates in s."""
    s = _check_coords(c.n, s)
    if not s:
        raise CodeError("puncturing set must be nonempty")
    if c.is_zero:
        return zero_code(len(s))
    restricted = c.generator.select_columns(s)
    reduced, pivots = rref(restricted)
    if not pivots:
        return zero_code(len(s))
    return from_generator(BitMatrix(reduced.row_words[: len(pivots)], len(s)))


def shorten(c: LinearCode, s: Sequence[int]) -> LinearCode:
    """Codewords supported inside s, projected onto s."""
    s = _check_coords(c.n, s)
    if not s:
        raise CodeError("shortening set must be nonempty")
    if c.is_zero:
        return zero_code(len(s))
    complement = sorted(set(range(c.n)).difference(s))
    if not complement:
        return c
    # Messages u with (u . G) vanishing outside s.
    outside = c.generator.select_columns(complement)
    kernel = right_kernel_basis(outside.transpose())
    if not kernel:
        return zero_code(len(s))
    words = []
    for u in kernel:
        cw = vec_mat(u, c.generator)
        words.append(cw.mask)
    gen = BitMatrix(words, c.n).select_columns(s)
    return from_generator(gen)


def is_information_set(c: LinearCode, s: Sequence[int]) -> bool:
    """True iff the generator columns indexed by s are invertible."""
    if c.is_zero:
        raise CodeError("the zero code has no information set")
    s = _check_coords(c.n, s)
    if len(s) != c.k:
        raise CodeError(f"information set must have size k = {c.k}")
    return rank(c.generator.select_columns(s)) == c.k


def _echelon(c: LinearCode) -> _Echelon:
    """The code's echelon form, computed on first use and then cached.

    The reduced row with pivot p has its lowest set bit at column p and
    a zero at every other pivot column.
    """
    if c._echelon is None:
        reduced, pivots = rref(c.generator)
        mask = sum(1 << p for p in pivots)
        c._echelon = (pivots, mask, dict(zip(pivots, reduced.row_words)))
    return c._echelon


def first_information_set(c: LinearCode) -> Tuple[int, ...]:
    """Lexicographically first information set (greedy column scan)."""
    if c.is_zero:
        raise CodeError("the zero code has no information set")
    return _echelon(c)[0]


def encode(c: LinearCode, u: BitVector) -> BitVector:
    if c.is_zero:
        raise CodeError("the zero code cannot encode messages")
    if u.n != c.k:
        raise DimensionError(f"message length must be k = {c.k}")
    return vec_mat(u, c.generator)


def decode_from_positions(
    c: LinearCode, s: Sequence[int], vals: BitVector
) -> BitVector:
    """The unique message whose codeword agrees with vals on s."""
    if c.is_zero:
        raise CodeError("the zero code cannot be decoded")
    s = _check_coords(c.n, s)
    if vals.n != len(s):
        raise DimensionError("values length must equal |S|")
    if len(s) != c.k or not is_information_set(c, s):
        raise CodeError("S is not an information set")
    sub = c.generator.select_columns(s)
    # u . sub = vals  <=>  sub^T . u = vals
    u = solve(sub.transpose(), vals)
    assert u is not None
    return u


def contains(c: LinearCode, x: BitVector) -> bool:
    """Membership of x in the code, by a degree test or re-encoding.

    On a code with a preset degree test (RM(r, m) from rm_code), x is
    read as the evaluations of a Boolean function; m butterfly steps
    turn it into that function's algebraic-normal-form coefficients, and
    x is a codeword iff no monomial of degree > r has a coefficient.

    Otherwise a codeword is fixed by its symbols at the pivots of the
    reduced echelon generator, so x is a codeword iff it equals the XOR
    of the reduced rows whose pivot bit is set in x.  The echelon form
    is computed once per code; each call is at most k row XORs.
    """
    if x.n != c.n:
        raise DimensionError("vector length must equal the block length")
    if c._degree_test is not None:
        steps, high = c._degree_test
        v = x.mask
        for low, shift in steps:
            v ^= (v & low) << shift
        return not v & high
    if c.is_zero:
        return x.mask == 0
    _, pivot_mask, rows = _echelon(c)
    acc = 0
    t = x.mask & pivot_mask
    while t:
        p = t.bit_length() - 1
        acc ^= rows[p]
        t ^= 1 << p
    return acc == x.mask


def systematic_generator(c: LinearCode, s: Sequence[int]) -> BitMatrix:
    """Generator whose restriction to the information set s is the identity.

    Row t corresponds to the t-th element of sorted(s).
    """
    s = _check_coords(c.n, s)
    if len(s) != c.k or not is_information_set(c, s):
        raise CodeError("S is not an information set")
    sub = c.generator.select_columns(s)
    return mat_mul(inverse(sub), c.generator)


def sampled_min_weight(
    c: LinearCode, trials: int = 100_000, seed: int = 0
) -> int:
    """Minimum weight over `trials` random nonzero codewords.

    A randomized floor check for codes too large for the exhaustive
    scan; the true distance is at most the returned value.
    """
    if c.is_zero:
        raise CodeError("the zero code has no nonzero codeword")
    rng = random.Random(seed)
    rows = c.generator.row_words
    k = c.k
    best = c.n + 1
    for _ in range(trials):
        u = rng.getrandbits(k)
        while u == 0:
            u = rng.getrandbits(k)
        cw = 0
        t = u
        while t:
            cw ^= rows[(t & -t).bit_length() - 1]
            t &= t - 1
        w = cw.bit_count()
        if w < best:
            best = w
    return best


def random_code(n: int, k: int, rng: random.Random) -> LinearCode:
    """Uniformly random full-rank generator -> an [n, k] code."""
    if not 1 <= k <= n:
        raise CodeError("need 1 <= k <= n")
    while True:
        words = [rng.getrandbits(n) for _ in range(k)]
        m = BitMatrix(words, n)
        if rank(m) == k:
            return from_generator(m)
