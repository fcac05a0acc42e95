"""Linear block codes over GF(2) and the structural operations on them.

Covers duals, puncturing, shortening, exact minimum distance (all 2^k
codewords weighed up to 2^13 at a time in bit-sliced counters),
information sets, encoding, and decoding from a coordinate subset.
Codes are immutable except for two idempotent caches, the minimum
distances and the generator's reduced echelon form, which the checked
constructor's rank test fills (puncture stores its own elimination;
dual, shorten and rm_code skip the test and fill it on first use).  An
RM code also carries its preset ANF domain, which contains tests
membership by instead.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    _butterflies,
    _combine,
    _moebius,
    _transpose_words,
    inverse,
    mat_mul,
    vec_mat,
)

DEFAULT_K_LIMIT = 24

# Pivot columns of rref(generator), their mask, reduced rows by pivot column.
_Echelon = Tuple[Tuple[int, ...], int, List[int]]


class CodeError(ValueError):
    """Invalid code construction or operation argument."""


class LinearCode:
    """An [n, k] binary linear code given by a full-rank generator matrix.

    ``k == 0`` marks the zero code on n coordinates (its generator is
    None); it arises from shortening and is a legal value everywhere the
    structural operations need it.

    Nothing changes after construction except the private caches, each
    filled idempotently: ``_d`` and ``_d_dual`` (the distances) and
    ``_echelon`` (the generator's RREF; see _echelon).
    ``_degree_test`` is None except on codes built by rm_code, which
    preset it to the code's ANF domain (steps, low) (see contains).
    """

    __slots__ = (
        "n", "k", "generator", "_d", "_d_dual", "_echelon", "_degree_test"
    )

    def __init__(self, n: int, generator: Optional[BitMatrix]):
        self._fill(n, generator)
        if generator is not None and len(_echelon(self)[0]) != self.k:
            raise CodeError(
                "dependent rows in generator; supply a full-rank matrix"
            )

    def _fill(self, n: int, generator: Optional[BitMatrix]) -> None:
        # Every field, after the checks that need no elimination.
        if n < 1:
            raise CodeError("block length must be >= 1")
        if generator is not None and generator.cols != n:
            raise CodeError("generator width must equal the block length")
        self.n = n
        self.k = 0 if generator is None else generator.rows
        self.generator = generator
        self._d: Optional[int] = None
        self._d_dual: Optional[int] = None
        self._echelon: Optional[_Echelon] = None
        self._degree_test: Optional[tuple] = None

    @property
    def is_zero(self) -> bool:
        return self.k == 0

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"


def from_generator(m: BitMatrix) -> LinearCode:
    """Code generated by the rows of m; rejects rank-deficient input."""
    return LinearCode(m.cols, m)


def _independent(n: int, words: Sequence[int]) -> LinearCode:
    """Code of rows independent by construction: no rank test, and the
    echelon form left to fill on first use."""
    c = LinearCode.__new__(LinearCode)
    c._fill(n, BitMatrix(words, n))
    return c


def zero_code(n: int) -> LinearCode:
    return LinearCode(n, None)


def min_distance(c: LinearCode, k_limit: int = DEFAULT_K_LIMIT) -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    Weighs all 2^k codewords, 2^kl at a time, in bit-sliced counters
    (_min_weight, split sizes from _split).  Guarded by k_limit before
    any work; the result is cached on the code.
    """
    if c.is_zero:
        raise CodeError("the zero code has no nonzero codeword")
    if c._d is not None:
        return c._d
    _check_scan(c.k, k_limit)
    c._d = _min_weight(c.generator.row_words, c.n, *_split(c.n, c.k))
    return c._d


def _check_scan(k: int, k_limit: int) -> None:
    if not k <= k_limit:  # also refuses a NaN limit
        raise SizeGuardError(
            f"minimum-distance scan of 2^{k} codewords exceeds the "
            f"limit k <= {k_limit}"
        )


# Most low message bits per bit-sliced word: the values of at most 2^13
# distinct low parts, 2^13 bits each, take at most 8 MB.
_MAX_LOW = 13
# The fixed cost of one big-int operation, in bits of work.
_OP_BITS = 1 << 12


def _split(n: int, k: int) -> Tuple[int, int, int]:
    """Split sizes (kb, kg, kl) of a k-bit message for _min_weight.

    Each of the 2^kb blocks takes about n counter additions plus
    4^kg * L for its group sums (L = n.bit_length() planes), each an
    operation on 2^kl bits that costs about _OP_BITS + 2^kl.  kg and
    1 <= kl <= _MAX_LOW minimise that total, the larger kl and then the
    larger kg on a tie; kb takes the remaining bits.
    """
    planes = n.bit_length()

    def cost(kg: int, kl: int) -> int:
        return (n + (planes << 2 * kg)) * (_OP_BITS + (1 << kl)) << (
            k - kg - kl)

    kg, kl = min(
        ((kg, kl) for kl in range(1, min(k, _MAX_LOW) + 1)
         for kg in range(k - kl + 1)),
        key=lambda s: (cost(*s), -s[1], -s[0]))
    return k - kg - kl, kg, kl


def _min_weight(rows: Sequence[int], n: int, kb: int, kg: int,
                kl: int) -> int:
    """Least weight of a nonzero codeword of the full-rank generator rows
    (n bits each, kb + kg + kl of them), by bit-sliced counting.

    The message is u = (u_b, u_g, u_l), u_l its low kl bits and u_b its
    high kb bits, and column j of the generator splits alike into
    (b_j, g_j, l_j).  Over the 2^kl values of u_l, coordinate j of the
    codeword is the 2^kl-bit int value(l_j) (bit u_l is the parity of
    u_l & l_j), complemented when u_b . b_j is odd.  Coordinates with the
    same g_j form a group: per u_b block, each group adds its coordinates'
    ints into bit-sliced counters (plane t holds bit t of each u_l's
    count).  For each u_g, a codeword's weight is then the sum over the
    groups of their count, or of their complement count n_g - count when
    u_g . g is odd.  The block's least weight is read off the planes from
    the top down, one AND each.  The scan stops at weight 1.  Needs
    1 <= kl <= _MAX_LOW: the ints have 2^kl bits, and kg and kb index
    lists and loops of 2^kg and 2^kb entries.
    """
    full = (1 << (1 << kl)) - 1
    # bit_masks[i]: the values of u_l with bit i set, value(1 << i).
    bit_masks = [full ^ low for low, _ in _butterflies(kl)]
    cols = _transpose_words(rows, n)
    low_mask, g_mask = (1 << kl) - 1, (1 << kg) - 1
    # Each value from the previous one, by the bits where the parts differ.
    values = {}
    prev = value = 0
    for low_part in sorted({col & low_mask for col in cols}):
        value ^= _combine(low_part ^ prev, bit_masks)
        values[low_part] = value
        prev = low_part
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for col in cols:
        groups.setdefault(col >> kl & g_mask, []).append(
            (values[col & low_mask], col >> (kl + kg)))
    signs = [[(u_g & g).bit_count() & 1 for g in groups]
             for u_g in range(1 << kg)]
    best = n + 1
    for u_b in range(1 << kb):
        counts = []
        for members in groups.values():
            items = [v ^ full if (u_b & b).bit_count() & 1 else v
                     for v, b in members]
            count = _plane_sum([items])
            counts.append((count, _complement(count, len(members), full)
                           if kg else None))
        for u_g, group_signs in enumerate(signs):
            levels: List[List[int]] = []
            for odd, pair in zip(group_signs, counts):
                for t, plane in enumerate(pair[odd]):
                    if t == len(levels):
                        levels.append([])
                    levels[t].append(plane)
            live = full if u_b or u_g else full ^ 1  # u = 0 is not weighed
            weight = 0
            for t, plane in reversed(list(enumerate(_plane_sum(levels)))):
                below = live & ~plane
                if below:
                    live = below
                else:
                    weight |= 1 << t
                    if weight >= best:
                        break
            else:
                best = weight
                if best == 1:
                    return 1
    return best


def _plane_sum(levels: List[List[int]]) -> List[int]:
    """Bit-sliced sum of planes; levels[t] lists the planes of weight 2^t.

    Returns the sum's planes, low first; no level may be empty.  Each
    level is folded by full adders (a running sum bit and two more planes
    give a new sum bit and a carry for the level above), so every adder
    removes one plane.
    """
    out = []
    t = 0
    while t < len(levels):
        items = levels[t]
        total = items[0]
        carries = []
        for i in range(1, len(items) - 1, 2):
            a, b = items[i], items[i + 1]
            half = total ^ a
            carry = total & a | half & b
            total = half ^ b
            if carry:
                carries.append(carry)
        if len(items) % 2 == 0:
            a = items[-1]
            carry = total & a
            total ^= a
            if carry:
                carries.append(carry)
        out.append(total)
        if carries:
            if t + 1 == len(levels):
                levels.append([])
            levels[t + 1].extend(carries)
        t += 1
    return out


def _complement(count: List[int], size: int, full: int) -> List[int]:
    """Planes of size - count, for bit-sliced counts of at most size."""
    out = []
    borrow = 0
    for t in range(size.bit_length()):
        plane = count[t] if t < len(count) else 0
        if size >> t & 1:
            out.append(full ^ plane ^ borrow)
            borrow &= plane
        else:
            out.append(plane ^ borrow)
            borrow |= plane
    return out


def dual(c: LinearCode) -> LinearCode:
    """The [n, n-k] dual code {h : x . h = 0 for all x in c}.

    Its rows, the kernel of c's cached echelon form, each hold a free
    column bit that no other holds, so they skip the rank test.  Total
    on the degenerate ends: dual of the zero code is the full space,
    dual of the full space is the zero code.
    """
    if c.is_zero:
        return _independent(c.n, BitMatrix.identity(c.n).row_words)
    if c.k == c.n:
        return zero_code(c.n)
    return _independent(c.n, gf2._kernel_words(_echelon(c)[2], c.n))


def dual_distance(c: LinearCode, k_limit: int = DEFAULT_K_LIMIT) -> int:
    """Minimum distance of the dual code; cached.

    Refuses (SizeGuardError) n - k > k_limit before building the dual.
    """
    if c._d_dual is None:
        _check_scan(c.n - c.k, k_limit)
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
    """Projection of the code onto the coordinates in s: the restricted
    generator's reduced rows, which skip the rank test (distinct pivots).
    That elimination is the new code's echelon form, so it is stored."""
    s = _check_coords(c.n, s)
    if not s:
        raise CodeError("puncturing set must be nonempty")
    if c.is_zero:
        return zero_code(len(s))
    restricted = c.generator.select_columns(s)
    pivots, placed = gf2._eliminate(restricted.row_words, len(s), True)
    if not pivots:
        return zero_code(len(s))
    out = _independent(len(s), [placed[p] for p in pivots])
    out._echelon = (pivots, sum(1 << p for p in pivots), placed)
    return out


def shorten(c: LinearCode, s: Sequence[int]) -> LinearCode:
    """Codewords supported inside s, projected onto s: the messages u
    whose u . G vanishes outside s, times G on s.  The rows skip the rank
    test: G has full rank and their codewords vanish outside s."""
    s = _check_coords(c.n, s)
    if not s:
        raise CodeError("shortening set must be nonempty")
    if c.is_zero:
        return zero_code(len(s))
    complement = sorted(set(range(c.n)).difference(s))
    if not complement:
        return c
    cols = _transpose_words(c.generator.row_words, c.n)
    _, placed = gf2._eliminate([cols[j] for j in complement], c.k, True)
    messages = gf2._kernel_words(placed, c.k)
    if not messages:
        return zero_code(len(s))
    on_s = _transpose_words([cols[j] for j in s], c.k)
    return _independent(len(s), [_combine(u, on_s) for u in messages])


def _echelon(c: LinearCode) -> _Echelon:
    """The code's echelon form, filled by the checked constructor or on
    first use: pivots, their mask, and gf2._eliminate's reduced rows
    placed at their pivots (0 at every other column).
    """
    if c._echelon is None:
        pivots, placed = gf2._eliminate(c.generator.row_words, c.n, True)
        c._echelon = (pivots, sum(1 << p for p in pivots), placed)
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
    """The unique message whose codeword agrees with vals on s.

    vals[t] is the symbol at the t-th element of sorted(s), whatever the
    order of s, as in systematic_generator.
    """
    if c.is_zero:
        raise CodeError("the zero code cannot be decoded")
    s = _check_coords(c.n, s)
    if vals.n != len(s):
        raise DimensionError("values length must equal |S|")
    # u . G_S = vals  <=>  u = vals . G_S^-1
    return vec_mat(vals, _inverse_on(c, s))


def _inverse_on(c: LinearCode, s: Tuple[int, ...]) -> BitMatrix:
    """Inverse of the generator's columns at the checked, sorted set s.

    The one information-set inverse; raises CodeError unless s is one.
    """
    if len(s) != c.k:
        raise CodeError("S is not an information set")
    if c.is_zero:
        raise CodeError("the zero code has no information set")
    try:
        return inverse(c.generator.select_columns(s))
    except ValueError:
        raise CodeError("S is not an information set") from None


def contains(c: LinearCode, x: BitVector) -> bool:
    """Membership of x in the code, by a preset test or re-encoding.

    On a code with a preset ANF domain (steps, low) (RM(r, m) from
    rm_code), x is a codeword iff b = gf2._moebius(x, steps) has no bit
    outside low, the monomials of degree <= r.

    Otherwise a codeword is fixed by its symbols at the pivots of the
    reduced echelon generator, so x is a codeword iff it equals the XOR
    of the reduced rows whose pivot bit is set in x.  The echelon form
    is computed once per code; each call is at most k row XORs.
    """
    if x.n != c.n:
        raise DimensionError("vector length must equal the block length")
    if c._degree_test is not None:
        steps, low = c._degree_test
        b = _moebius(x.mask, steps)
        return b & low == b
    if c.is_zero:
        return x.mask == 0
    _, pivot_mask, rows = _echelon(c)
    return _combine(x.mask & pivot_mask, rows) == x.mask


def systematic_generator(c: LinearCode, s: Sequence[int]) -> BitMatrix:
    """Generator whose restriction to the information set s is the identity.

    Row t corresponds to the t-th element of sorted(s).
    """
    return mat_mul(_inverse_on(c, _check_coords(c.n, s)), c.generator)


def random_code(n: int, k: int, rng: random.Random) -> LinearCode:
    """Uniformly random full-rank generator -> an [n, k] code, drawn
    again on from_generator's CodeError: one elimination per draw."""
    if not 1 <= k <= n:
        raise CodeError("need 1 <= k <= n")
    while True:
        try:
            return from_generator(
                BitMatrix([rng.getrandbits(n) for _ in range(k)], n))
        except CodeError:
            pass
