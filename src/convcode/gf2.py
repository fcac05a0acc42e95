"""Dense linear algebra over GF(2) with bit-packed rows.

Every matrix row is stored as a single Python integer where bit j holds
column j, so a row elimination step is one word-parallel XOR regardless
of the matrix width.  All values are immutable after construction, and
every bit of a row word lies below the column count.

Each kernel has one implementation.  _transpose_words (one transpose,
by byte spreading) serves transpose, from_columns, select_columns,
codes' distance scan and the oracle's syndrome tables; _combine (XOR
the rows picked by a mask) serves every product (mat_mul and vec_mat),
_eliminate, codes.contains off the RM preset, codes' distance scan and
sampled_min_weight, and the oracle's syndrome bases; _reduce (insert a
row into a pivot-indexed basis) serves _eliminate and
enumerate_invertible, not the oracle, whose stage 1 tests independence
by a span mask; _eliminate serves rank, rref, solve, inverse and the
kernels, and reduces each row only by the pivots it hits, so sparse,
nearly echelon matrices such as Reed-Muller generators reduce in a few
list lookups per row; _butterflies (the Moebius transform's steps)
serves the Reed-Muller generators, degree tests and ANF maps and codes'
distance scan, and gives the oracle's walk its translation masks.  The
information-set inverse is codes._inverse_on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class DimensionError(ValueError):
    """Incompatible shapes passed to a matrix/vector operation."""


class SizeGuardError(RuntimeError):
    """An enumeration or exhaustive scan would exceed its size limit."""


class BitVector:
    """Immutable vector over GF(2), packed into one integer (bit i = entry i)."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 1:
            raise DimensionError("BitVector length must be >= 1")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside the vector length")
        self.n = n
        self.mask = mask

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        bits = list(bits)
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            mask |= b << i
        return cls(len(bits), mask)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.mask >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionError("length mismatch in xor")
        return BitVector(self.n, self.mask ^ other.mask)

    def weight(self) -> int:
        return self.mask.bit_count()

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.mask >> i) & 1)

    def to_bits(self) -> List[int]:
        return [(self.mask >> i) & 1 for i in range(self.n)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self.to_bits())})"


class BitMatrix:
    """Immutable dense matrix over GF(2) with integer-packed rows."""

    __slots__ = ("rows", "cols", "row_words")

    def __init__(self, row_words: Sequence[int], cols: int):
        row_words = tuple(row_words)
        if len(row_words) < 1 or cols < 1:
            raise DimensionError("BitMatrix must have rows >= 1 and cols >= 1")
        for w in row_words:
            if w < 0 or w >> cols:
                raise ValueError("row word has bits outside the column range")
        self.rows = len(row_words)
        self.cols = cols
        self.row_words = row_words

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        if not rows:
            raise DimensionError("BitMatrix must have rows >= 1")
        cols = len(rows[0])
        words = []
        for row in rows:
            if len(row) != cols:
                raise DimensionError("ragged rows")
            w = 0
            for j, b in enumerate(row):
                if b not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                w |= b << j
            words.append(w)
        return cls(words, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_columns(cls, col_masks: Sequence[int], rows: int) -> "BitMatrix":
        """Build from column masks (bit i of mask j = entry (i, j)).

        Bits of a mask at or above `rows` are ignored.
        """
        full = (1 << rows) - 1
        return cls(
            _transpose_words([cm & full for cm in col_masks], rows),
            len(col_masks),
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls([0] * rows, cols)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_words[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_words[i])

    def column_mask(self, j: int) -> int:
        """Column j packed into an integer (bit i = row i).

        A bit-by-bit convenience for tests and interactive use; no path
        in the package calls it (classification reads Y by rows).  It
        stays because `perfbench/tracer.py` wraps it by name.
        """
        if not 0 <= j < self.cols:
            raise IndexError(j)
        m = 0
        for i, w in enumerate(self.row_words):
            m |= ((w >> j) & 1) << i
        return m

    def transpose(self) -> "BitMatrix":
        return BitMatrix(_transpose_words(self.row_words, self.cols), self.rows)

    def select_columns(self, cols: Sequence[int]) -> "BitMatrix":
        cols = list(cols)
        if not cols:
            raise DimensionError("empty column selection")
        for j in cols:
            if not 0 <= j < self.cols:
                raise IndexError(j)
        col_words = _transpose_words(self.row_words, self.cols)
        return BitMatrix(
            _transpose_words([col_words[j] for j in cols], self.rows),
            len(cols),
        )

    def to_lists(self) -> List[List[int]]:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self.row_words]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self.row_words == other.row_words
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.row_words))

    def __repr__(self) -> str:
        body = ",".join(
            "".join(str((w >> j) & 1) for j in range(self.cols))
            for w in self.row_words
        )
        return f"BitMatrix({self.rows}x{self.cols}:[{body}])"


# Byte j of int.from_bytes(format(w, "0{width}b").encode().translate(...),
# "big") is bit j of w.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _transpose_words(words: Sequence[int], width: int) -> List[int]:
    """Transpose packed bit rows: bit j of words[i] becomes bit i of out[j].

    Each word is spread to one byte per bit; eight words shifted into the
    bits of each byte make the output's bytes, interleaved so that the
    bytes of out[j] are adjacent, O(len(words) * width / 8) byte work
    whatever the words' density.  Every bit must lie below width.
    """
    if not words:
        return [0] * width
    nb = (len(words) + 7) >> 3  # bytes per output word
    buf = bytearray(width * nb)
    fmt = f"0{width}b"
    for a in range(nb):
        spread = 0
        for t, w in enumerate(words[8 * a:8 * a + 8]):
            bits = format(w, fmt).encode().translate(_BIT_BYTES)
            spread |= int.from_bytes(bits, "big") << t
        buf[a::nb] = spread.to_bytes(width, "little")
    return [int.from_bytes(buf[j:j + nb], "little")
            for j in range(0, width * nb, nb)]


def _moebius(v: int, steps: Sequence[Tuple[int, int]]) -> int:
    """The binary Moebius transform M(v) on 2^m points, by its m steps
    (low, 2^b): each adds the points with bit b clear (mask low) onto
    those with it set, so bit j of M(v) is the XOR of v's bits at the
    points inside j (as bit sets).  M is its own inverse."""
    for low, shift in steps:
        v ^= (v & low) << shift
    return v


@lru_cache(maxsize=None)
def _butterflies(m: int) -> Tuple[Tuple[int, int], ...]:
    """The m steps (low, 2^b) of the Moebius transform M on 2^m points.

    low masks the points with bit b clear, grown one variable at a time:
    on 2^(t+1) points the masks on 2^t repeat, and bit t is clear on the
    first 2^t.  On evaluations, bit j of M(v) is the ANF coefficient of
    the monomial of j's set bits, and M(e_p), e_p the unit word at p,
    masks the points containing p: the evaluations of p's monomial.
    Memoised per m.
    """
    lows: List[int] = []
    for t in range(m):
        lows = [low | low << (1 << t) for low in lows] + [(1 << (1 << t)) - 1]
    return tuple((low, 1 << b) for b, low in enumerate(lows))


def block_diag(blocks: Sequence[BitMatrix]) -> BitMatrix:
    if not blocks:
        raise DimensionError("block_diag needs at least one block")
    total_cols = sum(b.cols for b in blocks)
    words = []
    shift = 0
    for b in blocks:
        for w in b.row_words:
            words.append(w << shift)
        shift += b.cols
    return BitMatrix(words, total_cols)


def _combine(mask: int, rows: Sequence[int]) -> int:
    """XOR of rows[i] over the set bits i of mask, highest bit first (the
    cheapest bit to find and clear)."""
    acc = 0
    while mask:
        i = mask.bit_length() - 1
        acc ^= rows[i]
        mask ^= 1 << i
    return acc


def _reduce(v: int, basis: Sequence[int]) -> int:
    """v with basis[p] XORed in while its lowest set bit p has a basis row.

    basis is indexed by pivot column (0 where none); the result is 0 or a
    word whose lowest set bit is a free pivot column.
    """
    while v:
        b = basis[(v & -v).bit_length() - 1]
        if not b:
            return v
        v ^= b
    return 0


def _eliminate(words: List[int], cols: int, reduce_above: bool) -> List[int]:
    """In-place Gaussian elimination; returns the ascending pivot columns.

    Afterwards words is a row echelon form of the same row space: one row
    per pivot, in ascending pivot order, each row's lowest set bit its
    pivot, then zero rows.  With reduce_above it is the (unique) reduced
    row echelon form.  Every bit of every word must lie below cols.

    Each row is inserted into a basis indexed by pivot column by _reduce
    and stored at its lowest set bit.  With reduce_above, one pass from
    the highest pivot down then clears the other pivot bits of each row.
    So the cost is one lowest-bit lookup per row plus one per XOR
    performed, not a bit test of every row for every pivot.
    """
    basis = [0] * cols
    pivots = []
    for v in words:
        v = _reduce(v, basis)
        if v:
            p = (v & -v).bit_length() - 1
            basis[p] = v
            pivots.append(p)
    pivots.sort()
    if reduce_above:
        mask = sum(1 << p for p in pivots)
        for p in reversed(pivots):
            # Rows of higher pivots are reduced already, so XORing one in
            # clears its pivot bit here and sets no other pivot bit.
            basis[p] ^= _combine(basis[p] & mask ^ (1 << p), basis)
    words[:] = [basis[p] for p in pivots] + [0] * (len(words) - len(pivots))
    return pivots


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of m over GF(2)."""
    words = list(m.row_words)
    return len(_eliminate(words, m.cols, reduce_above=False))


def rref(m: BitMatrix) -> Tuple[BitMatrix, Tuple[int, ...]]:
    """Reduced row echelon form of m and its pivot columns."""
    words = list(m.row_words)
    pivots = _eliminate(words, m.cols, reduce_above=True)
    return BitMatrix(words, m.cols), tuple(pivots)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    brow = b.row_words
    return BitMatrix([_combine(w, brow) for w in a.row_words], b.cols)


def vec_mat(x: BitVector, a: BitMatrix) -> BitVector:
    """Product x . a (row vector on the left)."""
    if x.n != a.rows:
        raise DimensionError("vector/matrix size mismatch")
    return BitVector(a.cols, _combine(x.mask, a.row_words))


def solve(a: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Some x with a . x = b, or None if the system is inconsistent.

    Free variables are set to 0, so the returned solution is canonical.
    """
    if a.rows != b.n:
        raise DimensionError("right-hand side length must equal row count")
    aug_col = a.cols
    words = [
        w | (((b.mask >> i) & 1) << aug_col) for i, w in enumerate(a.row_words)
    ]
    pivots = _eliminate(words, a.cols + 1, reduce_above=True)
    if pivots and pivots[-1] == aug_col:
        return None
    mask = 0
    for r, col in enumerate(pivots):
        mask |= ((words[r] >> aug_col) & 1) << col
    return BitVector(a.cols, mask)


def right_kernel_basis(a: BitMatrix) -> List[BitVector]:
    """Basis of {x : a . x = 0}; has cols - rank(a) elements."""
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        mask = 1 << free
        for r, col in enumerate(pivots):
            mask |= ((reduced.row_words[r] >> free) & 1) << col
        basis.append(BitVector(a.cols, mask))
    return basis


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix over GF(2)."""
    if m.rows != m.cols:
        raise DimensionError("only square matrices can be inverted")
    n = m.rows
    words = [w | (1 << (n + i)) for i, w in enumerate(m.row_words)]
    pivots = _eliminate(words, 2 * n, reduce_above=True)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return BitMatrix([w >> n for w in words], n)


def gl2_order(k: int) -> int:
    """Number of invertible k x k matrices over GF(2)."""
    total = 1
    for i in range(k):
        total *= (1 << k) - (1 << i)
    return total


def enumerate_invertible(
    k: int, limit: Optional[int] = 10**8
) -> Iterator[BitMatrix]:
    """Yield every invertible k x k matrix over GF(2) exactly once.

    The order is lexicographic on the row-major bit string of the matrix.
    Refuses (before yielding anything) if the total count gl2_order(k)
    exceeds `limit`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = gl2_order(k)
    if limit is not None and not total <= limit:  # also refuses NaN
        raise SizeGuardError(
            f"GL({k},2) has {total} elements, above the limit of {limit}"
        )
    # Candidate rows in lexicographic bit-string order: column 0 is the
    # leftmost character, so sort by the bit-reversed integer value.
    candidates = [int(format(w, f"0{k}b")[::-1], 2) for w in range(1, 1 << k)]
    chosen: List[int] = []
    basis = [0] * k  # pivot column -> reduced row of the chosen rows

    def descend() -> Iterator[BitMatrix]:
        if len(chosen) == k:
            yield BitMatrix(list(chosen), k)
            return
        for v in candidates:
            red = _reduce(v, basis)
            if not red:
                continue
            p = (red & -red).bit_length() - 1
            chosen.append(v)
            basis[p] = red
            yield from descend()
            chosen.pop()
            basis[p] = 0

    return descend()
