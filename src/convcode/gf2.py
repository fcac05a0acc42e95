"""Dense linear algebra over GF(2) with bit-packed rows.

Every matrix row is stored as a single Python integer where bit j holds
column j, so a row elimination step is one word-parallel XOR regardless
of the matrix width.  All values are immutable after construction, and
every bit of a row word lies below the column count.

Elimination (rank, rref, solve, inverse, kernels) reduces each row only
by the pivots it hits, so its work grows with the XORs it performs, not
with rows x pivots: sparse, nearly echelon matrices such as Reed-Muller
generators reduce in a few list lookups per row.
"""

from __future__ import annotations

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


def _transpose_words(words: Sequence[int], width: int) -> List[int]:
    """Transpose packed bit rows: bit j of words[i] becomes bit i of out[j].

    Walks only the set bits of each word, so the cost is O(popcount) plus
    O(width), not O(len(words) * width).  Every bit must lie below width.
    """
    out = [0] * width
    bit = 1
    for w in words:
        while w:
            low = w & -w
            out[low.bit_length() - 1] |= bit
            w ^= low
        bit <<= 1
    return out


def vstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.cols:
        raise DimensionError("vstack needs equal column counts")
    return BitMatrix(list(a.row_words) + list(b.row_words), a.cols)


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


def _eliminate(words: List[int], cols: int, reduce_above: bool) -> List[int]:
    """In-place Gaussian elimination; returns the ascending pivot columns.

    Afterwards words is a row echelon form of the same row space: one row
    per pivot, in ascending pivot order, each row's lowest set bit its
    pivot, then zero rows.  With reduce_above it is the (unique) reduced
    row echelon form.  Every bit of every word must lie below cols.

    Each row is inserted into a basis indexed by pivot column: while the
    row's lowest set bit already has a basis row, that row is XORed in,
    else the row is stored there.  With reduce_above, one pass from the
    highest pivot down then clears the other pivot bits of each row.  So
    the cost is one lowest-bit lookup per row plus one per XOR performed,
    not a bit test of every row for every pivot; sparse, nearly echelon
    matrices such as Reed-Muller generators need few XORs.
    """
    basis = [0] * cols
    pivots = []
    for v in words:
        while v:
            p = (v & -v).bit_length() - 1
            b = basis[p]
            if not b:
                basis[p] = v
                pivots.append(p)
                break
            v ^= b
    pivots.sort()
    if reduce_above:
        mask = 0
        for p in pivots:
            mask |= 1 << p
        for p in reversed(pivots):
            # Rows of higher pivots are reduced already, so XORing one in
            # clears its pivot bit here and sets no other pivot bit.
            v = basis[p]
            t = v & mask ^ (1 << p)
            while t:
                q = t.bit_length() - 1
                v ^= basis[q]
                t ^= 1 << q
            basis[p] = v
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
    words = []
    for w in a.row_words:
        acc = 0
        t = w
        while t:
            i = (t & -t).bit_length() - 1
            acc ^= brow[i]
            t &= t - 1
        words.append(acc)
    return BitMatrix(words, b.cols)


def mat_vec(a: BitMatrix, x: BitVector) -> BitVector:
    """Product a . x (column vector on the right)."""
    if a.cols != x.n:
        raise DimensionError("matrix/vector size mismatch")
    mask = 0
    for i, w in enumerate(a.row_words):
        mask |= ((w & x.mask).bit_count() & 1) << i
    return BitVector(a.rows, mask)


def vec_mat(x: BitVector, a: BitMatrix) -> BitVector:
    """Product x . a (row vector on the left)."""
    if x.n != a.rows:
        raise DimensionError("vector/matrix size mismatch")
    acc = 0
    t = x.mask
    while t:
        i = (t & -t).bit_length() - 1
        acc ^= a.row_words[i]
        t &= t - 1
    return BitVector(a.cols, acc)


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


def _bit_reverse(v: int, width: int) -> int:
    out = 0
    for i in range(width):
        out |= ((v >> i) & 1) << (width - 1 - i)
    return out


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
    if limit is not None and total > limit:
        raise SizeGuardError(
            f"GL({k},2) has {total} elements, above the limit of {limit}"
        )
    # Candidate rows in lexicographic bit-string order: column 0 is the
    # leftmost character, so sort by the bit-reversed integer value.
    candidates = [_bit_reverse(w, k) for w in range(1, 1 << k)]

    chosen: List[int] = []
    pivot: dict[int, int] = {}  # lowest set bit -> reduced row (xor basis)

    def reduce_row(v: int) -> int:
        while v:
            low = v & -v
            if low not in pivot:
                return v
            v ^= pivot[low]
        return 0

    def descend() -> Iterator[BitMatrix]:
        if len(chosen) == k:
            yield BitMatrix(list(chosen), k)
            return
        for v in candidates:
            red = reduce_row(v)
            if red == 0:
                continue
            key = red & -red
            chosen.append(v)
            pivot[key] = red
            yield from descend()
            chosen.pop()
            del pivot[key]

    return descend()
