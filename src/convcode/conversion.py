"""Code conversion in the merge regime.

A conversion takes one codeword from each of several initial codes and
produces a codeword of a final code whose dimension is the sum of the
initial dimensions.  Linear conversions are represented by a conversion
matrix Y: the block-diagonal stack of initial generators times Y must
generate the final code.  Columns of Y of weight 1 mark final symbols
inherited unchanged from an initial symbol; heavier columns mark new
symbols, and their support rows are the symbols that must be read.

One split of Y's columns, into weight 1 and weight >= 2, serves both
uses of Y: classify_symbols walks Y's rows with it, and apply runs a
plan compiled from it once per matrix.  Unchanged symbols are masked
and shifted out of the stacked input, and new symbols are looked up 4
input bits at a time in tables over the read rows only, so apply reads
exactly the R sets that classify_symbols reports, by construction.

Also provides the explicit Reed-Muller merge RM(r, m-1) x RM(r-1, m-1)
-> RM(r, m) and its recursive multi-code chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, count, islice
from typing import Dict, List, Sequence, Tuple

from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    block_diag,
    mat_mul,
    rank,
)
from .codes import (
    LinearCode,
    contains,
    first_information_set,
    systematic_generator,
)
from .reedmuller import _systematic_rows, rm_code


class ConversionError(ValueError):
    """Invalid conversion instance, matrix, or input codewords."""


@dataclass(frozen=True)
class ConvertibleInstance:
    """Initial codes plus a final code with matching total dimension."""

    initial_codes: Tuple[LinearCode, ...]
    final_code: LinearCode

    @property
    def lam(self) -> int:
        return len(self.initial_codes)

    @property
    def n_initial(self) -> Tuple[int, ...]:
        return tuple(c.n for c in self.initial_codes)

    @property
    def k_initial(self) -> Tuple[int, ...]:
        return tuple(c.k for c in self.initial_codes)

    @property
    def n_final(self) -> int:
        return self.final_code.n

    @property
    def k_final(self) -> int:
        return self.final_code.k

    @property
    def total_initial_length(self) -> int:
        return sum(self.n_initial)

    def block_starts(self) -> Tuple[int, ...]:
        starts = [0]
        for n in self.n_initial[:-1]:
            starts.append(starts[-1] + n)
        return tuple(starts)

    def stacked_generator(self) -> BitMatrix:
        """Block-diagonal stack of the initial generators."""
        return block_diag([c.generator for c in self.initial_codes])


@dataclass(frozen=True)
class ConversionMatrix:
    """Matrix Y of a linear conversion, with initial block sizes."""

    y: BitMatrix
    blocks: Tuple[int, ...]

    def __post_init__(self):
        if self.y.rows != sum(self.blocks):
            raise DimensionError("block sizes must sum to the row count")

    @cached_property
    def _plan(self) -> _Plan:
        """Compiled apply plan of y; built on first apply."""
        return _compile_plan(self.y)


# (copies, align, windows): see _compile_plan.
_Plan = Tuple[
    Tuple[Tuple[int, int], ...], int, Tuple[Tuple[int, Tuple[int, ...]], ...]
]


def _column_split(rows: Sequence[int]) -> Tuple[int, int]:
    """(single, multi): masks of the columns of weight 1 and >= 2 of the
    matrix with these rows.  The one place that splits Y's columns: a
    single column is unchanged, any other is new, and a row is read iff
    it meets multi."""
    once = multi = 0
    for w in rows:
        multi |= once & w
        once |= w
    return once & ~multi, multi


def _compile_plan(y: BitMatrix) -> _Plan:
    """Tables that compute x . y for a fixed y, for any y.

    The columns are split as classify_symbols splits them.  A weight-1
    column j with support row i copies input bit i to output bit j.
    Copies with the same offset i - j share one source mask, kept as
    (mask, shift) with shift = align - (i - j) >= 0, so the copied bits
    are the OR of (x & mask) << shift, shifted right by align.  Columns
    of weight 0 stay 0.  The columns of weight >= 2 are the XOR of the
    rows x selects, restricted to those columns; only the read rows have
    a nonzero restriction.  Each window (base, table) covers rows
    base..base+3, base a multiple of 4 holding a read row, and table[v]
    is the XOR of the restricted rows base + t for the set bits t of v
    (Four Russians on a fixed matrix).
    """
    single, multi = _column_split(y.row_words)
    offsets: Dict[int, int] = {}
    for i, w in enumerate(y.row_words):
        w &= single
        while w:
            j = w.bit_length() - 1
            offsets[i - j] = offsets.get(i - j, 0) | 1 << i
            w ^= 1 << j
    align = max([0, *offsets])
    copies = tuple((mask, align - off) for off, mask in offsets.items())
    rows = [w & multi for w in y.row_words] + [0] * 3
    windows = []
    for base in range(0, y.rows, 4):
        if any(rows[base:base + 4]):
            table = [0]
            for t in range(4):
                table += [v ^ rows[base + t] for v in table]
            windows.append((base, tuple(table)))
    return copies, align, tuple(windows)


@dataclass(frozen=True)
class CostReport:
    """Symbol classification and cost accounting of one conversion.

    unchanged_per_code[i] holds FINAL coordinates inherited from code i;
    read_per_code[i] holds LOCAL coordinates of code i that are read.
    """

    unchanged_per_code: Tuple[frozenset, ...]
    new_symbols: frozenset
    read_per_code: Tuple[frozenset, ...]

    @property
    def unchanged_counts(self) -> Tuple[int, ...]:
        return tuple(len(u) for u in self.unchanged_per_code)

    @property
    def unchanged_total(self) -> int:
        return sum(self.unchanged_counts)

    @property
    def write_cost(self) -> int:
        return len(self.new_symbols)

    @property
    def read_counts(self) -> Tuple[int, ...]:
        return tuple(len(r) for r in self.read_per_code)

    @property
    def read_cost(self) -> int:
        return sum(self.read_counts)

    @property
    def access_cost(self) -> int:
        return self.read_cost + self.write_cost

    def to_record(self) -> dict:
        return {
            "U": list(self.unchanged_counts),
            "W": self.write_cost,
            "R": list(self.read_counts),
            "access": self.access_cost,
        }


def make_instance(
    initial: Sequence[LinearCode], final: LinearCode
) -> ConvertibleInstance:
    initial = tuple(initial)
    if not initial:
        raise ConversionError("need at least one initial code")
    total_k = sum(c.k for c in initial)
    if total_k != final.k:
        raise ConversionError(
            f"merge regime requires sum(k_I) = k_F, got {total_k} != {final.k}"
        )
    for c in initial:
        if c.is_zero:
            raise ConversionError("initial codes must have dimension >= 1")
    return ConvertibleInstance(initial, final)


def verify_conversion(inst: ConvertibleInstance, y: ConversionMatrix) -> bool:
    """True iff G_I . Y has rank k_F and generates the final code.

    Row-space equality, not literal matrix equality: a valid conversion
    may land on any generator choice of the final code.  With rank k_F,
    the rows span the final code iff each is a codeword; contains tests
    each against the final code's cached echelon form.
    """
    if y.blocks != inst.n_initial:
        raise DimensionError("conversion-matrix blocks do not match instance")
    if y.y.cols != inst.n_final:
        raise DimensionError("conversion-matrix width must be n_F")
    product = mat_mul(inst.stacked_generator(), y.y)
    if rank(product) != inst.k_final:
        return False
    return all(
        contains(inst.final_code, product.row(i)) for i in range(product.rows)
    )


def classify_symbols(
    inst: ConvertibleInstance, y: ConversionMatrix
) -> CostReport:
    """Classify every final coordinate as unchanged or new and collect reads.

    A final coordinate is unchanged iff its Y column has weight 1; the
    single support row attributes it to an initial code.  Support rows of
    heavier columns become read symbols of their owning codes.  Y is
    verified first, then its rows are classified by its apply plan's
    column split, so apply reads exactly the R sets reported here.
    """
    if not verify_conversion(inst, y):
        raise ConversionError("matrix is not a valid conversion for instance")
    return _classify_rows(inst, y.y.row_words)


@lru_cache(maxsize=256)
def _bit_set(mask: int) -> frozenset:
    """Positions of the set bits of mask (shared: reports repeat masks)."""
    return frozenset(compress(count(), map("1".__eq__, bin(mask)[:1:-1])))


def _classify_rows(
    inst: ConvertibleInstance, rows: Sequence[int]
) -> CostReport:
    """Cost report of the conversion with these Y rows, unverified.

    The one classifier: callers must already know that the rows form a
    valid conversion matrix for inst.  A code's unchanged coordinates are
    the single columns its rows meet; its reads are its rows meeting multi.
    """
    single, multi = _column_split(rows)
    unchanged, reads = [], []
    words = iter(rows)
    for n in inst.n_initial:
        kept = read = 0
        for local, w in enumerate(islice(words, n)):
            kept |= w
            if w & multi:
                read |= 1 << local
        unchanged.append(_bit_set(kept & single))
        reads.append(_bit_set(read))
    new = _bit_set(~single & ((1 << inst.n_final) - 1))
    return CostReport(tuple(unchanged), new, tuple(reads))


def default_conversion(inst: ConvertibleInstance) -> ConversionMatrix:
    """Decode-and-re-encode conversion: read an information set of each
    initial code, keep those k_F symbols in place on an information set
    of the final code, and write the remaining n_F - k_F symbols.
    """
    starts = inst.block_starts()
    kept_rows: List[int] = []  # stacked coordinates of the kept symbols
    for i, c in enumerate(inst.initial_codes):
        for j in first_information_set(c):
            kept_rows.append(starts[i] + j)
    s_final = first_information_set(inst.final_code)
    sys_gen = systematic_generator(inst.final_code, s_final)
    # Final coordinate q is a combination of the kept symbols with the
    # coefficients of sys_gen; Y row kept_rows[s] is row s of sys_gen.
    n_total = inst.total_initial_length
    words = [0] * n_total
    for s, row in enumerate(kept_rows):
        words[row] = sys_gen.row_words[s]
    y = BitMatrix(words, inst.n_final)
    return ConversionMatrix(y, inst.n_initial)


def _stack_codewords(codewords: Sequence[BitVector]) -> BitVector:
    """Concatenate one codeword per initial code in stacked coordinates."""
    mask = 0
    shift = 0
    for x in codewords:
        mask |= x.mask << shift
        shift += x.n
    return BitVector(shift, mask)


def _run_plan(y: ConversionMatrix, codewords: Sequence[BitVector]) -> BitVector:
    """x . Y for the stacked codewords x, by Y's compiled plan; equal to
    vec_mat(x, y.y).  Reads only the unchanged sources and the read rows;
    checks no code membership."""
    stacked = _stack_codewords(codewords)
    if stacked.n != y.y.rows:
        raise DimensionError("vector/matrix size mismatch")
    copies, align, windows = y._plan
    x = stacked.mask
    acc = 0
    for mask, shift in copies:
        acc |= (x & mask) << shift
    out = acc >> align
    for base, table in windows:
        out ^= table[(x >> base) & 15]
    return BitVector(y.y.cols, out)


def apply_conversion(
    inst: ConvertibleInstance,
    y: ConversionMatrix,
    codewords: Sequence[BitVector],
) -> BitVector:
    """Run the conversion on one codeword per initial code.

    Each input is checked to be a codeword of its initial code; then Y's
    compiled plan (built on the first apply of this matrix) copies the
    unchanged symbols and computes the new ones from the read rows, so
    the stacked symbols it reads are exactly the U sources and R sets
    that classify_symbols reports.
    """
    if len(codewords) != inst.lam:
        raise ConversionError("need exactly one codeword per initial code")
    for c, x in zip(inst.initial_codes, codewords):
        if not contains(c, x):
            raise ConversionError("input is not a codeword of its code")
    return _run_plan(y, codewords)


def _build_rm_merge(
    r: int, m: int
) -> Tuple[ConvertibleInstance, ConversionMatrix]:
    """Instance and matrix Y = [[I, T], [0, B]] of the RM merge, by rows.

    With M the Moebius transform on 2^(m-1) points, D_r the points of
    weight r and e_p the unit word at p, row p of T is M(M(e_p) & D_r)
    for p of weight <= r, else 0 (reedmuller._systematic_rows), so that
    c1 . T = M(M(c1) & D_r).  B is I when reading the second code directly
    is no dearer than decoding it; else its rows are the systematic ones
    of that code on its weight-<=(r-1) points, the zero columns of T.
    """
    c1 = rm_code(r, m - 1)
    c2 = rm_code(r - 1, m - 1)
    inst = make_instance([c1, c2], rm_code(r, m))

    half = 1 << (m - 1)
    t_rows = _systematic_rows(r, m - 1, low=r)
    if half - c2.k <= c2.k:
        b_rows = [1 << j for j in range(half)]
    else:
        b_rows = _systematic_rows(r - 1, m - 1)

    words = [(1 << i) | (t << half) for i, t in enumerate(t_rows)]
    words += [b << half for b in b_rows]
    return inst, ConversionMatrix(BitMatrix(words, 2 * half), inst.n_initial)


_RM_MERGES: Dict[
    Tuple[int, int], Tuple[ConvertibleInstance, ConversionMatrix, CostReport]
] = {}


def rm_merge_procedure(
    r: int, m: int
) -> Tuple[ConvertibleInstance, ConversionMatrix, CostReport]:
    """The explicit merge RM(r, m-1) x RM(r-1, m-1) -> RM(r, m).

    On codewords c1, c2 the output is c1 in the left half and
    M(M(c1) & D_r) ^ c2 in the right half: M is the binary Moebius
    transform on 2^(m-1) points and D_r masks the points of weight r, so
    that is c2 plus the degree-r part of c1's polynomial, evaluated.  It
    vanishes at the points of weight <= r-1, where c2's symbols stay
    unchanged; every other right-half symbol is new.

    The triple is built and classified (so verified) on the first call
    per (r, m); later calls return the same (shared, immutable) triple.
    """
    if not 1 <= r <= m - 1:
        raise ConversionError("need 1 <= r <= m - 1")
    key = (r, m)
    if key not in _RM_MERGES:
        inst, y = _build_rm_merge(r, m)
        _RM_MERGES[key] = (inst, y, classify_symbols(inst, y))
    return _RM_MERGES[key]


def rm_merge_apply(
    r: int, m: int, c1_word: BitVector, c2_word: BitVector
) -> BitVector:
    """Run the Reed-Muller merge on one codeword of each initial code.

    One apply_conversion with the matrix emitted by rm_merge_procedure, so
    it runs that matrix's compiled plan and reads exactly the read sets
    that classify_symbols reports for it.  The matrix is built and
    verified on the first call per (r, m) and its plan compiled on the
    first apply, so a later call costs the membership checks and the
    plan.
    """
    inst, y, _ = rm_merge_procedure(r, m)
    return apply_conversion(inst, y, (c1_word, c2_word))


def rm_merge_chain(
    r: int, m: int, depth: int
) -> Tuple[ConvertibleInstance, ConversionMatrix, CostReport]:
    """Recursive merge chain: re-split the first initial code depth times.

    Produces a lambda = depth + 1 instance with initial codes
    RM(r, m-depth), RM(r-1, m-depth), RM(r-1, m-depth+1), ...,
    RM(r-1, m-1) and final code RM(r, m); the composed conversion matrix
    is the product of the per-stage matrices lifted by identity blocks.
    Domain: 1 <= depth <= r <= m - depth, where every stage is a merge.
    """
    if not 1 <= depth <= r <= m - depth:
        raise ConversionError("need 1 <= depth <= r <= m - depth")
    # Innermost stage merges two leaves into RM(r, m - depth + 1); each
    # later stage adds the next RM(r-1, out_m - 1) leaf.
    stage, y_stage, _ = rm_merge_procedure(r, m - depth + 1)
    leaves = list(stage.initial_codes)
    composed = y_stage.y
    for out_m in range(m - depth + 2, m + 1):
        stage, y_stage, _ = rm_merge_procedure(r, out_m)
        lift = block_diag([composed, BitMatrix.identity(1 << (out_m - 1))])
        composed = mat_mul(lift, y_stage.y)
        leaves.append(stage.initial_codes[1])
    inst = make_instance(leaves, stage.final_code)
    y = ConversionMatrix(composed, inst.n_initial)
    return inst, y, classify_symbols(inst, y)
