"""Code conversion in the merge regime.

A conversion takes one codeword from each of several initial codes and
produces a codeword of a final code whose dimension is the sum of the
initial dimensions.  Linear conversions are represented by a conversion
matrix Y: the block-diagonal stack of initial generators times Y must
generate the final code.  Columns of Y of weight 1 mark final symbols
inherited unchanged from an initial symbol; heavier columns mark new
symbols, and their support rows are the symbols that must be read.

Also provides the explicit Reed-Muller merge RM(r, m-1) x RM(r-1, m-1)
-> RM(r, m) and its recursive multi-code chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    block_diag,
    inverse,
    mat_mul,
    rank,
    vec_mat,
)
from .codes import (
    LinearCode,
    contains,
    first_information_set,
    systematic_generator,
)
from .reedmuller import (
    degree_block_a,
    low_weight_positions,
    rm_code,
    zero_columns,
)


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

    def owner_of(self, row: int) -> Tuple[int, int]:
        """Map a stacked-coordinate row to (code index, local coordinate)."""
        if not 0 <= row < self.total_initial_length:
            raise IndexError(row)
        return self._row_owner[row]

    @cached_property
    def _row_owner(self) -> Tuple[Tuple[int, int], ...]:
        """(code index, local coordinate) of every stacked row, in row
        order; built on first use."""
        return tuple(
            (i, local)
            for i, n in enumerate(self.n_initial)
            for local in range(n)
        )


@dataclass(frozen=True)
class ConversionMatrix:
    """Matrix Y of a linear conversion, with initial block sizes."""

    y: BitMatrix
    blocks: Tuple[int, ...]

    def __post_init__(self):
        if self.y.rows != sum(self.blocks):
            raise DimensionError("block sizes must sum to the row count")


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
    verified first (rank and row space); the columns then come from one
    transpose of Y.
    """
    if not verify_conversion(inst, y):
        raise ConversionError("matrix is not a valid conversion for instance")
    return _classify_columns(inst, y.y.transpose().row_words)


def _classify_columns(
    inst: ConvertibleInstance, col_masks: Sequence[int]
) -> CostReport:
    """Cost report of the conversion with these Y columns, unverified.

    The one classifier: callers must already know that the columns form
    a valid conversion matrix for inst.
    """
    owner = inst._row_owner
    unchanged: List[set] = [set() for _ in range(inst.lam)]
    reads: List[set] = [set() for _ in range(inst.lam)]
    new: set = set()
    read_rows = 0
    for j, col in enumerate(col_masks):
        if col and not col & (col - 1):  # weight 1
            unchanged[owner[col.bit_length() - 1][0]].add(j)
        else:
            new.add(j)
            read_rows |= col
    while read_rows:
        low = read_rows & -read_rows
        i, local = owner[low.bit_length() - 1]
        reads[i].add(local)
        read_rows ^= low
    return CostReport(
        tuple(frozenset(u) for u in unchanged),
        frozenset(new),
        tuple(frozenset(r) for r in reads),
    )


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


def apply_conversion(
    inst: ConvertibleInstance,
    y: ConversionMatrix,
    codewords: Sequence[BitVector],
) -> BitVector:
    """Run the conversion on one codeword per initial code."""
    if len(codewords) != inst.lam:
        raise ConversionError("need exactly one codeword per initial code")
    for c, x in zip(inst.initial_codes, codewords):
        if not contains(c, x):
            raise ConversionError("input is not a codeword of its code")
    return vec_mat(_stack_codewords(codewords), y.y)


def _build_rm_merge(
    r: int, m: int
) -> Tuple[ConvertibleInstance, ConversionMatrix]:
    """Instance and matrix Y = [[I, T], [0, B]] of the RM merge, by rows.

    With s1 the weight-<=r information set of the first code and inv1 the
    inverse of its generator on s1, row s1[s] of T is the XOR of the
    degree-r rows A_t with inv1[s, k1 - C(m-1, r) + t] = 1.  B is I when
    reading the second code directly is no dearer than decoding it; else
    it re-encodes that code from its symbols at the zero columns of A.
    """
    c1 = rm_code(r, m - 1)
    c2 = rm_code(r - 1, m - 1)
    inst = make_instance([c1, c2], rm_code(r, m))

    half = 1 << (m - 1)
    a = degree_block_a(r, m)
    first = c1.k - a.rows  # degree-r coefficients are the last message rows
    s1 = low_weight_positions(r, m - 1)
    inv1 = inverse(c1.generator.select_columns(s1))
    t_rows = [0] * half
    for s, pos in enumerate(s1):
        coeffs = inv1.row_words[s] >> first
        for t, a_row in enumerate(a.row_words):
            if (coeffs >> t) & 1:
                t_rows[pos] ^= a_row

    if half - c2.k <= c2.k:
        b_rows = [1 << j for j in range(half)]
    else:
        # The zero columns are the weight-<=(r-1) points: an information
        # set of the second code, so its other symbols can be decoded.
        zeros = zero_columns(a)
        b_rows = [0] * half
        for z, row in zip(zeros, systematic_generator(c2, zeros).row_words):
            b_rows[z] = row

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

    All first-code symbols stay unchanged in the left half; the
    second-code symbols at the zero columns of the degree-r block stay
    unchanged in the right half; each remaining right-half symbol is the
    matching degree-r combination of the first codeword plus the
    corresponding second-codeword symbol.

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

    Applies the merge's conversion matrix, so it equals apply_conversion
    with the matrix emitted by rm_merge_procedure; the symbols it reads
    are the read sets that classify_symbols reports for that matrix.  The
    matrix is built and verified on the first call per (r, m), so a later
    call costs one apply_conversion.
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
    """
    if depth < 1:
        raise ConversionError("depth must be >= 1")
    if r < depth or m - 1 < depth:
        raise ConversionError("need r >= depth and m - 1 >= depth")
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
