"""Code conversion in the merge regime.

A conversion takes one codeword from each of several initial codes and
produces a codeword of a final code whose dimension is the sum of the
initial dimensions.  Linear conversions are represented by a conversion
matrix Y: the block-diagonal stack of initial generators times Y must
generate the final code.  Columns of Y of weight 1 mark final symbols
inherited unchanged from an initial symbol; heavier columns mark new
symbols, and their support rows are the symbols that must be read.

classify_symbols splits Y's columns into weight 1 and weight >= 2 in
one walk over Y's rows, and returns the one shared report of that
classification from a bounded cache, keyed by two masks (each code's
kept columns, and the read rows) that the oracle's walk also builds for
its candidates.  apply checks the inputs and
computes x . Y on the stacked input with gf2.vec_mat, for any Y.

Also provides the explicit Reed-Muller merge RM(r, m-1) x RM(r-1, m-1)
-> RM(r, m) and its recursive multi-code chain.  One builder makes the Y
of both by rows (a merge is the chain of depth 1), and one memo holds
one verified (instance, Y, report) triple per (r, m, depth).  Since
every RM generator row is the Moebius transform of a unit word,
verify_conversion takes G_I . Y on RM codes by row butterflies instead
of a matrix product.  The builder and apply both read each RM code's
algebraic-normal-form (ANF) domain as rm_code presets it, (steps, low):
apply runs the Y of a merge or chain as a map in that domain, checking
and converting each input in the same Moebius transforms.  The cost
model stays Y's, as classify_symbols reports it; on codewords the ANF
map computes the same values as x . Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, count, islice
from typing import Dict, Optional, Sequence, Tuple

from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    _butterflies,
    _moebius,
    block_diag,
    mat_mul,
    rank,
    vec_mat,
)
from .codes import LinearCode, _echelon, contains, first_information_set
from .reedmuller import _check_bits, _check_m, rm_code


class ConversionError(ValueError):
    """Invalid conversion instance, matrix, or input codewords."""


@dataclass(frozen=True)
class ConvertibleInstance:
    """Initial codes plus a final code with matching total dimension.

    It refuses, with ConversionError, what breaks the merge regime: no
    initial code, sum(k_I) != k_F, or an initial code of dimension 0;
    make_instance is the class.  Its shape is stored once, as apply
    reads it for every codeword and the oracle once per walk:
    n_initial and k_initial (Tuple[int, ...]), n_final, k_final and
    total_initial_length (int).  These are attributes, not fields, so
    equality, hashing and repr see only the two codes."""

    initial_codes: Tuple[LinearCode, ...]
    final_code: LinearCode

    def __post_init__(self):
        initial = tuple(self.initial_codes)
        if not initial:
            raise ConversionError("need at least one initial code")
        k = tuple(c.k for c in initial)
        if sum(k) != self.final_code.k:
            raise ConversionError("merge regime requires sum(k_I) = k_F, "
                                  f"got {sum(k)} != {self.final_code.k}")
        if 0 in k:
            raise ConversionError("initial codes must have dimension >= 1")
        n = tuple(c.n for c in initial)
        for name, value in (("initial_codes", initial), ("n_initial", n),
                            ("k_initial", k), ("n_final", self.final_code.n),
                            ("k_final", self.final_code.k),
                            ("total_initial_length", sum(n))):
            object.__setattr__(self, name, value)

    @property
    def lam(self) -> int:
        return len(self.initial_codes)

    def block_starts(self) -> Tuple[int, ...]:
        starts = [0]
        for n in self.n_initial[:-1]:
            starts.append(starts[-1] + n)
        return tuple(starts)

    def stacked_generator(self) -> BitMatrix:
        """Block-diagonal stack of the initial generators."""
        return block_diag([c.generator for c in self.initial_codes])


make_instance = ConvertibleInstance


@dataclass(frozen=True)
class ConversionMatrix:
    """Matrix Y of a linear conversion, with initial block sizes: each
    at least 1, summing to Y's row count, and stored as a tuple.

    _anf is None except on the Y of an RM merge or chain, where it holds
    the initial codes Y was built for: on an instance of those very
    codes and a final code as wide as Y, apply_conversion runs the ANF
    map (see _run_anf).
    """

    y: BitMatrix
    blocks: Tuple[int, ...]
    _anf: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.blocks and min(self.blocks) < 1:
            raise DimensionError("block sizes must be >= 1")
        if self.y.rows != sum(self.blocks):
            raise DimensionError("block sizes must sum to the row count")


@dataclass(frozen=True)
class CostReport:
    """Symbol classification and cost accounting of one conversion.

    unchanged_per_code[i] holds FINAL coordinates inherited from code i;
    read_per_code[i] holds LOCAL coordinates of code i that are read.
    Both tuples hold one set per initial code, so they have the same
    length, else DimensionError.  The counts and costs are stored once,
    when it is built, as oracle sweeps read them for every candidate:
    unchanged_counts and read_counts (Tuple[int, ...]), unchanged_total,
    write_cost, read_cost and access_cost (int).  These are attributes,
    not fields, so equality, hashing and repr see only the three sets.
    """

    unchanged_per_code: Tuple[frozenset, ...]
    new_symbols: frozenset
    read_per_code: Tuple[frozenset, ...]

    def __post_init__(self):
        u = tuple(map(len, self.unchanged_per_code))
        r = tuple(map(len, self.read_per_code))
        if len(u) != len(r):
            raise DimensionError("need one read set per unchanged set")
        w = len(self.new_symbols)
        for name, value in (("unchanged_counts", u),
                            ("unchanged_total", sum(u)), ("write_cost", w),
                            ("read_counts", r), ("read_cost", sum(r)),
                            ("access_cost", sum(r) + w)):
            object.__setattr__(self, name, value)

    def to_record(self) -> dict:
        return {
            "U": list(self.unchanged_counts),
            "W": self.write_cost,
            "R": list(self.read_counts),
            "access": self.access_cost,
        }


def verify_conversion(inst: ConvertibleInstance, y: ConversionMatrix) -> bool:
    """True iff G_I . Y has rank k_F and generates the final code.

    Row-space equality, not literal matrix equality: a valid conversion
    may land on any generator choice of the final code.  With rank k_F,
    the rows span the final code iff each is a codeword, as contains
    tests: by the final code's preset ANF domain if it has one (an RM
    code), else against its cached echelon form.  The product is exact
    for any Y, and takes row butterflies instead of mat_mul when every
    initial code is an RM code (see _product).
    """
    _check_shape(inst, y)
    product = _product(inst, y.y)
    if rank(product) != inst.k_final:
        return False
    return all(
        contains(inst.final_code, product.row(i)) for i in range(product.rows)
    )


def _check_shape(inst: ConvertibleInstance, y: ConversionMatrix) -> None:
    """Raise DimensionError unless Y's blocks are inst's initial lengths
    and its width is n_F."""
    if y.blocks != inst.n_initial:
        raise DimensionError("conversion-matrix blocks do not match instance")
    if y.y.cols != inst.n_final:
        raise DimensionError("conversion-matrix width must be n_F")


def _product(inst: ConvertibleInstance, y: BitMatrix) -> BitMatrix:
    """G_I . Y, equal to mat_mul row for row: by row butterflies when
    every initial code is an RM code from rm_code, else by mat_mul.

    A generator row of RM(r, m) is M(e_p), the mask of the points
    containing its monomial's point p, so its product row is the XOR of
    Y's rows at the supersets of p.  m butterfly passes over a block's
    rows, ys[q] ^= ys[q | b] for q with bit b clear, leave that superset
    sum at ys[p], and p is the generator row's lowest set bit.
    """
    if not all(c._degree_test for c in inst.initial_codes):
        return mat_mul(inst.stacked_generator(), y)
    out = []
    words = iter(y.row_words)
    for c in inst.initial_codes:
        ys = list(islice(words, c.n))
        for _, bit in c._degree_test[0]:
            for q in range(c.n):
                if not q & bit:
                    ys[q] ^= ys[q | bit]
        out += [ys[(g & -g).bit_length() - 1] for g in c.generator.row_words]
    return BitMatrix(out, y.cols)


def classify_symbols(
    inst: ConvertibleInstance, y: ConversionMatrix
) -> CostReport:
    """Classify every final coordinate as unchanged or new and collect reads.

    A final coordinate is unchanged iff its Y column has weight 1; the
    single support row attributes it to an initial code.  Support rows of
    heavier columns become read symbols of their owning codes.  Y is
    verified first, then classified by rows (_classify_rows).
    """
    if not verify_conversion(inst, y):
        raise ConversionError("matrix is not a valid conversion for instance")
    return _classify_rows(inst, y.y.row_words)


def _classify_rows(
    inst: ConvertibleInstance, rows: Sequence[int]
) -> CostReport:
    """Cost report of the conversion with these Y rows, unverified.

    The classifier of an arbitrary Y, as classify_symbols, the RM merges
    and chains have it: callers must already know that the rows form a
    valid conversion matrix for inst.  One pass over the rows splits the
    columns into single (weight 1: unchanged) and multi (weight >= 2:
    new).  A code's unchanged coordinates are the single columns its rows
    meet; the read rows are those meeting multi.  Those masks are
    _report's key, which the oracle's walk also builds, for each of its
    leaves, as it descends.
    """
    once = multi = 0
    for w in rows:
        multi |= once & w
        once |= w
    single = once & ~multi
    keeps = reads = 0
    words = enumerate(rows)
    for i, n in enumerate(inst.n_initial):
        keep = 0
        for row, w in islice(words, n):
            keep |= w
            if w & multi:
                reads |= 1 << row
        keeps |= (keep & single) << i * inst.n_final
    return _report(inst.n_initial, inst.n_final, keeps, reads)


def _bit_set(mask: int) -> frozenset:
    """Positions of the set bits of mask."""
    return frozenset(compress(count(), map("1".__eq__, bin(mask)[:1:-1])))


# Bounded: an oracle sweep meets a few thousand classifications, and over
# 90% of its candidates hit the 512 held.
@lru_cache(maxsize=512)
def _report(
    n_initial: Tuple[int, ...], n_final: int, keeps: int, reads: int
) -> CostReport:
    """The one shared, immutable report of a classification, keyed by the
    instance's shape and two masks: keeps, code i's kept (weight-1)
    columns in bits [i * n_final, (i + 1) * n_final), and reads, the read
    rows of Y in stacked coordinates.  Every weight-1 column is kept by
    the one code its row is in, so every other of the n_final columns is
    new."""
    full = (1 << n_final) - 1
    new, kept, read, start = full, [], [], 0
    for i, n in enumerate(n_initial):
        mask = keeps >> i * n_final & full
        new &= ~mask
        kept.append(_bit_set(mask))
        read.append(_bit_set(reads >> start & (1 << n) - 1))
        start += n
    return CostReport(tuple(kept), _bit_set(new), tuple(read))


def default_conversion(inst: ConvertibleInstance) -> ConversionMatrix:
    """Decode-and-re-encode conversion: read an information set of each
    initial code, keep those k_F symbols in place on an information set
    of the final code, and write the remaining n_F - k_F symbols.

    The reduced rows of G_F's cached echelon form, in pivot order, are
    the final code's systematic generator on its first information set,
    so the s-th kept symbol's Y row is the s-th of them.
    """
    starts = inst.block_starts()
    kept_rows = [  # stacked coordinates of the kept symbols
        starts[i] + j
        for i, c in enumerate(inst.initial_codes)
        for j in first_information_set(c)
    ]
    pivots, _, reduced = _echelon(inst.final_code)
    words = [0] * inst.total_initial_length
    for row, p in zip(kept_rows, pivots):
        words[row] = reduced[p]
    return ConversionMatrix(BitMatrix(words, inst.n_final), inst.n_initial)


def _stack_codewords(codewords: Sequence[BitVector]) -> BitVector:
    """Concatenate one codeword per initial code in stacked coordinates."""
    mask = 0
    shift = 0
    for x in codewords:
        mask |= x.mask << shift
        shift += x.n
    return BitVector(shift, mask)


def _run_matrix(
    y: ConversionMatrix, codewords: Sequence[BitVector]
) -> BitVector:
    """x . Y for the stacked codewords x, by vec_mat, for any Y; checks
    no code membership."""
    return vec_mat(_stack_codewords(codewords), y.y)


def _run_anf(
    inst: ConvertibleInstance, codewords: Sequence[BitVector]
) -> BitVector:
    """Check and convert the inputs of an RM merge or chain in the ANF
    domain, read from each leaf's preset (steps, low).

    The merge of c1 in RM(r, m-1) and c2 in RM(r-1, m-1) outputs c1 on
    the left and c2 plus the degree-r part of c1's polynomial on the
    right, so the output's ANF is a = A(c1) on the left and
    (A(c1) & low) ^ A(c2) on the right (A the Moebius transform, low
    c2's code's).  A chain folds each later leaf in the same way, and
    one transform of a over twice the last leaf's points gives the
    output.  Each A(x) is also the input's membership test, raising
    ConversionError if it has a bit outside its leaf's low: a merge
    costs 3 transforms and a chain lambda + 1.
    """
    a = None
    for c, x in zip(inst.initial_codes, codewords):
        if x.n != c.n:
            raise DimensionError("vector length must equal the block length")
        steps, low = c._degree_test
        b = _moebius(x.mask, steps)
        if b & low != b:
            raise ConversionError("input is not a codeword of its code")
        a = b if a is None else a | ((a & low) ^ b) << c.n
    return BitVector(2 * c.n, _moebius(a, _butterflies(c.n.bit_length())))


def apply_conversion(
    inst: ConvertibleInstance,
    y: ConversionMatrix,
    codewords: Sequence[BitVector],
) -> BitVector:
    """Run the conversion on one codeword per initial code.

    Each input is checked to be a codeword of its initial code, and a
    non-codeword raises ConversionError.  On the Y of an RM merge or
    chain, applied to an instance of the very codes it was built from
    and a final code as wide as Y, the check and the conversion are one
    ANF map (_run_anf).  Any other Y or instance must have inst's shape
    (else DimensionError), and after the checks runs vec_mat
    (_run_matrix).  Both give x . Y on codewords; the access costs are
    Y's, as classify_symbols reports them.
    """
    if len(codewords) != inst.lam:
        raise ConversionError("need exactly one codeword per initial code")
    # LinearCode compares by identity: the codes must be Y's own, and the
    # final code as wide as Y, else the generic path's shape check raises.
    if y._anf == inst.initial_codes and y.y.cols == inst.n_final:
        return _run_anf(inst, codewords)
    _check_shape(inst, y)
    for c, x in zip(inst.initial_codes, codewords):
        if not contains(c, x):
            raise ConversionError("input is not a codeword of its code")
    return _run_matrix(y, codewords)


def _build_rm_merge(
    r: int, m: int, depth: int = 1
) -> Tuple[ConvertibleInstance, ConversionMatrix]:
    """Instance and matrix Y of chain (r, m, depth), by rows; depth 1 is
    the merge RM(r, m-1) x RM(r-1, m-1) -> RM(r, m).

    The merge into RM(r, s) has Y = [[I, T], [0, B]] on h = 2^(s-1)
    points, with c1 . T = M(M(c1) & D_r): M the Moebius transform on h
    points and D_r the points of weight r.  B is I when reading the
    second code directly is no dearer than decoding it; else its row at
    p is M(M(e_p) & low), e_p the unit word at p, for p in low, the
    leaf's points of weight <= r-1, else 0: the leaf's systematic rows
    on low, the zero columns of T.

    M and every mask come from rm_code's presets (steps, low).  The rows
    start as the identity on the first leaf, RM(r, m-depth), with low_r
    its low.  Each stage s = m-depth+1, ..., m multiplies them by its
    merge, a row w becoming w | M(M(w) & D_r) << h with D_r = low_r ^
    low of the stage's leaf RM(r-1, s-1); appends B's rows, shifted by
    h; and sets low_r |= low << h, the points of weight <= r on 2h.
    That is the product of the per-stage merges lifted by identity
    blocks, without forming it or any intermediate RM(r, s).
    """
    leaves = [rm_code(r, m - depth)]
    words = [1 << i for i in range(leaves[0].n)]
    low_r = leaves[0]._degree_test[1]
    for s in range(m - depth + 1, m + 1):
        half = 1 << (s - 1)
        leaf = rm_code(r - 1, s - 1)
        leaves.append(leaf)
        steps, low = leaf._degree_test
        d_r = low_r ^ low
        words = [w | _moebius(_moebius(w, steps) & d_r, steps) << half
                 for w in words]
        if half <= 2 * leaf.k:
            words += [1 << (half + j) for j in range(half)]
        else:
            words += [_moebius(_moebius(1 << p, steps) & low, steps) << half
                      if low >> p & 1 else 0 for p in range(half)]
        low_r |= low << half
    inst = make_instance(leaves, rm_code(r, m))
    y = BitMatrix(words, 1 << m)
    return inst, ConversionMatrix(y, inst.n_initial, _anf=inst.initial_codes)


_RmTriple = Tuple[ConvertibleInstance, ConversionMatrix, CostReport]
_RM_MERGES: Dict[Tuple[int, int, int], _RmTriple] = {}


def _check_merge_size(m: int) -> None:
    """Refuse (SizeGuardError) a merge or chain into RM(r, m) with m past
    reedmuller.MAX_M or its 2^m x 2^m matrix Y past reedmuller.MAX_BITS.
    Monotone in m, and independent of r and the depth."""
    _check_m(m)
    _check_bits(1 << m, m)


def rm_merge_procedure(r: int, m: int) -> _RmTriple:
    """The explicit merge RM(r, m-1) x RM(r-1, m-1) -> RM(r, m).

    On codewords c1, c2 the output is c1 in the left half and
    M(M(c1) & D_r) ^ c2 in the right half: M is the binary Moebius
    transform on 2^(m-1) points and D_r masks the points of weight r, so
    that is c2 plus the degree-r part of c1's polynomial, evaluated.  It
    vanishes at the points of weight <= r-1, where c2's symbols stay
    unchanged; every other right-half symbol is new.

    This is the depth-1 chain: one builder makes both by rows, and one
    memo holds both, so this returns the (shared, immutable) triple of
    rm_merge_chain(r, m, 1), built and classified (so verified) on the
    first call.  Refuses (SizeGuardError) m past reedmuller.MAX_M and a
    2^m x 2^m matrix Y past reedmuller.MAX_BITS before building anything.
    """
    if not 1 <= r <= m - 1:
        raise ConversionError("need 1 <= r <= m - 1")
    return rm_merge_chain(r, m, 1)


def rm_merge_apply(
    r: int, m: int, c1_word: BitVector, c2_word: BitVector
) -> BitVector:
    """Run the Reed-Muller merge on one codeword of each initial code.

    One apply_conversion with the matrix emitted by rm_merge_procedure, so
    it runs that matrix's ANF map: three Moebius transforms check both
    inputs and give the output, equal to x . Y on codewords.  The
    access costs are Y's, as classify_symbols reports them.  The matrix
    is built and verified on the first call per (r, m).
    """
    inst, y, _ = rm_merge_procedure(r, m)
    return apply_conversion(inst, y, (c1_word, c2_word))


def rm_merge_chain(r: int, m: int, depth: int) -> _RmTriple:
    """Recursive merge chain: re-split the first initial code depth times.

    Produces a lambda = depth + 1 instance with initial codes
    RM(r, m-depth), RM(r-1, m-depth), RM(r-1, m-depth+1), ...,
    RM(r-1, m-1) and final code RM(r, m).  Its conversion matrix equals
    the product of the per-stage merges lifted by identity blocks, but is
    built by rows, stage by stage, with no matrix product (see
    _build_rm_merge).  Its ANF map runs every stage at once on
    codewords, in lambda + 1 Moebius transforms (see _run_anf); the
    access costs are the matrix's, as classify_symbols reports them.
    The triple is built and classified (so verified) on the first call
    per (r, m, depth), and depth 1 is rm_merge_procedure(r, m)'s entry.
    Refuses (SizeGuardError) as rm_merge_procedure does, at the final m.
    Domain: 1 <= depth <= r <= m - depth, where every stage is a merge.
    """
    if not 1 <= depth <= r <= m - depth:
        raise ConversionError("need 1 <= depth <= r <= m - depth")
    key = (r, m, depth)
    if key not in _RM_MERGES:
        _check_merge_size(m)
        inst, y = _build_rm_merge(r, m, depth)
        _RM_MERGES[key] = (inst, y, classify_symbols(inst, y))
    return _RM_MERGES[key]
