"""Exhaustive ground-truth search over all linear conversions.

Every valid conversion matrix Y satisfies G_I . Y = M . G_F for exactly
one invertible M (the change of basis of the final code), so the
candidate space is each M in GL(k_F, 2) with, for every column j of Y,
any y in [0, 2^N) whose syndrome G_I . y is column j of M . G_F.  It
holds every linear conversion exactly once, which makes the minimum
access cost found here a true optimum.

_search_space, the one builder of that space, buckets every y by its
syndrome once per instance (the coset of that syndrome), with whether
each coset is forced (it has no weight-1 member, so the column must be
written), its least member weight and the members stage 2 tries once
there is an incumbent, spreads every y into the column slot of Y's
packed rows, and gives each unit word its code's slot.

_walk, the one walk of that space, goes depth first in two stages.  It
cuts only where even the cheapest completion costs strictly more than an
incumbent: the walk keeps its own under `cut`, for min_access_cost, and
enumerate_conversions walks uncut.  It classifies as it descends: each
leaf is four ints, Y's cost, its packed rows and the two masks that key
its shared CostReport.  Both entry points look that report up with no
row pass, and _unpacker, the one builder of Y, turns a leaf into the
ConversionMatrix either returns.  It checks no blocks, since the
instance guarantees them; nothing is transposed or re-checked per
candidate.

1. rref(G_F) = A . G_F for an invertible A, so M . G_F = N . rref(G_F)
   with N = M . A^-1 ranging over GL(k_F, 2) as M does.  N's columns v_t,
   the images of rref(G_F)'s pivot columns, are picked one at a time in
   ascending order; once v_t is, every final column whose highest RREF
   support bit is t has its syndrome.  A prefix is cut when its forced
   writes plus the largest least weight among those forced columns (every
   write reads at least its column's weight) exceed the incumbent.  Each
   pick is O(1) plus one XOR and two lookups per column it fixes: level t
   keeps a 2^k_F-bit mask of the v outside span(v_0 .. v_t-1), so the
   next pick is its lowest set bit past the last, and each column fixed
   at level t keeps the XOR of the images over its support less bit t,
   computed once on entering the level, to which the pick is XORed.
2. For a complete N, each column takes a member of its coset in turn, in
   ascending order, the last column fastest; the floor is the writes and
   reads so far plus one write per forced column still to come.  Once
   there is an incumbent, an unforced column takes only its weight-1
   members: swapping a written column for one keeps Y valid for the same
   M, drops a write and adds no read, so a Y that writes an unforced
   column costs strictly more than the optimum of its M and never ties
   the final pick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from .gf2 import (
    BitMatrix,
    SizeGuardError,
    _butterflies,
    _combine,
    _transpose_words,
    gl2_order,
)
from .codes import _echelon
from .conversion import (
    ConversionMatrix,
    ConvertibleInstance,
    CostReport,
    _report,
)

MAX_CANDIDATES = 10**9


@dataclass(frozen=True)
class SearchLimits:
    """Hard caps keeping the search at desk scale; MAX_CANDIDATES caps k_F."""

    max_kernel_dim: int = 6
    max_n_final: int = 8
    time_budget: Optional[float] = None  # seconds, None = unlimited

    def __post_init__(self):
        caps = (self.max_kernel_dim, self.max_n_final)
        if not all(v >= 1 for v in caps):  # also refuses a NaN cap
            raise ValueError("limits must be positive")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be >= 0 seconds or None")


def candidate_count(inst: ConvertibleInstance) -> int:
    """Number of (M, coset member per column) candidates for the instance."""
    kernel_dim = inst.total_initial_length - inst.k_final
    return gl2_order(inst.k_final) * (1 << (kernel_dim * inst.n_final))


def _check_limits(inst: ConvertibleInstance, lim: SearchLimits) -> None:
    """Refuse inst past lim's caps or MAX_CANDIDATES, which bounds k_F."""
    kernel_dim = inst.total_initial_length - inst.k_final
    if kernel_dim > lim.max_kernel_dim:
        raise SizeGuardError(f"kernel dim {kernel_dim} > {lim.max_kernel_dim}")
    if inst.n_final > lim.max_n_final:
        raise SizeGuardError(f"n_F = {inst.n_final} > {lim.max_n_final}")
    count = candidate_count(inst)
    if count > MAX_CANDIDATES:
        raise SizeGuardError(
            f"search would evaluate {count} candidates (> {MAX_CANDIDATES})"
        )


class _Space(NamedTuple):
    """The candidate space of the walk, built once per instance.

    For a given M, Y's column j is valid iff it lies in cosets[v], with v
    column j of M . G_F: every y with G_I . y = v, in ascending order.
    """

    deadline: Optional[float]  # time_budget's deadline, None if unlimited
    cosets: List[List[int]]  # per syndrome v in [0, 2^k_F)
    forced: List[bool]  # cosets[v] has no weight-1 member
    least: List[int]  # least member weight of cosets[v]
    # trimmed[v]: the members stage 2 tries under an incumbent, cosets[v]'s
    # weight-1 members, or all of cosets[v] if it is forced.
    trimmed: List[List[int]]
    # spread[y]: bit i of y moved to bit i * n_F, so the OR of
    # spread[column j] << j over Y's columns packs Y's row i into bits
    # [i * n_F, (i + 1) * n_F); _walk ORs in one column per level.
    spread: List[int]
    # slot[y]: for y of weight 1 with its bit in code i's rows,
    # 1 << i * n_F, so the OR of slot[column j] << j packs code i's kept
    # columns into bits [i * n_F, (i + 1) * n_F); 0 for any other y.
    slot: List[int]


def _search_space(inst: ConvertibleInstance, lim: SearchLimits) -> _Space:
    """Check the limits, then build the walk's candidate space.

    syn[y] = G_I . y for every y in [0, 2^N), doubled over G_I's columns
    at one XOR each, and spread[y] beside it at one OR each; every y then
    joins the bucket of its syndrome.  G_I has full row rank, so no
    bucket is empty.  slot is set at the N unit words, which are the
    weight-1 members that trimmed keeps.
    """
    _check_limits(inst, lim)
    g_stack = inst.stacked_generator()
    syn, spread, bit = [0], [0], 1
    for col in _transpose_words(g_stack.row_words, g_stack.cols):
        syn += [s ^ col for s in syn]
        spread += [s | bit for s in spread]
        bit <<= inst.n_final
    cosets: List[List[int]] = [[] for _ in range(1 << inst.k_final)]
    for y, v in enumerate(syn):
        cosets[v].append(y)
    code_of_row = [i for i, n in enumerate(inst.n_initial) for _ in range(n)]
    slot = [0] * len(syn)
    for row, i in enumerate(code_of_row):
        slot[1 << row] = 1 << i * inst.n_final
    units = [[y for y in c if slot[y]] for c in cosets]
    deadline = (
        None if lim.time_budget is None else time.monotonic() + lim.time_budget
    )
    return _Space(deadline, cosets, [not u for u in units],
                  [min(map(int.bit_count, c)) for c in cosets],
                  [u or c for u, c in zip(units, cosets)], spread, slot)


def _walk(
    inst: ConvertibleInstance, space: _Space, cut: bool
) -> Iterator[Tuple[int, int, int, int]]:
    """The module's walk of inst's candidate space, built (so the limits
    checked) by _search_space; the deadline is checked at each pick and
    each coset member.

    Yields (writes, reads, packed, keeps) for each Y not cut: how many of
    its columns do not have weight 1, their OR (the read rows, stacked),
    Y's rows packed from the spread table, row i in bits
    [i * n_F, (i + 1) * n_F), and the weight-1 columns packed from the
    slot table, code i's kept columns in bits [i * n_F, (i + 1) * n_F).
    Every other column is new, so (keeps, reads) is conversion._report's
    key for Y.  Under cut, each leaf's cost is the incumbent once it is
    yielded, and the strict cuts yield none costlier; uncut, every Y is.

    Stage 1 takes its next pick as the lowest set bit of free[t] past
    the last, and the syndrome of each column the pick fixes as one XOR
    with bases[t]; the child's mask drops the coset span(images[:t]) ^ v,
    which one butterfly per set bit of v moves into place.  Stage 2 walks
    space.trimmed in place of the cosets once there is an incumbent,
    which loses no tie of the final pick (module docstring, item 2).
    """
    deadline, table, forced, least, trimmed, spread, slot = space
    k, n_final = inst.k_final, inst.n_final
    pivots, _, reduced = _echelon(inst.final_code)
    # Column j of N . rref(G_F) is the XOR of N's columns over support[j].
    support = _transpose_words([reduced[p] for p in pivots], n_final)
    # fixed_by[t + 1]: the columns whose highest support bit is t, fixed
    # once v_t is picked; fixed_by[0]: the zero columns (syndrome 0).
    fixed_by: List[List[int]] = [[] for _ in range(k + 1)]
    for j, s in enumerate(support):
        fixed_by[s.bit_length()].append(j)
    syndromes = [0] * n_final
    # flips[v]: per set bit b of v, (the mask of the u in [0, 2^k) with
    # bit b clear, 2^b); moving each bit u of a mask to u ^ v is one
    # butterfly per pair.
    size, steps = 1 << k, _butterflies(k)
    flips = [[step for b, step in enumerate(steps) if v >> b & 1]
             for v in range(size)]
    full = (1 << size) - 1
    # Stage 1 at level t: images[:t] are picked, free[t] masks the v
    # outside their span, bases[t][i] is the XOR of images over the
    # support of column fixed_by[t + 1][i] less bit t; the columns fixed
    # before level t have writes1[t] forced writes and largest least
    # weight reads1[t].
    images, free, writes1, reads1 = ([0] * k for _ in range(4))
    bases: List[List[int]] = [[]] * k
    # Stage 2 at level j: columns[:j] are chosen, with writes2[j] writes,
    # reads2[j] reads, packs2[j] their packed rows and keeps2[j] their
    # kept columns per code; members[j] walks column j's coset.
    writes2, reads2, packs2, keeps2 = ([0] * n_final for _ in range(4))
    members: List[Iterator[int]] = [iter(())] * n_final
    after = [0] * n_final  # forced columns after column j
    best: Optional[int] = None

    # The zero columns have syndrome 0, whose least weight is 0; the
    # columns fixed at level 0 have support 1, so base 0.
    writes1[0] = len(fixed_by[0]) if forced[0] else 0
    free[0], bases[0] = full ^ 1, [0] * len(fixed_by[1])
    t = v = 0  # stage 1's level, and the last v tried there
    while True:
        rest = free[t] >> v + 1
        if not rest:  # level t is done
            if t == 0:
                return
            t -= 1
            v = images[t]
            continue
        v += (rest & -rest).bit_length()
        writes, reads = writes1[t], reads1[t]
        for base in bases[t]:
            s = base ^ v
            if forced[s]:
                writes += 1
                if least[s] > reads:
                    reads = least[s]
        if deadline is not None and time.monotonic() > deadline:
            raise SizeGuardError("time budget exhausted")
        if best is not None and writes + reads > best:
            continue
        images[t] = v
        for j, base in zip(fixed_by[t + 1], bases[t]):
            syndromes[j] = base ^ v
        if t + 1 < k:
            coset = full ^ free[t]
            for half, shift in flips[v]:
                coset = (coset & half) << shift | coset >> shift & half
            t, v = t + 1, 0
            free[t] = free[t - 1] ^ coset
            bases[t] = [_combine(support[j] ^ 1 << t, images)
                        for j in fixed_by[t + 1]]
            writes1[t], reads1[t] = writes, reads
            continue
        # Stage 2 for the complete N.
        for j in range(n_final - 2, -1, -1):
            after[j] = after[j + 1] + forced[syndromes[j + 1]]
        j = 0
        members[0] = iter((table if best is None else trimmed)[syndromes[0]])
        while j >= 0:
            y = next(members[j], None)
            if y is None:
                j -= 1
                continue
            kept = slot[y]
            if kept:  # unchanged symbol: free
                writes, reads = writes2[j], reads2[j]
                keeps = keeps2[j] | kept << j
            else:  # one write plus its reads
                writes, reads, keeps = writes2[j] + 1, reads2[j] | y, keeps2[j]
            if deadline is not None and time.monotonic() > deadline:
                raise SizeGuardError("time budget exhausted")
            if best is not None and writes + reads.bit_count() + after[j] > best:
                continue
            packed = packs2[j] | spread[y] << j
            if j + 1 == n_final:  # the floor is now the cost
                if cut:
                    best = writes + reads.bit_count()
                yield writes, reads, packed, keeps
                continue
            j += 1
            writes2[j], reads2[j], packs2[j], keeps2[j] = (writes, reads,
                                                           packed, keeps)
            members[j] = iter(
                (table if best is None else trimmed)[syndromes[j]])


def _unpacker(inst: ConvertibleInstance) -> Callable[[int], ConversionMatrix]:
    """The builder of Y for one walk of inst: packed rows to the
    ConversionMatrix either entry point returns.

    The instance guarantees the blocks: each n_i >= 1, as k_i >= 1, and
    they sum to Y's row count.  Every row is packed >> s & mask, so it
    lies in the column range by construction, and each Y is made by
    __new__ and its fields filled in with no check; the public
    constructors keep theirs.
    """
    n_final, blocks = inst.n_final, inst.n_initial
    rows = inst.total_initial_length
    mask = (1 << n_final) - 1
    shifts = range(0, rows * n_final, n_final)
    new_matrix, new_conversion = BitMatrix.__new__, ConversionMatrix.__new__

    def unpack(packed: int) -> ConversionMatrix:
        y = new_matrix(BitMatrix)
        y.rows, y.cols = rows, n_final
        y.row_words = tuple([packed >> s & mask for s in shifts])
        conversion = new_conversion(ConversionMatrix)
        # The frozen dataclass refuses attribute assignment; one update of
        # its __dict__ sets the three fields, as its __init__ would.
        conversion.__dict__.update(y=y, blocks=blocks, _anf=None)
        return conversion

    return unpack


def enumerate_conversions(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Iterator[Tuple[ConversionMatrix, CostReport]]:
    """Yield every valid conversion matrix with its cost report.

    The module's walk, uncut: M in stage 1's order, N . rref(G_F), then
    each column's coset members in ascending order, the last column
    fastest; each Y appears exactly once.  Each coset member has its
    column's syndrome by the table's construction and M is invertible, so
    every Y passes verify_conversion without a check.  Each leaf carries
    its classification, so its report is looked up by the leaf's masks
    with no row pass, and its Y comes from _unpacker with no per-candidate
    re-check.  A time budget in lim is checked at every pick and every
    coset member.
    """
    space = _search_space(inst, lim)
    unpack, n_initial, n_final = _unpacker(inst), inst.n_initial, inst.n_final
    for _, reads, packed, keeps in _walk(inst, space, cut=False):
        yield unpack(packed), _report(n_initial, n_final, keeps, reads)


def min_access_cost(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Tuple[ConversionMatrix, CostReport]:
    """Minimum-access-cost conversion over ALL linear conversions.

    The module's walk, cut by its own incumbent.  Both cuts are strict, so
    every tie is visited, and each Y comes from exactly one M, so the pick
    does not depend on the walk's order.  Ties are broken by write cost,
    then by the lexicographic row-major bit string of Y, so results are
    deterministic.  That string is the walk's packed rows read from bit 0
    up, Y[0][0] first, so the key reverses their fixed-width binary form;
    no candidate is transposed.  The report comes from the pick's leaf.  A
    time budget in lim is checked at every pick and every coset member.
    """
    width = f"0{inst.total_initial_length * inst.n_final}b"
    # Row-major bit string of Y, Y[0][0] most significant: unique per Y.
    *_, packed, keeps, reads = min(
        (writes + reads.bit_count(), writes,
         int(format(packed, width)[::-1], 2), packed, keeps, reads)
        for writes, reads, packed, keeps in _walk(
            inst, _search_space(inst, lim), cut=True))
    return (_unpacker(inst)(packed),
            _report(inst.n_initial, inst.n_final, keeps, reads))
