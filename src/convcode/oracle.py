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
written) and its least member weight.

enumerate_conversions walks the space exhaustively, M by M.
min_access_cost walks it depth first in two stages, pruned only where even
the cheapest completion costs strictly more than the best found:

1. M's columns are picked one at a time, as the images of the pivot
   columns of rref(G_F).  Once pivot t has its image, every final column
   whose highest RREF support bit is t has its syndrome.  A prefix is cut
   when its forced writes plus the largest least weight among those forced
   columns (every write reads at least its column's weight) exceed the
   best cost.
2. For a complete M, each column takes a member of its coset in turn; the
   floor is the writes and reads so far plus one write per forced column
   still to come.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .gf2 import (
    BitMatrix,
    SizeGuardError,
    _combine,
    _reduce,
    _transpose_words,
    enumerate_invertible,
    gl2_order,
    mat_mul,
    rref,
)
from .conversion import (
    ConversionError,
    ConversionMatrix,
    ConvertibleInstance,
    CostReport,
    _classify_rows,
    classify_symbols,
)

MAX_CANDIDATES = 10**9


@dataclass(frozen=True)
class SearchLimits:
    """Hard caps keeping the exhaustive search at desk scale."""

    max_k_final: int = 5
    max_kernel_dim: int = 6
    max_n_final: int = 8
    time_budget: Optional[float] = None  # seconds, None = unlimited

    def __post_init__(self):
        caps = (self.max_k_final, self.max_kernel_dim, self.max_n_final)
        if not all(v >= 1 for v in caps):  # also refuses a NaN cap
            raise ValueError("limits must be positive")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be >= 0 seconds or None")


def candidate_count(inst: ConvertibleInstance) -> int:
    """Number of (M, coset member per column) candidates for the instance."""
    kernel_dim = inst.total_initial_length - inst.k_final
    return gl2_order(inst.k_final) * (1 << (kernel_dim * inst.n_final))


def _check_limits(inst: ConvertibleInstance, lim: SearchLimits) -> None:
    kernel_dim = inst.total_initial_length - inst.k_final
    if inst.k_final > lim.max_k_final:
        raise SizeGuardError(f"k_F = {inst.k_final} > {lim.max_k_final}")
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
    """The candidate space of both searches, built once per instance.

    For a given M, Y's column j is valid iff it lies in cosets[v], with v
    column j of M . G_F: every y with G_I . y = v, in ascending order.
    """

    g_stack: BitMatrix
    deadline: Optional[float]  # time_budget's deadline, None if unlimited
    cosets: List[List[int]]  # per syndrome v in [0, 2^k_F)
    forced: List[bool]  # cosets[v] has no weight-1 member
    least: List[int]  # least member weight of cosets[v]


def _search_space(inst: ConvertibleInstance, lim: SearchLimits) -> _Space:
    """Check the limits, then build the one candidate space of both
    searches; each walk checks the deadline at every step.

    syn[y] = G_I . y for every y in [0, 2^N), doubled over G_I's columns
    at one XOR each; every y then joins the bucket of its syndrome.  G_I
    has full row rank, so no bucket is empty.
    """
    _check_limits(inst, lim)
    g_stack = inst.stacked_generator()
    syn = [0]
    for col in _transpose_words(g_stack.row_words, g_stack.cols):
        syn += [s ^ col for s in syn]
    cosets: List[List[int]] = [[] for _ in range(1 << inst.k_final)]
    for y, v in enumerate(syn):
        cosets[v].append(y)
    weights = [list(map(int.bit_count, c)) for c in cosets]
    deadline = (
        None if lim.time_budget is None else time.monotonic() + lim.time_budget
    )
    return _Space(g_stack, deadline, cosets,
                  [1 not in w for w in weights], [min(w) for w in weights])


def enumerate_conversions(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Iterator[Tuple[ConversionMatrix, CostReport]]:
    """Yield every valid conversion matrix with its cost report.

    Ordered by the invertible-matrix enumeration, then by each column's
    coset members in ascending order; each Y appears exactly once.  Each
    candidate is checked without elimination: G_I . Y must equal M . G_F
    for the current M, else ConversionError is raised.  As M is
    invertible, that equality implies what verify_conversion checks (rank
    k_F and the final code's row space).  The report then comes from the
    rows of the Y built from the chosen columns, by classify_symbols'
    classifier.  A time budget in lim is checked before each candidate.
    """
    g_stack, deadline, table, _, _ = _search_space(inst, lim)
    g_final = inst.final_code.generator
    total_rows = inst.total_initial_length
    blocks = inst.n_initial
    for m in enumerate_invertible(inst.k_final, limit=None):
        target = mat_mul(m, g_final).row_words
        # Column j of M . G_F is the syndrome of Y's column j.
        cosets = [table[v] for v in _transpose_words(target, inst.n_final)]
        for choice_masks in product(*cosets):
            if deadline is not None and time.monotonic() > deadline:
                raise SizeGuardError("time budget exhausted")
            y = BitMatrix.from_columns(choice_masks, total_rows)
            if mat_mul(g_stack, y).row_words != target:
                raise ConversionError("enumerated matrix is not a conversion")
            report = _classify_rows(inst, y.row_words)
            yield ConversionMatrix(y, blocks), report


def min_access_cost(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Tuple[ConversionMatrix, CostReport]:
    """Minimum-access-cost conversion over ALL linear conversions.

    A depth-first walk of the candidate space that enumerate_conversions
    walks exhaustively, in the module's two stages.  Stage 1 picks M's
    columns v_t, the images of rref(G_F)'s pivot columns, kept independent
    against a pivot basis; it cuts a prefix whose forced writes plus the
    largest least weight of their cosets exceed the best cost.  Stage 2
    walks the cosets of each complete M, cut where the writes and reads so
    far plus the forced writes still to come exceed it.  Both cuts are
    strict, so every tie is visited, and each Y comes from exactly one M,
    so the pick does not depend on the walk's order.  Ties are broken by
    write cost, then by the lexicographic row-major bit string of Y, so
    results are deterministic.  A time budget in lim is checked at every
    node of both stages.
    """
    _, deadline, table, forced, least = _search_space(inst, lim)
    k, n_final = inst.k_final, inst.n_final
    total_rows = inst.total_initial_length
    # rref(G_F) = A . G_F for an invertible A, so M . G_F = N . rref(G_F)
    # with N = M . A^-1 ranging over GL(k_F, 2) as M does.  Column j of
    # N . rref(G_F) is the XOR of N's columns over support[j].
    support = _transpose_words(rref(inst.final_code.generator)[0].row_words,
                               n_final)
    # fixed_by[t + 1]: the columns whose highest support bit is t, fixed
    # once v_t is picked; fixed_by[0]: the zero columns (syndrome 0).
    fixed_by = [[] for _ in range(k + 1)]
    for j, s in enumerate(support):
        fixed_by[s.bit_length()].append(j)
    syndromes = [0] * n_final
    images = [0] * k
    basis = [0] * k  # pivot column -> reduced image
    best_key: Optional[Tuple[int, int, Tuple[int, ...]]] = None
    best_cols: List[int] = []
    chosen: List[int] = []
    cosets: List[List[int]] = []
    suffix_floor: List[int] = []

    def settle(cols: List[int], writes: int, reads: int) -> Tuple[int, int]:
        # Fix the syndromes of cols; add their forced writes and reads.
        for j in cols:
            v = syndromes[j] = _combine(support[j], images)
            if forced[v]:
                writes += 1
                reads = max(reads, least[v])
        return writes, reads

    def pick(t: int, writes: int, reads: int) -> None:
        # Stage 1: v_0 .. v_{t-1} are picked.
        if deadline is not None and time.monotonic() > deadline:
            raise SizeGuardError("time budget exhausted")
        if best_key is not None and writes + reads > best_key[0]:
            return
        if t == k:
            walk()
            return
        for v in range(1, 1 << k):
            red = _reduce(v, basis)
            if not red:
                continue
            p = (red & -red).bit_length() - 1
            basis[p] = red
            images[t] = v
            pick(t + 1, *settle(fixed_by[t + 1], writes, reads))
            basis[p] = 0

    def walk() -> None:
        # Stage 2 for the complete M: every column whose coset has no
        # weight-1 member must be written.
        nonlocal cosets, suffix_floor
        cosets = [table[v] for v in syndromes]
        suffix_floor = [0] * (n_final + 1)
        for j in range(n_final - 1, -1, -1):
            suffix_floor[j] = suffix_floor[j + 1] + forced[syndromes[j]]
        descend(0, 0, 0)

    def descend(j: int, writes: int, read_mask: int) -> None:
        # Walks cosets[j:] of the current M.
        nonlocal best_key, best_cols
        if deadline is not None and time.monotonic() > deadline:
            raise SizeGuardError("time budget exhausted")
        cost_floor = writes + read_mask.bit_count() + suffix_floor[j]
        if best_key is not None and cost_floor > best_key[0]:
            return
        if j == n_final:  # the floor is now the cost
            # Row-major bit string of Y, column 0 most significant.
            rows = tuple(_transpose_words(chosen[::-1], total_rows))
            key = (cost_floor, writes, rows)
            if best_key is None or key < best_key:
                best_key = key
                best_cols = list(chosen)
            return
        for mask in cosets[j]:
            chosen.append(mask)
            if mask.bit_count() == 1:  # unchanged symbol: free
                descend(j + 1, writes, read_mask)
            else:  # one write plus its reads
                descend(j + 1, writes + 1, read_mask | mask)
            chosen.pop()

    pick(0, *settle(fixed_by[0], 0, 0))  # zero columns: syndrome 0
    y = ConversionMatrix(
        BitMatrix.from_columns(best_cols, total_rows), inst.n_initial
    )
    return y, classify_symbols(inst, y)
