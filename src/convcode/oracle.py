"""Exhaustive ground-truth search over all linear conversions.

Every valid conversion matrix Y satisfies G_I . Y = M . G_F for exactly
one invertible M (the change of basis of the final code), and for fixed
M the columns of Y range independently over a coset of the right kernel
of G_I.  Enumerating GL(k_F, 2) times the kernel cosets therefore
covers every linear conversion exactly once, which makes the minimum
access cost found here a true optimum.

That is the one candidate space, built only by _search_space.
enumerate_conversions walks it exhaustively; min_access_cost walks it
depth first with a strict admissible prune.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Optional, Tuple

from .gf2 import (
    BitMatrix,
    SizeGuardError,
    _combine,
    _transpose_words,
    enumerate_invertible,
    gl2_order,
    inverse,
    mat_mul,
    right_kernel_basis,
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
    """Number of (M, kernel-coset) candidates for the instance."""
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


def _right_inverse(g: BitMatrix) -> BitMatrix:
    """Some E with G . E = I for a full-row-rank G (free variables zero):
    the inverse of G's pivot columns on the pivot rows, zero elsewhere."""
    pivots = rref(g)[1]
    if len(pivots) != g.rows:
        raise ConversionError("stacked generator must have full row rank")
    words = [0] * g.cols
    for p, w in zip(pivots, inverse(g.select_columns(pivots)).row_words):
        words[p] = w
    return BitMatrix(words, g.rows)


# Per invertible M: the rows of M . G_F and the coset of each Y column.
_Parts = Iterator[Tuple[Tuple[int, ...], List[List[int]]]]


def _search_space(
    inst: ConvertibleInstance, lim: SearchLimits
) -> Tuple[BitMatrix, Optional[float], _Parts]:
    """The one candidate space of both searches; set-up done eagerly.

    Returns G_I, the time_budget's deadline (None if unlimited) that each
    walk checks per step, and a generator that yields, for each invertible
    M in enumeration order, the rows of M . G_F and, per final column, the
    coset of valid Y columns: a particular solution of G_I . Y = M . G_F
    XOR each kernel combination of G_I.
    """
    _check_limits(inst, lim)
    g_stack = inst.stacked_generator()
    g_final = inst.final_code.generator
    e_cols = _right_inverse(g_stack).transpose().row_words
    combos = [0]
    for v in right_kernel_basis(g_stack):
        combos += [c ^ v.mask for c in combos]
    deadline = (
        None if lim.time_budget is None else time.monotonic() + lim.time_budget
    )

    def parts() -> _Parts:
        for m in enumerate_invertible(inst.k_final, limit=None):
            target = mat_mul(m, g_final).row_words
            # Column j of E . target: E's columns picked by target's column j.
            part = [_combine(c, e_cols)
                    for c in _transpose_words(target, inst.n_final)]
            yield target, [[pc ^ kc for kc in combos] for pc in part]

    return g_stack, deadline, parts()


def enumerate_conversions(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Iterator[Tuple[ConversionMatrix, CostReport]]:
    """Yield every valid conversion matrix with its cost report.

    Ordered by the invertible-matrix enumeration, then by kernel-coset
    choices per column; each Y appears exactly once.  Each candidate is
    checked without elimination: G_I . Y must equal M . G_F for the
    current M, else ConversionError is raised.  As M is invertible, that
    equality implies what verify_conversion checks (rank k_F and the
    final code's row space).  The report then comes from the rows of the
    Y built from the chosen columns, by classify_symbols' classifier.  A
    time budget in lim is checked before each candidate.
    """
    g_stack, deadline, parts = _search_space(inst, lim)
    total_rows = inst.total_initial_length
    blocks = inst.n_initial
    for target, cosets in parts:
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
    walks exhaustively, pruned only where even the cheapest completion
    costs strictly more than the best found, so every tie is visited.
    Ties are broken by write cost, then by the lexicographic row-major
    bit string of Y, so results are deterministic.  A time budget in lim
    is checked at every node of the walk.
    """
    _, deadline, parts = _search_space(inst, lim)
    n_final = inst.n_final
    total_rows = inst.total_initial_length
    best_key: Optional[Tuple[int, int, Tuple[int, ...]]] = None
    best_cols: List[int] = []
    chosen: List[int] = []

    def descend(j: int, writes: int, read_mask: int) -> None:
        # Walks cosets[j:] of the current M, set by the loop below.
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

    for _, cosets in parts:
        # Admissible completion bound: every column whose coset has no
        # weight-1 member must be written.
        suffix_floor = [0] * (n_final + 1)
        for j in range(n_final - 1, -1, -1):
            suffix_floor[j] = suffix_floor[j + 1] + (
                1 not in map(int.bit_count, cosets[j])
            )
        descend(0, 0, 0)

    y = ConversionMatrix(
        BitMatrix.from_columns(best_cols, total_rows), inst.n_initial
    )
    return y, classify_symbols(inst, y)
