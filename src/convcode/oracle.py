"""Exhaustive ground-truth search over all linear conversions.

Every valid conversion matrix Y satisfies G_I . Y = M . G_F for exactly
one invertible M (the change of basis of the final code), and for fixed
M the columns of Y range independently over a coset of the right kernel
of G_I.  Enumerating GL(k_F, 2) times the kernel cosets therefore
covers every linear conversion exactly once, which makes the minimum
access cost found here a true optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Optional, Tuple

from .gf2 import (
    BitMatrix,
    BitVector,
    SizeGuardError,
    enumerate_invertible,
    gl2_order,
    mat_mul,
    right_kernel_basis,
    solve,
)
from .conversion import (
    ConversionError,
    ConversionMatrix,
    ConvertibleInstance,
    CostReport,
    _classify_columns,
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
        if min(self.max_k_final, self.max_kernel_dim, self.max_n_final) < 1:
            raise ValueError("limits must be positive")


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
    """Some E with G . E = I for a full-row-rank G (free variables zero)."""
    cols = []
    for i in range(g.rows):
        x = solve(g, BitVector(g.rows, 1 << i))
        if x is None:
            raise ConversionError("stacked generator must have full row rank")
        cols.append(x.mask)
    return BitMatrix.from_columns(cols, g.cols)


def _search_space(
    inst: ConvertibleInstance, lim: SearchLimits
) -> Tuple[
    BitMatrix, List[int], Iterator[Tuple[Tuple[int, ...], List[int]]]
]:
    """Shared set-up of both searches, done eagerly.

    Returns G_I, the kernel combinations of G_I and a generator that checks
    the time budget, then yields, for each invertible M in enumeration
    order, the rows of M . G_F and the columns of a particular solution
    of G_I . Y = M . G_F.
    """
    _check_limits(inst, lim)
    g_stack = inst.stacked_generator()
    g_final = inst.final_code.generator
    e = _right_inverse(g_stack)
    combos = [0]
    for v in right_kernel_basis(g_stack):
        combos += [c ^ v.mask for c in combos]
    deadline = (
        None if lim.time_budget is None else time.monotonic() + lim.time_budget
    )

    def parts() -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
        for m in enumerate_invertible(inst.k_final, limit=None):
            if deadline is not None and time.monotonic() > deadline:
                raise SizeGuardError("time budget exhausted")
            target = mat_mul(m, g_final)
            part = mat_mul(e, target)
            yield target.row_words, part.transpose().row_words

    return g_stack, combos, parts()


def enumerate_conversions(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Iterator[Tuple[ConversionMatrix, CostReport]]:
    """Yield every valid conversion matrix with its cost report.

    Ordered by the invertible-matrix enumeration, then by kernel-coset
    choices per column; each Y appears exactly once.  Each candidate is
    checked without elimination: G_I . Y must equal M . G_F for the
    current M, else ConversionError is raised.  As M is invertible, that
    equality implies what verify_conversion checks (rank k_F and the
    final code's row space).  The report then comes from the candidate's
    columns directly, by the same classifier as classify_symbols.
    """
    g_stack, combos, parts = _search_space(inst, lim)
    total_rows = inst.total_initial_length
    blocks = inst.n_initial
    for target, part_cols in parts:
        cosets = [[pc ^ kc for kc in combos] for pc in part_cols]
        for choice_masks in product(*cosets):
            y = BitMatrix.from_columns(choice_masks, total_rows)
            if mat_mul(g_stack, y).row_words != target:
                raise ConversionError("enumerated matrix is not a conversion")
            yield ConversionMatrix(y, blocks), _classify_columns(
                inst, choice_masks
            )


def min_access_cost(
    inst: ConvertibleInstance, lim: SearchLimits = SearchLimits()
) -> Tuple[ConversionMatrix, CostReport]:
    """Minimum-access-cost conversion over ALL linear conversions.

    Exhaustive over the (M, kernel-coset) parameterization with an
    admissible prune; ties are broken by write cost, then by the
    lexicographic row-major bit string of Y, so results are deterministic.
    """
    _, combos, parts = _search_space(inst, lim)
    n_final = inst.n_final
    total_rows = inst.total_initial_length

    best_key: Optional[Tuple[int, int, Tuple[int, ...]]] = None
    best_cols: Optional[List[int]] = None

    def row_major_key(col_masks: List[int]) -> Tuple[int, ...]:
        # Lexicographic on the row-major bit string: rows top to bottom,
        # and within a row column 0 is the most significant character.
        key = []
        for i in range(total_rows):
            word = 0
            for j, cm in enumerate(col_masks):
                word = (word << 1) | ((cm >> i) & 1)
            key.append(word)
        return tuple(key)

    for _, part_cols in parts:
        options: List[List[Tuple[int, int]]] = []
        has_unchanged: List[bool] = []
        for pc in part_cols:
            opts = []
            any_w1 = False
            for kc in combos:
                mask = pc ^ kc
                w = mask.bit_count()
                if w == 1:
                    any_w1 = True
                    opts.append((0, mask))  # free: unchanged symbol
                else:
                    opts.append((1, mask))  # costs one write plus reads
            # Try unchanged options first so cheap completions are found early.
            opts.sort(key=lambda t: t[0])
            options.append(opts)
            has_unchanged.append(any_w1)
        # Admissible completion bound: every column without a weight-1
        # option must be written.
        suffix_floor = [0] * (n_final + 1)
        for j in range(n_final - 1, -1, -1):
            suffix_floor[j] = suffix_floor[j + 1] + (0 if has_unchanged[j] else 1)

        chosen: List[int] = []

        def descend(j: int, writes: int, read_mask: int) -> None:
            nonlocal best_key, best_cols
            cost_floor = writes + read_mask.bit_count() + suffix_floor[j]
            if best_key is not None and cost_floor > best_key[0]:
                return
            if j == n_final:
                cost = writes + read_mask.bit_count()
                key = (cost, writes, row_major_key(chosen))
                if best_key is None or key < best_key:
                    best_key = key
                    best_cols = list(chosen)
                return
            for is_write, mask in options[j]:
                chosen.append(mask)
                if is_write:
                    descend(j + 1, writes + 1, read_mask | mask)
                else:
                    descend(j + 1, writes, read_mask)
                chosen.pop()

        descend(0, 0, 0)

    assert best_cols is not None
    y = ConversionMatrix(
        BitMatrix.from_columns(best_cols, total_rows), inst.n_initial
    )
    return y, classify_symbols(inst, y)
