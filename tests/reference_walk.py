"""The oracle's walk before pass masks and folded lone columns.

tests/test_oracle.py holds oracle._walk to this copy, cut and uncut, leaf
for leaf and in order: the pass masks of stage 1 and the lone columns
folded in stage 2 skip only what the incumbent already rules out.
"""

import time
from typing import Iterator, List, Optional, Tuple

from convcode.codes import _echelon
from convcode.conversion import ConvertibleInstance
from convcode.gf2 import (
    SizeGuardError,
    _butterflies,
    _combine,
    _transpose_words,
)
from convcode.oracle import _Space


def reference_walk(
    inst: ConvertibleInstance, space: _Space, cut: bool
) -> Iterator[Tuple[int, int, int, int]]:
    """oracle._walk as it stood with a clock read at every pick and at
    every coset member of every column.

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
