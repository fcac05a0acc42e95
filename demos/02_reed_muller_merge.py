"""Merge two Reed-Muller codes into one of twice the length.

RM(r, m-1) x RM(r-1, m-1) -> RM(r, m) admits an explicit conversion
that keeps every symbol of the first code and the information symbols
of the second code unchanged.  This script builds the merge for
r=2, m=4, runs it on codewords both through apply_conversion and
through rm_merge_apply, and then composes a deeper chain.
"""

import random

from convcode import (
    BitVector,
    apply_conversion,
    contains,
    encode,
    rm_code,
    rm_merge_apply,
    rm_merge_chain,
    rm_merge_procedure,
    verify_conversion,
)

R, M = 2, 4
# rm_code(r, m) is the code itself (a LinearCode), built once per (r, m).
c1 = rm_code(R, M - 1)
c2 = rm_code(R - 1, M - 1)
cf = rm_code(R, M)
print(f"RM({R},{M - 1}) x RM({R - 1},{M - 1}) -> RM({R},{M}):")
print(f"  [{c1.n},{c1.k}] x [{c2.n},{c2.k}] -> [{cf.n},{cf.k}]")

inst, y, report = rm_merge_procedure(R, M)
print("  conversion valid:", verify_conversion(inst, y))
print("  costs:", report.to_record())
print(f"  (all {c1.n} symbols of the first code and "
      f"{len(report.unchanged_per_code[1])} of the second stay in place)")

# rm_merge_apply runs the merge's conversion matrix, so it agrees with
# apply_conversion on every input and lands in RM(r, m).  The symbols a
# conversion reads are the R sets that classify_symbols reports.
rng = random.Random(7)
for _ in range(3):
    x1 = encode(c1, BitVector(c1.k, rng.getrandbits(c1.k)))
    x2 = encode(c2, BitVector(c2.k, rng.getrandbits(c2.k)))
    via_matrix = apply_conversion(inst, y, [x1, x2])
    via_merge = rm_merge_apply(R, M, x1, x2)
    assert via_matrix == via_merge
    assert contains(inst.final_code, via_merge)
    print(f"  merge({x1.to_bits()}, {x2.to_bits()}) ok")

# Chaining: re-split the first code recursively to merge more inputs.
print("\nchain of depth 2 ending at RM(2,4):")
inst, y, report = rm_merge_chain(2, 4, depth=2)
print(f"  lambda={inst.lam}, n_I={inst.n_initial}, k_I={inst.k_initial}")
print("  conversion valid:", verify_conversion(inst, y))
print("  costs:", report.to_record())
