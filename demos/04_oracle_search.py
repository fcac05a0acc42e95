"""Exhaustive search for the cheapest conversion of small instances.

Every valid conversion matrix Y solves G_I . Y = M . G_F for exactly
one invertible k_F x k_F matrix M: column j of Y is any y whose syndrome
G_I . y is column j of M . G_F, from a table that buckets every y by its
syndrome.  The oracle walks that space, each matrix once, prunes with an
admissible cost floor, and returns the minimum access cost.
"""

import random

from convcode import (
    candidate_count,
    classify_symbols,
    default_conversion,
    dual_distance,
    make_instance,
    min_access_cost,
    min_distance,
    random_code,
)

rng = random.Random(2024)
print(f"{'n_I':>10} {'k_I':>8} {'n_F':>4} {'d_F':>4} "
      f"{'cands':>8} {'default':>8} {'optimal':>8}")
shown = 0
while shown < 8:
    k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
    c1 = random_code(k1 + rng.randint(0, 1), k1, rng)
    c2 = random_code(k2 + rng.randint(0, 1), k2, rng)
    k_f = k1 + k2
    cf = random_code(rng.randint(k_f + 1, k_f + 2), k_f, rng)
    if min_distance(cf) < 2 or dual_distance(cf) < 3:
        continue  # skip degenerate final codes
    inst = make_instance([c1, c2], cf)
    if candidate_count(inst) > 200_000:
        continue
    fallback = classify_symbols(inst, default_conversion(inst))
    _, best = min_access_cost(inst)
    print(f"{str(inst.n_initial):>10} {str(inst.k_initial):>8} "
          f"{inst.n_final:>4} {min_distance(cf):>4} "
          f"{candidate_count(inst):>8} {fallback.access_cost:>8} "
          f"{best.access_cost:>8}")
    shown += 1

print("\nThe optimum never exceeds the generic fallback, and often the")
print("gap is real: cheap conversions reuse symbols the fallback rewrites.")
