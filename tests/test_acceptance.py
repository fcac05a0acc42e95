"""Acceptance suite: one test per headline claim of the package.

Each test prints a single [PASS]/[FAIL] line (bypassing capture) so the
suite doubles as a human-readable checklist.  Stated time budgets are
asserted, not just documented.
"""

import math
import random
import time
from contextlib import contextmanager

from convcode.bounds import ParamSet, audit
from convcode.codes import (
    decode_from_positions,
    dual,
    dual_distance,
    encode,
    from_generator,
    min_distance,
    puncture,
    random_code,
    shorten,
)
from convcode.conversion import (
    classify_symbols,
    default_conversion,
    make_instance,
    rm_merge_procedure,
    verify_conversion,
)
from convcode.gf2 import BitMatrix, BitVector
from convcode.oracle import (
    candidate_count,
    enumerate_conversions,
    min_access_cost,
)
from convcode.reedmuller import (
    low_weight_positions,
    rm_code,
    rm_dimension,
    rm_generator,
)

from tests.conftest import GF_ROWS, GI1_ROWS, GI2_ROWS, same_code


@contextmanager
def criterion(capsys, number, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def worked_example():
    c1 = from_generator(BitMatrix.from_rows(GI1_ROWS))
    c2 = from_generator(BitMatrix.from_rows(GI2_ROWS))
    cf = from_generator(BitMatrix.from_rows(GF_ROWS))
    inst = make_instance([c1, c2], cf)
    from convcode.conversion import ConversionMatrix

    y = ConversionMatrix(
        BitMatrix.from_columns(
            [1 << 0, 1 << 1, 1 << 3, 1 << 4, (1 << 2) | (1 << 5)], 6
        ),
        (3, 3),
    )
    return inst, y


def test_criterion_1_worked_example(capsys):
    with criterion(capsys, 1, "worked-example costs (access 3, default 5)", 1.0):
        inst, y = worked_example()
        assert verify_conversion(inst, y)
        report = classify_symbols(inst, y)
        assert report.write_cost == 1
        assert report.read_cost == 2
        assert report.access_cost == 3
        assert report.unchanged_total == 4
        fallback = classify_symbols(inst, default_conversion(inst))
        assert fallback.access_cost == 5


def test_criterion_2_oracle_optimality(capsys):
    with criterion(capsys, 2, "exhaustive oracle certifies optimum 3", 60.0):
        inst, _ = worked_example()
        _, best = min_access_cost(inst)
        assert best.access_cost == 3


def test_criterion_3_rm_generator_fidelity(capsys):
    with criterion(capsys, 3, "RM(2,3) generator matches bit for bit", 5.0):
        expected = BitMatrix.from_rows([
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, 1],
        ])
        assert rm_generator(2, 3) == expected


def _plotkin_span(r, m):
    """Rows spanning {(x, x+y) : x in RM(r, m-1), y in RM(r-1, m-1)},
    with the conventions RM(m', m') for r > m' and the zero code for
    r = 0 on the y side."""
    if m == 1:
        words = [0b11] + ([0b10] if r >= 1 else [])
        return from_generator(BitMatrix(words, 2))
    half = 1 << (m - 1)
    gx = rm_generator(min(r, m - 1), m - 1)
    words = [w | (w << half) for w in gx.row_words]
    if r >= 1:
        gy = rm_generator(r - 1, m - 1)
        words += [w << half for w in gy.row_words]
    return from_generator(BitMatrix(words, 2 * half))


def test_criterion_4_rm_property_suite(capsys):
    with criterion(capsys, 4, "RM dimension/dual/Plotkin/distance, m <= 7", 300.0):
        for m in range(1, 8):
            for r in range(0, m + 1):
                code = rm_code(r, m)
                k = code.k
                assert k == rm_dimension(r, m)
                assert k == sum(math.comb(m, i) for i in range(r + 1))

                d_target = 1 << (m - r)
                if k <= 24:
                    code._d = None  # force the exhaustive scan
                    assert min_distance(code) == d_target
                else:
                    # Witness: the top-degree monomial row has the target
                    # weight, so d <= target; 3,000 random nonzero messages
                    # confirm that no lighter codeword shows up.
                    witness = code.generator.row_words[k - 1]
                    assert witness.bit_count() == d_target
                    rng = random.Random(m * 8 + r)
                    for _ in range(3000):
                        u = 0
                        while not u:
                            u = rng.getrandbits(k)
                        word = encode(code, BitVector(k, u))
                        assert word.weight() >= d_target

                dual_rm = dual(code)
                if r == m:
                    assert dual_rm.is_zero
                else:
                    assert same_code(dual_rm, rm_code(m - r - 1, m))

                if m >= 1:
                    assert same_code(_plotkin_span(r, m), code)


def test_criterion_5_merge_cost_formulas(capsys):
    with criterion(capsys, 5, "RM merge cost formulas, 1 <= r < m <= 6", 120.0):
        for m in range(2, 7):
            for r in range(1, m):
                inst, y, report = rm_merge_procedure(r, m)
                n1, n2 = inst.n_initial
                k1, k2 = inst.k_initial
                assert verify_conversion(inst, y)
                assert report.unchanged_counts[0] == n1
                assert report.unchanged_counts[1] == k2
                assert report.read_counts[0] <= k1
                assert report.read_counts[1] == min(k2, n2 - k2)


def test_criterion_6_bound_comparison_m4(capsys):
    with criterion(capsys, 6, "bound comparison at r=2, m=4", 60.0):
        inst, _, report = rm_merge_procedure(2, 4)
        d_f = min_distance(inst.final_code)
        d_f_dual = dual_distance(inst.final_code)
        assert d_f == 4 and d_f_dual == 8
        p = ParamSet(
            inst.n_initial, inst.k_initial, inst.n_final, inst.k_final,
            d_f, d_f_dual,
        )
        audited = audit(p, report)
        assert not audited.violations

        assert not audited.find("unchanged_upper_dual", 0).applicable
        dual2 = audited.find("unchanged_upper_dual", 1)
        assert dual2.applicable and dual2.value == 4

        sing1 = audited.find("unchanged_upper_singleton", 0)
        assert sing1.value == 8 and sing1.tight

        delta1 = audited.find("read_lower_delta", 0)
        delta2 = audited.find("read_lower_delta", 1)
        assert delta1.value == 2 and report.read_counts[0] == 7
        assert delta2.value == 3 and report.read_counts[1] == 4
        assert not delta1.tight and not delta2.tight  # strictly slack


def _random_small_instance(rng, max_candidates):
    """A random lambda=2 merge instance small enough to enumerate fully.

    The final code is required to have d >= 2 and dual distance >= 3,
    i.e. no identically-zero and no repeated coordinates; the bound
    statements implicitly treat final coordinates as pairwise distinct
    symbols, which degenerate coordinates break.
    """
    while True:
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        n1 = k1 + rng.randint(0, 1)
        n2 = k2 + rng.randint(0, 1)
        k_f = k1 + k2
        n_f = rng.randint(k_f + 1, min(7, k_f + 3))
        c1 = random_code(n1, k1, rng)
        c2 = random_code(n2, k2, rng)
        cf = random_code(n_f, k_f, rng)
        if min_distance(cf) < 2 or dual_distance(cf) < 3:
            continue
        inst = make_instance([c1, c2], cf)
        if candidate_count(inst) <= max_candidates:
            return inst


# Bounds that hold for every individual conversion matrix.  The
# unchanged-symbol floors are excluded here on purpose: a conversion is
# free to keep fewer symbols than the parameters allow (an exhaustive
# check over the worked example finds valid matrices keeping none), so
# those floors only bind conversions that keep the maximum; they are
# audited on the constructed conversions instead.
PER_MATRIX_BOUNDS = frozenset({
    "unchanged_upper_singleton",
    "unchanged_upper_dual",
    "read_lower_delta",
    "read_lower_omega",
})


def test_criterion_7_bound_soundness_sweep(capsys):
    with criterion(capsys, 7, "bounds hold on every enumerated conversion", 600.0):
        rng = random.Random(2024)
        checked = 0
        for _ in range(10):
            inst = _random_small_instance(rng, max_candidates=60_000)
            p = ParamSet(
                inst.n_initial,
                inst.k_initial,
                inst.n_final,
                inst.k_final,
                min_distance(inst.final_code),
                dual_distance(inst.final_code),
            )
            # The symbol-keeping floors bind the canonical conversion.
            fallback = classify_symbols(inst, default_conversion(inst))
            assert not audit(p, fallback).violations
            for _, report in enumerate_conversions(inst):
                audited = audit(p, report)
                bad = [
                    v for v in audited.violations if v.name in PER_MATRIX_BOUNDS
                ]
                assert not bad, (p, report.to_record(), bad)
                checked += 1
        assert checked > 0


def test_criterion_8_structural_properties(capsys):
    with criterion(capsys, 8, "structural identities and round trips", 120.0):
        rng = random.Random(77)

        # Shorten/puncture duality: (C(S))^perp = (C^perp)|S.
        for _ in range(500):
            n = rng.randint(2, 12)
            k = rng.randint(1, n)
            c = random_code(n, k, rng)
            s = sorted(rng.sample(range(n), rng.randint(1, n)))
            lhs = dual(shorten(c, s))
            rhs = puncture(dual(c), s)
            if lhs.is_zero or rhs.is_zero:
                assert lhs.is_zero == rhs.is_zero
            else:
                assert same_code(lhs, rhs)

        # Puncturing keeps the dimension when |S| >= n - d + 1.
        for _ in range(500):
            n = rng.randint(2, 12)
            k = rng.randint(1, n)
            c = random_code(n, k, rng)
            d = min_distance(c)
            size = rng.randint(max(1, n - d + 1), n)
            s = sorted(rng.sample(range(n), size))
            assert puncture(c, s).k == c.k

        # |W| = n_F - |U| on every classification produced so far.
        inst, y = worked_example()
        reports = [classify_symbols(inst, y)]
        for m in range(2, 6):
            for r in range(1, m):
                mi, _, rep = rm_merge_procedure(r, m)
                reports.append(rep)
                assert rep.write_cost == mi.n_final - rep.unchanged_total
        assert reports[0].write_cost == inst.n_final - reports[0].unchanged_total

        # Encode/decode round trips on the weight-<=r information sets.
        for m in range(1, 7):
            for r in range(0, m + 1):
                code = rm_code(r, m)
                s = low_weight_positions(r, m)
                for _ in range(5):
                    u = BitVector(code.k, rng.getrandbits(code.k))
                    cw = encode(code, u)
                    vals = BitVector.from_bits([cw[p] for p in s])
                    assert decode_from_positions(code, s, vals) == u


def test_criterion_9_pinch(capsys):
    with criterion(capsys, 9, "dual caps pinch |U| to exactly k_F", 300.0):
        # The worked example qualifies (d_F_dual = 5 > k_Ii + 1 = 3), so
        # spot-check its known conversions before the exhaustive pass.
        inst, y = worked_example()
        assert dual_distance(inst.final_code) == 5
        for report in (
            classify_symbols(inst, y),
            classify_symbols(inst, default_conversion(inst)),
            min_access_cost(inst)[1],
        ):
            assert report.unchanged_total == inst.k_final

        instances = []
        rng = random.Random(99)
        attempts = 0
        while len(instances) < 3 and attempts < 400:
            attempts += 1
            cand = _random_small_instance(rng, max_candidates=40_000)
            dd = dual_distance(cand.final_code)
            if all(dd > k + 1 for k in cand.k_initial):
                instances.append(cand)
        assert len(instances) >= 3, "could not generate enough pinch instances"

        for inst in instances:
            dd = dual_distance(inst.final_code)
            p = ParamSet(
                inst.n_initial,
                inst.k_initial,
                inst.n_final,
                inst.k_final,
                min_distance(inst.final_code),
                dd,
            )
            # Upper direction holds for every conversion: the dual caps
            # force |U_i| <= k_Ii, hence |U| <= k_F ...
            best_total = -1
            for _, report in enumerate_conversions(inst):
                assert all(
                    u <= k
                    for u, k in zip(report.unchanged_counts, inst.k_initial)
                )
                assert report.unchanged_total <= inst.k_final
                best_total = max(best_total, report.unchanged_total)
            # ... and the cap is attained, pinching the maximum to k_F.
            assert best_total == inst.k_final
            # A conversion keeping full information sets meets it exactly
            # and the audit flags the pinch as tight.
            report = classify_symbols(inst, default_conversion(inst))
            audited = audit(p, report)
            pinch = audited.find("unchanged_total_pinch", None)
            assert pinch.applicable and pinch.tight
            assert not audited.violations
