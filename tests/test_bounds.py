from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from convcode import bounds
from convcode.bounds import (
    BoundRecord,
    BoundReport,
    BoundsError,
    ParamSet,
    audit,
    delta_sign_check,
    evaluate_bounds,
    read_lower_delta,
    read_lower_omega,
    unchanged_lower_complement,
    unchanged_total_lower,
    unchanged_upper_dual,
    unchanged_upper_singleton,
)
from convcode.codes import dual_distance, min_distance
from convcode.conversion import CostReport, rm_merge_procedure
from convcode.gf2 import DimensionError
from convcode.oracle import enumerate_conversions

from tests.conftest import small_instances


def example_params():
    # Two [3,2] single-parity codes merged into [5,4] (d_F=2, dual d=5).
    return ParamSet((3, 3), (2, 2), 5, 4, 2, 5)


def rm_params(r, m):
    inst, _, report = rm_merge_procedure(r, m)
    p = ParamSet(
        inst.n_initial, inst.k_initial, inst.n_final, inst.k_final,
        1 << (m - r), 1 << (r + 1),
    )
    return p, report


@dataclass(frozen=True)
class ReferenceRecord:
    """BoundRecord as it was before records judged themselves: the
    verdict is passed in, worked out by _rec below."""

    name: str
    index: Optional[int]
    value: Optional[int]
    applicable: bool
    satisfied: Optional[bool] = None
    slack: Optional[int] = None

    @property
    def tight(self) -> Optional[bool]:
        if self.satisfied is None:
            return None
        return self.satisfied and self.slack == 0

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "i": None if self.index is None else self.index + 1,
            "value": self.value,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "tight": self.tight,
        }


def _rec(
    name: str,
    index: Optional[int],
    value: Optional[int],
    observed: Optional[int],
    direction: str,
) -> ReferenceRecord:
    applicable = value is not None
    if not applicable or observed is None:
        return ReferenceRecord(name, index, value, applicable)
    if direction == "upper":
        return ReferenceRecord(
            name, index, value, True, observed <= value, value - observed
        )
    if direction == "lower":
        return ReferenceRecord(
            name, index, value, True, observed >= value, observed - value
        )
    # equality
    return ReferenceRecord(
        name, index, value, True, observed == value, abs(observed - value)
    )


def build_report_reference(p, u, r) -> BoundReport:
    """bounds._build_report as it was, one hand-written _rec per bound:
    the reference the one-entry-per-bound report is checked against."""
    records = []
    for i in range(p.lam):
        copied = u is not None and u[i] > p.n_initial[i]
        records.append(
            _rec(
                "unchanged_upper_singleton",
                i,
                None if copied else unchanged_upper_singleton(p, i),
                None if u is None else u[i],
                "upper",
            )
        )
        records.append(
            _rec(
                "unchanged_upper_dual",
                i,
                unchanged_upper_dual(p, i),
                None if u is None else u[i],
                "upper",
            )
        )
        others_obs = None if u is None else sum(u) - u[i]
        records.append(
            _rec(
                "unchanged_lower_complement",
                i,
                unchanged_lower_complement(p, i),
                others_obs,
                "lower",
            )
        )
        delta_value = (
            None if u is None else read_lower_delta(p, i, u[i])
        )
        records.append(
            _rec(
                "read_lower_delta",
                i,
                delta_value,
                None if r is None else r[i],
                "lower",
            )
        )
        records.append(
            _rec(
                "read_lower_omega",
                i,
                read_lower_omega(p, i),
                None if r is None else r[i],
                "lower",
            )
        )
    records.append(
        _rec(
            "unchanged_total_lower",
            None,
            unchanged_total_lower(p),
            None if u is None else sum(u),
            "lower",
        )
    )
    pinch_applies = p.lam >= 2 and all(
        unchanged_upper_dual(p, i) is not None for i in range(p.lam)
    )
    records.append(
        _rec(
            "unchanged_total_pinch",
            None,
            p.k_final if pinch_applies else None,
            None if u is None else sum(u),
            "equal",
        )
    )
    return BoundReport(tuple(records))


@st.composite
def params_and_counts(draw):
    """A valid ParamSet (lambda 1 to 4) and either no counts or counts u
    (unchanged) and r (read) per code.  u_i may be 0 or exceed n_Ii, as
    a final code with repeated coordinates allows (copied symbols)."""
    lam = draw(st.integers(1, 4))
    k_i = [draw(st.integers(1, 4)) for _ in range(lam)]
    n_i = [k + draw(st.integers(0, 3)) for k in k_i]
    k_f = sum(k_i)
    n_f = k_f + draw(st.integers(0, 6))
    p = ParamSet(n_i, k_i, n_f, k_f, draw(st.integers(1, n_f - k_f + 1)),
                 draw(st.integers(1, k_f + 1)))
    if draw(st.booleans()):
        return p, None, None
    u = tuple(draw(st.integers(0, n + 2)) for n in n_i)
    r = tuple(draw(st.integers(0, k + 2)) for k in k_i)
    return p, u, r


@settings(max_examples=400, deadline=None)
@given(params_and_counts())
def test_build_report_matches_reference(case):
    p, u, r = case
    report = bounds._build_report(p, u, r)
    reference = build_report_reference(p, u, r)
    assert report.to_records() == reference.to_records()
    verdict = ("value", "applicable", "satisfied", "slack", "tight")
    for rec, ref in zip(report.records, reference.records):
        assert [getattr(rec, a) for a in verdict] == \
            [getattr(ref, a) for a in verdict]


def test_bound_record_rejects_unknown_sense():
    with pytest.raises(BoundsError, match="sense"):
        BoundRecord("unchanged_total_lower", None, 4, 4, "at_least")


def test_paramset_validation():
    with pytest.raises(BoundsError):
        ParamSet((3,), (2, 2), 5, 4, 2, 5)       # ragged
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 1), 5, 4, 2, 5)     # sum(k_I) != k_F
    with pytest.raises(BoundsError):
        ParamSet((1, 3), (2, 2), 5, 4, 2, 5)     # k_I > n_I
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 2), 5, 4, 3, 5)     # Singleton violation
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 2), 5, 4, 0, 5)     # d_F < 1
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 2), 5, 4, 2, 0)     # d_F_dual < 1
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 2), 5, 4, 2, -3)    # d_F_dual < 1
    with pytest.raises(BoundsError):
        ParamSet((3, 3), (2, 2), 5, 4, 2, 6)     # dual Singleton: k_F + 1
    with pytest.raises(BoundsError, match="k_F <= n_F"):
        ParamSet((3, 3), (2, 2), 3, 4, 1, 1)     # k_F > n_F
    # Both Singleton limits are attained: the [5,4] parity code.
    p = ParamSet((3, 3), (2, 2), 5, 4, 2, 5)
    assert (p.d_final, p.d_final_dual) == (2, 5)


def test_singleton_cap_example():
    p = example_params()
    # min{3, 5 - 2 - 2 + 1} = 2 for each code.
    assert unchanged_upper_singleton(p, 0) == 2
    assert unchanged_upper_singleton(p, 1) == 2


def test_dual_cap_example():
    p = example_params()
    # d_F_dual = 5 > k_Ii + 1 = 3: the cap k_Ii = 2 applies to both.
    assert unchanged_upper_dual(p, 0) == 2
    assert unchanged_upper_dual(p, 1) == 2


def test_dual_cap_inapplicable():
    p = ParamSet((3, 3), (2, 2), 6, 4, 2, 3)
    assert unchanged_upper_dual(p, 0) is None


def test_complement_and_total_floors():
    p = example_params()
    assert unchanged_lower_complement(p, 0) == 2
    assert unchanged_total_lower(p) == 4
    single = ParamSet((6,), (4,), 6, 4, 2, 2)
    assert unchanged_lower_complement(single, 0) is None
    assert unchanged_total_lower(single) is None


def test_read_floor_delta():
    p = example_params()
    # u_i = 2: delta = 1, floor = k_Ii - 1 = 1.
    assert read_lower_delta(p, 0, 2) == 1
    # u_i = 1: delta = 0, floor = k_Ii = 2.
    assert read_lower_delta(p, 0, 1) == 2
    assert read_lower_delta(p, 0, 0) == 2
    # u_i > n_Ii (a copied symbol): delta = 3 > k_Ii, floor 0.
    assert read_lower_delta(p, 0, 4) == 0
    with pytest.raises(BoundsError):
        read_lower_delta(p, 0, -1)


def test_read_floor_delta_clamped():
    p = ParamSet((8, 8), (2, 2), 16, 4, 2, 2)
    assert read_lower_delta(p, 0, 8) == 0  # delta = 7 > k_I1


def test_read_floor_omega():
    p = example_params()
    # omega = 5 - 4 - 2 + 2 = 1, floor = k_Ii - 1 = 1.
    assert read_lower_omega(p, 0) == 1
    tight = ParamSet((3, 3), (2, 2), 5, 4, 2, 2)
    assert read_lower_omega(tight, 0) == 1


def test_delta_sign_check():
    p = example_params()
    # d_F = 2 = n_Ii - k_Ii + 1: not strictly larger.
    assert not delta_sign_check(p, 0)
    q = ParamSet((4, 4), (2, 2), 8, 4, 4, 2)
    assert delta_sign_check(q, 0)


def test_index_range_checked():
    p = example_params()
    with pytest.raises(BoundsError):
        unchanged_upper_singleton(p, 2)
    with pytest.raises(BoundsError):
        read_lower_omega(p, -1)


def test_evaluate_bounds_has_no_verdicts():
    report = evaluate_bounds(example_params())
    assert all(r.satisfied is None for r in report.records)
    assert report.violations == ()
    rec = report.find("unchanged_upper_singleton", 0)
    assert rec.value == 2 and rec.applicable and rec.tight is None


@pytest.mark.parametrize("name, index", [
    ("no_such_bound", None),
    ("unchanged_upper_singleton", None),  # a per-code bound, asked as total
    ("unchanged_upper_singleton", 2),  # past lambda = 2
    ("unchanged_total_lower", 0),  # a total bound, asked per code
])
def test_find_refuses_a_record_not_in_the_report(name, index):
    with pytest.raises(KeyError) as info:
        evaluate_bounds(example_params()).find(name, index)
    assert info.value.args == ((name, index),)


def test_audit_rm_2_4():
    p, costs = rm_params(2, 4)
    assert (p.n_initial, p.k_initial) == ((8, 8), (7, 4))
    assert (p.n_final, p.k_final, p.d_final, p.d_final_dual) == (16, 11, 4, 8)
    report = audit(p, costs)
    assert not report.violations

    sing1 = report.find("unchanged_upper_singleton", 0)
    assert sing1.value == 8 and sing1.tight
    sing2 = report.find("unchanged_upper_singleton", 1)
    assert sing2.value == 6 and sing2.satisfied and sing2.slack == 2

    dual1 = report.find("unchanged_upper_dual", 0)
    assert not dual1.applicable  # d_F_dual = 8 is not > k_I1 + 1 = 8
    dual2 = report.find("unchanged_upper_dual", 1)
    assert dual2.value == 4 and dual2.tight

    comp1 = report.find("unchanged_lower_complement", 0)
    assert comp1.value == 4 and comp1.tight

    delta1 = report.find("read_lower_delta", 0)
    assert delta1.value == 2 and delta1.slack == 5
    delta2 = report.find("read_lower_delta", 1)
    assert delta2.value == 3 and delta2.slack == 1

    omega1 = report.find("read_lower_omega", 0)
    omega2 = report.find("read_lower_omega", 1)
    assert omega1.value == 1 and omega2.value == 1

    total = report.find("unchanged_total_lower", None)
    assert total.value == 11 and total.satisfied and total.slack == 1

    pinch = report.find("unchanged_total_pinch", None)
    assert not pinch.applicable


@pytest.mark.parametrize(
    "r,m", [(r, m) for m in range(3, 7) for r in range(1, m - 1)]
)
def test_audit_rm_sweep_no_violations(r, m):
    p, costs = rm_params(r, m)
    report = audit(p, costs)
    assert not report.violations


def test_audit_pinch_applies():
    p = example_params()
    costs = CostReport(
        (frozenset({0, 1}), frozenset({2, 3})),
        frozenset({4}),
        (frozenset({2}), frozenset({2})),
    )
    report = audit(p, costs)
    pinch = report.find("unchanged_total_pinch", None)
    assert pinch.applicable and pinch.value == 4 and pinch.tight
    assert not report.violations


def test_audit_rejects_mismatched_report():
    p, costs = rm_params(2, 4)
    with pytest.raises(BoundsError):
        audit(example_params(), costs)
    # Three codes' counts against the two-code parameter set.
    costs = CostReport(
        (frozenset({0, 1}), frozenset({2}), frozenset({3})),
        frozenset({4}),
        (frozenset(), frozenset(), frozenset()),
    )
    with pytest.raises(BoundsError, match="lambda"):
        audit(example_params(), costs)


@pytest.mark.parametrize("reads", [
    (frozenset({2}),),
    (frozenset({2}), frozenset({2}), frozenset()),
], ids=["fewer-read-sets", "more-read-sets"])
def test_report_needs_one_read_set_per_unchanged_set(reads):
    # Both tuples hold one set per initial code: a report with fewer read
    # sets would crash audit, and one with more would lose the extras.
    with pytest.raises(DimensionError, match="one read set"):
        CostReport((frozenset({0, 1}), frozenset({2, 3})), frozenset({4}),
                   reads)


@pytest.mark.parametrize("sets", [
    ((frozenset({0, 1}), frozenset({2, 3})), frozenset({4}),
     (frozenset({2}), frozenset({2}))),
    ((frozenset({0}), frozenset({1})), frozenset({2, 3, 4}),
     (frozenset({0, 1}), frozenset({0, 1}))),
    ((frozenset({0, 1, 2}), frozenset({3, 4})), frozenset(),
     (frozenset(), frozenset())),
])
def test_report_counts_are_stored_from_its_sets(sets):
    unchanged, new, reads = sets
    costs = CostReport(*sets)
    u, r = tuple(map(len, unchanged)), tuple(map(len, reads))
    assert (costs.unchanged_counts, costs.read_counts) == (u, r)
    assert costs.unchanged_total == sum(u)
    assert costs.write_cost == len(new)
    assert costs.read_cost == sum(r)
    assert costs.access_cost == sum(r) + len(new)
    # The three sets are its only fields, so equality, hashing and repr
    # see only them.
    assert [f.name for f in fields(CostReport)] == [
        "unchanged_per_code", "new_symbols", "read_per_code"]
    twin = CostReport(*sets)
    object.__setattr__(twin, "access_cost", -1)
    assert twin == costs and hash(twin) == hash(costs)
    assert repr(twin) == (f"CostReport(unchanged_per_code={unchanged!r}, "
                          f"new_symbols={new!r}, read_per_code={reads!r})")
    # audit gets the records it got when it counted the sets on each read.
    p = example_params()
    assert audit(p, costs) == bounds._build_report(p, u, r)


# Each record, its constructor's inputs and the values its __post_init__
# derives from them.
@pytest.mark.parametrize("build, inputs, derived", [
    (lambda: rm_merge_procedure(2, 4)[0], ("initial_codes", "final_code"),
     ("n_initial", "k_initial", "n_final", "k_final",
      "total_initial_length")),
    (lambda: rm_merge_procedure(2, 4)[2],
     ("unchanged_per_code", "new_symbols", "read_per_code"),
     ("unchanged_counts", "unchanged_total", "write_cost", "read_counts",
      "read_cost", "access_cost")),
    (example_params, ("n_initial", "k_initial", "n_final", "k_final",
                      "d_final", "d_final_dual"), ("_hash",)),
    (lambda: evaluate_bounds(example_params()), ("records",),
     ("violations",)),
], ids=["ConvertibleInstance", "CostReport", "ParamSet", "BoundReport"])
def test_derived_values_are_frozen_attributes_not_fields(build, inputs,
                                                         derived):
    record = build()
    assert tuple(f.name for f in fields(record)) == inputs
    for name in derived:
        # Set once, on the instance, when it is built.
        assert name in vars(record)
        assert f"{name}=" not in repr(record)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))


@settings(max_examples=400, deadline=None)
@given(params_and_counts())
def test_bounds_match_their_sums_over_the_other_codes(case):
    # ParamSet refuses sum(k_I) != k_F, so k_F - k_Ii is the sum of the
    # other codes' dimensions that the paper's formulas state.
    p = case[0]
    for i in range(p.lam):
        others = sum(k for j, k in enumerate(p.k_initial) if j != i)
        assert unchanged_upper_singleton(p, i) == min(
            p.n_initial[i], p.n_final - p.d_final - others + 1)
        assert unchanged_lower_complement(p, i) == (
            others if p.lam >= 2 else None)
        omega = p.n_final - 2 * p.d_final - others + 2
        assert read_lower_omega(p, i) == (
            p.k_initial[i] if omega <= 0 else max(p.k_initial[i] - omega, 0))


def test_violations_are_stored_once():
    # A wasteful report: |U| = 2 against the pinch's 4, so floors fail.
    costs = CostReport(
        (frozenset({0}), frozenset({1})),
        frozenset({2, 3, 4}),
        (frozenset({0, 1}), frozenset({0, 1})),
    )
    report = audit(example_params(), costs)
    first = report.violations
    assert first
    assert report.violations is first
    assert first == tuple(r for r in report.records if r.satisfied is False)
    assert not evaluate_bounds(example_params()).violations


def test_to_records_one_indexed():
    report = evaluate_bounds(example_params())
    recs = report.to_records()
    indexed = [r["i"] for r in recs if r["name"] == "unchanged_upper_singleton"]
    assert indexed == [1, 2]
    assert all(
        r["i"] is None for r in recs if r["name"] == "unchanged_total_lower"
    )


@settings(max_examples=40, deadline=None)
@given(small_instances(max_candidates=1536))
def test_audit_memo_matches_uncached(inst):
    assume(inst.n_final > inst.k_final)  # d_F_dual needs a nonzero dual
    cf = inst.final_code
    p = ParamSet(inst.n_initial, inst.k_initial, inst.n_final, inst.k_final,
                 min_distance(cf), dual_distance(cf))
    # Also audit's totality: small_instances draws final codes with
    # repeated and zero coordinates, and no report may raise.
    for _, report in enumerate_conversions(inst):
        expected = bounds._build_report(
            p, report.unchanged_counts, report.read_counts
        )
        assert audit(p, report) == expected


def test_audit_memo_is_bounded_and_shared():
    assert bounds._audit_counts.cache_info().maxsize is not None
    p, costs = rm_params(2, 4)
    first = audit(p, costs)
    assert audit(p, costs) is first  # same counts: the shared report
    # A ParamSet built from lists stores tuples, so it hits the same memo.
    listed = ParamSet(list(p.n_initial), list(p.k_initial), p.n_final,
                      p.k_final, p.d_final, p.d_final_dual)
    assert audit(listed, costs) is first


def test_param_set_hashes_once():
    p = example_params()
    q = ParamSet([3, 3], [2, 2], 5, 4, 2, 5)
    fields_tuple = ((3, 3), (2, 2), 5, 4, 2, 5)
    assert p == q and hash(p) == hash(q)
    assert p._hash == hash(fields_tuple) == hash(p)
    # Equality and repr see only the six fields.
    assert repr(p) == ("ParamSet(n_initial=(3, 3), k_initial=(2, 2), "
                       "n_final=5, k_final=4, d_final=2, d_final_dual=5)")
    assert p != ParamSet((3, 3), (2, 2), 5, 4, 2, 4)
    # hash returns the stored value; it does not hash the fields again.
    object.__setattr__(q, "_hash", 12345)
    assert hash(q) == 12345
    # A fresh but equal parameter set finds the very memoised report.
    costs = CostReport(
        (frozenset({0, 1}), frozenset({2, 3})),
        frozenset({4}),
        (frozenset({2}), frozenset({2})),
    )
    first = audit(p, costs)
    assert audit(ParamSet(*fields_tuple), costs) is first


def test_audit_error_is_not_memoised():
    # Four unchanged and two new symbols: six final coordinates, not n_F = 5.
    costs = CostReport(
        (frozenset({0, 1}), frozenset({2, 3})),
        frozenset({4, 5}),
        (frozenset({2}), frozenset({2})),
    )
    for _ in range(2):
        with pytest.raises(BoundsError, match="does not cover n_F"):
            audit(example_params(), costs)


def test_audit_copied_symbol_makes_singleton_inapplicable():
    # Degenerate final code (repeated coordinate): one initial symbol
    # copied to two final positions gives |U_2| = 2 > n_I2 = 1.
    p = ParamSet((2, 1), (1, 1), 4, 2, 2, 2)
    costs = CostReport(
        (frozenset({0}), frozenset({1, 2})),
        frozenset({3}),
        (frozenset({1}), frozenset()),
    )
    report = audit(p, costs)
    sing2 = report.find("unchanged_upper_singleton", 1)
    assert (sing2.value, sing2.applicable, sing2.satisfied) == \
        (None, False, None)
    assert report.find("unchanged_upper_singleton", 0).satisfied
    # delta_2 = 2 - 2 + 1 = 1, so the floor is k_I2 - 1 = 0.
    delta2 = report.find("read_lower_delta", 1)
    assert delta2.value == 0 and delta2.satisfied
    assert not report.violations
