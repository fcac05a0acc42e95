"""Closed-form lower/upper bounds on merge-conversion costs.

All evaluators take a plain parameter set, so the caller may supply the
final distance and dual distance either from the exhaustive scan or
from a known formula.  Bounds that do not apply to the given parameters
are reported as inapplicable rather than omitted.

Each bound is one public function plus one entry in _build_report: a
BoundRecord with its name, code index, value, observed count and sense
(upper, lower or equal), which judges itself once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from .conversion import CostReport


class BoundsError(ValueError):
    """Invalid parameter set or mismatched report."""


@dataclass(frozen=True)
class ParamSet:
    """Merge-instance parameters used by the bound formulas.

    It refuses sum(k_I) != k_F, so the formulas take each sum_{j!=i} k_Ij
    as k_F - k_Ii.  Its hash, that of the tuple of the six fields, is
    stored once, when it is built, as _hash (int), since audit looks its
    memo up by the parameter set for every candidate of an oracle sweep.
    _hash is an attribute, not a field, so equality and repr see only
    the six fields.
    """

    n_initial: Tuple[int, ...]
    k_initial: Tuple[int, ...]
    n_final: int
    k_final: int
    d_final: int
    d_final_dual: int

    def __post_init__(self):
        # Tuples keep the parameter set hashable, so audit can memoise it.
        object.__setattr__(self, "n_initial", tuple(self.n_initial))
        object.__setattr__(self, "k_initial", tuple(self.k_initial))
        if len(self.n_initial) != len(self.k_initial) or not self.n_initial:
            raise BoundsError("n_I and k_I must be nonempty and equal length")
        if sum(self.k_initial) != self.k_final:
            raise BoundsError("sum(k_I) must equal k_F")
        for n, k in zip(self.n_initial, self.k_initial):
            if not 1 <= k <= n:
                raise BoundsError("need 1 <= k_I <= n_I")
        if not 1 <= self.k_final <= self.n_final:
            raise BoundsError("need 1 <= k_F <= n_F")
        if not 1 <= self.d_final <= self.n_final - self.k_final + 1:
            raise BoundsError("need 1 <= d_F <= n_F - k_F + 1 (Singleton)")
        if not 1 <= self.d_final_dual <= self.k_final + 1:
            raise BoundsError("need 1 <= d_F_dual <= k_F + 1 (dual Singleton)")
        object.__setattr__(self, "_hash", hash((
            self.n_initial, self.k_initial, self.n_final, self.k_final,
            self.d_final, self.d_final_dual)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def lam(self) -> int:
        return len(self.n_initial)

    def to_record(self) -> dict:
        return {
            "lambda": self.lam,
            "n_I": list(self.n_initial),
            "k_I": list(self.k_initial),
            "n_F": self.n_final,
            "k_F": self.k_final,
            "d_F": self.d_final,
            "d_F_dual": self.d_final_dual,
        }

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.lam:
            raise BoundsError(f"code index {i} out of range")


def unchanged_upper_singleton(p: ParamSet, i: int) -> int:
    """Singleton-type cap: |U_i| <= min{n_Ii, n_F - d_F - sum_{j!=i} k_Ij + 1}."""
    p._check_index(i)
    others = p.k_final - p.k_initial[i]
    return min(p.n_initial[i], p.n_final - p.d_final - others + 1)


def unchanged_upper_dual(p: ParamSet, i: int) -> Optional[int]:
    """Dual-distance cap: |U_i| <= k_Ii, applicable when d_F_dual > k_Ii + 1."""
    p._check_index(i)
    if p.d_final_dual > p.k_initial[i] + 1:
        return p.k_initial[i]
    return None


def unchanged_lower_complement(p: ParamSet, i: int) -> Optional[int]:
    """Floor on the others: sum_{j!=i} |U_j| >= sum_{j!=i} k_Ij (lambda >= 2)."""
    p._check_index(i)
    if p.lam < 2:
        return None
    return p.k_final - p.k_initial[i]


def unchanged_total_lower(p: ParamSet) -> Optional[int]:
    """Total floor: |U| >= k_F when lambda >= 2."""
    if p.lam < 2:
        return None
    return p.k_final


def read_lower_delta(p: ParamSet, i: int, u_i: int) -> int:
    """Read floor from delta_i = u_i - d_F + 1: k_Ii if delta <= 0, else
    k_Ii - delta_i (clamped at 0).  Any u_i >= 0 is accepted, also
    u_i > n_Ii, which a final code with repeated coordinates allows."""
    p._check_index(i)
    if u_i < 0:
        raise BoundsError("u_i must be >= 0")
    delta = u_i - p.d_final + 1
    if delta <= 0:
        return p.k_initial[i]
    return max(p.k_initial[i] - delta, 0)


def read_lower_omega(p: ParamSet, i: int) -> int:
    """Report-free read floor from omega_i = n_F - 2 d_F - sum_{j!=i} k_Ij + 2."""
    p._check_index(i)
    omega = p.n_final - 2 * p.d_final - (p.k_final - p.k_initial[i]) + 2
    if omega <= 0:
        return p.k_initial[i]
    return max(p.k_initial[i] - omega, 0)


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated bound, judged once when it is built.

    sense is "upper" (observed <= value), "lower" (observed >= value) or
    "equal".  A bound with a value is applicable; audited against an
    observed count it also stores satisfied and slack (the margin by
    which the count clears value, or for "equal" its distance from
    value), else both stay None.  The verdict is stored, not recomputed
    on each read; audits are memoised, so a sweep reads a record's
    verdict only when its BoundReport is built.  applicable, satisfied
    and slack are attributes, not fields, so equality and repr see only
    the five inputs."""

    name: str
    index: Optional[int]  # 0-based code index, None for global bounds
    value: Optional[int]
    observed: Optional[int]
    sense: str

    def __post_init__(self):
        if self.sense not in ("upper", "lower", "equal"):
            raise BoundsError(f"unknown bound sense {self.sense!r}")
        satisfied = slack = None
        if self.value is not None and self.observed is not None:
            gap = self.observed - self.value
            slack = {"upper": -gap, "lower": gap, "equal": abs(gap)}[self.sense]
            satisfied = gap == 0 if self.sense == "equal" else slack >= 0
        object.__setattr__(self, "applicable", self.value is not None)
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "slack", slack)

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


@dataclass(frozen=True)
class BoundReport:
    """The bound records.  violations (Tuple[BoundRecord, ...]), those
    judged unsatisfied, is stored once, as oracle sweeps read it for
    every candidate; it is an attribute, not a field, so equality,
    hashing and repr see only the records."""

    records: Tuple[BoundRecord, ...]

    def __post_init__(self):
        bad = tuple(r for r in self.records if r.satisfied is False)
        object.__setattr__(self, "violations", bad)

    def find(self, name: str, index: Optional[int] = None) -> BoundRecord:
        for r in self.records:
            if r.name == name and r.index == index:
                return r
        raise KeyError((name, index))

    def to_records(self) -> List[dict]:
        return [r.to_record() for r in self.records]


def evaluate_bounds(p: ParamSet) -> BoundReport:
    """All bound values for p, with no cost report to compare against."""
    return _build_report(p, None, None)


def audit(p: ParamSet, report: CostReport) -> BoundReport:
    """Evaluate every bound against a cost report.

    The upper bounds (singleton, dual) and the read floors (delta, omega)
    hold for every valid linear conversion, so a violation there is a
    bug.  The unchanged-symbol floors (complement, total, pinch) assume
    a conversion that keeps as many symbols unchanged as the parameters
    allow; the constructions in this package satisfy them, but a
    deliberately wasteful conversion matrix can report fewer unchanged
    symbols and show up as a violation.

    A final code with repeated coordinates lets one initial symbol be
    copied to several final positions, so |U_i| counts final coordinates
    and may exceed n_Ii.  The Singleton cap is then inapplicable to code
    i (its record has no value), and the delta floor takes u_i as it is.

    The bounds read only the per-code counts of unchanged and read
    symbols, so after the two report checks the result is memoised by
    (p, unchanged_counts, read_counts) and shared between reports with
    the same counts; a BoundsError is not memoised and raises every time.
    """
    # CostReport holds as many read sets as unchanged sets.
    if len(report.unchanged_per_code) != p.lam:
        raise BoundsError("report and parameter set disagree on lambda")
    u = report.unchanged_counts
    if sum(u) + report.write_cost != p.n_final:
        raise BoundsError("report does not cover n_F final coordinates")
    return _audit_counts(p, u, report.read_counts)


def _build_report(
    p: ParamSet,
    u: Optional[Tuple[int, ...]],
    r: Optional[Tuple[int, ...]],
) -> BoundReport:
    """Every bound for p, audited against the counts u (unchanged) and r
    (read) per code when given: one entry per bound, in record order."""
    total = None if u is None else sum(u)
    records: List[BoundRecord] = []
    for i in range(p.lam):
        u_i = None if u is None else u[i]
        r_i = None if r is None else r[i]
        copied = u_i is not None and u_i > p.n_initial[i]
        records += (
            BoundRecord("unchanged_upper_singleton", i, None if copied
                        else unchanged_upper_singleton(p, i), u_i, "upper"),
            BoundRecord("unchanged_upper_dual", i, unchanged_upper_dual(p, i),
                        u_i, "upper"),
            BoundRecord("unchanged_lower_complement", i,
                        unchanged_lower_complement(p, i),
                        None if u is None else total - u_i, "lower"),
            BoundRecord("read_lower_delta", i, None if u is None
                        else read_lower_delta(p, i, u_i), r_i, "lower"),
            BoundRecord("read_lower_omega", i, read_lower_omega(p, i), r_i,
                        "lower"),
        )
    # Pinch: when the dual cap applies to every code and lambda >= 2, the
    # upper and lower bounds force |U| = k_F exactly.
    pinch_applies = p.lam >= 2 and all(
        r.applicable for r in records if r.name == "unchanged_upper_dual")
    records += (
        BoundRecord("unchanged_total_lower", None, unchanged_total_lower(p),
                    total, "lower"),
        BoundRecord("unchanged_total_pinch", None,
                    p.k_final if pinch_applies else None, total, "equal"),
    )
    return BoundReport(tuple(records))


# Bounded: one oracle sweep meets a few hundred distinct count tuples.
_audit_counts = lru_cache(maxsize=256)(_build_report)
