"""Assemble a step map realizing prescribed cellwise probabilities.

A realization spec lists groups (home set A_c, pieces (a_q, delta_q)); the
densities of a group must add up, at every omega, to the slice measure of
its home set, and the home sets partition the square.  Assembly splits each
home along its densities and labels the parts; the probability identity
mu[pred(f) on B meet A_c] = sum of integral(delta_q over B) for the
satisfying q then holds exactly and is re-checked from scratch by
verify_probability_identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .measure import (
    Profile,
    RationalSet,
    Rect,
    StepMap,
    ZERO,
    _columns,
    density_split,
    slice_profile,
)

__all__ = [
    "RealizationSpec",
    "assemble_realization",
    "verify_probability_identity",
    "RealizationReport",
    "ReportRow",
]


class RealizationSpec:
    """Groups of (home set, [(value, density)]) with exact marginals."""

    def __init__(self, groups):
        norm = []
        for gi, (home, pieces) in enumerate(groups):
            if not isinstance(home, RationalSet):
                raise ValueError(f"group {gi}: home set must be a RationalSet")
            pieces = tuple(pieces)
            if not pieces:
                raise ValueError(f"group {gi} has no pieces")
            vals = [v for v, _ in pieces]
            if len(set(vals)) != len(vals):
                raise ValueError(f"group {gi} repeats a target value")
            for v, p in pieces:
                if not isinstance(p, Profile):
                    raise TypeError(f"density must be a Profile, got {p!r}")
                if not p.is_nonnegative():
                    raise ValueError(f"group {gi}, value {v!r}: "
                                     "density must be nonnegative")
            total = Profile()
            for _, p in pieces:
                total = total.add(p)
            want = slice_profile(home)
            if total != want:
                lo, hi = _first_difference(total, want)
                raise ValueError(
                    f"group {gi}: density sum mismatch on [{lo},{hi}): "
                    f"expected {want.at(lo)}, got {total.at(lo)}")
            norm.append((home, pieces))
        acc = RationalSet.empty()
        for gi, (home, _) in enumerate(norm):
            if not acc.disjoint_from(home):
                raise ValueError(f"group {gi} overlaps an earlier home set")
            acc = acc.union(home)
        if acc != RationalSet.unit_square():
            raise ValueError("home sets must partition the unit square")
        self.groups = tuple(norm)

    def values(self) -> list:
        return [v for _, pieces in self.groups for v, _ in pieces]


def _first_difference(p: Profile, q: Profile) -> tuple:
    xs = sorted(p.breakpoints() | q.breakpoints() | {ZERO, Fraction(1)})
    for lo, hi in zip(xs, xs[1:]):
        if p.at(lo) != q.at(lo):
            return lo, hi
    raise AssertionError("profiles differ but no differing interval found")


def assemble_realization(spec: RealizationSpec) -> StepMap:
    """f = a_q exactly on the density-split part A_q of each home set."""
    cells = []
    for home, pieces in spec.groups:
        parts = density_split(home, [p for _, p in pieces])
        for (v, p), part in zip(pieces, parts):
            if not part.is_empty:
                cells.append((part, v))
            assert part.measure == p.integral()
    f = StepMap(cells)
    for home, pieces in spec.groups:
        for v, p in pieces:
            assert f.support_of(v).intersect(home).measure == p.integral()
    return f


@dataclass(frozen=True)
class ReportRow:
    event_index: int
    group_index: int
    lhs: Fraction  # measure of [pred(f)] meet B meet A_c
    rhs: Fraction  # sum of integral(delta_q over B), pred(a_q) true

    @property
    def matches(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class RealizationReport:
    ok: bool
    rows: tuple

    def mismatches(self) -> list:
        return [r for r in self.rows if not r.matches]


def _require_vertical(b: RationalSet):
    rebuilt = RationalSet.from_rects(
        [Rect(lo, hi, ZERO, Fraction(1)) for lo, hi in b.omega_shadow()])
    if rebuilt != b:
        raise ValueError("event sets must be unions of vertical strips")


def verify_probability_identity(f: StepMap, spec: RealizationSpec,
                                events) -> RealizationReport:
    """Recompute both sides of the probability identity per event and group.

    Never raises on a mismatch; the report carries every comparison so a
    failing identity can be localized.  Event sets must be measurable in
    the omega algebra (unions of vertical strips).
    """
    events = list(events)
    for b, _ in events:
        _require_vertical(b)
    # one sweep of f against the home sets and every event's indicator:
    # each left-hand side sums the areas of the value tuples it selects
    homes = StepMap([(home, ci) for ci, (home, _) in enumerate(spec.groups)])
    square = RationalSet.unit_square()
    inside = [StepMap([(b, True), (square.subtract(b), False)]) for b, _ in events]
    den, cols = _columns([f, homes] + inside)
    area: dict = {}
    for lo, hi, runs in cols:
        for c, d, key in runs:
            area[key] = area.get(key, 0) + (hi - lo) * (d - c)
    lhs = [[0] * len(spec.groups) for _ in events]
    for (v, ci, *flags), a in area.items():
        for ei, (_, pred) in enumerate(events):
            if flags[ei] and pred(v):
                lhs[ei][ci] += a
    rows = []
    for ei, (b, pred) in enumerate(events):
        shadow = b.omega_shadow()
        for ci, (home, pieces) in enumerate(spec.groups):
            rhs = sum((p.integral_over(shadow)
                       for v, p in pieces if pred(v)), ZERO)
            rows.append(ReportRow(ei, ci, Fraction(lhs[ei][ci], den * den), rhs))
    return RealizationReport(all(r.matches for r in rows), tuple(rows))
