"""Assemble a step map realizing prescribed cellwise probabilities.

A realization spec lists groups (home set A_c, pieces (a_q, delta_q)); the
densities of a group must add up, at every omega, to the slice measure of
its home set, and the home sets partition the square.  The spec splits each
home along its densities, which checks them, and assembly labels the parts;
the probability identity mu[pred(f) on B meet A_c] = sum of
integral(delta_q over B) for the satisfying q then holds exactly and is
re-checked from scratch by verify_probability_identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import getitem

from .measure import (
    DensityMismatch,
    RationalSet,
    StepMap,
    ZERO,
    _layout_of,
    density_split,
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
        norm, parts = [], []
        for gi, (home, pieces) in enumerate(groups):
            if not isinstance(home, RationalSet):
                raise ValueError(f"group {gi}: home set must be a RationalSet")
            pieces = tuple(pieces)
            if not pieces:
                raise ValueError(f"group {gi} has no pieces")
            vals = [v for v, _ in pieces]
            if len(set(vals)) != len(vals):
                raise ValueError(f"group {gi} repeats a target value")
            try:
                parts.append(density_split(home, [p for _, p in pieces]))
            except DensityMismatch as e:
                lo, hi = e.interval
                raise ValueError(
                    f"group {gi}: density sum mismatch on [{lo},{hi}): "
                    f"expected {e.expected}, got {e.got}") from None
            except ValueError as e:
                raise ValueError(f"group {gi}: {e}") from None
            norm.append((home, pieces))
        acc = RationalSet.empty()
        for gi, (home, _) in enumerate(norm):
            if not acc.disjoint_from(home):
                raise ValueError(f"group {gi} overlaps an earlier home set")
            acc = acc.union(home)
        if acc != RationalSet.unit_square():
            raise ValueError("home sets must partition the unit square")
        self.groups = tuple(norm)
        # each group's home set split along its densities, in piece order
        self._parts = tuple(parts)

    def values(self) -> list:
        return [v for _, pieces in self.groups for v, _ in pieces]


def assemble_realization(spec: RealizationSpec) -> StepMap:
    """f = a_q exactly on the density-split part A_q of each home set."""
    cells = []
    for (_, pieces), parts in zip(spec.groups, spec._parts):
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
    # a union of vertical strips has the whole of [0, 1) as every slice
    if any(ys != ((0, b._den),) for _, _, ys in b._cols):
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
    # one layout of f, the home sets and every event's indicator: each
    # left-hand side sums the areas of the index tuples whose values it
    # selects
    homes = StepMap([(home, ci) for ci, (home, _) in enumerate(spec.groups)])
    square = RationalSet.unit_square()
    inside = [StepMap([(b, True), (square.subtract(b), False)]) for b, _ in events]
    maps = [f, homes, *inside]
    lay = _layout_of(maps)
    vals = [m._values for m in maps]
    lhs = [[0] * len(spec.groups) for _ in events]
    for key, a in lay.areas:
        v, ci, *flags = map(getitem, vals, key)
        for ei, (_, pred) in enumerate(events):
            if flags[ei] and pred(v):
                lhs[ei][ci] += a
    rows = []
    for ei, (b, pred) in enumerate(events):
        shadow = b.omega_shadow()
        for ci, (home, pieces) in enumerate(spec.groups):
            rhs = sum((p.integral_over(shadow)
                       for v, p in pieces if pred(v)), ZERO)
            rows.append(ReportRow(ei, ci, Fraction(lhs[ei][ci], lay.den ** 2),
                                  rhs))
    return RealizationReport(all(r.matches for r in rows), tuple(rows))
