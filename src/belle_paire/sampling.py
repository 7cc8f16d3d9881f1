"""Seeded generators for randomized test instances.

Everything is driven by one random.Random so a seed pins the whole
instance; values produced are exact rationals on small denominators.
"""
from __future__ import annotations

import random

from .measure import (
    Frac,
    Profile,
    RationalSet,
    Rect,
    StepMap,
    ZERO,
    slice_profile,
)
from .structures import (
    Domain,
    NaturalNumbers,
    WindowInjection,
    identity_endo,
    window_permutation,
)

__all__ = ["SampleStream"]


class SampleStream:
    """Deterministic instance factory; all draws come from one seeded RNG."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def cuts(self, n: int, den: int = 24) -> list:
        """0 = c_0 < ... < c_n = 1 on the 1/den grid."""
        if not 1 <= n <= den:
            raise ValueError(f"need 1 <= n <= den, got n={n}, den={den}")
        pool = [Frac(i, den) for i in range(1, den)]
        inner = sorted(self.rng.sample(pool, n - 1)) if n > 1 else []
        return [ZERO] + inner + [Frac(1)]

    def grid_step_map(self, values, gx: int, gy: int, den: int = 12) -> StepMap:
        xs, ys = self.cuts(gx, den), self.cuts(gy, den)
        cells = []
        for i in range(gx):
            for j in range(gy):
                cells.append((RationalSet.from_rect(xs[i], xs[i + 1],
                                                    ys[j], ys[j + 1]),
                              self.rng.choice(values)))
        return StepMap(cells)

    def finite_permutation(self, size: int,
                           domain: Domain | None = None) -> WindowInjection:
        dom = domain if domain is not None else NaturalNumbers()
        img = list(range(size))
        self.rng.shuffle(img)
        point = dom.point_at  # img permutes the codes 0..size-1
        mapping = {point(x): point(y) for x, y in enumerate(img) if x != y}
        return window_permutation(dom, mapping) if mapping else identity_endo(dom)

    def endo_over_reps(self, reps, cells: int, twist_size: int = 8,
                       den: int = 24) -> StepMap:
        """Random endo whose every cell is a finite twist of a given rep."""
        cs = self.cuts(cells, den)
        strips = []
        for i in range(cells):
            rep = self.rng.choice(list(reps))
            value = self.finite_permutation(twist_size, rep.domain).compose(rep)
            strips.append((cs[i], cs[i + 1], value))
        return StepMap.from_vertical_strips(strips)

    def rational_set(self, max_rects: int = 3, den: int = 8) -> RationalSet:
        grid = [Frac(i, den) for i in range(den + 1)]
        rects = []
        for _ in range(self.rng.randint(1, max_rects)):
            x0, x1 = sorted(self.rng.sample(grid, 2))
            y0, y1 = sorted(self.rng.sample(grid, 2))
            rects.append(Rect(x0, x1, y0, y1))
        return RationalSet.from_rects(rects)

    def split_weights(self, k: int, den: int = 12) -> list:
        """k nonnegative rationals summing to 1 (zeros allowed)."""
        marks = sorted(self.rng.choices(range(den + 1), k=k - 1))
        pts = [0] + marks + [den]
        return [Frac(pts[i + 1] - pts[i], den) for i in range(k)]

    def density_split_instance(self, parts: int | None = None):
        """(home set, densities) with the densities summing to the slice."""
        k = parts if parts is not None else self.rng.randint(1, 4)
        home = self.rational_set()
        return home, self._split_slices(home, k)

    def _split_slices(self, home: RationalSet, k: int) -> list:
        """k profiles summing to home's slice, split piece by piece."""
        outs: list[list] = [[] for _ in range(k)]
        for x0, x1, v in slice_profile(home).pieces:
            w = self.split_weights(k)
            for i in range(k):
                outs[i].append((x0, x1, v * w[i]))
        return [Profile(p) for p in outs]

    def realization_spec(self, max_groups: int = 3, max_values: int = 4):
        from .realization import RealizationSpec
        g = self.rng.randint(1, max_groups)
        cs = self.cuts(g, 12)
        homes = []
        for i in range(g):
            strip = RationalSet.vertical_strip(cs[i], cs[i + 1])
            if g > 1 and i == 0 and self.rng.randint(0, 1):
                mid = Frac(self.rng.randint(1, 11), 12)
                lower = strip.intersect(
                    RationalSet.horizontal_strip(ZERO, mid))
                homes.extend([lower, strip.subtract(lower)])
            else:
                homes.append(strip)
        groups = []
        for i, home in enumerate(homes):
            k = self.rng.randint(1, max_values)
            groups.append((home, [(f"a{i}.{j}", p) for j, p in
                                  enumerate(self._split_slices(home, k))]))
        return RealizationSpec(groups)
