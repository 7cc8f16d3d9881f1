"""Exact rational geometry on the half-open unit square.

Every set here is a finite union of half-open rectangles [a,b) x [c,d) with
rational corners, kept in a canonical column form so that equality, measure
and the boolean operations are exact and decidable.  The two coordinates are
called omega (first) and omega' (second) throughout.

Inside the layer a set keeps its coordinates as ints over one least common
denominator, and a rectangle's corners are checked as ints over the lcm of
theirs.  One sweep over the joint omega breakpoints of several sets, on the
lcm of their denominators, is the only walk over two or more sets; it files
each column under its start breakpoint and looks it up there.

Set algebra is one coverage walk over a sweep (see _select): the binary
operations, the complement, the union of many rectangles and the union of
a step map's same-valued cells each keep the points whose membership in
the swept operands a rule accepts.

A step map's canonical form is kept per tuple of per-value cell-set tuples
(see _form), for the last SWEEP_CACHE_SIZE tuples: its tiling verdict, its
fused sets in canonical order and that order.  A construction on cells
grouped as one before does one lookup, and the maps share their set tuple.
Repeated pair-certify runs in one process find every form kept.

The refinement of several step maps is kept as a layout, one per tuple of
per-map cell-set tuples, for the last SWEEP_CACHE_SIZE tuples: per omega
column, the runs that tile its slice, each with the index of the cell of
every map that covers it, and from the runs the refinement pieces, the area
per index tuple and the table of runs per column.  Equal sets are one
object (see _reduced), so a layout lookup hashes and compares its sets by
identity.  A layout depends only on each set's canonical (den, cols), and
sets are immutable, so a kept layout is exactly the one that would be
recomputed.  Values enter only after the lookup, and grouping by index is
grouping by value: a step map fuses equal values, so the cells of one map
carry pairwise distinct values.  Step maps built on the same cells with
other values share one layout.  Repeated pair-certify runs in one process
find every layout kept; SWEEP_CACHE_SIZE cites the measurements.

Everything the public API returns (columns, rects, slices, shadows,
measures) is a Fraction.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, groupby
from math import gcd, lcm
from operator import getitem, itemgetter
from typing import Callable, Iterable, Sequence

__all__ = [
    "Frac",
    "Rect",
    "RationalSet",
    "Profile",
    "StepMap",
    "DensityMismatch",
    "common_refinement",
    "l1_distance",
    "slice_profile",
    "vertical_split",
    "density_split",
]

Frac = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings; floats are rejected."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"floating point input rejected, use exact rationals: {x!r}")
    return Fraction(x)


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open box [x0,x1) x [y0,y1) inside the unit square, never empty."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        if not ZERO <= self.x0 < self.x1 <= ONE:
            raise ValueError("bad omega interval")
        if not ZERO <= self.y0 < self.y1 <= ONE:
            raise ValueError("bad omega-prime interval")


# A "ys" value is a sorted tuple of disjoint, non-touching (c, d) intervals.

def _ys_total(ys) -> Fraction:
    return sum((d - c for c, d in ys), ZERO)


def _normalize_columns(cols) -> tuple:
    """Fuse consecutive columns that touch and carry the same slice."""
    out: list[list] = []
    for lo, hi, ys in cols:
        if not ys:
            continue
        if out and out[-1][1] == lo and out[-1][2] == ys:
            out[-1][1] = hi
        else:
            out.append([lo, hi, ys])
    return tuple((lo, hi, ys) for lo, hi, ys in out)


def _num(x, den: int) -> int:
    """x, an int or Fraction whose denominator divides den, as a numerator over den."""
    return x.numerator * (den // x.denominator)


# The live canonical sets by (den, cols); see _reduced.
_INTERNED: "weakref.WeakValueDictionary[tuple, RationalSet]" = (
    weakref.WeakValueDictionary())


def _reduced(den: int, cols) -> "RationalSet":
    """The set with canonical int columns cols over den, den cut by the gcd.

    Cutting by the gcd of den and every coordinate leaves the least common
    denominator of the set, so equal sets get equal ints.  Every canonical
    set is made here, once while it lives: equal sets are one object, so
    sets compare and hash by identity.
    """
    g = den
    for lo, hi, ys in cols:
        g = gcd(g, lo, hi, *chain.from_iterable(ys))
        if g == 1:
            break
    if g > 1:
        den //= g
        cols = tuple((lo // g, hi // g, tuple((c // g, d // g) for c, d in ys))
                     for lo, hi, ys in cols)
    key = (den, cols)
    s = _INTERNED.get(key)
    if s is None:
        s = _INTERNED[key] = RationalSet(den, cols)
    return s


def _box(x0, x1, y0, y1) -> tuple:
    """(den, cols): the column of [x0,x1) x [y0,y1), corners ints or
    Fractions, as ints over the lcm of their denominators; neither checked
    nor reduced, so only fit to be swept or passed to _reduced."""
    den = lcm(x0.denominator, x1.denominator, y0.denominator, y1.denominator)
    return den, ((_num(x0, den), _num(x1, den),
                  ((_num(y0, den), _num(y1, den)),)),)


class RationalSet:
    """Finite union of half-open rational rectangles, canonical and immutable.

    The canonical form slices the set into maximal omega columns on which the
    omega' slice is constant, and equal sets are one object (see _reduced),
    so == and hash are identity.  The columns are stored as ints over the
    set's least common denominator and decoded to Fractions, once, by
    `columns`.
    """

    __slots__ = ("_den", "_cols", "_fcols", "_measure", "__weakref__")

    def __init__(self, den: int, cols: tuple):
        # internal: only _reduced and from_rects build sets; use the classmethods
        self._den = den
        self._cols = cols
        self._fcols = None
        self._measure = None

    @classmethod
    def empty(cls) -> "RationalSet":
        return _reduced(1, ())

    @classmethod
    def unit_square(cls) -> "RationalSet":
        return _reduced(1, ((0, 1, ((0, 1),)),))

    @classmethod
    def from_rect(cls, x0, x1, y0, y1) -> "RationalSet":
        den, cols = _box(*(x if type(x) is int or type(x) is Fraction else _frac(x)
                           for x in (x0, x1, y0, y1)))
        ((a, b, ((c, d),)),) = cols
        if a >= b or c >= d:
            return cls.empty()
        if a < 0 or b > den:
            raise ValueError("bad omega interval")
        if c < 0 or d > den:
            raise ValueError("bad omega-prime interval")
        return _reduced(den, cols)

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RationalSet":
        """Union of the given rectangles (overlaps are allowed and fused)."""
        return _select((tuple(RationalSet(*_box(r.x0, r.x1, r.y0, r.y1))
                              for r in rects),), any)

    @classmethod
    def vertical_strip(cls, x0, x1) -> "RationalSet":
        return cls.from_rect(x0, x1, 0, 1)

    @classmethod
    def horizontal_strip(cls, y0, y1) -> "RationalSet":
        return cls.from_rect(0, 1, y0, y1)

    @property
    def columns(self) -> tuple:
        """The canonical (lo, hi, ys) columns, with Fraction coordinates."""
        if self._fcols is None:
            den = self._den
            self._fcols = tuple(
                (Fraction(lo, den), Fraction(hi, den),
                 tuple((Fraction(c, den), Fraction(d, den)) for c, d in ys))
                for lo, hi, ys in self._cols)
        return self._fcols

    @property
    def rects(self) -> tuple:
        return tuple(Rect(lo, hi, c, d)
                     for lo, hi, ys in self.columns for c, d in ys)

    @property
    def measure(self) -> Fraction:
        if self._measure is None:
            area = sum((hi - lo) * sum(d - c for c, d in ys)
                       for lo, hi, ys in self._cols)
            self._measure = Fraction(area, self._den * self._den)
        return self._measure

    @property
    def is_empty(self) -> bool:
        return not self._cols

    def union(self, other: "RationalSet") -> "RationalSet":
        return _select(((self, other),), any)

    def intersect(self, other: "RationalSet") -> "RationalSet":
        return _select(((self,), (other,)), all)

    def subtract(self, other: "RationalSet") -> "RationalSet":
        return _select(((self,), (other,)),
                       lambda member: member[0] and not member[1])

    def complement(self) -> "RationalSet":
        return RationalSet.unit_square().subtract(self)

    def disjoint_from(self, other: "RationalSet") -> bool:
        return self.intersect(other).is_empty

    def _column_at(self, x) -> int | None:
        """Index of the column over the omega value x, or None."""
        x = _frac(x)
        p, q = x.numerator * self._den, x.denominator
        return next((i for i, (lo, hi, _) in enumerate(self._cols)
                     if lo * q <= p < hi * q), None)

    def contains_point(self, x, y) -> bool:
        i = self._column_at(x)
        if i is None:
            return False
        y = _frac(y)
        p, q = y.numerator * self._den, y.denominator
        return any(c * q <= p < d * q for c, d in self._cols[i][2])

    def slice_at(self, x) -> tuple:
        """The omega' slice over a single omega value, as a ys tuple."""
        i = self._column_at(x)
        return () if i is None else self.columns[i][2]

    def omega_shadow(self) -> tuple:
        """Omega intervals over which the slice is nonempty."""
        out: list[list] = []
        for lo, hi, _ in self._cols:
            if out and out[-1][1] == lo:
                out[-1][1] = hi
            else:
                out.append([lo, hi])
        return tuple((Fraction(lo, self._den), Fraction(hi, self._den))
                     for lo, hi in out)

    # a copy or an unpickled set is the interned one, so identity holds
    def __reduce__(self):
        return _reduced, (self._den, self._cols)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __bool__(self):
        return not self.is_empty

    def __repr__(self):
        if self.is_empty:
            return "RationalSet.empty()"
        parts = ", ".join(f"[{r.x0},{r.x1})x[{r.y0},{r.y1})" for r in self.rects)
        return f"RationalSet({parts})"


def _sweep(sets: tuple) -> tuple:
    """Sweep the joint omega breakpoints of sets on one denominator.

    Returns (den, steps): den is the lcm of the sets' denominators, and steps
    holds, for each interval [lo, hi) between consecutive joint breakpoints
    (ints over den), the sorted (c, d, owner) slices of every set over it,
    owner being the set's index in sets.  A _Layout keeps its sweep, so
    everything returned is a tuple.
    """
    den = lcm(*(s._den for s in sets))
    starts: dict = {}  # lo -> the (hi, slices) of the columns starting there
    for k, s in enumerate(sets):
        f = den // s._den
        for lo, hi, ys in s._cols:
            starts.setdefault(lo * f, []).append(
                (hi * f, [(c * f, d * f, k) for c, d in ys]))
    xs = sorted({*starts, *(hi for cols in starts.values() for hi, _ in cols)})
    steps = []
    active: list = []
    for lo, hi in zip(xs, xs[1:]):
        active = [col for col in active if col[0] > lo]
        active.extend(starts.get(lo, ()))
        slices = tuple(sorted(chain.from_iterable(col[1] for col in active)))
        steps.append((lo, hi, slices))
    return den, tuple(steps)


def _select(operands: tuple, keep: Callable) -> RationalSet:
    """The points of the swept sets whose membership keep accepts.

    A point is in operand k when a set of the tuple operands[k] covers it,
    and keep maps the list of the operands' memberships to whether the
    point is kept; it must reject a point in no operand.  One sweep over
    every set gives each omega column's slices; walking their ends once in
    order, counting the slices of each operand that cover, keeps the omega'
    intervals where keep holds.
    """
    owner = [k for k, sets in enumerate(operands) for _ in sets]
    den, steps = _sweep(tuple(chain.from_iterable(operands)))
    cols = []
    for lo, hi, slices in steps:
        ends = sorted(chain.from_iterable(((c, 1, owner[j]), (d, -1, owner[j]))
                                          for c, d, j in slices))
        count = [0] * len(operands)
        flips, inside = [], False
        for y, here in groupby(ends, itemgetter(0)):
            for _, step, k in here:
                count[k] += step
            if keep([n > 0 for n in count]) != inside:
                flips.append(y)
                inside = not inside
        cols.append((lo, hi, tuple(zip(flips[::2], flips[1::2]))))
    return _reduced(den, _normalize_columns(cols))


def _first_key(cols, f: int = 1) -> tuple:
    """Sort key of a set: its first column's (lo, hi, c, d), scaled by f."""
    lo, hi, ys = cols[0]
    c, d = ys[0]
    return lo * f, hi * f, c * f, d * f


class Profile:
    """Piecewise-constant rational function on [0,1), zero off its pieces."""

    __slots__ = ("_pieces",)

    def __init__(self, pieces: Iterable = ()):
        cleaned = []
        for x0, x1, v in pieces:
            x0, x1, v = _frac(x0), _frac(x1), _frac(v)
            if not (ZERO <= x0 <= x1 <= ONE):
                raise ValueError(f"profile piece outside [0,1): [{x0},{x1})")
            if x0 < x1 and v != 0:
                cleaned.append((x0, x1, v))
        cleaned.sort()
        for (a0, a1, _), (b0, _, _) in zip(cleaned, cleaned[1:]):
            if b0 < a1:
                raise ValueError("profile pieces overlap")
        out: list[list] = []
        for x0, x1, v in cleaned:
            if out and out[-1][1] == x0 and out[-1][2] == v:
                out[-1][1] = x1
            else:
                out.append([x0, x1, v])
        self._pieces = tuple((x0, x1, v) for x0, x1, v in out)

    @classmethod
    def constant(cls, v) -> "Profile":
        return cls([(ZERO, ONE, _frac(v))])

    @property
    def pieces(self) -> tuple:
        return self._pieces

    def at(self, x) -> Fraction:
        x = _frac(x)
        return next((v for x0, x1, v in self._pieces if x0 <= x < x1), ZERO)

    def breakpoints(self) -> set:
        return {x for x0, x1, _ in self._pieces for x in (x0, x1)}

    def integral(self) -> Fraction:
        return sum(((x1 - x0) * v for x0, x1, v in self._pieces), ZERO)

    def integral_over(self, intervals) -> Fraction:
        """Integrate over a finite list of disjoint omega intervals."""
        total = ZERO
        for lo, hi in intervals:
            lo, hi = _frac(lo), _frac(hi)
            for x0, x1, v in self._pieces:
                a, b = max(lo, x0), min(hi, x1)
                if a < b:
                    total += (b - a) * v
        return total

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, _, v in self._pieces)

    def __eq__(self, other):
        return isinstance(other, Profile) and self._pieces == other._pieces

    def __hash__(self):
        return hash(self._pieces)

    def __repr__(self):
        return f"Profile({list(self._pieces)!r})"


def slice_profile(s: RationalSet) -> Profile:
    """The map omega -> measure of the omega' slice of s."""
    return Profile([(lo, hi, _ys_total(ys)) for lo, hi, ys in s.columns])


def vertical_split(s: RationalSet, weights: Sequence) -> list[RationalSet]:
    """Split s into parts taking prescribed fractions of every omega slice.

    Each rectangle's omega' interval is cut proportionally, so for every
    omega the slice of part i has measure weights[i] times the slice of s.

    The cut runs on s's int columns over den * m, m the lcm of the weights'
    denominators.  A part of positive weight keeps every column of s, and
    its slices are distinct wherever those of s are, so its columns are
    canonical as cut; a part of weight zero is empty.
    """
    ws = [_frac(w) for w in weights]
    m = lcm(*(w.denominator for w in ws))
    nums = [_num(w, m) for w in ws]
    if any(w < 0 for w in nums):
        raise ValueError("weights must be nonnegative")
    if sum(nums) != m:
        raise ValueError("weights must sum to 1")
    den = s._den * m
    parts = []
    for c0, c1 in zip([0, *accumulate(nums)], accumulate(nums)):
        cols = () if c0 == c1 else tuple(
            (lo * m, hi * m,
             tuple((c * m + (d - c) * c0, c * m + (d - c) * c1) for c, d in ys))
            for lo, hi, ys in s._cols)
        parts.append(_reduced(den, cols))
    return parts


class DensityMismatch(ValueError):
    """Density sum disagrees with the slice profile on some omega interval."""

    def __init__(self, lo, hi, expected, got):
        self.interval = (lo, hi)
        self.expected = expected
        self.got = got
        super().__init__(
            f"densities sum to {got} but the slice measures {expected} on "
            f"[{lo},{hi})")


def _walk(pieces, xs, empty) -> list:
    """Per interval [lo, hi) of consecutive xs, the value v of the piece
    (x0, x1, v) that covers it, or empty.

    pieces are sorted and disjoint, and their ends are among xs.
    """
    out, i = [], 0
    for lo in xs[:-1]:
        while i < len(pieces) and pieces[i][1] <= lo:
            i += 1
        out.append(pieces[i][2] if i < len(pieces) and pieces[i][0] <= lo
                   else empty)
    return out


def density_split(s: RationalSet, densities: Sequence) -> list[RationalSet]:
    """Split s into parts whose omega slices have prescribed step densities.

    densities are Profiles; they must be nonnegative and sum, at every
    omega, to the slice measure of s exactly.

    The cut runs on s's int columns over one denominator den, with every
    density piece read as ints over den.  The sum is checked on every
    interval between the joint breakpoints of the columns and the pieces
    (off them, both sides are zero); on each, part q takes its share off
    the bottom of what parts 0..q-1 left of the slice.
    """
    profs = list(densities)
    for p in profs:
        if not isinstance(p, Profile):
            raise TypeError(f"density must be a Profile, got {p!r}")
        if not p.is_nonnegative():
            raise ValueError("densities must be nonnegative")
    den = lcm(s._den, *(x.denominator for p in profs
                        for piece in p.pieces for x in piece))
    f = den // s._den
    cols = [(lo * f, hi * f, tuple((c * f, d * f) for c, d in ys))
            for lo, hi, ys in s._cols]
    dens = [[tuple(_num(x, den) for x in piece) for piece in p.pieces]
            for p in profs]
    xs = sorted({x for x0, x1, _ in chain(cols, *dens) for x in (x0, x1)})
    steps = zip(_walk(cols, xs, ()), *(_walk(d, xs, 0) for d in dens))
    parts: list[list] = [[] for _ in profs]
    for lo, hi, (ys, *vals) in zip(xs, xs[1:], steps):
        height, total = sum(d - c for c, d in ys), sum(vals)
        if total != height:
            raise DensityMismatch(Fraction(lo, den), Fraction(hi, den),
                                  Fraction(height, den), Fraction(total, den))
        stack = iter(ys)
        c, d = next(stack, (0, 0))
        for q, need in enumerate(vals):
            cut = []
            while need:
                take = min(need, d - c)
                cut.append((c, c + take))
                c, need = c + take, need - take
                if c == d:
                    c, d = next(stack, (d, d))
            parts[q].append((lo, hi, tuple(cut)))
    return [_reduced(den, _normalize_columns(cs)) for cs in parts]


class StepMap:
    """Finite-valued measurable map on the unit square with rectangular cells.

    Cells partition the square exactly; equal-valued cells are fused and the
    whole object is canonically ordered, so equal maps compare equal.  Values
    must be hashable.
    """

    __slots__ = ("_cells", "_sets", "_values", "_hash")

    def __init__(self, cells: Iterable):
        by_value: dict = {}
        for s, v in cells:
            if not isinstance(s, RationalSet):
                raise ValueError("cell supports must be RationalSet")
            if s._cols:
                by_value.setdefault(v, []).append(s)
        refusal, self._sets, order = _form(tuple(map(tuple, by_value.values())))
        if refusal:
            raise ValueError(refusal)
        values = tuple(by_value)
        self._values = tuple(map(values.__getitem__, order))
        self._cells = tuple(zip(self._sets, self._values))
        self._hash = None

    @classmethod
    def constant(cls, value) -> "StepMap":
        return cls([(RationalSet.unit_square(), value)])

    @classmethod
    def from_vertical_strips(cls, strips: Iterable) -> "StepMap":
        return cls([(RationalSet.vertical_strip(x0, x1), v)
                    for x0, x1, v in strips])

    @classmethod
    def from_horizontal_strips(cls, strips: Iterable) -> "StepMap":
        return cls([(RationalSet.horizontal_strip(y0, y1), v)
                    for y0, y1, v in strips])

    @classmethod
    def uniform_strips(cls, values: Sequence) -> "StepMap":
        """Vertical strips of equal width carrying the given values."""
        n = len(values)
        return cls.from_vertical_strips(
            (Fraction(i, n), Fraction(i + 1, n), v) for i, v in enumerate(values))

    @property
    def cells(self) -> tuple:
        return self._cells

    def values(self) -> tuple:
        return self._values

    def value_at(self, x, y):
        for s, v in self._cells:
            if s.contains_point(x, y):
                return v
        # the cells tile the square, so only a point off it is in none
        raise ValueError(f"point ({x}, {y}) lies outside the unit square")

    def map_values(self, fn: Callable) -> "StepMap":
        return StepMap([(s, fn(v)) for s, v in self._cells])

    def support_of(self, value) -> RationalSet:
        for s, v in self._cells:
            if v == value:
                return s
        return RationalSet.empty()

    def __eq__(self, other):
        return isinstance(other, StepMap) and self._cells == other._cells

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._cells)
        return self._hash

    def __repr__(self):
        return f"StepMap({len(self._cells)} cells, values={self.values()!r})"


class _Layout:
    """One sweep of a tuple of per-map cell-set tuples, and the refinement
    of the maps read off it.

    Holds den and the sweep, and derives each view below once, on first
    use.  A layout is kept per tuple of cell-set tuples (see _layout) and
    shared, so every view is a tuple.  Values never enter it: each run and
    piece carries an index tuple, index[k] being the position of the cell of
    map k that covers it, and callers look the values up.  That is exact
    because a StepMap fuses equal values: the cells of one map carry
    pairwise distinct values, so an index tuple fixes its value tuple, and
    grouping by index equals grouping by value.
    """

    def __init__(self, sets: tuple):
        self._sets = sets
        self.den, self._steps = _sweep(tuple(chain.from_iterable(sets)))

    @cached_property
    def runs(self) -> tuple:
        """Per elementary omega column, (lo, hi, runs): the runs (c, d, index)
        that tile the column's slice [0, den) in order of c."""
        # every map tiles each column, so walking the slices in order of c and
        # noting each map's current cell gives the runs of the column
        owners = [(k, i) for k, cells in enumerate(self._sets)
                  for i in range(len(cells))]
        den = self.den
        current = [None] * len(self._sets)
        cols = []
        for lo, hi, slices in self._steps:
            runs = []
            i, n = 0, len(slices)
            while i < n:
                c = slices[i][0]
                while i < n and slices[i][0] == c:
                    k, j = owners[slices[i][2]]
                    current[k] = j
                    i += 1
                runs.append((c, slices[i][0] if i < n else den, tuple(current)))
            cols.append((lo, hi, tuple(runs)))
        return tuple(cols)

    @cached_property
    def pieces(self) -> tuple:
        """The (support, index) pieces of the common refinement, in order of
        their first rectangle."""
        by_key: dict = {}
        for lo, hi, runs in self.runs:
            here: dict = {}
            for c, d, key in runs:
                here.setdefault(key, []).append((c, d))
            for key, ys in here.items():
                by_key.setdefault(key, []).append((lo, hi, tuple(ys)))
        pieces = []
        for key, cs in by_key.items():
            cs = _normalize_columns(cs)
            pieces.append((_first_key(cs), _reduced(self.den, cs), key))
        pieces.sort(key=itemgetter(0))
        return tuple((s, key) for _, s, key in pieces)

    @cached_property
    def areas(self) -> tuple:
        """(index, area) pairs, the area an int over den**2."""
        area: dict = {}
        for lo, hi, runs in self.runs:
            for c, d, key in runs:
                area[key] = area.get(key, 0) + (hi - lo) * (d - c)
        return tuple(area.items())

    @cached_property
    def table(self) -> tuple:
        """(den, widths, keys, runs): widths[i] is column i's omega width (an
        int over den), keys the distinct index tuples, whose k-th entry is a
        position in the k-th map's values(), and runs[j] the (i, length)
        pairs giving how much of column i's slice carries keys[j]."""
        index: dict = {}
        per_key: list = []
        for i, (_, _, col) in enumerate(self.runs):
            for c, d, key in col:
                k = index.get(key)
                if k is None:
                    k = index[key] = len(per_key)
                    per_key.append({})
                lengths = per_key[k]
                lengths[i] = lengths.get(i, 0) + d - c
        widths = tuple(hi - lo for lo, hi, _ in self.runs)
        return (self.den, widths, tuple(index),
                tuple(tuple(ls.items()) for ls in per_key))


# Layouts kept by _layout, and forms kept by _form, each for this many keys,
# for repeated pair-certify runs in one process: each run looks up 6 layouts
# and 18 forms, all kept from the second run on.  With both caches, _layout
# uncached and neither, perfbench/run.py's certify made 536, 440 (job_p50_s
# +22%) and 311 jobs/s and its oracle 2,470, 2,504 (peak RSS 24.4 -> 23.4
# MB) and 2,087 (2 alternating 20 s runs each, 2-core Xeon); the oracle hit
# 14 of 400 layout and 397 of 600 form lookups over 200 jobs of seed 7.
SWEEP_CACHE_SIZE = 256


@lru_cache(maxsize=SWEEP_CACHE_SIZE)
def _layout(sets: tuple) -> _Layout:
    """The layout of a tuple of cell-set tuples, kept for the last
    SWEEP_CACHE_SIZE tuples (see the module docstring)."""
    return _Layout(sets)


@lru_cache(maxsize=SWEEP_CACHE_SIZE)
def _form(groups: tuple) -> tuple:
    """(refusal, sets, order): a StepMap's canonical form on its cells
    grouped by value, groups[i] holding the cells of its i-th value.

    sets[k] is the union of group order[k], and order sorts the unions by
    their first rectangle, the canonical order of a StepMap.  refusal is
    None when the unions tile the square and otherwise the reason, the
    measure checked first: unions of measures summing to 1 tile the square
    exactly when together they cover it.  Kept for the last
    SWEEP_CACHE_SIZE groupings, so a construction on grouped cells met
    before does one lookup.
    """
    sets = tuple(ss[0] if len(ss) == 1 else _select((ss,), any) for ss in groups)
    total = sum((s.measure for s in sets), ZERO)
    if total != 1:
        refusal = f"cells measure {total}, expected 1"
    elif _select((sets,), any) is not RationalSet.unit_square():
        refusal = "cells overlap"
    else:
        refusal = None
    den = lcm(*(s._den for s in sets))
    order = tuple(sorted(range(len(sets)),
                         key=lambda i: _first_key(sets[i]._cols, den // sets[i]._den)))
    return refusal, tuple(map(sets.__getitem__, order)), order


def _layout_of(maps: Sequence[StepMap]) -> _Layout:
    """The layout of the maps' cell sets."""
    return _layout(tuple(m._sets for m in maps))


def common_refinement(maps: Sequence[StepMap]) -> list[tuple]:
    """Shared partition on which every input map is constant.

    Returns (support, values) pairs where values[k] is the k-th map's value
    on the support; pieces with identical value tuples are fused, so the cell
    count never exceeds the product of the input cell counts.
    """
    if not maps:
        return [(RationalSet.unit_square(), ())]
    vals = [m._values for m in maps]
    return [(s, tuple(map(getitem, vals, key)))
            for s, key in _layout_of(maps).pieces]


def l1_distance(f: StepMap, g: StepMap) -> Fraction:
    """Measure of the set where f and g disagree; a metric on step maps."""
    lay = _layout_of([f, g])
    fv, gv = f._values, g._values
    area = sum(a for (i, j), a in lay.areas if fv[i] != gv[j])
    return Fraction(area, lay.den * lay.den)
