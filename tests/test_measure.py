import copy
import gc
import itertools
import math
import pickle
import random
from itertools import chain
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belle_paire import measure
from belle_paire.measure import (
    _INTERNED,
    ONE,
    SWEEP_CACHE_SIZE,
    ZERO,
    DensityMismatch,
    Frac,
    Profile,
    RationalSet,
    Rect,
    StepMap,
    _form,
    _layout,
    _layout_of,
    _normalize_columns,
    _num,
    _reduced,
    _sweep,
    _ys_total,
    common_refinement,
    density_split,
    l1_distance,
    slice_profile,
    vertical_split,
)
from belle_paire.sampling import SampleStream

from conftest import cut_points, fracs01, grid_step_maps, rational_sets, rects, step_maps


def reference_refinement(maps):
    """The refinement by pairwise intersection of cells, kept as a reference."""
    if not maps:
        return [(RationalSet.unit_square(), ())]
    acc = [(s, (v,)) for s, v in maps[0].cells]
    for m in maps[1:]:
        nxt: dict = {}
        for s, vt in acc:
            for t, v in m.cells:
                piece = s.intersect(t)
                if piece.is_empty:
                    continue
                key = vt + (v,)
                nxt[key] = nxt[key].union(piece) if key in nxt else piece
        acc = [(piece, key) for key, piece in nxt.items()]
    acc.sort(key=lambda cv: _first_rect(cv[0]))
    return acc


def _first_rect(s):
    """(x0, x1, y0, y1) of s's first rectangle, the canonical sort key."""
    lo, hi, ys = s.columns[0]
    return lo, hi, *ys[0]


def _reference_merge_ys(ivs):
    ivs = sorted(iv for iv in ivs if iv[0] < iv[1])
    out = []
    for c, d in ivs:
        if out and c <= out[-1][1]:
            if d > out[-1][1]:
                out[-1][1] = d
        else:
            out.append([c, d])
    return tuple((c, d) for c, d in out)


def _reference_ys_intersect(ya, yb):
    return _reference_merge_ys([(max(a, c), min(b, d)) for a, b in ya for c, d in yb])


def _reference_ys_subtract(ya, yb):
    out = list(ya)
    for c, d in yb:
        out = [iv for a, b in out for iv in ((a, min(b, c)), (max(a, d), b))]
    return _reference_merge_ys(out)


def _reference_scale(cols, k):
    if k == 1:
        return cols
    return tuple((lo * k, hi * k, tuple((c * k, d * k) for c, d in ys))
                 for lo, hi, ys in cols)


def _reference_column_combine(cols_a, cols_b, yop):
    xs = sorted({x for c in cols_a for x in (c[0], c[1])}
                | {x for c in cols_b for x in (c[0], c[1])})
    out = []
    ai = bi = 0
    for lo, hi in zip(xs, xs[1:]):
        while ai < len(cols_a) and cols_a[ai][1] <= lo:
            ai += 1
        while bi < len(cols_b) and cols_b[bi][1] <= lo:
            bi += 1
        ya = cols_a[ai][2] if ai < len(cols_a) and cols_a[ai][0] <= lo else ()
        yb = cols_b[bi][2] if bi < len(cols_b) and cols_b[bi][0] <= lo else ()
        ys = yop(ya, yb)
        if ys:
            out.append((lo, hi, ys))
    return _normalize_columns(out)


def reference_combine(a, b, op):
    """A set operation by one pairwise column walk, kept as a reference."""
    yop = {"union": lambda ya, yb: _reference_merge_ys(list(ya) + list(yb)),
           "intersect": _reference_ys_intersect,
           "subtract": _reference_ys_subtract}[op]
    den = math.lcm(a._den, b._den)
    return _reduced(den, _reference_column_combine(
        _reference_scale(a._cols, den // a._den),
        _reference_scale(b._cols, den // b._den), yop))


def reference_from_rects(rects):
    """from_rects by rescanning every rect per column, kept as a reference."""
    rects = [(r.x0, r.x1, r.y0, r.y1) for r in rects]
    den = math.lcm(*(x.denominator for r in rects for x in r))
    rects = [tuple(_num(x, den) for x in r) for r in rects]
    xs = sorted({x for r in rects for x in r[:2]})
    cols = []
    for lo, hi in zip(xs, xs[1:]):
        ys = _reference_merge_ys([(y0, y1) for x0, x1, y0, y1 in rects
                                  if x0 <= lo and x1 >= hi])
        if ys:
            cols.append((lo, hi, ys))
    return _reduced(den, _normalize_columns(cols))


def _same(s, t):
    return (s._den, s._cols) == (t._den, t._cols)


def reference_fused(cells):
    """Each value's nonempty cells fused by reference_combine, by value."""
    by_value: dict = {}
    for s, v in cells:
        if not s.is_empty:
            by_value[v] = (reference_combine(by_value[v], s, "union")
                           if v in by_value else s)
    return by_value


def reference_refusal(cells):
    """StepMap's refusal by measure sum, then by pairwise overlap, or None."""
    sets = list(reference_fused(cells).values())
    total = sum((s.measure for s in sets), Frac(0))
    if total != 1:
        return f"cells measure {total}, expected 1"
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if not reference_combine(a, b, "intersect").is_empty:
                return "cells overlap"
    return None


def refusal(cells):
    try:
        StepMap(cells)
    except ValueError as e:
        return str(e)
    return None


def test_float_inputs_rejected_at_boundaries():
    with pytest.raises(ValueError):
        RationalSet.from_rect(0.1, 0.5, 0, 1)
    with pytest.raises(ValueError):
        RationalSet.vertical_strip(0, 0.25)
    for k, x in itertools.product(range(4), (0.5, 0.0, 1.0)):
        corners = [0, 1, 0, 1]
        corners[k] = x  # in any corner, even of a degenerate box
        with pytest.raises(ValueError, match="floating point input rejected"):
            RationalSet.from_rect(*corners)
    # exact inputs in every accepted spelling
    assert RationalSet.from_rect("1/10", "1/2", 0, 1).measure == Frac(2, 5)


def test_rect_basics():
    Rect(Frac(0), Frac(1, 2), Frac(1, 4), Frac(1))
    with pytest.raises(ValueError, match="bad omega interval"):
        Rect(Frac(1, 2), Frac(1, 2), Frac(0), Frac(1))
    with pytest.raises(ValueError, match="bad omega-prime interval"):
        Rect(Frac(0), Frac(1), Frac(1, 2), Frac(3, 2))


def test_unit_square_measure():
    assert RationalSet.unit_square().measure == 1
    assert RationalSet.empty().measure == 0
    assert not RationalSet.empty()
    assert RationalSet.unit_square()


def test_canonical_equality():
    # same region assembled from different rectangle decompositions
    a = RationalSet.from_rects([Rect(Frac(0), Frac(1, 2), Frac(0), Frac(1)),
                                Rect(Frac(1, 2), Frac(1), Frac(0), Frac(1))])
    b = RationalSet.unit_square()
    assert a == b
    assert hash(a) == hash(b)
    c = RationalSet.from_rect(Frac(0), Frac(1), Frac(0), Frac(1, 2)).union(
        RationalSet.from_rect(Frac(0), Frac(1), Frac(1, 2), Frac(1)))
    assert c == b


def test_overlapping_rects_fuse():
    s = RationalSet.from_rects([Rect(Frac(0), Frac(1, 2), Frac(0), Frac(1)),
                                Rect(Frac(1, 4), Frac(1), Frac(0), Frac(1))])
    assert s == RationalSet.unit_square()


@given(rational_sets(), rational_sets())
def test_inclusion_exclusion(a, b):
    assert (a.union(b).measure
            == a.measure + b.measure - a.intersect(b).measure)


@given(rational_sets(), rational_sets())
def test_set_operations_match_pairwise_reference(a, b):
    assert _same(a.union(b), reference_combine(a, b, "union"))
    assert _same(a.intersect(b), reference_combine(a, b, "intersect"))
    assert _same(a.subtract(b), reference_combine(a, b, "subtract"))
    assert _same(a.complement(),
                 reference_combine(RationalSet.unit_square(), a, "subtract"))


@given(st.lists(rects(), max_size=6), rational_sets())
def test_from_rects_matches_rescanning_reference(rs, a):
    assert _same(RationalSet.from_rects(rs), reference_from_rects(rs))
    assert _same(RationalSet.from_rects(a.rects), reference_from_rects(a.rects))
    assert _same(RationalSet.from_rects(a.rects), a)


def _grid_centres(*sets):
    """The centre of every cell of the grid on the sets' joint coordinates."""
    rs = [r for s in sets for r in s.rects]
    xs = sorted({ZERO, ONE, *(x for r in rs for x in (r.x0, r.x1))})
    ys = sorted({ZERO, ONE, *(y for r in rs for y in (r.y0, r.y1))})
    return [((x0 + x1) / 2, (y0 + y1) / 2)
            for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])]


@given(rational_sets(), rational_sets())
def test_set_operations_match_pointwise_membership(a, b):
    # each set is constant on every cell of the joint grid, so its centre
    # decides the cell, read off contains_point alone
    ops = [(a.union(b), lambda p, q: p or q),
           (a.intersect(b), lambda p, q: p and q),
           (a.subtract(b), lambda p, q: p and not q),
           (a.complement(), lambda p, q: not p)]
    for x, y in _grid_centres(a, b):
        p, q = a.contains_point(x, y), b.contains_point(x, y)
        for s, rule in ops:
            assert s.contains_point(x, y) == rule(p, q), (x, y)


def test_from_rects_fuses_many_overlapping_rects_in_one_column():
    # 300 rects over the omega column [1/3, 2/3), about half of them also
    # over [0, 1/3), their omega' intervals overlapping, nested and touching
    rnd = random.Random(11)
    rs = []
    for _ in range(300):
        c = Frac(rnd.randrange(0, 200), 211)
        d = c + Frac(rnd.randrange(1, 12), 211)
        x0 = Frac(rnd.choice([0, 1]), 3)
        rs.append(Rect(x0, Frac(2, 3), c, d))
    assert _same(RationalSet.from_rects(rs), reference_from_rects(rs))


@given(grid_step_maps(alphabet=2))
def test_step_map_fusion_matches_pairwise_unions(m):
    # one cell per rectangle, fused back by value
    cells = [(RationalSet.from_rect(r.x0, r.x1, r.y0, r.y1), v)
             for s, v in m.cells for r in s.rects]
    fused = StepMap(cells)
    assert fused == m
    for v in m.values():
        acc = RationalSet.empty()
        for t, w in cells:
            if w == v:
                acc = reference_combine(acc, t, "union")
        assert _same(fused.support_of(v), acc)


@given(st.one_of(step_maps(), grid_step_maps()),
       st.one_of(step_maps(), grid_step_maps()))
def test_l1_distance_is_measure_of_disagreeing_pieces(f, g):
    want = sum((s.measure for s, (a, b) in common_refinement([f, g]) if a != b),
               Frac(0))
    assert l1_distance(f, g) == want


@given(rational_sets())
def test_complement_measure(a):
    assert a.complement().measure == 1 - a.measure
    assert a.complement().complement() == a


@given(rational_sets(), rational_sets())
def test_subtract_is_intersect_complement(a, b):
    assert a.subtract(b) == a.intersect(b.complement())
    assert a.subtract(b).disjoint_from(b)


@given(rational_sets(), rational_sets())
def test_union_idempotent_commutative(a, b):
    assert a.union(a) == a
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(rational_sets())
def test_slice_profile_integral_is_measure(a):
    p = slice_profile(a)
    assert p.integral() == a.measure
    assert p.is_nonnegative()


def test_slice_at_and_shadow():
    s = RationalSet.from_rect(Frac(1, 4), Frac(3, 4), Frac(0), Frac(1, 2))
    assert s.slice_at(Frac(1, 2)) == ((Frac(0), Frac(1, 2)),)
    assert s.slice_at(Frac(7, 8)) == ()
    assert s.omega_shadow() == ((Frac(1, 4), Frac(3, 4)),)


def test_contains_point_half_open():
    s = RationalSet.from_rect(Frac(0), Frac(1, 2), Frac(0), Frac(1, 2))
    assert s.contains_point(Frac(0), Frac(0))
    assert not s.contains_point(Frac(1, 2), Frac(0))
    assert not s.contains_point(Frac(0), Frac(1, 2))


def test_profile_canonical():
    p = Profile([(Frac(0), Frac(1, 2), Frac(1)),
                 (Frac(1, 2), Frac(1), Frac(1))])
    assert p == Profile.constant(Frac(1))
    assert len(p.pieces) == 1
    # zero pieces drop out
    q = Profile([(Frac(0), Frac(1, 2), Frac(0)),
                 (Frac(1, 2), Frac(1), Frac(2))])
    assert q.pieces == ((Frac(1, 2), Frac(1), Frac(2)),)
    assert q.at(Frac(1, 4)) == 0
    assert q.at(Frac(3, 4)) == 2


def test_profile_arithmetic():
    p = Profile([(Frac(0), Frac(1, 2), Frac(1))])
    q = Profile([(Frac(1, 4), Frac(1), Frac(2))])
    assert p.at(Frac(3, 8)) + q.at(Frac(3, 8)) == 3
    assert p.integral_over([(Frac(1, 4), Frac(3, 4))]) == Frac(1, 4)


def test_step_map_partition_enforced():
    with pytest.raises(ValueError):
        StepMap([(RationalSet.from_rect(Frac(0), Frac(1, 2), Frac(0), Frac(1)), 0)])
    with pytest.raises(ValueError):
        StepMap([(RationalSet.unit_square(), 0),
                 (RationalSet.from_rect(Frac(0), Frac(1, 2), Frac(0), Frac(1)), 1)])


def test_step_map_fusion():
    a = StepMap.from_vertical_strips([(Frac(0), Frac(1, 2), 7),
                                      (Frac(1, 2), Frac(1), 7)])
    assert a == StepMap.constant(7)
    assert len(a.cells) == 1
    b = StepMap.uniform_strips([0, 1, 0])
    assert b.support_of(0).measure == Frac(2, 3)
    assert b.value_at(Frac(1, 2), Frac(0)) == 1


@pytest.mark.parametrize("x, y", [(2, 0), (0, 1), (Frac(-1, 2), Frac(1, 2)), (1, 1)])
def test_value_at_refuses_a_point_off_the_square(x, y):
    m = StepMap.constant(0)
    with pytest.raises(ValueError, match=f"point \\({x}, {y}\\) lies outside"):
        m.value_at(x, y)


@given(step_maps(), step_maps())
def test_l1_symmetry_and_identity(f, g):
    assert l1_distance(f, g) == l1_distance(g, f)
    assert l1_distance(f, f) == 0
    if l1_distance(f, g) == 0:
        assert f == g


@given(step_maps(), step_maps(), step_maps())
@settings(max_examples=60)
def test_l1_triangle(f, g, h):
    assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h)


@given(grid_step_maps(), grid_step_maps())
def test_common_refinement_partitions(f, g):
    pieces = common_refinement([f, g])
    total = sum((s.measure for s, _ in pieces), Frac(0))
    assert total == 1
    for i, (a, _) in enumerate(pieces):
        for b, _ in pieces[i + 1:]:
            assert a.disjoint_from(b)
    for s, (vf, vg) in pieces:
        x0, x1, ys = s.columns[0]
        x, y = x0, ys[0][0]
        assert f.value_at(x, y) == vf
        assert g.value_at(x, y) == vg


@given(st.lists(st.one_of(step_maps(), grid_step_maps()), min_size=1, max_size=3))
@settings(max_examples=150)
def test_common_refinement_matches_pairwise_reference(maps):
    assert common_refinement(maps) == reference_refinement(maps)


@given(st.lists(st.one_of(step_maps(), grid_step_maps()), min_size=1, max_size=3))
@settings(max_examples=150)
def test_columns_tile_the_square(maps):
    lay = _layout_of(maps)
    den, cols = lay.den, lay.runs
    # the columns tile [0, den) in omega, and in every column the runs tile
    # [0, den) in omega' without a gap or an overlap
    assert [lo for lo, _, _ in cols] == [0] + [hi for _, hi, _ in cols[:-1]]
    assert cols[-1][1] == den
    for lo, hi, runs in cols:
        assert lo < hi
        assert [c for c, _, _ in runs] == [0] + [d for _, d, _ in runs[:-1]]
        assert runs[-1][1] == den
        for c, d, key in runs:
            assert c < d
            # each run carries every map's value at its corner
            x, y = Frac(lo, den), Frac(c, den)
            assert tuple(m.values()[i] for m, i in zip(maps, key)) == tuple(
                m.value_at(x, y) for m in maps)


def test_columns_read_one_denominator():
    f = StepMap.from_vertical_strips([(0, Frac(1, 2), "a"), (Frac(1, 2), 1, "b")])
    g = StepMap.from_horizontal_strips([(0, Frac(1, 3), 0), (Frac(1, 3), 1, 1)])
    lay = _layout_of([f, g])
    cols = [(lo, hi, [(c, d, (f.values()[i], g.values()[j])) for c, d, (i, j) in runs])
            for lo, hi, runs in lay.runs]
    assert (lay.den, cols) == (6, [(0, 3, [(0, 2, ("a", 0)), (2, 6, ("a", 1))]),
                                   (3, 6, [(0, 2, ("b", 0)), (2, 6, ("b", 1))])])


def _rect(x0, x1, y0, y1):
    return RationalSet.from_rect(Frac(x0), Frac(x1), Frac(y0), Frac(y1))


STEP_MAP_REFUSALS = [
    # under-covering: the right half is missing
    ([(_rect(0, "1/2", 0, 1), 0)], "cells measure 1/2, expected 1"),
    # overlapping and over-covering: the measure is reported first
    ([(_rect(0, 1, 0, 1), 0), (_rect(0, "1/2", 0, 1), 1)],
     "cells measure 3/2, expected 1"),
    # overlapping cells whose measures sum to 1
    ([(_rect(0, "1/2", 0, 1), 0), (_rect("1/4", "3/4", 0, 1), 1)], "cells overlap"),
    # a slice nested inside another cell's slice, with a gap elsewhere
    ([(_rect(0, 1, 0, 1).subtract(_rect("1/2", 1, 0, "1/8")), 0),
      (_rect("1/4", "1/2", "1/4", "1/2"), 1)], "cells overlap"),
    # cells of one value fuse before any check
    ([(_rect(0, "1/2", 0, 1), 0), (_rect("1/2", 1, 0, 1), 0)], None),
]


@pytest.mark.parametrize("cells, message", STEP_MAP_REFUSALS)
def test_step_map_refusals_match_reference(cells, message):
    assert reference_refusal(cells) == message
    assert refusal(cells) == message


@pytest.mark.parametrize("cells, message",
                         [(c, m) for c, m in STEP_MAP_REFUSALS if m is not None])
def test_step_map_refusals_hold_on_a_kept_sweep(cells, message):
    # the second construction reads the first one's kept form and still
    # refuses
    _form.cache_clear()
    _layout.cache_clear()
    assert refusal(cells) == message
    hits = _form.cache_info().hits
    assert refusal(cells) == message
    assert _form.cache_info().hits > hits


def reference_step_map(cells):
    """StepMap's (cells, values) or refusal: reference_refusal, then the
    fused cells sorted by their first rectangle, kept as a reference."""
    message = reference_refusal(cells)
    if message:
        return message
    fused = sorted(reference_fused(cells).items(),
                   key=lambda vs: _first_rect(vs[1]))
    return tuple((s, v) for v, s in fused), tuple(v for v, _ in fused)


def built(cells):
    try:
        m = StepMap(cells)
    except ValueError as e:
        return str(e)
    return m.cells, m.values()


@st.composite
def grid_cell_lists(draw):
    """Cells of a grid with repeated values, shuffled, and now and then one
    cell dropped, repeated with another value, or joined by an empty cell."""
    xs = draw(cut_points(den=6, max_cuts=2))
    ys = draw(cut_points(den=4, max_cuts=2))
    cells = [(RationalSet.from_rect(x0, x1, y0, y1), draw(st.integers(0, 2)))
             for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])]
    cells = draw(st.permutations(cells))
    i = draw(st.integers(0, len(cells) - 1))
    change = draw(st.sampled_from(["none", "drop", "repeat", "empty"]))
    if change == "drop":
        del cells[i]
    elif change == "repeat":
        cells.append((cells[i][0], draw(st.integers(0, 3))))
    elif change == "empty":
        cells.insert(i, (RationalSet.empty(), 9))
    return cells


@given(grid_cell_lists())
@settings(max_examples=150)
def test_kept_forms_match_reference(cells):
    want = reference_step_map(cells)
    _form.cache_clear()
    assert built(cells) == want
    assert built(cells) == want


@pytest.mark.parametrize("cells, message", STEP_MAP_REFUSALS)
def test_kept_forms_match_reference_on_refusals(cells, message):
    want = reference_step_map(cells)
    if message is not None:
        assert want == message
    _form.cache_clear()
    assert built(cells) == want
    assert built(cells) == want


def test_equal_groupings_share_their_sets():
    a, b, c = (RationalSet.vertical_strip(lo, hi) for lo, hi in
               [(0, Frac(1, 3)), (Frac(1, 3), Frac(1, 2)), (Frac(1, 2), 1)])
    m = StepMap([(a, 0), (b, 1), (c, 0)])
    n = StepMap([(a, "x"), (b, "y"), (c, "x")])
    assert n._sets is m._sets
    assert n.values() == ("x", "y") and m.values() == (0, 1)


def _only_tuples(x):
    """Whether x holds no list, dict or set at any depth."""
    if isinstance(x, tuple):
        return all(map(_only_tuples, x))
    return not isinstance(x, (list, dict, set))


def test_equal_set_tuples_share_one_sweep():
    def sets():
        return (_rect(0, "1/2", 0, "1/3"), RationalSet.vertical_strip(Frac(1, 4), 1),
                _rect("1/3", 1, "1/2", 1))

    a, b = sets(), sets()
    assert a == b and all(x is y for x, y in zip(a, b))
    _layout.cache_clear()
    first = _layout((a,))
    assert _layout((b,)) is first
    info = _layout.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert 0 < info.maxsize == SWEEP_CACHE_SIZE <= 512
    # a StepMap's form fuses a value's cells into one from_rects union, and
    # refuses cells that do not tile the square
    union = RationalSet.from_rects(r for s in a for r in s.rects)
    assert _form((a,))[1] == (union,)
    assert refusal(zip(a, range(3))) == "cells measure 5/4, expected 1"
    # a kept layout is shared, so nothing in it can be mutated, and every
    # reader hands out a fresh list
    f = StepMap([(a[0], 0), (_rect(0, "1/2", "1/3", 1), 1),
                 (RationalSet.vertical_strip(Frac(1, 2), 1), 2)])
    g = StepMap.from_horizontal_strips([(0, Frac(1, 4), "a"), (Frac(1, 4), 1, "b")])
    pieces = common_refinement([f, g])
    l1_distance(f, g)
    _layout_of([f, g]).table
    again = common_refinement([f, g])
    assert again == pieces and again is not pieces
    pieces.clear()
    assert common_refinement([f, g]) == again
    lay = _layout(tuple(tuple(s for s, _ in m.cells) for m in (f, g)))
    parts = vars(lay)
    assert {"runs", "pieces", "areas", "table"} <= set(parts)
    assert all(_only_tuples(x) for x in parts.values())
    assert all(_only_tuples(x) for x in vars(first).values())


@st.composite
def grid_rects(draw):
    """A rect with corners on a grid of 2 to 4 steps per side."""
    den = draw(st.integers(2, 4))
    xs = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2, unique=True)))
    return Rect(Frac(xs[0], den), Frac(xs[1], den), Frac(ys[0], den), Frac(ys[1], den))


def _sets_built_every_way(rs, rnd):
    """Sets from rs by every constructor and operation, equal ones among them."""
    shuffled = rs[:]
    rnd.shuffle(shuffled)
    cut = rnd.randrange(len(rs) + 1)
    a = RationalSet.from_rect(rs[0].x0, rs[0].x1, rs[0].y0, rs[0].y1)
    whole = RationalSet.from_rects(rs)
    split = RationalSet.from_rects(shuffled[:cut]).union(
        RationalSet.from_rects(shuffled[cut:]))
    assert split is whole is RationalSet.from_rects(shuffled)
    built = [RationalSet.from_rect(r.x0, r.x1, r.y0, r.y1) for r in rs]
    built += [whole, split, RationalSet.empty(), RationalSet.unit_square(),
              a.union(whole), a.intersect(whole), whole.subtract(a),
              a.subtract(whole), whole.complement(), whole.complement().complement(),
              whole.union(whole.complement()), whole.intersect(whole.complement()),
              whole.subtract(a).union(a.intersect(whole))]
    f = StepMap([(a, 0), (a.complement(), 1)])
    g = StepMap([(whole, "in"), (whole.complement(), "out")])
    built += [s for s, _ in common_refinement([f, g])]
    return built


def _key(x):
    return x._den, x._cols


@given(st.lists(grid_rects(), min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_equal_sets_are_one_object(rs, rnd):
    built = _sets_built_every_way(rs, rnd)
    for x in built:
        assert x is _reduced(x._den, x._cols)
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
        for y in built:
            assert (x is y) == (_key(x) == _key(y)) == (x == y)
    assert copy.deepcopy([built, {built[0]: built}])[1][built[0]][0] is built[0]
    # with the other sets gone, each set rebuilt later is the live copy of
    # its class, if one was kept, and what its pickle loads to
    keys = list(map(_key, built))
    blobs = list(map(pickle.dumps, built))
    live = {_key(x): copy.copy(x) for x in built[::2]}
    del built
    gc.collect()
    again = _sets_built_every_way(rs, rnd)
    for key, blob, x in zip(keys, blobs, again):
        assert _key(x) == key
        assert pickle.loads(blob) is x
        if key in live:
            assert live[key] == x and live[key] is x


def test_a_collected_set_is_rebuilt_equal():
    def make():
        return RationalSet.from_rect(Frac(1, 97), Frac(2, 97), 0, Frac(1, 89))

    x = make()
    key, blob, keep = _key(x), pickle.dumps(x), copy.copy(x)
    del x
    gc.collect()
    assert make() is keep and key in _INTERNED
    del keep
    gc.collect()
    assert key not in _INTERNED
    y = make()
    assert _key(y) == key and pickle.loads(blob) is y


@given(st.lists(st.one_of(step_maps(), grid_step_maps()), min_size=2, max_size=3))
@settings(max_examples=60)
def test_kept_sweeps_change_no_result(maps):
    # each result with a cleared cache, then again from the kept layout
    for compute in (lambda: common_refinement(maps),
                    lambda: l1_distance(maps[0], maps[1]),
                    lambda: _layout_of(maps).table):
        _layout.cache_clear()
        cold = compute()
        hits = _layout.cache_info().hits
        warm = compute()
        assert _layout.cache_info().hits > hits
        assert warm == cold


def _pointwise(maps):
    """The maps' value tuples at the centre of each cell of the grid of
    their least common denominator, read off value_at alone."""
    den = math.lcm(*(x.denominator for m in maps for s, _ in m.cells
                     for lo, hi, ys in s.columns for x in (lo, hi, *sum(ys, ()))))
    return den, {(a, b): tuple(m.value_at(Frac(2 * a + 1, 2 * den),
                                          Frac(2 * b + 1, 2 * den)) for m in maps)
                 for a in range(den) for b in range(den)}


@given(grid_step_maps(), grid_step_maps(), st.data())
@settings(max_examples=60)
def test_kept_layouts_never_leak_values(m, g, data):
    # on m's cells: m itself, its values rotated among the cells, and one
    # cell taking another's value, which fuses the two; each is computed
    # after the one before it has filled the cache
    sets, vals = [s for s, _ in m.cells], list(m.values())
    i, j = data.draw(st.lists(st.integers(0, len(sets) - 1), min_size=2, max_size=2))
    fused = vals[:]
    fused[i] = vals[j]
    computations = (lambda f: common_refinement([f, g]),
                    lambda f: l1_distance(f, g),
                    lambda f: _layout_of([f, g]).table)
    _layout.cache_clear()
    for f in (m, StepMap(zip(sets, vals[1:] + vals[:1])), StepMap(zip(sets, fused))):
        warm = [compute(f) for compute in computations]
        _layout.cache_clear()
        assert [compute(f) for compute in computations] == warm
        den, at = _pointwise([f, g])
        pieces, dist, (cden, widths, keys, runs) = warm
        assert {key: s for s, key in pieces} == {
            key: RationalSet.from_rects(
                Rect(Frac(a, den), Frac(a + 1, den), Frac(b, den), Frac(b + 1, den))
                for (a, b), k in at.items() if k == key)
            for key in set(at.values())}
        assert dist == Frac(sum(x != y for x, y in at.values()), den * den)
        # the sweep's lcm is the grid's, and in every grid column of an
        # omega column, each key's value tuple covers as many grid cells as
        # the table gives it
        assert cden == den
        starts = [0, *itertools.accumulate(widths)]
        assert starts[-1] == den
        lengths: dict = {}
        for key, ls in zip(keys, runs):
            vals = tuple(m.values()[k] for m, k in zip((f, g), key))
            for i, length in ls:
                lengths.setdefault(i, {})[vals] = length
        for i in range(len(widths)):
            for a in range(starts[i], starts[i + 1]):
                column = [at[a, b] for b in range(den)]
                assert {v: column.count(v) for v in set(column)} == lengths[i]


@given(grid_step_maps(), rational_sets(), st.integers(0, 3))
def test_step_map_refusal_matches_reference_on_swapped_cell(m, s, k):
    cells = list(m.cells)
    k %= len(cells)
    cells[k] = (s, cells[k][1])
    assert refusal(cells) == reference_refusal(cells)


def test_sets_over_different_denominators_are_equal():
    half = RationalSet.vertical_strip(0, Frac(1, 2))
    quarters = RationalSet.from_rects([Rect(Frac(0), Frac(1, 4), Frac(0), Frac(1)),
                                       Rect(Frac(1, 4), Frac(2, 4), Frac(0), Frac(1))])
    sixths = RationalSet.from_rect(0, Frac(1, 2), 0, Frac(5, 6))
    fourths = RationalSet.from_rect(0, Frac(1, 2), Frac(3, 4), 1)
    for s in (quarters, sixths.union(fourths)):
        assert s == half
        assert hash(s) == hash(half)
    assert sixths.union(fourths).intersect(half) == half
    assert half.subtract(sixths) == RationalSet.from_rect(0, Frac(1, 2), Frac(5, 6), 1)


def test_api_returns_fractions():
    s = RationalSet.from_rect(Frac(1, 3), Frac(3, 4), 0, Frac(1, 2)).union(
        RationalSet.from_rect(Frac(1, 2), 1, Frac(2, 3), 1))
    coords = [x for lo, hi, ys in s.columns for x in (lo, hi, *sum(ys, ()))]
    coords += [x for r in s.rects for x in (r.x0, r.x1, r.y0, r.y1)]
    coords += [x for iv in s.omega_shadow() + s.slice_at(Frac(2, 3)) for x in iv]
    coords += [s.measure, RationalSet.unit_square().measure, RationalSet.empty().measure]
    assert coords and all(type(x) is Frac for x in coords)
    assert s.measure == Frac(5, 12) * Frac(1, 2) + Frac(1, 2) * Frac(1, 3)


@given(rational_sets())
def test_vertical_split_weights(s):
    if s.is_empty:
        return
    parts = vertical_split(s, [Frac(1, 3), Frac(2, 3)])
    assert len(parts) == 2
    assert parts[0].measure == s.measure / 3
    assert parts[0].union(parts[1]) == s
    assert parts[0].disjoint_from(parts[1])


def reference_vertical_split(s, weights):
    """vertical_split through Fraction rectangles and one from_rects sweep
    per part, kept as a reference."""
    ws = [Frac(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if sum(ws, Frac(0)) != 1:
        raise ValueError("weights must sum to 1")
    cuts = [Frac(0)] + list(itertools.accumulate(ws))
    parts = []
    for c0, c1 in zip(cuts, cuts[1:]):
        rs = []
        for lo, hi, ys in s.columns:
            for c, d in ys:
                y0, y1 = c + (d - c) * c0, c + (d - c) * c1
                if y0 < y1:
                    rs.append(Rect(lo, hi, y0, y1))
        parts.append(RationalSet.from_rects(rs))
    return parts


@st.composite
def split_weights(draw):
    """Weights summing to 1, zeros and unequal denominators included."""
    raw = draw(st.lists(st.one_of(st.just(Frac(0)),
                                  st.fractions(min_value=0, max_value=1,
                                               max_denominator=12)),
                        min_size=1, max_size=5))
    total = sum(raw, Frac(0))
    if total == 0:
        return raw[:-1] + [Frac(1)]
    return [w / total for w in raw]


@given(rational_sets(), split_weights())
def test_vertical_split_matches_rect_reference(s, ws):
    want = reference_vertical_split(s, ws)

    def no_rect(*args, **kwargs):
        raise AssertionError("vertical_split built a Rect")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "Rect", no_rect)
        got = vertical_split(s, ws)
    assert len(got) == len(want)
    # equal sets are one object
    assert all(part is ref for part, ref in zip(got, want))
    assert sum((part.measure for part in got), Frac(0)) == s.measure


def test_vertical_split_into_a_thousand_parts():
    s = RationalSet.from_rects([Rect(Frac(0), Frac(1, 3), Frac(1, 5), Frac(4, 5)),
                                Rect(Frac(1, 2), Frac(1), Frac(0), Frac(1, 7))])
    ws = [Frac(1, 1000)] * 1000
    got = vertical_split(s, ws)
    assert all(part is ref for part, ref in zip(got, reference_vertical_split(s, ws)))
    assert all(part.measure == s.measure / 1000 for part in got)


@pytest.mark.parametrize("weights, message", [
    ([Frac(3, 2), Frac(-1, 2)], "weights must be nonnegative"),
    ([Frac(1, 3), Frac(1, 3)], "weights must sum to 1"),
    ([], "weights must sum to 1"),
])
def test_vertical_split_refusals_match_reference(weights, message):
    s = RationalSet.from_rect(0, Frac(1, 2), 0, 1)
    for split in (vertical_split, reference_vertical_split):
        with pytest.raises(ValueError, match=f"^{message}$"):
            split(s, weights)


def reference_density_split(s: RationalSet, densities) -> list[RationalSet]:
    """density_split through Fraction rectangles, slice_at, Profile.at and
    one from_rects sweep per part, kept as a reference."""
    profs = list(densities)
    for p in profs:
        if not isinstance(p, Profile):
            raise TypeError(f"density must be a Profile, got {p!r}")
        if not p.is_nonnegative():
            raise ValueError("densities must be nonnegative")
    xs = sorted({x for lo, hi, _ in s.columns for x in (lo, hi)}
                | set().union(*[p.breakpoints() for p in profs])
                | {ZERO, ONE})
    parts_rects: list[list[Rect]] = [[] for _ in profs]
    for lo, hi in zip(xs, xs[1:]):
        ys = s.slice_at(lo)
        height = _ys_total(ys)
        vals = [p.at(lo) for p in profs]
        if sum(vals, ZERO) != height:
            raise DensityMismatch(lo, hi, height, sum(vals, ZERO))
        # stack the slice intervals and cut off each density's share in turn
        stack = list(ys)
        si = 0
        cur = stack[0][0] if stack else None
        for q, need in enumerate(vals):
            while need > 0:
                c, d = stack[si]
                take = min(need, d - cur)
                parts_rects[q].append(Rect(lo, hi, cur, cur + take))
                cur += take
                need -= take
                if cur == d and si + 1 < len(stack):
                    si += 1
                    cur = stack[si][0]
    return [RationalSet.from_rects(rs) for rs in parts_rects]


def int_density_split(s, densities):
    """density_split with Rect, from_rects, slice_at and Profile.at refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("density_split left the int columns")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "Rect", refuse)
        mp.setattr(RationalSet, "from_rects", refuse)
        mp.setattr(RationalSet, "slice_at", refuse)
        mp.setattr(Profile, "at", refuse)
        return density_split(s, densities)


@st.composite
def sliced_densities(draw):
    """(s, densities): one to four multi-piece densities summing to s's
    slice, with breakpoints inside s's columns, in the gaps between them
    and at random points."""
    s = draw(rational_sets())
    ends = sorted({ZERO, ONE} | {x for lo, hi, _ in s.columns for x in (lo, hi)})
    mids = {(a + b) / 2 for a, b in zip(ends, ends[1:])}
    xs = sorted(set(ends) | mids | set(draw(st.lists(fracs01, max_size=3))))
    k = draw(st.integers(1, 4))
    pieces: list[list] = [[] for _ in range(k)]
    for lo, hi in zip(xs, xs[1:]):
        height = _ys_total(s.slice_at(lo))
        ws = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        ws[-1] += not any(ws)
        for q, w in enumerate(ws):
            pieces[q].append((lo, hi, height * w / sum(ws)))
    return s, [Profile(p) for p in pieces]


def _parts_are_the_reference(s, densities):
    want = reference_density_split(s, densities)
    got = int_density_split(s, densities)
    assert len(got) == len(want)
    # equal sets are one object
    assert all(part is ref for part, ref in zip(got, want))
    assert [slice_profile(part) for part in got] == densities


@given(st.integers(0, 10 ** 6))
def test_density_split_matches_rect_reference_on_sampled_instances(seed):
    _parts_are_the_reference(*SampleStream(seed).density_split_instance())


@given(sliced_densities())
def test_density_split_matches_rect_reference_on_multi_piece_densities(case):
    _parts_are_the_reference(*case)


_HALF_SQUARE = RationalSet.from_rects([Rect(Frac(0), Frac(1, 4), Frac(0), Frac(1)),
                                       Rect(Frac(1, 2), Frac(1), Frac(0), Frac(1, 2))])


@pytest.mark.parametrize("s, densities", [
    # a wrong type
    (RationalSet.unit_square(), [Profile.constant(1), "1"]),
    # a negative density
    (RationalSet.unit_square(),
     [Profile.constant(Frac(3, 2)), Profile.constant(Frac(-1, 2))]),
    # sum mismatches inside a column, in the gap between two columns,
    # before the first column and past the last one
    (RationalSet.unit_square(),
     [Profile.constant(Frac(1, 2)), Profile.constant(Frac(1, 3))]),
    (_HALF_SQUARE, [Profile([(0, Frac(1, 4), 1), (Frac(1, 3), Frac(1, 2), Frac(1, 3)),
                             (Frac(1, 2), 1, Frac(1, 2))])]),
    (RationalSet.vertical_strip(Frac(1, 2), 1), [Profile([(Frac(1, 4), 1, 1)])]),
    (RationalSet.vertical_strip(0, Frac(1, 2)), [Profile.constant(1)]),
], ids=["type", "negative", "column", "gap", "before", "past"])
def test_density_split_refusals_match_reference(s, densities):
    raised = []
    for split in (density_split, reference_density_split):
        with pytest.raises((TypeError, ValueError)) as info:
            split(s, densities)
        raised.append((type(info.value), str(info.value), vars(info.value)))
    assert raised[0] == raised[1]


def test_density_split_exact():
    s = RationalSet.unit_square()
    half = Profile.constant(Frac(1, 2))
    a, b = density_split(s, [half, half])
    assert a.measure == b.measure == Frac(1, 2)
    assert a.union(b) == s
    # densities must add up to the slice profile exactly
    with pytest.raises(DensityMismatch):
        density_split(s, [half, Profile.constant(Frac(1, 3))])


def test_density_split_varying():
    s = RationalSet.from_rect(Frac(0), Frac(1), Frac(0), Frac(1, 2))
    d1 = Profile([(Frac(0), Frac(1, 2), Frac(1, 2))])
    d2 = Profile([(Frac(1, 2), Frac(1), Frac(1, 2))])
    a, b = density_split(s, [d1, d2])
    assert a.measure == Frac(1, 4)
    assert slice_profile(a) == d1
    assert slice_profile(b) == d2


def _column_sorting_sweep(sets: tuple) -> tuple:
    """The sweep that _sweep replaced, kept verbatim: it sorts every scaled
    column by lo and steps a cursor through them."""
    den = lcm(*(s._den for s in sets))
    cols = []
    for k, s in enumerate(sets):
        f = den // s._den
        cols.extend((lo * f, hi * f, [(c * f, d * f, k) for c, d in ys])
                    for lo, hi, ys in s._cols)
    cols.sort(key=itemgetter(0))
    xs = sorted({x for lo, hi, _ in cols for x in (lo, hi)})
    steps = []
    active: list = []
    i = 0
    for lo, hi in zip(xs, xs[1:]):
        active = [col for col in active if col[1] > lo]
        while i < len(cols) and cols[i][0] == lo:
            active.append(cols[i])
            i += 1
        slices = tuple(sorted(chain.from_iterable(col[2] for col in active)))
        steps.append((lo, hi, slices))
    return den, tuple(steps)


# denominators up to 30 next to conftest's up to 8, so sweeps mix them
wide_fracs = st.fractions(min_value=0, max_value=1, max_denominator=30)


@st.composite
def wide_rect_sets(draw):
    xs = sorted(draw(st.lists(wide_fracs, min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(wide_fracs, min_size=2, max_size=2, unique=True)))
    return RationalSet.from_rect(*xs, *ys)


@st.composite
def sweep_set_tuples(draw):
    """1 to 8 sets of mixed denominators whose columns repeat, nest and
    touch, the empty set among them."""
    sets = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "wide", "repeat", "nested",
                                     "touching", "empty")))
        earlier = draw(st.sampled_from(sets)) if sets else RationalSet.empty()
        if kind == "empty":
            s = RationalSet.empty()
        elif kind == "wide":
            s = draw(wide_rect_sets())
        elif kind == "repeat" and sets:
            s = earlier
        elif kind == "nested" and earlier:
            s = earlier.intersect(draw(wide_rect_sets()))
        elif kind == "touching" and earlier:
            # a strip that starts or ends where a column of earlier does
            x = draw(st.sampled_from([x for lo, hi, _ in earlier.columns
                                      for x in (lo, hi)]))
            y = draw(wide_fracs)
            s = RationalSet.from_rect(min(x, y), max(x, y), 0, draw(wide_fracs))
        else:
            s = draw(rational_sets())
        sets.append(s)
    return tuple(sets)


_A = RationalSet.from_rect(Frac(1, 3), Frac(1, 2), 0, Frac(1, 5))
_B = RationalSet.from_rect(Frac(1, 2), 1, Frac(1, 7), 1)
_EMPTY = RationalSet.empty()


@given(sweep_set_tuples())
@example((_EMPTY,))
@example((_EMPTY, _EMPTY))
@example((_A, _A))
@example((_A, _EMPTY, _B, _A))
@example((_B, _A, _B))
@settings(max_examples=400)
def test_sweep_matches_the_column_sorting_sweep(sets):
    got = _sweep(sets)
    assert got == _column_sorting_sweep(sets)
    assert _only_tuples(got)


@st.composite
def spelled_corners(draw):
    """A corner in [-1, 2] spelled in one of the accepted forms: a
    Fraction, a 'p/q' string, an int or its string, or a bool."""
    x = draw(st.one_of(st.sampled_from((Frac(0), Frac(1))),
                       st.fractions(min_value=-1, max_value=2, max_denominator=6)))
    forms = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms += [int(x), str(int(x))]
    if x in (0, 1):
        forms.append(bool(x))
    return draw(st.sampled_from(forms))


def reference_from_rect(corners):
    """The set of the corners' box, through a checked Rect and from_rects."""
    x0, x1, y0, y1 = map(Frac, corners)
    if x0 >= x1 or y0 >= y1:
        return RationalSet.empty()
    return RationalSet.from_rects([Rect(x0, x1, y0, y1)])


@given(st.lists(spelled_corners(), min_size=4, max_size=4))
# degenerate boxes off the square are empty, before any range check
@example([2, 2, 0, 1])
@example([-1, -1, 5, 3])
@example([Frac(3, 2), 1, -1, 2])
@example(["7/3", "1/2", 0, 1])
# boxes off the square: each axis refuses with its own message
@example([-1, 0, 0, 1])
@example([0, Frac(3, 2), 2, 3])
@example([0, 1, Frac(-1, 3), 1])
@example([0, True, 0, "4/3"])
@settings(max_examples=400)
def test_from_rect_matches_a_checked_rect(corners):
    try:
        want = reference_from_rect(corners)
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            RationalSet.from_rect(*corners)
        assert str(info.value) == str(e)
    else:
        assert RationalSet.from_rect(*corners) is want
