from fractions import Fraction

import pytest
from hypothesis import strategies as st

from belle_paire.measure import RationalSet, Rect, StepMap
from belle_paire.structures import FqVector

# small denominators keep the column arithmetic honest but fast
fracs01 = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def rects(draw):
    xs = sorted(draw(st.lists(fracs01, min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(fracs01, min_size=2, max_size=2, unique=True)))
    return Rect(xs[0], xs[1], ys[0], ys[1])


@st.composite
def rational_sets(draw, max_rects=3):
    n = draw(st.integers(0, max_rects))
    s = RationalSet.empty()
    for _ in range(n):
        s = s.union(RationalSet.from_rects([draw(rects())]))
    return s


@st.composite
def cut_points(draw, den=12, max_cuts=3):
    ks = draw(st.lists(st.integers(1, den - 1), max_size=max_cuts, unique=True))
    return [Fraction(0)] + [Fraction(k, den) for k in sorted(ks)] + [Fraction(1)]


@st.composite
def step_maps(draw, alphabet=4):
    cuts = draw(cut_points())
    vals = [draw(st.integers(0, alphabet - 1)) for _ in cuts[:-1]]
    return StepMap.from_vertical_strips(
        (lo, hi, v) for lo, hi, v in zip(cuts, cuts[1:], vals))


@st.composite
def grid_step_maps(draw, alphabet=4, den=6):
    """Two-dimensional cells, not just vertical strips."""
    xs = draw(cut_points(den=den, max_cuts=2))
    ys = draw(cut_points(den=den, max_cuts=2))
    cells = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            v = draw(st.integers(0, alphabet - 1))
            cells.append((RationalSet.from_rect(x0, x1, y0, y1), v))
    return StepMap(cells)


@pytest.fixture
def decode_calls(monkeypatch):
    """The codes FqVector.decode builds a vector for while the test runs."""
    codes = []
    decode = FqVector.decode.__func__

    def counting(cls, q, k):
        codes.append(k)
        return decode(cls, q, k)

    monkeypatch.setattr(FqVector, "decode", classmethod(counting))
    return codes
