from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belle_paire.measure import (
    Frac,
    Profile,
    RationalSet,
    StepMap,
    slice_profile,
)
from belle_paire.realization import (
    RealizationSpec,
    assemble_realization,
    verify_probability_identity,
)
from belle_paire.sampling import SampleStream


def half_and_half_spec():
    left = RationalSet.vertical_strip(Frac(0), Frac(1, 2))
    right = RationalSet.vertical_strip(Frac(1, 2), Frac(1))
    lp = Profile([(Frac(0), Frac(1, 2), Frac(1, 2))])
    return RealizationSpec([
        (left, [("a", lp), ("b", lp)]),
        (right, [("c", Profile([(Frac(1, 2), Frac(1), Frac(1))]))]),
    ])


def test_spec_accepts_exact_partition():
    spec = half_and_half_spec()
    assert spec.values() == ["a", "b", "c"]


def test_spec_rejects_density_shortfall():
    left = RationalSet.vertical_strip(Frac(0), Frac(1, 2))
    right = RationalSet.vertical_strip(Frac(1, 2), Frac(1))
    with pytest.raises(ValueError, match="density sum mismatch"):
        RealizationSpec([
            (left, [("a", Profile([(Frac(0), Frac(1, 2), Frac(1, 3))]))]),
            (right, [("c", Profile([(Frac(1, 2), Frac(1), Frac(1))]))]),
        ])


def test_spec_rejects_home_overlap():
    s = RationalSet.vertical_strip(Frac(0), Frac(3, 4))
    t = RationalSet.vertical_strip(Frac(1, 2), Frac(1))
    p = slice_profile(s)
    q = slice_profile(t)
    with pytest.raises(ValueError, match="overlaps"):
        RealizationSpec([(s, [("a", p)]), (t, [("b", q)])])


def test_spec_rejects_partial_cover():
    s = RationalSet.vertical_strip(Frac(0), Frac(1, 2))
    with pytest.raises(ValueError, match="partition"):
        RealizationSpec([(s, [("a", slice_profile(s))])])


def test_spec_rejects_repeated_values_within_group():
    s = RationalSet.unit_square()
    h = Profile.constant(Frac(1, 2))
    with pytest.raises(ValueError):
        RealizationSpec([(s, [("a", h), ("a", h)])])


def test_spec_rejects_negative_density():
    s = RationalSet.unit_square()
    with pytest.raises(ValueError, match="^group 0: densities must be nonnegative$"):
        RealizationSpec([(s, [("a", Profile.constant(Frac(3, 2))),
                              ("b", Profile.constant(Frac(-1, 2)))])])


def test_spec_names_the_first_mismatching_interval():
    # the densities' breakpoint at 1/2 cancels in their sum, and the
    # mismatch is named on the first interval between any two breakpoints
    s = RationalSet.unit_square()
    a = Profile([(0, Frac(1, 2), Frac(1, 4)), (Frac(1, 2), 1, Frac(1, 2))])
    b = Profile([(0, Frac(1, 2), Frac(1, 2)), (Frac(1, 2), 1, Frac(1, 4))])
    with pytest.raises(ValueError) as info:
        RealizationSpec([(s, [("a", a), ("b", b)])])
    assert type(info.value) is ValueError
    assert str(info.value) == ("group 0: density sum mismatch on [0,1/2): "
                               "expected 1, got 3/4")


def test_assemble_measures_match_densities():
    spec = half_and_half_spec()
    f = assemble_realization(spec)
    assert f.support_of("a").measure == Frac(1, 4)
    assert f.support_of("b").measure == Frac(1, 4)
    assert f.support_of("c").measure == Frac(1, 2)
    # supports stay inside their home sets
    left = RationalSet.vertical_strip(Frac(0), Frac(1, 2))
    assert f.support_of("a").intersect(left) == f.support_of("a")


def test_verify_identity_on_assembled_map():
    spec = half_and_half_spec()
    f = assemble_realization(spec)
    events = [(RationalSet.unit_square(), lambda v: True),
              (RationalSet.vertical_strip(Frac(0), Frac(1, 4)),
               lambda v: v == "a"),
              (RationalSet.vertical_strip(Frac(1, 4), Frac(1)),
               lambda v: v in ("b", "c"))]
    rep = verify_probability_identity(f, spec, events)
    assert rep.ok
    assert not rep.mismatches()
    assert len(rep.rows) == len(events) * len(spec.groups)
    for row in rep.rows:
        assert row.lhs == row.rhs


def test_verify_reports_mismatch_without_raising():
    spec = half_and_half_spec()
    # deliberately wrong map: all mass on one value
    wrong = StepMap.constant("a")
    rep = verify_probability_identity(wrong, spec, [
        (RationalSet.unit_square(), lambda v: v == "c")])
    assert not rep.ok
    assert rep.mismatches()


def test_verify_requires_vertical_events():
    spec = half_and_half_spec()
    f = assemble_realization(spec)
    diag = RationalSet.from_rect(Frac(0), Frac(1, 2), Frac(0), Frac(1, 2))
    with pytest.raises(ValueError):
        verify_probability_identity(f, spec, [(diag, lambda v: True)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sampled_specs_round_trip(seed):
    rng = SampleStream(seed)
    spec = rng.realization_spec()
    f = assemble_realization(spec)
    values = spec.values()
    events = [(RationalSet.unit_square(), lambda v: True)]
    events += [(RationalSet.unit_square(), lambda v, t=t: v == t)
               for t in values]
    events += [(RationalSet.vertical_strip(Frac(0), Frac(1, 3)),
                lambda v, t=t: v == t) for t in values[:2]]
    rep = verify_probability_identity(f, spec, events)
    assert rep.ok
    total = sum((f.support_of(v).measure for v in values), Frac(0))
    assert total == 1


def _pairwise_report_rows(f, spec, events):
    """Every left-hand side by pairwise intersection of each cell of f with
    the event and the home set."""
    rows = []
    for ei, (b, pred) in enumerate(events):
        shadow = b.omega_shadow()
        for ci, (home, pieces) in enumerate(spec.groups):
            lhs = sum((s.intersect(b).intersect(home).measure
                       for s, v in f.cells if pred(v)), Frac(0))
            rhs = sum((p.integral_over(shadow)
                       for v, p in pieces if pred(v)), Frac(0))
            rows.append((ei, ci, lhs, rhs))
    return rows


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_report_rows_match_pairwise_reference(seed, rotate):
    spec = SampleStream(seed).realization_spec()
    values = spec.values()
    # the assembled map, and one with its values rotated so rows mismatch
    f = assemble_realization(spec)
    shifted = f.map_values(lambda v: values[(values.index(v) + rotate) % len(values)])
    events = [(RationalSet.unit_square(), lambda v: True),
              (RationalSet.empty(), lambda v: True),
              (RationalSet.vertical_strip(Frac(0), Frac(1, 2)),
               lambda v: v == values[0])]
    events += [(RationalSet.vertical_strip(Frac(i, 7), Frac(i + 3, 7)),
                lambda v, t=t: v == t) for i, t in enumerate(values[:4])]
    events += [(RationalSet.unit_square(), lambda v, t=t: v != t)
               for t in values[:3]]
    for g in (f, shifted):
        rep = verify_probability_identity(g, spec, events)
        assert [(r.event_index, r.group_index, r.lhs, r.rhs)
                for r in rep.rows] == _pairwise_report_rows(g, spec, events)
        assert rep.ok == all(r.lhs == r.rhs for r in rep.rows)
