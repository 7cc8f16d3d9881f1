from collections import Counter
from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belle_paire.measure as measure
import belle_paire.random_endo as random_endo
from belle_paire.approx import (
    OrbitClassifier,
    approximate_by_automorphisms,
    defect_profile,
)
from belle_paire.measure import (
    Frac,
    RationalSet,
    StepMap,
    _layout_of,
    common_refinement,
    l1_distance,
    slice_profile,
    vertical_split,
)
from belle_paire.random_endo import (
    BudgetLine,
    Certificate,
    NoRepresentativeMatch,
    PairModel,
    Refusal,
    StructuralMismatch,
    approximate_random_endo,
    apply_random_endo,
    brute_force_dist_to_image,
    certify_epsilon_isomorphism,
    compose_random_endos,
    constant_endo,
    dist_to_image,
    endos_agree_on_window,
    hausdorff_gap,
    max_strip_probe_distance,
    orbit_reduce,
    validate_random_endo,
)
from belle_paire.sampling import SampleStream
from belle_paire.structures import (
    FqVector,
    FqVectors,
    IdentityInjection,
    NaturalNumbers,
    NonInjectiveOnWindow,
    ShiftInjection,
    TableInjection,
    basis_shift_endo,
    identity_endo,
    shift_endo,
    successor_endo,
    window_permutation,
)

from conftest import cut_points, grid_step_maps, step_maps

NAT = NaturalNumbers()


def two_rep_endo():
    return StepMap.uniform_strips([identity_endo(NAT), successor_endo()])


def test_validate_rejects_mixed_carriers():
    from belle_paire.structures import basis_shift_endo
    mixed = StepMap.uniform_strips([identity_endo(NAT),
                                    basis_shift_endo(2)])
    with pytest.raises(StructuralMismatch):
        validate_random_endo(mixed)
    assert validate_random_endo(two_rep_endo()) == NAT


def test_apply_pushes_values_through():
    h_hat = two_rep_endo()
    f = StepMap.constant(3)
    out = apply_random_endo(h_hat, f)
    assert out.value_at(Frac(1, 4), Frac(0)) == 3
    assert out.value_at(Frac(3, 4), Frac(0)) == 4


def test_compose_on_common_refinement():
    a = constant_endo(successor_endo())
    b = StepMap.uniform_strips([identity_endo(NAT), shift_endo(2)])
    c = compose_random_endos(a, b)
    # left strip: x+1 after identity; right strip: x+1 after x+2
    assert c.value_at(Frac(0), Frac(0)).apply(10) == 11
    assert c.value_at(Frac(3, 4), Frac(0)).apply(10) == 13


def test_endos_agree_on_window():
    assert endos_agree_on_window(two_rep_endo(), two_rep_endo(), 100)
    assert not endos_agree_on_window(two_rep_endo(),
                                     constant_endo(identity_endo(NAT)), 100)


def test_orbit_reduce_exact_match_costs_nothing():
    h_hat = two_rep_endo()
    red = orbit_reduce(h_hat, [identity_endo(NAT), successor_endo()], 100)
    for s, g in red.g_hat.cells:
        assert isinstance(g, IdentityInjection)
    assert endos_agree_on_window(red.reconstruct(), h_hat, 100)


def test_orbit_reduce_factors_through_lowest_index():
    # any window-injective value factors through any injective rep by
    # completing the complement, so the lowest index always wins when no rep
    # matches exactly; the twist absorbs the difference
    swap = window_permutation(NAT, {1: 2, 2: 1})
    h_hat = constant_endo(swap.compose(successor_endo()))
    red = orbit_reduce(h_hat, [identity_endo(NAT), successor_endo()], 60)
    assert red.assignment.value_at(Frac(1, 2), Frac(1, 2)) == 0
    ((_, twist),) = red.g_hat.cells
    assert not isinstance(twist, IdentityInjection)
    assert twist.window_bijectivity(60)
    assert endos_agree_on_window(red.reconstruct(), h_hat, 60)


def test_orbit_reduce_exact_match_beats_factoring():
    # phase one: a rep agreeing on the whole window wins even when an
    # earlier rep could factor it with a twist
    h_hat = constant_endo(successor_endo())
    red = orbit_reduce(h_hat, [identity_endo(NAT), successor_endo()], 50)
    assert red.assignment.value_at(Frac(1, 2), Frac(1, 2)) == 1
    ((_, twist),) = red.g_hat.cells
    assert isinstance(twist, IdentityInjection)


def test_orbit_reduce_no_match_raises():
    h_hat = constant_endo(successor_endo())
    with pytest.raises(NoRepresentativeMatch):
        orbit_reduce(h_hat, [], 50)


@pytest.mark.parametrize("eps", [Frac(1, 2), Frac(1, 10), Frac(1, 100)])
def test_approximate_bound_and_budget_lines(eps):
    h_hat = two_rep_endo()
    cert = approximate_random_endo(h_hat, None, eps, 200)
    assert cert.bound <= eps
    assert sum((ln.contribution for ln in cert.lines), Frac(0)) == cert.bound
    for ln in cert.lines:
        assert ln.contribution == ln.measure * Frac(ln.max_defect, ln.pieces)
    # every value of the result is a window bijection
    for v in cert.g_hat.values():
        assert v.window_bijectivity(120)


def test_approximate_automorphism_passthrough():
    auto = window_permutation(NAT, {0: 1, 1: 0})
    cert = approximate_random_endo(constant_endo(auto), None, Frac(1, 7), 100)
    assert cert.bound == 0
    assert cert.g_hat == constant_endo(auto)


def test_approximation_values_are_window_bijections():
    # table{39>5000} moves no window point off its one-sigma family, but
    # 39 has no preimage under it, so the table cannot be kept as is
    h_hat = constant_endo(TableInjection(NAT, {39: 5000}))
    cert = approximate_random_endo(h_hat, None, Frac(1, 10), 40)
    pair_cert = certify_epsilon_isomorphism(
        PairModel("nat", 40, constant_endo(identity_endo(NAT))),
        PairModel("nat", 40, h_hat), Frac(1, 10))
    assert cert.bound == 0 and pair_cert.ok
    for g in cert.g_hat.values() + pair_cert.g_hat.values():
        for k in range(40):
            x = g.preimage_code(k)
            assert x is not None and g.apply_code(x) == k, (g, k)


def test_approximate_refuses_a_collision_past_the_first_256_points():
    # 300 and 5000 both map to 5000: the whole window 6000 is checked, not
    # only the 256 points approximate_by_automorphisms validates
    h_hat = constant_endo(TableInjection(NAT, {300: 5000}))
    with pytest.raises(NonInjectiveOnWindow, match="300 and 5000 both map to 5000"):
        approximate_random_endo(h_hat, None, Frac(1, 2), 6000)
    # on a window below 5000 the table is injective and is certified
    assert approximate_random_endo(h_hat, None, Frac(1, 2), 4000).bound == 0


def test_approximate_probe_distances_within_bound():
    eps = Frac(1, 6)
    h_hat = two_rep_endo()
    cert = approximate_random_endo(h_hat, None, eps, 150)
    for a in range(25):
        f = StepMap.constant(a)
        d = l1_distance(apply_random_endo(cert.g_hat, f),
                        apply_random_endo(h_hat, f))
        assert d <= cert.bound


def test_dist_to_image_zero_when_reachable():
    h_hat = constant_endo(successor_endo())
    f = StepMap.constant(3)
    g = apply_random_endo(h_hat, f)
    assert dist_to_image(g, h_hat) == 0
    # 0 has no successor preimage anywhere, so distance is the full mass
    assert dist_to_image(StepMap.constant(0), h_hat) == 1


def test_dist_to_image_partial():
    h_hat = two_rep_endo()
    # on the left half 0 is its own preimage, on the right nothing hits 0
    assert dist_to_image(StepMap.constant(0), h_hat) == Frac(1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dist_to_image_matches_brute_force(seed):
    rng = SampleStream(seed)
    h_hat = rng.endo_over_reps([identity_endo(NAT), successor_endo()],
                               cells=rng.rng.randint(1, 2), twist_size=4)
    cuts = rng.cuts(rng.rng.randint(1, 2))
    vals = [rng.rng.randrange(3) for _ in cuts[:-1]]
    f = StepMap.from_vertical_strips(
        (lo, hi, v) for lo, hi, v in zip(cuts, cuts[1:], vals))
    # the oracle needs the common refinement strips and a pool covering
    # every preimage of f's alphabet plus one throwaway point
    xs = sorted({x for m in (f, h_hat) for s, _ in m.cells
                 for col in s.columns for x in col[:2]})
    strips = list(zip(xs, xs[1:]))
    pool = list(range(6))
    exact = dist_to_image(f, h_hat)
    brute = brute_force_dist_to_image(f, h_hat, strips, pool)
    assert exact == brute


def reference_dist_to_image(f, h_hat):
    """dist_to_image read piece by piece through Fraction slices, kept as a
    reference."""
    dom = validate_random_endo(h_hat)
    pieces = common_refinement([f, h_hat])
    alphabet = set(f.values())
    hs = list(dict.fromkeys(h for _, (_, h) in pieces))
    candidates = []
    seen = set()
    for h in hs:
        for v in alphabet:
            a = h.preimage(v)
            if a is not None and a not in seen:
                seen.add(a)
                candidates.append(a)
    for x in map(dom.point_at, count()):
        if x not in seen and all(h.apply(x) not in alphabet for h in hs):
            candidates.append(x)
            break
    xs = sorted({x for s, _ in pieces for lo, hi, _ in s.columns
                 for x in (lo, hi)} | {Frac(0), Frac(1)})
    total = Frac(0)
    for lo, hi in zip(xs, xs[1:]):
        best = Frac(0)
        for a in candidates:
            cover = Frac(0)
            for s, (fv, h) in pieces:
                if h.apply(a) == fv:
                    cover += sum((d - c for c, d in s.slice_at(lo)), Frac(0))
            best = max(best, cover)
        total += (hi - lo) * (1 - best)
    return total


def reference_hausdorff_gap(g_hat, h_hat, alphabet):
    """hausdorff_gap with the upper bound from unions of disagreement pieces
    and the lower bound from one distance per constant probe, kept as a
    reference."""
    if isinstance(alphabet, int):
        alphabet = validate_random_endo(g_hat).window(alphabet)
    pieces = common_refinement([g_hat, h_hat])
    profiles = []
    for a in alphabet:
        bad = RationalSet.empty()
        for s, (g, h) in pieces:
            if g.apply(a) != h.apply(a):
                bad = bad.union(s)
        profiles.append(slice_profile(bad))
    xs = sorted(set().union(*[p.breakpoints() for p in profiles])
                | {Frac(0), Frac(1)})
    upper = Frac(0)
    for lo, hi in zip(xs, xs[1:]):
        upper += (hi - lo) * max((p.at(lo) for p in profiles), default=Frac(0))
    lower = Frac(0)
    for f in map(StepMap.constant, alphabet):
        lower = max(lower,
                    reference_dist_to_image(apply_random_endo(g_hat, f), h_hat),
                    reference_dist_to_image(apply_random_endo(h_hat, f), g_hat))
    return upper, lower


# injections of the naturals: identity, successor, shifts, finite
# permutations alone or after the successor, and a sigma family, whose
# image rows on a window are read from its moves
INJECTIONS = [
    identity_endo(NAT),
    successor_endo(),
    shift_endo(2),
    shift_endo(3),
    window_permutation(NAT, {0: 1, 1: 0}),
    window_permutation(NAT, {0: 2, 2: 3, 3: 0}),
    window_permutation(NAT, {1: 3, 3: 1}).compose(successor_endo()),
    window_permutation(NAT, {0: 4, 4: 0}).compose(shift_endo(2)),
    *approximate_by_automorphisms(shift_endo(2), 3),
]


def _maps(alphabet):
    """Strip and grid step maps over denominators 2 to 12, valued in
    range(alphabet)."""
    return st.one_of(
        step_maps(alphabet=alphabet),
        st.integers(2, 6).flatmap(
            lambda den: grid_step_maps(alphabet=alphabet, den=den)))


endo_maps = _maps(len(INJECTIONS)).map(
    lambda m: m.map_values(INJECTIONS.__getitem__))


@settings(max_examples=120, deadline=None)
@given(_maps(6), endo_maps)
def test_dist_to_image_matches_reference(f, h_hat):
    assert dist_to_image(f, h_hat) == reference_dist_to_image(f, h_hat)


@settings(max_examples=120, deadline=None)
@given(endo_maps, endo_maps,
       st.one_of(st.integers(1, 7),
                 st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)))
def test_hausdorff_gap_matches_reference(g_hat, h_hat, alphabet):
    assert hausdorff_gap(g_hat, h_hat, alphabet) == \
        reference_hausdorff_gap(g_hat, h_hat, alphabet)


def test_hausdorff_gap_reads_constant_probes_off_one_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant probe went through the generic path")

    g_hat = two_rep_endo()
    h_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 3), shift_endo(2)), (Frac(1, 3), 1, successor_endo())])
    want = reference_hausdorff_gap(g_hat, h_hat, 6)
    for name in ("dist_to_image", "apply_random_endo", "common_refinement"):
        monkeypatch.setattr(random_endo, name, refuse)
    assert hausdorff_gap(g_hat, h_hat, 6) == want


def test_brute_force_builds_each_strip_once(monkeypatch):
    h_hat = two_rep_endo()
    built = []
    strip = RationalSet.vertical_strip.__func__

    def counting_strip(cls, x0, x1):
        built.append((x0, x1))
        return strip(cls, x0, x1)

    monkeypatch.setattr(RationalSet, "vertical_strip", classmethod(counting_strip))
    strips = [(Frac(0), Frac(1, 3)), (Frac(1, 3), Frac(1))]
    d = brute_force_dist_to_image(StepMap.constant(0), h_hat, strips,
                                  list(range(4)))
    assert d == Frac(1, 2)
    assert sorted(built) == strips


def reference_brute_force_dist_to_image(f, h_hat, strips, pool):
    """The brute force with one g map and one refinement of h_hat against
    it per assignment, kept as a reference."""
    validate_random_endo(h_hat)
    sets = [RationalSet.vertical_strip(lo, hi) for lo, hi in strips]
    image = {(h, a): h.apply(a) for h in h_hat.values() for a in pool}
    best = None
    for combo in product(pool, repeat=len(strips)):
        g = StepMap(zip(sets, combo))
        d = l1_distance(f, StepMap([(s, image[ha]) for s, ha
                                    in common_refinement([h_hat, g])]))
        if best is None or d < best:
            best = d
    return best


# identity(2) == successor(1) == shift(2)(0): distinct pool points share an
# image across cells, so the image maps of distinct assignments fuse
ORACLE_VALUES = [identity_endo(NAT), successor_endo(), shift_endo(2)]


@settings(max_examples=40, deadline=None)
@given(grid_step_maps(alphabet=3), grid_step_maps(alphabet=4),
       cut_points(den=5, max_cuts=2),
       st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_brute_force_matches_reference(h_cells, f, cuts, pool):
    # h_hat's cells sit on the 1/6 grid and the strips on the 1/5 grid, so
    # the strips cut h_hat's cells off its breakpoints
    h_hat = h_cells.map_values(ORACLE_VALUES.__getitem__)
    strips = list(zip(cuts, cuts[1:]))
    assert brute_force_dist_to_image(f, h_hat, strips, pool) == \
        reference_brute_force_dist_to_image(f, h_hat, strips, pool)


def test_brute_force_refines_once(monkeypatch):
    layouts = []
    built = []

    def counting_layout(maps):
        layouts.append(maps)
        return _layout_of(maps)

    class CountingStepMap(StepMap):
        def __init__(self, cells):
            built.append(self)
            super().__init__(cells)

    def refuse(*args):
        raise AssertionError("an assignment was scored through l1_distance")

    monkeypatch.setattr(random_endo, "_layout_of", counting_layout)
    monkeypatch.setattr(random_endo, "StepMap", CountingStepMap)
    monkeypatch.setattr(random_endo, "l1_distance", refuse, raising=False)
    monkeypatch.setattr(measure, "l1_distance", refuse)
    h_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 3), successor_endo()), (Frac(1, 3), 1, identity_endo(NAT))])
    f = StepMap.from_vertical_strips([(0, Frac(1, 2), 1), (Frac(1, 2), 1, 2)])
    strips = [(Frac(0), Frac(1, 4)), (Frac(1, 4), Frac(2, 3)), (Frac(2, 3), Frac(1))]
    pool = [0, 1, 2, 3]
    d = brute_force_dist_to_image(f, h_hat, strips, pool)
    assert d == reference_brute_force_dist_to_image(f, h_hat, strips, pool)
    # one layout of f, h_hat and the strip map; the strip map is the one map
    assert len(layouts) == 1 and layouts[0][:2] == [f, h_hat]
    assert built == [layouts[0][2]]


def test_brute_force_scores_every_assignment_once(monkeypatch):
    scored = []

    def counting_product(*lines):
        for picks in product(*lines):
            scored.append(picks)
            yield picks

    monkeypatch.setattr(random_endo, "iter_product", counting_product)
    h_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 3), successor_endo()), (Frac(1, 3), 1, identity_endo(NAT))])
    f = StepMap.from_vertical_strips([(0, Frac(1, 2), 1), (Frac(1, 2), 1, 2)])
    strips = [(Frac(0), Frac(1, 4)), (Frac(1, 4), Frac(2, 3)), (Frac(2, 3), Frac(1))]
    pool = [0, 1, 2, 3, 4]
    d = brute_force_dist_to_image(f, h_hat, strips, pool)
    assert d == reference_brute_force_dist_to_image(f, h_hat, strips, pool)
    assert len(scored) == len(pool) ** len(strips)


def test_brute_force_refuses_an_empty_pool_and_untiled_strips(monkeypatch):
    def refuse(*args):
        raise AssertionError("an assignment was scored")

    monkeypatch.setattr(random_endo, "_layout_of", refuse)
    h_hat = constant_endo(successor_endo())
    with pytest.raises(ValueError, match="non-empty pool"):
        brute_force_dist_to_image(StepMap.constant(0), h_hat, [(0, 1)], [])
    # strips that miss part of the square, or overlap, refuse before the loop
    with pytest.raises(ValueError, match="cells measure 1/2, expected 1"):
        brute_force_dist_to_image(StepMap.constant(0), h_hat,
                                  [(0, Frac(1, 2))], [0, 1])
    with pytest.raises(ValueError, match="cells overlap"):
        brute_force_dist_to_image(StepMap.constant(0), h_hat,
                                  [(0, Frac(1, 2)), (Frac(1, 4), Frac(3, 4))],
                                  [0, 1])


def reference_max_strip_probe_distance(g_hat, h_hat, strips, alphabet):
    """max_strip_probe_distance with each refinement piece intersected with
    each strip, kept as a reference."""
    pieces = common_refinement([g_hat, h_hat])
    strip_mass = []
    for s, _ in pieces:
        row = []
        for lo, hi in strips:
            row.append(s.intersect(RationalSet.vertical_strip(lo, hi)).measure)
        strip_mass.append(row)
    total = Frac(0)
    witness = []
    for j, (lo, hi) in enumerate(strips):
        best, best_a = Frac(0), alphabet[0]
        for a in alphabet:
            d = Frac(0)
            for (s, (g, h)), row in zip(pieces, strip_mass):
                if row[j] and g.apply(a) != h.apply(a):
                    d += row[j]
            if d > best:
                best, best_a = d, a
        total += best
        witness.append((lo, hi, best_a))
    return total, StepMap.from_vertical_strips(witness)


def reference_approximate_random_endo(h_hat, reps, eps, window):
    """approximate_random_endo with each g_hat cell intersected with each
    piece, kept as a reference; returns (g_hat, bound, lines)."""
    if reps is None:
        reps = list(dict.fromkeys(h_hat.values()))
    red = orbit_reduce(h_hat, reps, window)
    out_cells = []
    lines = []
    for k, rep in enumerate(red.reps):
        region = red.assignment.support_of(k)
        if region.is_empty:
            continue
        cls = OrbitClassifier(rep)
        base = defect_profile(rep, approximate_by_automorphisms(rep, 1, cls),
                              window)
        defect = base.max_defect
        if defect == 0:
            n_k = 1
            sigmas = [rep]
        else:
            n_k = -(-defect * eps.denominator // eps.numerator)
            sigmas = approximate_by_automorphisms(rep, n_k, cls)
        pieces = vertical_split(region, [Frac(1, n_k)] * n_k)
        for piece, sigma in zip(pieces, sigmas):
            for s, g in red.g_hat.cells:
                part = s.intersect(piece)
                if not part.is_empty:
                    out_cells.append((part, g.compose(sigma)))
        lines.append(BudgetLine(k, rep.description, region.measure, defect,
                                n_k, region.measure * Frac(defect, n_k)))
    bound = sum((ln.contribution for ln in lines), Frac(0))
    return StepMap(out_cells), bound, tuple(lines)


def _descriptions(m):
    return [(s, v.description) for s, v in m.cells]


@settings(max_examples=60, deadline=None)
@given(endo_maps, endo_maps, cut_points(),
       st.one_of(st.integers(1, 8),
                 st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)))
def test_max_strip_probe_distance_matches_reference(g_hat, h_hat, cuts, alphabet):
    # an int stands for the window range(n); a list is unordered points, so
    # the witness is the lowest-index worst letter, not the smallest point
    if isinstance(alphabet, int):
        alphabet = range(alphabet)
    strips = list(zip(cuts, cuts[1:]))
    total, witness = max_strip_probe_distance(g_hat, h_hat, strips, alphabet)
    want, want_witness = reference_max_strip_probe_distance(
        g_hat, h_hat, strips, alphabet)
    assert total == want
    assert witness == want_witness


@settings(max_examples=40, deadline=None)
@given(endo_maps, st.sampled_from([Frac(1, 2), Frac(1, 5), Frac(1, 12)]),
       st.sampled_from([None, [identity_endo(NAT), successor_endo()],
                        [successor_endo()]]))
def test_approximate_random_endo_matches_reference(h_hat, eps, reps):
    try:
        want = reference_approximate_random_endo(h_hat, reps, eps, 12)
    except NoRepresentativeMatch:
        with pytest.raises(NoRepresentativeMatch):
            approximate_random_endo(h_hat, reps, eps, 12)
        return
    cert = approximate_random_endo(h_hat, reps, eps, 12)
    assert (cert.g_hat, cert.bound, cert.lines) == want
    assert _descriptions(cert.g_hat) == _descriptions(want[0])


def test_max_strip_probe_distance_additive():
    g_hat = constant_endo(identity_endo(NAT))
    h_hat = constant_endo(successor_endo())
    strips = [(Frac(0), Frac(1, 2)), (Frac(1, 2), Frac(1))]
    total, witness = max_strip_probe_distance(g_hat, h_hat, strips, range(10))
    assert total == 1  # they disagree everywhere on every probe
    d = l1_distance(apply_random_endo(g_hat, witness),
                    apply_random_endo(h_hat, witness))
    assert d == total


def test_max_strip_probe_distance_refuses_mismatched_carriers():
    g_hat = constant_endo(identity_endo(NAT))
    h_hat = constant_endo(basis_shift_endo(2))
    with pytest.raises(StructuralMismatch):
        hausdorff_gap(g_hat, h_hat, 5)
    with pytest.raises(StructuralMismatch):
        max_strip_probe_distance(g_hat, h_hat, [(0, 1)], range(5))


def test_max_strip_probe_builds_each_g_row_once_per_h(monkeypatch):
    # shift 2 meets the successor and the identity, shift 3 only the
    # identity; six strips split every (g, h) piece but build no more rows
    applied = Counter()
    apply_code = ShiftInjection.apply_code

    def counting(self, k):
        applied[self.description] += 1
        return apply_code(self, k)

    monkeypatch.setattr(ShiftInjection, "apply_code", counting)
    g_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 2), shift_endo(2)), (Frac(1, 2), 1, shift_endo(3))])
    h_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 4), successor_endo()), (Frac(1, 4), 1, identity_endo(NAT))])
    cuts = [Frac(k, 6) for k in range(7)]
    alphabet = [4, 0, 7, 2, 9]
    total, _ = max_strip_probe_distance(g_hat, h_hat,
                                        list(zip(cuts, cuts[1:])), alphabet)
    assert total == 1
    assert applied == {shift_endo(2).description: 2 * len(alphabet),
                       shift_endo(3).description: len(alphabet),
                       successor_endo().description: len(alphabet)}


def test_max_strip_probe_witness_is_attained():
    h_hat = two_rep_endo()
    g_hat = constant_endo(identity_endo(NAT))
    strips = [(Frac(0), Frac(1, 3)), (Frac(1, 3), Frac(1))]
    total, witness = max_strip_probe_distance(g_hat, h_hat, strips, range(8))
    d = l1_distance(apply_random_endo(g_hat, witness),
                    apply_random_endo(h_hat, witness))
    assert d == total
    # no strip probe over the same alphabet can beat the reported max
    for a in range(8):
        f = StepMap.constant(a)
        assert l1_distance(apply_random_endo(g_hat, f),
                           apply_random_endo(h_hat, f)) <= total


def test_hausdorff_gap_sandwich():
    g_hat = two_rep_endo()
    h_hat = constant_endo(successor_endo())
    gap = hausdorff_gap(g_hat, h_hat, 12)
    assert 0 <= gap.lower <= gap.upper <= 1
    # identical endos have gap exactly zero on both sides
    same = hausdorff_gap(g_hat, g_hat, 12)
    assert same == (0, 0)


def test_hausdorff_upper_dominates_probes():
    g_hat = two_rep_endo()
    h_hat = constant_endo(identity_endo(NAT))
    gap = hausdorff_gap(g_hat, h_hat, 10)
    for a in range(10):
        f = StepMap.constant(a)
        assert l1_distance(apply_random_endo(g_hat, f),
                           apply_random_endo(h_hat, f)) <= gap.upper


def pair(endo, window=80):
    return PairModel(NAT.describe(), window, constant_endo(endo))


def test_certify_identical_pairs_is_free():
    res = certify_epsilon_isomorphism(pair(successor_endo()),
                                      pair(successor_endo()), Frac(1, 100))
    assert res.ok
    assert res.bound == 0


def test_certify_within_budget():
    res = certify_epsilon_isomorphism(pair(identity_endo(NAT)),
                                      pair(successor_endo()), Frac(1, 10))
    assert res.ok
    assert res.bound <= Frac(1, 10)
    assert res.g_hat.cells  # a usable map comes back


def test_certify_structural_mismatch():
    from belle_paire.structures import FqVectors, basis_shift_endo
    p1 = pair(identity_endo(NAT))
    p2 = PairModel(FqVectors(2).describe(), 80,
                   constant_endo(basis_shift_endo(2)))
    with pytest.raises(StructuralMismatch):
        certify_epsilon_isomorphism(p1, p2, Frac(1, 2))


def test_certify_refuses_non_bijection_first_pair():
    res = certify_epsilon_isomorphism(pair(successor_endo()),
                                      pair(identity_endo(NAT)), Frac(1, 4))
    assert isinstance(res, Refusal)
    assert not res.ok


def test_certify_search_backed_refusal():
    from belle_paire.structures import FqVectors, basis_shift_endo
    p1 = PairModel(FqVectors(2).describe(), 40,
                   constant_endo(identity_endo(FqVectors(2))))
    p2 = PairModel(FqVectors(2).describe(), 40,
                   constant_endo(basis_shift_endo(2)))
    ob = {"q": 2, "dim": 2, "grid": 2, "subspace": [(1, 0)]}
    res = certify_epsilon_isomorphism(p1, p2, Frac(1, 4), ob)
    assert isinstance(res, Refusal)
    assert res.evidence["search_gap"] == 1


def test_certify_refusal_carries_both_bounds(monkeypatch):
    # an identity-valued approximant leaves the whole gap to the successor,
    # so the certified upper bound exceeds eps and the lower bound is read
    ident = constant_endo(identity_endo(NAT))
    monkeypatch.setattr(random_endo, "approximate_random_endo",
                        lambda h_hat, reps, eps, window:
                        Certificate(ident, Frac(0), eps, window))
    p1, p2 = pair(identity_endo(NAT)), pair(successor_endo())
    res = certify_epsilon_isomorphism(p1, p2, Frac(1, 10))
    gap = hausdorff_gap(ident, p2.image, p1.window)
    assert isinstance(res, Refusal)
    assert gap.upper > Frac(1, 10)
    assert res.reason.endswith(f"certified gap {gap.upper} exceeds 1/10")
    assert res.evidence == {"upper": gap.upper, "lower": gap.lower}


def test_gap_reads_a_sigma_of_a_colliding_tau_code_by_code():
    # 300 and 5000 both go to 5000, so the window 6000 has no sigma layout;
    # its rows are read with apply_code, as on a list alphabet
    tau = TableInjection(NAT, {300: 5000})
    g_hat = StepMap.uniform_strips(approximate_by_automorphisms(tau, 2))
    h_hat = StepMap.from_horizontal_strips(
        [(0, Frac(1, 3), tau), (Frac(1, 3), 1, successor_endo())])
    assert (hausdorff_gap(g_hat, h_hat, 6000)
            == hausdorff_gap(g_hat, h_hat, NAT.window(6000)))


def test_pair_model_validates_window():
    with pytest.raises(ValueError):
        PairModel("fqvec(2)", 50, constant_endo(successor_endo()))


def test_random_endo_builds_no_point(decode_calls):
    # the fq2 identity pair against its shift approximant, as pair-certify
    # builds it; everything is set up before counting starts
    fq2 = FqVectors(2)
    shift = constant_endo(basis_shift_endo(2))
    ident = constant_endo(identity_endo(fq2))
    approx = approximate_random_endo(shift, None, Fraction(1, 10), 40)
    f = StepMap.uniform_strips([FqVector.basis(2, 0), FqVector.basis(2, 2),
                                FqVector.from_coeffs(2, [1, 1, 0, 1])])
    two = StepMap.uniform_strips([basis_shift_endo(2), identity_endo(fq2)])
    decode_calls.clear()
    assert hausdorff_gap(approx.g_hat, shift, 40).upper <= Fraction(1, 10)
    assert decode_calls == []
    alphabet = fq2.window(16)
    decode_calls.clear()
    d, witness = max_strip_probe_distance(
        approx.g_hat, shift, [(Fraction(0), Fraction(1, 2)),
                              (Fraction(1, 2), Fraction(1))], alphabet)
    assert 0 < d <= Fraction(1, 10)
    assert decode_calls == []
    # the witness letters are the caller's points
    assert set(witness.values()) <= set(alphabet)
    assert all(isinstance(a, FqVector) for a in witness.values())
    assert dist_to_image(f, shift) > 0 and dist_to_image(f, approx.g_hat) > 0
    assert decode_calls == []
    red = orbit_reduce(two, [basis_shift_endo(2), identity_endo(fq2)], 40)
    assert red.assignment.values() == (0, 1)
    assert endos_agree_on_window(red.reconstruct(), two, 40)
    assert decode_calls == []
    assert orbit_reduce(ident, [identity_endo(fq2)], 40).window == 40
    assert decode_calls == []
    # a twisted cell: only the finished twist table is decoded
    e = [FqVector.basis(2, i) for i in range(2)]
    twisted = constant_endo(window_permutation(fq2, {e[0]: e[1], e[1]: e[0]})
                            .compose(basis_shift_endo(2)))
    red = orbit_reduce(twisted, [basis_shift_endo(2)], 40)
    twist = red.g_hat.values()[0]
    assert twist.support and len(decode_calls) == 2 * len(twist.support)
    assert endos_agree_on_window(red.reconstruct(), twisted, 40)
