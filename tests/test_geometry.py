import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belle_paire import geometry
from belle_paire.geometry import (
    COUNT_CAP,
    SEARCH_GUARD,
    SearchGuardExceeded,
    SearchResult,
    closed_set_size,
    epsilon_lower_bound,
    exhaustive_pair_search,
    exhaustive_pair_search_pure,
    gl_matrices,
    min_k_for_delta,
    min_k_violations,
    subspace_span,
    _capped_prod,
    _check_guard,
    _min_grid_gap,
    _pareto_front,
)
from belle_paire.serialize import load_baseline, parse_frac
from belle_paire.structures import GeometrySpec

AFF2 = GeometrySpec("affine", 2)
AFF3 = GeometrySpec("affine", 3)
PROJ2 = GeometrySpec("projective", 2)
DIS = GeometrySpec("disintegrated")


def test_closed_set_sizes():
    assert [closed_set_size(AFF2, d) for d in range(5)] == [1, 2, 4, 8, 16]
    assert [closed_set_size(AFF3, d) for d in range(4)] == [1, 3, 9, 27]
    # projective d-flats have (q^{d+1}-1)/(q-1) points
    assert [closed_set_size(PROJ2, d) for d in range(4)] == [1, 3, 7, 15]
    assert [closed_set_size(DIS, d) for d in range(4)] == [0, 1, 2, 3]


def test_point_enumerations_match_sizes():
    # an affine d-flat is F_q^d; a projective one is the lines of F_q^{d+1},
    # each named by its vector whose first nonzero coordinate is 1
    for d in range(4):
        assert len(list(product(range(2), repeat=d))) == closed_set_size(AFF2, d)
        assert len(list(product(range(3), repeat=d))) == closed_set_size(AFF3, d)
        lines = [v for v in product(range(2), repeat=d + 1)
                 if any(v) and next(c for c in v if c) == 1]
        assert len(lines) == closed_set_size(PROJ2, d)


def test_subspace_span():
    w = subspace_span(2, [(1, 0)])
    assert w == frozenset({(0, 0), (1, 0)})
    assert len(subspace_span(3, [(1, 0), (0, 1)])) == 9
    assert subspace_span(2, []) == frozenset()


def test_point_enumerations_validate_without_assert():
    # ValueError, not assert, so the checks also hold under python -O
    with pytest.raises(ValueError):
        subspace_span(2, [(1, 0), (1,)])
    with pytest.raises(ValueError):
        gl_matrices(2, 4)


@pytest.mark.parametrize("q,delta,k", [
    (2, Fraction(1, 8), 3),
    (2, Fraction(1, 2), 1),
    (2, Fraction(1, 5), 3),
    (3, Fraction(1, 9), 2),
    (3, Fraction(1, 10), 3),
])
def test_min_k_for_delta(q, delta, k):
    assert min_k_for_delta(GeometrySpec("affine", q), delta) == k
    assert min_k_for_delta(GeometrySpec("projective", q), delta) == k


def test_min_k_refused_for_disintegrated():
    # the ratio (d-k)/d creeps back to 1, so no uniform k exists
    with pytest.raises(ValueError):
        min_k_for_delta(DIS, Fraction(1, 4))


@pytest.mark.parametrize("q", [2, 3])
def test_min_k_no_violations_small_dims(q):
    geom = GeometrySpec("affine", q)
    for delta in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 8)):
        k = min_k_for_delta(geom, delta)
        assert min_k_violations(geom, delta, k, max_dim=6) == []


def test_min_k_minus_one_does_violate():
    geom = GeometrySpec("affine", 2)
    delta = Fraction(1, 8)
    k = min_k_for_delta(geom, delta)
    assert min_k_violations(geom, delta, k - 1, max_dim=6)


def test_epsilon_lower_bounds():
    assert [epsilon_lower_bound(n, False) for n in (1, 2, 3, 4)] == \
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8)]
    assert [epsilon_lower_bound(n, True) for n in (1, 2, 3, 4)] == \
        [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    with pytest.raises(ValueError):
        epsilon_lower_bound(0, False)


@given(st.integers(1, 40))
def test_modular_bound_doubles_plain(n):
    assert epsilon_lower_bound(n, True) == 2 * epsilon_lower_bound(n, False)


def test_gl_matrices_counts():
    # |GL(2,2)| = 6, |GL(2,3)| = 48, |GL(3,2)| = 168
    assert len(gl_matrices(2, 2)) == 6
    assert len(gl_matrices(2, 3)) == 48
    assert len(gl_matrices(3, 2)) == 168
    # kept per (dim, q), so a caller cannot change what the next one reads
    assert type(gl_matrices(2, 3)) is tuple
    assert gl_matrices(2, 3) is gl_matrices(2, 3)


def test_search_flagship_instance():
    base = load_baseline("search")["q2_dim2_grid2_span_e0"]
    res = exhaustive_pair_search(2, 2, 2, [(1, 0)])
    assert res.gap == parse_frac(base["gap"])
    assert res.gap > 0
    assert res.candidates_checked == base["candidates"]
    assert res.witness is not None


def test_search_full_subspace_is_free():
    res = exhaustive_pair_search(2, 2, 2, [(1, 0), (0, 1)])
    assert res.gap == 0


def test_search_coarse_grid_matches_known_value():
    base = load_baseline("search")["q2_dim2_grid1_span_e0"]
    res = exhaustive_pair_search(2, 2, 1, [(1, 0)])
    assert res.gap == parse_frac(base["gap"])
    assert res.candidates_checked == base["candidates"]


def test_search_deterministic_across_runs():
    a = exhaustive_pair_search(2, 2, 2, [(1, 0)])
    b = exhaustive_pair_search(2, 2, 2, [(1, 0)])
    assert a == b


def brute_force_search(options, grid, points, targets, apply_fn):
    """Reference: every cell assignment in index order, integer numerators.

    Cells run column by column, grid rows each; the first candidate with
    the least gap is the witness, as a tuple of columns.
    """
    best = None
    for cells in product(options, repeat=grid * grid):
        cols = tuple(cells[j * grid:(j + 1) * grid] for j in range(grid))
        f = w = 0
        for col in cols:
            miss = {(a, b): sum(apply_fn(g, a) != b for g in col)
                    for a in points for b in targets}
            f += max(min(miss[a, b] for b in targets) for a in points)
            w += max(min(miss[a, b] for a in points) for b in targets)
        if best is None or max(f, w) < best[0]:
            best = (max(f, w), cols, f, w)
    n = grid * grid
    return (Fraction(best[0], n), best[1], Fraction(best[2], n),
            Fraction(best[3], n))


def _vector_case(q, dim, grid, gens):
    def apply_fn(mat, v):
        return tuple(sum(a * b for a, b in zip(row, v)) % q for row in mat)
    return (gl_matrices(dim, q), grid, sorted(product(range(q), repeat=dim)),
            sorted(subspace_span(q, gens)), apply_fn)


def _pure_case(m, grid, subset):
    return (list(permutations(range(m))), grid, list(range(m)),
            list(range(subset)), lambda p, a: p[a])


VECTOR_CASES = [(2, 2, g, gens) for g in (1, 2)
                for gens in ([(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (0, 1)],
                             [(0, 0)])]
VECTOR_CASES += [(q, 1, g, gens) for q, grids in ((2, (1, 2, 3, 4)),
                                                  (3, (1, 2, 3)), (5, (1, 2)))
                 for g in grids for gens in ([(1,)], [(0,)])]
PURE_CASES = [(m, g, s) for m, grids in ((2, (1, 2, 3)), (3, (1, 2)), (4, (1,)))
              for g in grids for s in range(1, m + 1)]


@pytest.mark.parametrize("case", VECTOR_CASES + PURE_CASES, ids=str)
def test_search_matches_brute_force(case):
    if len(case) == 4:
        res = exhaustive_pair_search(*case)
        ref_case = _vector_case(*case)
    else:
        res = exhaustive_pair_search_pure(*case)
        ref_case = _pure_case(*case)
    options, grid = ref_case[:2]
    count = len(options) ** (grid * grid)
    assert count <= 50_000
    assert res.candidates_checked == count
    assert (res.gap, res.witness, res.forward, res.backward) == \
        brute_force_search(*ref_case)


@pytest.mark.parametrize("seed", range(16))
def test_search_core_matches_brute_force_on_arbitrary_maps(seed):
    # arbitrary maps [0,3) -> [0,4) trade forward against backward misses
    # more than automorphisms do, so the DP's frontier is really exercised
    rng = random.Random(seed)
    options = [tuple(rng.randrange(4) for _ in range(3))
               for _ in range(rng.choice((3, 4, 5, 6)))]
    targets = sorted(rng.sample(range(4), rng.choice((1, 2, 3))))
    case = (options, 2, [0, 1, 2], targets, lambda p, a: p[a])
    res = _min_grid_gap(*case)
    assert (res.gap, res.witness, res.forward, res.backward) == \
        brute_force_search(*case)


def _reference_min_grid_gap(cells_options, grid: int, points, targets,
                            apply_fn):
    """The product column loop the search core replaced, kept verbatim.

    Every |options|^grid ordered column assignment is enumerated, with
    apply_fn called inside the loop.
    """
    _check_guard(len(cells_options), grid)
    first = {}  # (F_j, W_j) -> lowest-index column assignment with it
    for rows in product(cells_options, repeat=grid):
        images = {a: [apply_fn(g, a) for g in rows] for a in points}
        miss = {(a, b): sum(x != b for x in images[a])
                for a in points for b in targets}
        fwd = max(min(miss[a, b] for b in targets) for a in points)
        bwd = max(min(miss[a, b] for a in points) for b in targets)
        first.setdefault((fwd, bwd), rows)
    fronts = [[(0, 0)]]  # fronts[k]: Pareto front of sums over k columns
    for _ in range(grid):
        fronts.append(_pareto_front({(f + a, w + b) for f, w in fronts[-1]
                                     for a, b in first}))
    best = min(max(p) for p in fronts[grid])
    witness, f, w = [], 0, 0
    for left in range(grid - 1, -1, -1):
        # dict order is first-seen order, so this is the lowest index
        a, b = next((a, b) for a, b in first
                    if any(f + a + x <= best and w + b + y <= best
                           for x, y in fronts[left]))
        witness.append(first[a, b])
        f, w = f + a, w + b
    cells = grid * grid
    return SearchResult(Fraction(best, cells),
                        len(cells_options) ** cells, tuple(witness),
                        Fraction(f, cells), Fraction(w, cells))


# past the brute force's 50,000-candidate cap, but cheap for the product loop
REFERENCE_CASES = [(2, 2, g, gens) for g in (3, 4)
                   for gens in ([(1, 0)], [(1, 0), (0, 1)])]
REFERENCE_CASES += [(3, 2, 2, [(1, 0)])]
REFERENCE_CASES += [(4, g, s) for g in (2, 3) for s in range(1, 5)]
REFERENCE_CASES += [(5, 2, 2)]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=str)
def test_search_matches_product_loop(case):
    if len(case) == 4:
        res = exhaustive_pair_search(*case)
        ref_case = _vector_case(*case)
    else:
        res = exhaustive_pair_search_pure(*case)
        ref_case = _pure_case(*case)
    options, grid = ref_case[:2]
    assert len(options) ** (grid * grid) > 50_000
    assert res == _reference_min_grid_gap(*ref_case)


@pytest.mark.parametrize("seed", range(16))
def test_search_core_matches_product_loop_on_repeated_classes(seed):
    # maps [0,3) -> [0,5) with at least two letters outside the targets;
    # a twin swaps those letters, so it has its original's incidence set
    rng = random.Random(seed)
    targets = sorted(rng.sample(range(5), rng.choice((1, 2, 3))))
    spare = [v for v in range(5) if v not in targets]
    swap = dict(zip(spare, spare[1:] + spare[:1]))
    options = [tuple(rng.randrange(5) for _ in range(3))
               for _ in range(rng.choice((3, 4, 5)))]
    options += [tuple(swap.get(v, v) for v in p) for p in options[:2]]
    rng.shuffle(options)
    classes = {tuple(p[a] == b for a in range(3) for b in targets)
               for p in options}
    assert len(classes) < len(options)
    case = (options, 3, [0, 1, 2], targets, lambda p, a: p[a])
    assert _min_grid_gap(*case) == _reference_min_grid_gap(*case)


@pytest.mark.parametrize("seed", range(24))
def test_search_core_matches_product_loop_on_arbitrary_maps(seed):
    # every grid 1-4 with every option count 1-6, on maps from 2-4 points
    # into [0, 5) scored against 1-4 targets
    rng = random.Random(1000 + seed)
    grid, n_options = 1 + seed % 4, 1 + seed // 4
    points = list(range(rng.choice((2, 3, 4))))
    targets = sorted(rng.sample(range(5), rng.choice((1, 2, 3, 4))))
    options = [tuple(rng.randrange(5) for _ in points)
               for _ in range(n_options)]
    case = (options, grid, points, targets, lambda p, a: p[a])
    assert _min_grid_gap(*case) == _reference_min_grid_gap(*case)


def test_search_core_counts_hits_past_one_byte():
    # grid 300: one option's column hits two (point, target) cells 300
    # times each, and point 2 misses every target
    case = ([(1, 0, 3)], 300, [0, 1, 2], [0, 1], lambda p, a: p[a])
    res = _min_grid_gap(*case)
    assert res == _reference_min_grid_gap(*case)
    assert (res.forward, res.backward) == (1, 0)


@pytest.mark.parametrize("dim,q", [(1, 2), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_kept_rows_are_the_action_on_point_codes(dim, q):
    # a point's code is its index in the sorted tuples, e_0 most significant
    mats, action = geometry._gl_group(dim, q)
    assert mats is gl_matrices(dim, q)
    assert list(action) == list(mats)
    with pytest.raises(TypeError):  # kept, so no caller may rewrite a row
        action[mats[0]] = ()
    points = sorted(product(range(q), repeat=dim))
    assert points == [tuple(c // q ** (dim - 1 - i) % q for i in range(dim))
                      for c in range(q ** dim)]
    for mat, row in action.items():
        assert sorted(row) == list(range(q ** dim))
        images = [tuple(sum(a * b for a, b in zip(r, v)) % q for r in mat)
                  for v in points]
        assert row == tuple(map(points.index, images))


@pytest.mark.parametrize("case", [_vector_case(2, 2, 4, [(1, 0)]),
                                  _vector_case(3, 2, 3, [(1, 0)]),
                                  _pure_case(4, 3, 2)], ids=["q2", "q3", "pure"])
def test_search_applies_each_option_once_per_point(case):
    options, grid, points, targets, apply_fn = case
    calls = []

    def counting(g, a):
        calls.append((g, a))
        return apply_fn(g, a)
    _min_grid_gap(options, grid, points, targets, counting)
    assert len(calls) == len(options) * len(points)
    assert len(set(calls)) == len(calls)


def test_search_guard_trips():
    with pytest.raises(SearchGuardExceeded) as exc:
        exhaustive_pair_search(3, 3, 4, [(1, 0, 0)])
    assert exc.value.count == 11232 ** 4  # |GL(3,3)|^grid: one column


def test_search_guard_trips_before_enumerating_columns():
    def apply_fn(label, point):
        raise AssertionError("a column was enumerated")
    with pytest.raises(SearchGuardExceeded):
        _min_grid_gap(range(SEARCH_GUARD + 1), 1, [0], [0], apply_fn)


def test_search_guard_trips_before_enumerating_options(monkeypatch):
    def never(*args):
        raise AssertionError("the options were enumerated")
    monkeypatch.setattr(geometry, "gl_matrices", never)
    monkeypatch.setattr(geometry, "permutations", never)
    with pytest.raises(SearchGuardExceeded) as exc:
        exhaustive_pair_search(2, 5, 2, [(1, 0, 0, 0, 0)])
    assert exc.value.count == 9_999_360 ** 2  # |GL(5,2)|^grid
    with pytest.raises(SearchGuardExceeded) as exc:
        exhaustive_pair_search_pure(11, 1, 1)
    assert exc.value.count == 39_916_800  # 11!
    with pytest.raises(ValueError):  # a non-prime q is malformed, not guarded
        exhaustive_pair_search(4, 3, 4, [(1, 0, 0)])


def test_search_guard_counts_the_candidate_matrices(monkeypatch):
    def never(*args):
        raise AssertionError("a candidate matrix was built")
    monkeypatch.setattr(geometry, "_gl_group", never)
    monkeypatch.setattr(geometry, "gl_matrices", never)
    # |GL(5,2)| = 9,999,360 passes at grid 1, its 2^25 candidates do not
    with pytest.raises(SearchGuardExceeded, match="^33554432 candidate matrices") as exc:
        exhaustive_pair_search(2, 5, 1, [(1, 0, 0, 0, 0)])
    assert exc.value.count == 2 ** 25
    with pytest.raises(AssertionError, match="candidate matrix"):  # 2^16 pass
        exhaustive_pair_search(2, 4, 1, [(1, 0, 0, 0)])


@pytest.mark.parametrize("search, what", [
    (lambda: exhaustive_pair_search_pure(3, 10_000, 1), "column assignments"),
    (lambda: exhaustive_pair_search(2, 200, 2, [(1,) + (0,) * 199]),
     "column assignments"),
    (lambda: exhaustive_pair_search_pure(3_000, 1, 1), "column assignments"),
    (lambda: _check_guard(None, 1), "column assignments"),
], ids=["6^10000", "gl200^2", "3000!", "none"])
def test_search_guard_reports_a_count_past_its_cap_as_a_bound(search, what):
    # each count has more digits than Python turns into a string
    with pytest.raises(SearchGuardExceeded) as exc:
        search()
    assert exc.value.count is None
    assert str(exc.value) == (f"more than {COUNT_CAP} {what} exceed the "
                              f"search guard {SEARCH_GUARD}")


def test_search_guard_bounds_the_rows_of_one_column():
    _check_guard(1, SEARCH_GUARD)
    _check_guard(0, SEARCH_GUARD)
    for grid in (SEARCH_GUARD + 1, 2 ** 63, 2 ** 64):
        with pytest.raises(SearchGuardExceeded, match="rows in one column") as exc:
            _check_guard(1, grid)
        assert exc.value.count == grid
    with pytest.raises(SearchGuardExceeded, match=f"^more than {COUNT_CAP} rows"):
        _check_guard(1, 10 ** 5000)
    with pytest.raises(SearchGuardExceeded, match="^9223372036854775808 rows"):
        exhaustive_pair_search_pure(1, 2 ** 63, 1)
    with pytest.raises(SearchGuardExceeded, match="^9223372036854775808 rows"):
        exhaustive_pair_search(2, 1, 2 ** 63, [(1,)])


def test_capped_product_stops_past_the_cap():
    read = []

    def factors():
        for x in range(2, 10_000):
            read.append(x)
            yield x
    assert _capped_prod(factors()) is None  # 9999!, 35,656 digits
    assert len(read) < 30 and math.prod(read[:-1]) <= COUNT_CAP < math.prod(read)
    assert _capped_prod(range(2, 12)) == 39_916_800
    assert _capped_prod(()) == 1


def test_search_guard_trips_before_enumerating_points(monkeypatch):
    def guarded(it, repeat=1):
        if repeat == 24:
            raise AssertionError("the 2**24 points were enumerated")
        return product(it, repeat=repeat)
    monkeypatch.setattr(geometry, "iter_product", guarded)
    with pytest.raises(SearchGuardExceeded):
        exhaustive_pair_search(2, 24, 1, [(1,) + (0,) * 23])


@pytest.mark.parametrize("gens,match", [
    ([(1,)], "length 1, expected dim 2"),
    ([(1, 0), (1, 0, 0)], "length 3, expected dim 2"),
    ([(2, 0)], r"entry outside \[0, 2\)"),
    ([(1, -1)], r"entry outside \[0, 2\)"),
])
def test_search_refuses_malformed_generators(gens, match):
    # subspace_span would reduce an entry mod q, or read a short generator
    with pytest.raises(ValueError, match=match):
        exhaustive_pair_search(2, 2, 2, gens)


def test_search_rejects_grid_below_one():
    with pytest.raises(ValueError):
        exhaustive_pair_search(2, 2, 0, [(1, 0)])
    with pytest.raises(ValueError):
        exhaustive_pair_search_pure(3, 0, 1)


def test_pure_search_baseline_grids():
    grids = load_baseline("search")["pure_m2_subset1_grids"]
    for g_txt, gap_txt in grids.items():
        res = exhaustive_pair_search_pure(2, int(g_txt), 1)
        assert res.gap == parse_frac(gap_txt)


def test_pure_search_monotone_on_nested_grids():
    # candidate classes embed along refinements, so the certified lower
    # bound cannot decrease from grid g to grid 2g
    gaps = [exhaustive_pair_search_pure(2, g, 1).gap for g in (1, 2, 4)]
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_vector_search_monotone_on_nested_grids():
    g1 = exhaustive_pair_search(2, 2, 1, [(1, 0)]).gap
    g2 = exhaustive_pair_search(2, 2, 2, [(1, 0)]).gap
    assert g1 >= g2  # refining the grid can only help the candidates
    assert (g1, g2) == (1, 1)
