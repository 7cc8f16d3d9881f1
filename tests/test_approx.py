import gc
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belle_paire import approx
from belle_paire.approx import (
    CycleApproxBijection,
    OrbitClassifier,
    approximate_by_automorphisms,
    defect_profile,
    orbit_decompose,
    strip_lift,
)
from belle_paire.measure import StepMap, l1_distance
from belle_paire.random_endo import (
    apply_random_endo,
    constant_endo,
    endos_agree_on_window,
)
from belle_paire.structures import (
    DisjointUnion,
    FqVector,
    FqVectors,
    InverseInjection,
    LinearInjection,
    NaturalNumbers,
    NonInjectiveOnWindow,
    PairProduct,
    TableInjection,
    UnionInjection,
    WindowInjection,
    WreathInjection,
    basis_shift_endo,
    identity_endo,
    shift_endo,
    successor_endo,
    window_permutation,
)

TAUS = [successor_endo(), shift_endo(2), basis_shift_endo(2)]


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: t.description)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_family_defect_at_most_one(tau, n):
    sigmas = approximate_by_automorphisms(tau, n)
    assert len(sigmas) == n
    prof = defect_profile(tau, sigmas, 400)
    assert prof.max_defect <= 1


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: t.description)
def test_sigmas_are_window_bijections(tau):
    for s in approximate_by_automorphisms(tau, 5):
        assert s.window_bijectivity(300)


def test_single_sigma_fixes_nothing_extra():
    # n=1 must still disagree at most once per point, so it IS tau off the
    # cycle-closing corrections
    tau = successor_endo()
    (sigma,) = approximate_by_automorphisms(tau, 1)
    prof = defect_profile(tau, [sigma], 100)
    assert prof.max_defect <= 1
    assert sigma.window_bijectivity(100)


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: t.description)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 32])
def test_window_paths_match_pointwise(tau, n):
    # the window-id path (the moved points and their images, and
    # defect_profile) against the pointwise rules
    sigmas = approximate_by_automorphisms(tau, n)
    pts = tau.domain.window(2000)
    sigmas[0].classifier.window_struct(2000)
    for s in sigmas:
        moved, images = s._moves()
        assert sorted(moved) == [w for w, p in enumerate(pts)
                                 if s.apply(p) != tau.apply(p)]
        # every image here is an earlier point of a chain, so in the window
        assert [pts[y] for y in images] == [s.apply(pts[w]) for w in moved]
    prof = defect_profile(tau, sigmas, 2000)
    assert prof.counts == tuple(sum(s.apply(p) != tau.apply(p) for s in sigmas)
                                for p in pts)


def test_window_ids_cut_chains_grown_past_the_window():
    tau = shift_endo(2)
    sigmas = approximate_by_automorphisms(tau, 8)
    cls = sigmas[0].classifier
    # window 16: the chain of 0 holds 0, 2, ..., 14; window 10: 0, ..., 8
    for n in (16, 10):
        cls.window_struct(n)
        sigmas[7].preimage(0)  # walks it out to position 8, past the window
        pts = tau.domain.window(n)
        for s in sigmas:
            moved, images = s._moves()
            assert [pts[y] for y in images] == [s.apply(pts[w]) for w in moved]


def test_moves_are_read_once_per_window():
    # defect_profile, window_bijectivity and window_codes share each sigma's
    # moves on one window; another window's are read afresh, never reused
    tau = basis_shift_endo(2)
    cls = OrbitClassifier(tau)
    sigmas = approximate_by_automorphisms(tau, 3, cls)
    slices = []

    class Spy(list):
        def __getitem__(self, key):
            slices.append(key)
            return super().__getitem__(key)

    for n in (300, 100):
        cls.window_struct(n)
        cls.chain_ids = Spy(cls.chain_ids)
        slices.clear()
        prof = defect_profile(tau, sigmas, n)
        for s in sigmas:
            assert s.window_bijectivity(n)
            s.window_codes(n)
        once = len(slices)
        fresh = [CycleApproxBijection(cls, 3, i) for i in range(3)]
        slices.clear()
        assert [f._moves() for f in fresh] == [s._moves() for s in sigmas]
        assert len(slices) == once > 0
        assert prof == defect_profile(tau, fresh, n)


def test_window_bijectivity_rejects_colliding_images(monkeypatch):
    sigma = approximate_by_automorphisms(successor_endo(), 3)[1]
    assert sigma.window_bijectivity(100)
    moves = CycleApproxBijection._moves
    for image_of in ("unmoved", "moved"):

        def colliding(self):
            moved, images = moves(self)
            assert 0 not in moved
            # a moved point takes the image of point 0, or of another moved one
            images[0] = (self.classifier.tau_ids[0] if image_of == "unmoved"
                         else images[1])
            return moved, images

        monkeypatch.setattr(CycleApproxBijection, "_moves", colliding)
        assert not sigma.window_bijectivity(100)


def test_window_struct_validates_the_callers_window():
    # building the family checks nothing; 300 and 5000 collide at 5000
    tau = TableInjection(NaturalNumbers(), {300: 5000})
    sigmas = approximate_by_automorphisms(tau, 2)
    cls = sigmas[0].classifier
    for check in (lambda: cls.window_struct(6000),
                  lambda: defect_profile(tau, sigmas, 6000),
                  lambda: sigmas[1].window_bijectivity(6000),
                  lambda: sigmas[1].validate_window(6000)):
        with pytest.raises(NonInjectiveOnWindow, match="300 and 5000 both map to 5000"):
            check()
    assert cls.n != 6000
    assert defect_profile(tau, sigmas, 4000).max_defect == 0


def pointwise_bijectivity(sigma, window):
    """Window bijectivity from apply and preimage alone, at every window point."""
    pts = sigma.domain.window(window)
    if len({sigma.apply(p) for p in pts}) < len(pts):
        return False
    for y in pts:
        p = sigma.preimage(y)
        if p is None or sigma.apply(p) != y:
            return False
    return True


TABLE_POINTS = st.integers(250, 320)


@given(st.integers(257, 300),
       st.lists(st.tuples(TABLE_POINTS, TABLE_POINTS), max_size=8,
                unique_by=(lambda e: e[0], lambda e: e[1])))
@settings(max_examples=60, deadline=None)
def test_window_checks_match_pointwise_on_tables(window, entries):
    # tables whose chains leave the window, and that may collide past it
    tau = TableInjection(NaturalNumbers(), dict(entries))
    cls = OrbitClassifier(tau)
    try:
        families = [approximate_by_automorphisms(tau, n, cls) for n in (1, 2, 3)]
        profiles = [defect_profile(tau, f, window) for f in families]
    except NonInjectiveOnWindow:
        return
    pts = tau.domain.window(window)
    for sigmas, prof in zip(families, profiles):
        assert prof.counts == tuple(sum(s.apply(p) != tau.apply(p) for s in sigmas)
                                    for p in pts)
        for s in sigmas:
            assert s.window_bijectivity(window) == pointwise_bijectivity(s, window)


REFERENCE_TAUS = [
    TableInjection(NaturalNumbers(), {300: 5000}),
    TableInjection(NaturalNumbers(), {5: 900, 7: 5}),
    TableInjection(NaturalNumbers(), {39: 5000}),
    successor_endo(),
    shift_endo(3),
    basis_shift_endo(2),
    basis_shift_endo(3),
    window_permutation(NaturalNumbers(), {2: 450, 450: 7, 7: 2}),
]


@pytest.mark.parametrize("tau", REFERENCE_TAUS, ids=lambda t: t.description)
def test_window_bijectivity_matches_the_pointwise_reference(tau):
    # the tables collide only past every window here: a chain leaves the
    # window and comes back (5000 -> 5000), so some sigma reads a far point
    # as the preimage of a window point and is no bijection there
    cls = OrbitClassifier(tau)
    for n in (1, 2, 3, 5, 8, 13):
        for s in approximate_by_automorphisms(tau, n, cls):
            for window in (40, 400, 600):
                assert s.window_bijectivity(window) == (
                    WindowInjection.window_bijectivity(s, window)), (n, s.i, window)


def test_defect_profile_takes_one_family():
    tau = successor_endo()
    cls = OrbitClassifier(tau)
    family = approximate_by_automorphisms(tau, 3, cls)
    other = approximate_by_automorphisms(tau, 2)
    for sigmas, t in (([], tau), (family + other, tau), (family, shift_endo(2)),
                      ([tau], tau)):
        with pytest.raises(ValueError):
            defect_profile(t, sigmas, 50)


def test_orbit_decompose_refuses_another_taus_classifier():
    tau, other = successor_endo(), OrbitClassifier(shift_endo(2))
    with pytest.raises(ValueError, match="shift\\+2 cannot classify successor"):
        orbit_decompose(tau, 10, classifier=other)
    # an equal tau is the classifier's own
    assert orbit_decompose(successor_endo(), 10, classifier=OrbitClassifier(tau)
                           ).semi_orbit_count == 1


def test_family_refuses_another_taus_classifier():
    tau, other = successor_endo(), OrbitClassifier(shift_endo(2))
    with pytest.raises(ValueError, match="shift\\+2 cannot classify successor"):
        approximate_by_automorphisms(tau, 2, other)
    sigmas = approximate_by_automorphisms(successor_endo(), 2, OrbitClassifier(tau))
    assert defect_profile(tau, sigmas, 10).max_defect == 1


def test_family_refuses_non_injective_tau():
    bad = TableInjection(NaturalNumbers(), {0: 3})  # collides with fixed 3
    with pytest.raises(NonInjectiveOnWindow):
        defect_profile(bad, approximate_by_automorphisms(bad, 2), 10)
    shared = OrbitClassifier(bad)
    for n in (2, 2, 5):  # a refused window is not remembered
        with pytest.raises(NonInjectiveOnWindow):
            defect_profile(bad, approximate_by_automorphisms(bad, n, shared), 10)
        assert shared.n != 10


def counted(fn, calls):
    def wrapper(x):
        calls.append(x)
        return fn(x)
    return wrapper


def test_shared_classifier_validates_window_once():
    tau = basis_shift_endo(2)
    applied = []
    tau.apply_code = counted(tau.apply_code, applied)
    cls = OrbitClassifier(tau)
    # one tau image per window point, however many families share cls,
    # and the classifier reads them off the window row, copying none
    for n in (3, 7, 3):
        sigmas = approximate_by_automorphisms(tau, n, cls)
        defect_profile(tau, sigmas, 256)
        assert all(s.window_bijectivity(256) for s in sigmas)
        assert sorted(applied) == list(range(256))
        assert cls._img == {}
        assert [cls.tau_image(k) for k in range(256)] == [2 * k for k in range(256)]
        assert sorted(applied) == list(range(256))


@pytest.mark.parametrize("make, reads", [
    (lambda: window_permutation(NaturalNumbers(), {2: 450, 450: 7, 7: 2}), 3),
    (lambda: basis_shift_endo(2), 300),
], ids=["table", "fq2-shift"])
def test_classify_reads_each_preimage_once(make, reads):
    # the layout walks chains forward along the window row: the 3-cycle
    # asks for the preimages of 2, 7 and 450 once each, and the shift's
    # window asks only for its roots' (the odd codes)
    tau = make()
    calls = []
    tau.preimage_code = counted(tau.preimage_code, calls)
    OrbitClassifier(tau).window_struct(600)
    assert len(calls) == reads


class WalkClassifier(OrbitClassifier):
    """The in-order reference: a dict of per-code records, one list per
    chain and per cycle, and the general backward walk for every
    unclassified code; a window other than the laid-out one takes fresh
    records, then classifies its codes 0..n-1 one at a time."""

    def _reset(self):
        super()._reset()
        self._cls, self._chains, self._cycles = {}, {}, {}
        self._next_oid = 0

    def window_struct(self, n):
        if n != self.n:
            self._reset()
            vars(self).update(vars(reference_window(self, n)))
        return self

    def classify(self, x: int):
        got = self._cls.get(x)
        if got is not None:
            return got
        preimage = self.tau.preimage_code
        path = [x]
        path_pos = {x: 0}
        while True:
            if len(path) > approx.MAX_STEPS:
                return self._undetermined(path)
            prev = preimage(path[-1])
            if prev is None:
                oid = self._next_oid
                self._next_oid += 1
                chain = list(reversed(path))
                self._chains[oid] = chain
                for pos, p in enumerate(chain):
                    self._cls[p] = (approx._K_SEMI, oid, pos)
                return self._cls[x]
            known = self._cls.get(prev)
            if known is not None:
                kind, oid, pos = known
                if kind == approx._K_SEMI:
                    chain = self._chains[oid]
                    if len(chain) != pos + 1:
                        raise self._collision(chain[pos + 1], path[-1],
                                              self.tau_image(prev))
                    for off, p in enumerate(reversed(path), start=1):
                        chain.append(p)
                        self._cls[p] = (approx._K_SEMI, oid, pos + off)
                    return self._cls[x]
                if kind == approx._K_ORBIT:
                    raise self._collision(path[-1], None, self.tau_image(prev))
                return self._undetermined(path)
            if prev in path_pos:
                if prev != x:
                    raise self._collision(path[-1], None, prev)
                oid = self._next_oid
                self._next_oid += 1
                cyc = list(reversed(path))
                self._cycles[oid] = cyc
                for pos, p in enumerate(cyc):
                    self._cls[p] = (approx._K_ORBIT, oid, pos)
                return self._cls[x]
            path.append(prev)
            path_pos[prev] = len(path) - 1

    def _undetermined(self, path):
        self.has_undetermined = True
        rec = (approx._K_UNDET, -1, -1)
        for p in path:
            self._cls[p] = rec
        return rec

    def chain_point(self, oid, pos):
        chain = self._chains[oid]
        while len(chain) <= pos:
            nxt = self.tau_image(chain[-1])
            if nxt not in self._cls:
                self._cls[nxt] = (approx._K_SEMI, oid, len(chain))
            chain.append(nxt)
        return chain[pos]


def snapshot(cls):
    """Every classified code's record, every chain's and every cycle's
    codes, the next oid and has_undetermined."""
    if isinstance(cls, WalkClassifier):
        return (dict(cls._cls), {o: c.copy() for o, c in cls._chains.items()},
                {o: c.copy() for o, c in cls._cycles.items()}, cls._next_oid,
                cls.has_undetermined)
    recs = {c: cls.classify(c) for c in [*range(cls.n), *cls._far]}
    chains = {o: [cls.chain_point(o, p) for p in range(cls._clen[o])]
              for kind, o, _ in recs.values() if kind == approx._K_SEMI}
    cycles = {o: list(cls._cycles.get(o, (c,)))
              for c, (kind, o, _) in recs.items() if kind == approx._K_ORBIT}
    return recs, chains, cycles, len(cls._clen), cls.has_undetermined


def reference_window(cls, n):
    """The window [0, n) from in-order classify: its rooted chains, each cut
    after its last window point, longest first, runs of one length grouped."""
    tau_ids = [cls.tau.apply_code(k) for k in range(n)]
    if len(set(tau_ids)) < n:
        cls.tau.validate_window(n)
    recs = [cls.classify(k) for k in range(n)]
    lengths = {}
    for kind, o, pos in recs:
        if kind == approx._K_SEMI:
            lengths[o] = max(lengths.get(o, 0), pos + 1)
    chain_ids, groups = [], []
    for o in sorted(lengths, key=lambda o: -lengths[o]):
        if groups and groups[-1][2] == lengths[o]:
            groups[-1][1] += 1
        else:
            groups.append([len(chain_ids), 1, lengths[o]])
        chain_ids += cls._chains[o][:lengths[o]]
    return SimpleNamespace(
        n=n, tau_ids=tau_ids, tau_set=set(tau_ids), chain_ids=chain_ids,
        groups=list(map(tuple, groups)),
        undet_widx=[w for w, r in enumerate(recs) if r[0] == approx._K_UNDET])


def stray_chain():
    """Successor whose rule sends 3 to 5, while 4 still reads 3 as its
    preimage: extending 0's chain past 3 leaves 4 no place on it."""
    tau = successor_endo()
    tau.apply_code = lambda k: 5 if k == 3 else k + 1
    return tau


_NAT, _F2 = NaturalNumbers(), FqVectors(2)
# the chain 0, 2, 4, 1, 3, ... steps down: in order, the walk from 1 passes
# 4 and 2, so a walk budget of 1 or 2 steps leaves window codes undetermined
STEP_DOWN = window_permutation(_NAT, {1: 6, 6: 1}).compose(shift_endo(2))
FAST_PATH_TAUS = [
    successor_endo(),
    shift_endo(2),
    basis_shift_endo(2),
    basis_shift_endo(3),
    window_permutation(_NAT, {2: 450, 450: 7, 7: 2}),
    window_permutation(_F2, {_F2.point_at(3): _F2.point_at(12),
                             _F2.point_at(12): _F2.point_at(3)}),
    TableInjection(_NAT, {5: 900, 7: 5}),
    shift_endo(2).compose(window_permutation(_NAT, {0: 9, 9: 4, 4: 0})),
]


def _classify_all(cls, order):
    """Window builds, out-of-order classifies and sigma preimages (which
    extend chains forward) on one classifier; its state after the
    lookups, and after a larger window."""
    got = [cls.window_struct(40).chain_ids]
    got += map(cls.classify, order)
    for s in approximate_by_automorphisms(cls.tau, 3, cls):
        got += map(s.preimage_code, range(0, 400, 7))
    got.append(snapshot(cls))
    got.append(cls.window_struct(600).chain_ids)
    return got, snapshot(cls)


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
@pytest.mark.parametrize("tau", FAST_PATH_TAUS, ids=lambda t: t.description)
def test_one_step_classify_matches_the_walk(tau, budget, monkeypatch):
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    order = list(range(700))
    random.Random(budget).shuffle(order)
    assert (_classify_all(OrbitClassifier(tau), order)
            == _classify_all(WalkClassifier(tau), order))


WINDOW_TAUS = FAST_PATH_TAUS + [
    identity_endo(),
    # 1000 goes to 6: the chain of 6 enters the window from outside it
    successor_endo().compose(window_permutation(_NAT, {5: 1000, 1000: 5})),
    # 20 goes to 5: the chain of 0 descends
    shift_endo(2).compose(window_permutation(_NAT, {3: 20, 20: 3})),
]


def _window_state(cls, n):
    ws = cls.window_struct(n)
    return ws.chain_ids, ws.groups, ws.undet_widx, snapshot(cls)


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize("tau", WINDOW_TAUS, ids=lambda t: t.description)
def test_window_layout_matches_in_order_classify(tau, used, budget, monkeypatch):
    # the layout leaves the state, chains and groups of in-order
    # classify on fresh records, on fresh classifiers and used ones, and
    # so does each later window, larger or smaller
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    states = []
    for make in (OrbitClassifier, WalkClassifier):
        cls = make(tau)
        if used:
            list(map(cls.classify, range(650, 550, -7)))
        states.append([_window_state(cls, n) for n in (600, 900, 37)])
    assert states[0] == states[1]


@st.composite
def permuted_shifts(draw):
    """A shift by 1 to 3 composed, on either side, with a permutation of a
    few codes, some small and some up to past the largest window, and
    windows, some ending at a permuted code: cycles that straddle the
    window's edge, chains that leave the window and come back, and chains
    that step down."""
    near = st.integers(0, 40)
    codes = draw(st.lists(st.one_of(near, st.integers(0, 760)), min_size=2,
                          max_size=10, unique=True))
    perm = window_permutation(_NAT, dict(zip(codes, draw(st.permutations(codes)))))
    shift = successor_endo() if draw(st.booleans()) else shift_endo(draw(st.integers(2, 3)))
    tau = shift.compose(perm) if draw(st.booleans()) else perm.compose(shift)
    windows = st.one_of(st.integers(1, 700), st.sampled_from(codes).map(
        lambda c: min(max(c, 1), 700)))
    return tau, draw(st.lists(windows, min_size=1, max_size=3))


@given(permuted_shifts(),
       st.one_of(st.lists(st.integers(0, 800), max_size=6),
                 st.integers(0, 60).map(lambda k: list(range(k)))),
       st.sampled_from([2, 5, approx.MAX_STEPS]))
# STEP_DOWN: in order, the walk from 1 passes 4 and 2 and runs out of budget
@example((STEP_DOWN, [5]), [], 2)
# the chain 0, 2, ..., 20, 5, ... steps down, but its codes above 5 were
# classified before the window: in order, 5 joins it in one step
@example((shift_endo(2).compose(window_permutation(_NAT, {3: 20, 20: 3})), [40]),
         list(range(0, 21, 2)), 2)
@settings(max_examples=200, deadline=None)
def test_window_layout_matches_the_walk_on_permuted_shifts(tau_windows, used, budget):
    # fresh classifiers (used empty) and used ones (some codes, or a prefix
    # of the codes, classified first), windows growing and shrinking, walk
    # budgets that leave codes undetermined; the layout leaves the state,
    # chains and groups of in-order classify on fresh records
    tau, windows = tau_windows
    saved, approx.MAX_STEPS = approx.MAX_STEPS, budget
    try:
        states = []
        for make in (OrbitClassifier, WalkClassifier):
            cls = make(tau)
            list(map(cls.classify, used))
            states.append([_window_state(cls, n) for n in windows])
        assert states[0] == states[1]
    finally:
        approx.MAX_STEPS = saved


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
@pytest.mark.parametrize("tau", WINDOW_TAUS, ids=lambda t: t.description)
def test_window_layout_ignores_earlier_queries(tau, budget, monkeypatch):
    # out-of-order classifies, which a small budget leaves undetermined,
    # sigma preimages, which grow chains forward, and earlier windows,
    # larger or smaller, change no window: a window other than the laid-out
    # one is laid out on fresh records
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    used = OrbitClassifier(tau)
    list(map(used.classify, range(30, 0, -3)))
    sigmas = approximate_by_automorphisms(tau, 3, used)
    for n in (40, 600, 40, 600, 37):
        for s in sigmas:
            list(map(s.preimage_code, range(0, 60, 7)))
        assert _window_state(used, n) == _window_state(OrbitClassifier(tau), n)
        used.classify(n + 30)


@pytest.mark.parametrize("tau", [basis_shift_endo(2), identity_endo()],
                         ids=lambda t: t.description)
def test_window_layout_tracks_a_bounded_number_of_objects(tau):
    # the window's records, chains and groups live in a few flat lists: no
    # tuple per code, list per chain or list per fixed point is kept
    cls = OrbitClassifier(tau)
    tau.window_codes(20_000)
    gc.collect()
    before = len(gc.get_objects())
    ws = cls.window_struct(20_000)
    assert len(gc.get_objects()) - before < 100
    assert sum(count * length for _, count, length in ws.groups) == len(ws.chain_ids)


# preimage_code calls of a fresh 600-code window past the codes with no
# window preimage: the layout walks chains forward while their codes rise,
# so it asks for the preimage of a window code only where a cycle starts or
# a chain steps down, and in the backward walk from there
WALK_READS = [
    0, 0, 0, 0,
    3,    # the 3-cycle: 2, then the walk from 2 to 7 and 450
    2,    # the 2-cycle: code 3, then the walk from 3 to 12
    0,    # not injective: every window code is asked for once
    3,    # 2, then the walk around the 2-cycle to 4; and 6, after 9 -> 6
    0,
    994,  # the walk from 6 around the cycle 6, 7, ..., 1000: 1000 down to 7
    1,    # 5, after 20 -> 5 (6 to 20 rise from the root 0)
]


@pytest.mark.parametrize("tau, walked", zip(WINDOW_TAUS, WALK_READS),
                         ids=[t.description for t in WINDOW_TAUS])
def test_window_layout_asks_preimages_where_chains_do_not_rise(tau, walked,
                                                               monkeypatch):
    # every code with no window preimage is asked for once; a larger window
    # is laid out afresh, asking what a fresh classifier's window asks
    calls = []
    preimage = tau.preimage_code
    monkeypatch.setattr(tau, "preimage_code", lambda k: calls.append(k) or preimage(k))
    cls = OrbitClassifier(tau)
    cls.window_struct(600)
    image = set(tau.window_codes(600)) if tau.injective else set()
    asked = [x for x in range(600) if x not in image]
    assert set(asked) <= set(calls)
    assert len(calls) == len(asked) + walked
    calls.clear()
    cls.window_struct(700)
    grown = calls.copy()
    calls.clear()
    OrbitClassifier(tau).window_struct(700)
    assert grown == calls


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
def test_one_step_classify_raises_as_the_walk(budget, monkeypatch):
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    table = TableInjection(_NAT, {5: 900, 7: 5})  # 5 and 900 both go to 900
    stray = stray_chain()
    errors = []
    for make in (OrbitClassifier, WalkClassifier):
        with pytest.raises(NonInjectiveOnWindow) as table_info:
            make(table).window_struct(1000)
        cls = make(stray)
        list(map(cls.classify, range(4)))
        cls.chain_point(cls.classify(0)[1], 4)  # 0's chain now ends 3, 5
        with pytest.raises(NonInjectiveOnWindow) as stray_info:
            cls.classify(4)
        errors.append([(str(e.value), e.value.pair, e.value.image)
                       for e in (table_info, stray_info)])
    assert errors[0] == errors[1]
    assert errors[0][1][0] == "5 and 4 both map to 5"


def forked_chain():
    """Successor but for 5 -> 20, whose preimage rule also reads 3 as the
    preimage of 6: in the window [0, 8), 6 has no window preimage and its
    rule's preimage 3 already continues to 4."""
    tau = successor_endo()
    apply_code, preimage_code = tau.apply_code, tau.preimage_code
    tau.apply_code = lambda k: 20 if k == 5 else apply_code(k)
    tau.preimage_code = lambda k: {6: 3, 20: 5}.get(k, preimage_code(k))
    return tau


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
def test_window_layout_raises_as_the_walk(budget, monkeypatch):
    # the code after 3 on its chain was placed by the running layout
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    errors, states = [], []
    for make in (OrbitClassifier, WalkClassifier):
        cls = make(forked_chain())
        with pytest.raises(NonInjectiveOnWindow) as info:
            cls.window_struct(8)
        errors.append((str(info.value), info.value.pair, info.value.image))
        assert cls.n != 8
        states.append(_window_state(cls, 6))
    assert errors[0] == errors[1] == ("4 and 6 both map to 4", (4, 6), 4)
    assert states[0] == states[1]


@given(st.integers(1, 24))
@settings(max_examples=24, deadline=None)
def test_defect_bound_any_n(n):
    tau = shift_endo(3)
    prof = defect_profile(tau, approximate_by_automorphisms(tau, n), 200)
    assert prof.max_defect <= 1


def test_sigma_preimage_consistency():
    tau = successor_endo()
    for s in approximate_by_automorphisms(tau, 4):
        for x in range(50):
            y = s.apply(x)
            assert s.preimage(y) == x


def test_orbit_decompose_semi_orbit():
    dec = orbit_decompose(successor_endo(), 100)
    assert dec.semi_orbit_count == 1
    assert dec.orbit_count == 0
    assert dec.roots[0] == 0
    assert dec.records[7][2] == 7


def test_orbit_decompose_two_chains():
    dec = orbit_decompose(shift_endo(2), 100)
    assert dec.semi_orbit_count == 2
    assert sorted(dec.roots.values()) == [0, 1]


def test_orbit_decompose_cycles():
    rot = window_permutation(NaturalNumbers(), {0: 1, 1: 2, 2: 0})
    dec = orbit_decompose(rot, 10)
    # one 3-cycle plus seven fixed points, each its own cycle
    assert dec.orbit_count == 8
    assert dec.semi_orbit_count == 0
    assert set(dec.cycles[0]) == {0, 1, 2}
    assert sum(len(c) for c in dec.cycles.values()) == 10


def test_orbit_decompose_rejects_collision():
    bad = TableInjection(NaturalNumbers(), {0: 3})  # collides with fixed 3
    with pytest.raises(NonInjectiveOnWindow):
        orbit_decompose(bad, 10)


@pytest.mark.parametrize("laid_out, window", [(300, 120), (600, 37), (40, 7)])
@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
@pytest.mark.parametrize("tau", WINDOW_TAUS + [
    window_permutation(NaturalNumbers(), {0: 1, 1: 2, 2: 0}),
    window_permutation(NaturalNumbers(), {2: 150, 150: 2})],
    ids=lambda t: t.description)
def test_orbit_decompose_reuses_a_classifier(tau, budget, laid_out, window,
                                             monkeypatch):
    # a classifier that has laid out a larger window reads the smaller one
    # off its records, and gives the same decomposition as a fresh one
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    cls = OrbitClassifier(tau)
    cls.window_struct(laid_out)
    dec = orbit_decompose(tau, window, classifier=cls)
    assert cls.n == laid_out
    assert dec == orbit_decompose(tau, window)


def test_orbit_decompose_counts_read_codes(decode_calls):
    e = [FqVector.basis(2, i) for i in range(3)]
    tau = window_permutation(FqVectors(2), {e[0]: e[1], e[1]: e[2], e[2]: e[0]})
    decode_calls.clear()
    dec = orbit_decompose(tau, 64)
    # one 3-cycle and 61 fixed points
    assert (dec.orbit_count, dec.semi_orbit_count) == (62, 0)
    assert decode_calls == []
    assert sorted(map(repr, dec.cycles[dec.records[e[0]][1]])) == ["e0", "e1", "e2"]
    assert dec.records[FqVector.basis(2, 5)][2] == 0


def test_orbit_decompose_validates_through_the_classifier():
    bad = TableInjection(NaturalNumbers(), {300: 5000})  # collides with 5000
    cls = OrbitClassifier(bad)
    approximate_by_automorphisms(bad, 2, cls)  # checks no window
    with pytest.raises(NonInjectiveOnWindow):
        orbit_decompose(bad, 6000, classifier=cls)
    assert cls.n != 6000
    orbit_decompose(bad, 200, classifier=cls)
    assert cls.n == 200


def test_defect_profile_marks_undetermined(monkeypatch):
    # STEP_DOWN with walks of at most 2 steps: in order, the walk from 1
    # runs out, so 1, 2 and 4 are undetermined, and so is every later walk
    # that reaches them
    monkeypatch.setattr(approx, "MAX_STEPS", 2)
    tau = STEP_DOWN
    sigmas = approximate_by_automorphisms(tau, 2)
    prof = defect_profile(tau, sigmas, 20)
    undetermined = (1, 2, 3, 4, 5, *range(7, 20, 2))
    assert prof.undetermined_codes == undetermined
    assert set(prof.as_dict()) == set(range(20))
    # 0 is a chain of one code and 6, 8, ..., 18 root at 6; sigma_0 moves
    # 8, 12 and 16 off tau, sigma_1 moves 10, 14 and 18
    assert [prof.counts[k] for k in (0, *range(6, 20, 2))] == [0, 0] + [1] * 6
    # max_defect leaves the undetermined codes out, whatever they count
    counts = tuple(5 if k in undetermined else c for k, c in enumerate(prof.counts))
    assert replace(prof, counts=counts).max_defect == 1
    dec = orbit_decompose(tau, 20, classifier=sigmas[0].classifier)
    assert dec.undetermined == undetermined
    assert dec.semi_orbit_count == 2
    # sigma_i's preimage of 0 is chain position i+1, the undetermined 2 or
    # 4, and sigma_i falls back to tau there: no code maps to 0
    assert not any(s.window_bijectivity(20) for s in sigmas)


@pytest.mark.parametrize("tau", TAUS + [STEP_DOWN], ids=lambda t: t.description)
@pytest.mark.parametrize("budget", [1, 3, 6])
@pytest.mark.parametrize("first", [10, 25])
def test_window_bijectivity_with_undetermined_codes(tau, budget, first,
                                                    monkeypatch):
    # sigma falls back to tau at an undetermined code, so a window code can
    # lose its preimage; the fast check must then give way to the pointwise
    # one, when the layout leaves window codes undetermined (STEP_DOWN at
    # budget 1) and when a classify after it leaves codes past the window so
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    for n in (1, 2, 3, 5):
        for i in range(n):
            cls = OrbitClassifier(tau)
            cls.window_struct(20)
            cls.classify(first)
            s = approximate_by_automorphisms(tau, n, cls)[i]
            fast = s.window_bijectivity(20)
            assert fast == WindowInjection.window_bijectivity(s, 20), (n, i)


ROW_TAUS = [
    successor_endo(),
    shift_endo(3),
    basis_shift_endo(2),
    basis_shift_endo(3),
    window_permutation(_NAT, {2: 450, 450: 7, 7: 2}),
    TableInjection(_NAT, {300: 5000}),
    shift_endo(2).compose(window_permutation(_NAT, {0: 9, 9: 4, 4: 0})),
]


def _row_states(tau):
    """Classifiers for tau: fresh, after an out-of-order classify, and after
    sigma preimage lookups, which grow chains forward, possibly through
    undetermined codes."""
    yield OrbitClassifier(tau)
    cls = OrbitClassifier(tau)
    cls.classify(25)
    yield cls
    cls = OrbitClassifier(tau)
    list(map(cls.classify, range(300, 0, -7)))
    for s in approximate_by_automorphisms(tau, 7, cls):
        list(map(s.preimage_code, range(0, 700, 3)))
    yield cls


@pytest.mark.parametrize("budget", [1, 3, approx.MAX_STEPS])
@pytest.mark.parametrize("tau", ROW_TAUS, ids=lambda t: t.description)
def test_window_row_is_apply_code(tau, budget, monkeypatch):
    monkeypatch.setattr(approx, "MAX_STEPS", budget)
    for n in (1, 2, 3, 7):
        for cls in _row_states(tau):
            for s in approximate_by_automorphisms(tau, n, cls):
                for window in (40, 600):
                    assert (s.window_codes(window)
                            == list(map(s.apply_code, range(window)))), \
                        (n, s.i, window)


def test_sigma_window_reads_refuse_a_negative_window():
    s = approximate_by_automorphisms(successor_endo(), 2)[0]
    for read in (s.window_codes, s.window_bijectivity, s.validate_window):
        with pytest.raises(ValueError, match="window size -1 is negative"):
            read(-1)


def _check_sigma_rows(sigmas):
    for s in sigmas:
        s.validate_window(300)


def _agree_sigma_maps(sigmas):
    g_hat = strip_lift(sigmas)
    assert endos_agree_on_window(g_hat, g_hat, 300)
    assert not endos_agree_on_window(g_hat, strip_lift(sigmas[1:] + sigmas[:1]), 300)


@pytest.mark.parametrize("read", [_check_sigma_rows, _agree_sigma_maps],
                         ids=["validate_window", "endos_agree_on_window"])
def test_sigma_window_reads_use_the_moves_not_apply_code(read, monkeypatch):
    # a sigma's whole-window reads go through window_codes, which writes its
    # moves over tau's row, so no window code goes through its apply_code
    from collections import Counter
    applied, read_moves = Counter(), Counter()
    apply_code, moves = CycleApproxBijection.apply_code, CycleApproxBijection._moves

    def counting(self, k):
        applied[self] += 1
        return apply_code(self, k)

    def reading(self):
        read_moves[self] += 1
        return moves(self)

    monkeypatch.setattr(CycleApproxBijection, "apply_code", counting)
    monkeypatch.setattr(CycleApproxBijection, "_moves", reading)
    sigmas = approximate_by_automorphisms(basis_shift_endo(2), 3)
    read(sigmas)
    assert not applied
    assert set(read_moves) == set(sigmas)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_strip_lift_distance_formula(n):
    tau = successor_endo()
    sigmas = approximate_by_automorphisms(tau, n)
    g_hat = strip_lift(sigmas)
    h_hat = constant_endo(tau)
    assert len(g_hat.cells) <= n
    for a in range(40):
        d = l1_distance(apply_random_endo(g_hat, StepMap.constant(a)),
                        apply_random_endo(h_hat, StepMap.constant(a)))
        expected = Fraction(sum(1 for s in sigmas
                                if s.apply(a) != tau.apply(a)), n)
        assert d == expected
        assert d <= Fraction(1, n)


def test_strip_lift_on_vectors():
    tau = basis_shift_endo(2)
    n = 6
    sigmas = approximate_by_automorphisms(tau, n)
    g_hat = strip_lift(sigmas)
    h_hat = constant_endo(tau)
    dom = tau.domain
    for a in dom.window(20):
        d = l1_distance(apply_random_endo(g_hat, StepMap.constant(a)),
                        apply_random_endo(h_hat, StepMap.constant(a)))
        assert d <= Fraction(1, n)


def test_strip_lift_strips_are_horizontal():
    sig = approximate_by_automorphisms(successor_endo(), 4)
    g_hat = strip_lift(sig)
    for s, v in g_hat.cells:
        assert s.omega_shadow() == ((Fraction(0), Fraction(1)),)


@pytest.mark.parametrize("tau", TAUS + [basis_shift_endo(3)], ids=lambda t: t.description)
def test_sigma_code_rules_agree_with_point_rules(tau):
    dom = tau.domain
    for s in approximate_by_automorphisms(tau, 4):
        for k, x in enumerate(dom.window(300)):
            assert dom.index_of(s.apply(x)) == s.apply_code(k)
            assert dom.index_of(s.preimage(x)) == s.preimage_code(k)
            assert s.apply(s.preimage(x)) == x


def test_classifier_walk_builds_no_vector(monkeypatch):
    tau = basis_shift_endo(2)
    window = tuple(tau.domain.window(600))
    decoded, built = [], []
    point_at, post_init = FqVectors.point_at, FqVector.__post_init__
    monkeypatch.setattr(FqVectors, "point_at",
                        lambda self, k: decoded.append(k) or point_at(self, k))
    monkeypatch.setattr(FqVector, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    sigmas = approximate_by_automorphisms(tau, 5)
    prof = defect_profile(tau, sigmas, 600)
    assert all(s.window_bijectivity(600) for s in sigmas)
    assert prof.max_defect == 1 and prof.undetermined == ()
    assert decoded == [] and built == []
    # the profile decodes its points only when they are read
    assert prof.pts == window
    assert sorted(decoded) == list(range(600))


def test_sigma_points_decode_once_per_classifier(monkeypatch):
    tau = basis_shift_endo(2)
    sigmas = approximate_by_automorphisms(tau, 3)
    pts = tau.domain.window(50)
    decoded = []
    point_at = FqVectors.point_at
    monkeypatch.setattr(FqVectors, "point_at",
                        lambda self, k: decoded.append(k) or point_at(self, k))
    for _ in range(2):
        for s in sigmas:
            assert [s.preimage(s.apply(x)) for x in pts] == pts
    assert len(decoded) == len(set(decoded))


def test_fq_collision_names_points_not_codes():
    e0, e1 = FqVector.basis(2, 0), FqVector.basis(2, 1)
    bad = TableInjection(FqVectors(2), {e0: e1})  # e1 keeps its own image
    with pytest.raises(NonInjectiveOnWindow,
                       match="^e0 and e1 both map to e1$") as info:
        defect_profile(bad, approximate_by_automorphisms(bad, 2), 4)
    assert info.value.pair == (e0, e1) and info.value.image == e1


_F3 = FqVectors(3)
_F2N = DisjointUnion(_F2, _NAT)
COMBINED_TAUS = [
    InverseInjection(window_permutation(_NAT, {0: 1, 1: 2, 2: 0})),
    InverseInjection(LinearInjection(3, (FqVector.basis(3, 1), FqVector.basis(3, 0)))),
    UnionInjection(DisjointUnion(_NAT, _F2), successor_endo(), basis_shift_endo(2)),
    WreathInjection(PairProduct(_NAT, _F3), shift_endo(2),
                    {1: basis_shift_endo(3)}, identity_endo(_F3)),
    WreathInjection(PairProduct(_NAT, _F2N), successor_endo(),
                    {2: UnionInjection(_F2N, basis_shift_endo(2), shift_endo(3))},
                    identity_endo(_F2N)),
]
INJECTIVE_TAUS = list({t.key(): t for t in TAUS + REFERENCE_TAUS + WINDOW_TAUS
                       + ROW_TAUS + COMBINED_TAUS if t.injective}.values())


@pytest.mark.parametrize("tau", INJECTIVE_TAUS, ids=lambda t: t.description)
def test_injective_rules_read_back_their_images(tau):
    # the layout reads preimages off the inverse of tau's window row, which
    # is sound only where preimage_code undoes apply_code; so are tau's
    # sigmas, whose preimages the pointwise checks read
    cls = OrbitClassifier(tau)
    for rule in [tau, *approximate_by_automorphisms(tau, 3, cls)]:
        assert all(rule.preimage_code(rule.apply_code(x)) == x for x in range(3000))
