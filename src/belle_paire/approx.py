"""Orbit decomposition of injections and approximation by finite-cycle bijections.

An injection tau of a countable carrier splits the carrier into cycles,
doubly infinite chains and rooted chains (semi-orbits).  On a rooted chain
x_0, x_1, ... the family sigma_0..sigma_{n-1} built here consists of genuine
bijections that each agree with tau except on one arithmetic progression of
positions, so every point sees at most one disagreement across the family.

sigma_i closes finite cycles: with marked positions j^i_k = k*n + i + 1 it
sends position j^i_k to j^i_{k-1} + 1 for k >= 1 and position j^i_0 back to
the root, partitioning the chain into blocks [0..j^i_0], [j^i_0+1..j^i_1], ...
(The naive rule "send marked position to the previous marked position" is not
injective: that target would also keep its ordinary incoming edge.)

Classification is window-relative: a point whose backward chain neither
closes, roots, nor joins a known orbit within the step budget is reported
undetermined and never guessed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import Frac, StepMap
from .structures import NonInjectiveOnWindow, WindowInjection

__all__ = [
    "ORBIT",
    "SEMI_ORBIT",
    "UNDETERMINED",
    "OrbitClassifier",
    "OrbitDecomposition",
    "DefectProfile",
    "CycleApproxBijection",
    "orbit_decompose",
    "approximate_by_automorphisms",
    "defect_profile",
    "strip_lift",
]

ORBIT = "orbit"
SEMI_ORBIT = "semi-orbit"
UNDETERMINED = "undetermined"

_K_ORBIT, _K_SEMI, _K_UNDET = 0, 1, 2
_KIND_NAMES = {_K_ORBIT: ORBIT, _K_SEMI: SEMI_ORBIT, _K_UNDET: UNDETERMINED}


class OrbitClassifier:
    """Memoized backward-walking orbit classification for one injection."""

    def __init__(self, tau: WindowInjection, max_steps: int = 100_000):
        self.tau = tau
        self.max_steps = max_steps
        self._cls: dict = {}     # point -> (kind code, oid, position)
        self._chains: dict = {}  # oid -> list of points for rooted chains
        self._cycles: dict = {}  # oid -> list of points in forward order
        self._next_oid = 0
        self._img: dict = {}     # point -> tau's image of it
        self._ws_cache: dict = {}   # window size -> _Win
        self._pts_cache: dict = {}  # point tuple -> _Win
        self._validated: set = set()  # window sizes validate_window passed

    def tau_image(self, x):
        """tau.apply(x) memoized; every sigma of the family asks for it."""
        y = self._img.get(x)
        if y is None:
            y = self.tau.apply(x)
            self._img[x] = y
        return y

    def validate_window(self, n: int) -> None:
        """tau.validate_window(n) through the tau_image memo, once per n.

        Raises NonInjectiveOnWindow if two window points share an image.
        """
        if n in self._validated:
            return
        seen = {}
        for x in self.tau.domain.window(n):
            y = self.tau_image(x)
            if y in seen:
                raise NonInjectiveOnWindow(seen[y], x, y)
            seen[y] = x
        self._validated.add(n)

    def classify(self, x):
        got = self._cls.get(x)
        if got is not None:
            return got
        path = [x]
        path_pos = {x: 0}
        while True:
            if len(path) > self.max_steps:
                rec = (_K_UNDET, -1, -1)
                for p in path:
                    self._cls[p] = rec
                return rec
            prev = self.tau.preimage(path[-1])
            if prev is None:
                oid = self._next_oid
                self._next_oid += 1
                chain = list(reversed(path))
                self._chains[oid] = chain
                for pos, p in enumerate(chain):
                    self._cls[p] = (_K_SEMI, oid, pos)
                return self._cls[x]
            known = self._cls.get(prev)
            if known is not None:
                kind, oid, pos = known
                if kind == _K_SEMI:
                    chain = self._chains[oid]
                    if len(chain) != pos + 1:
                        raise NonInjectiveOnWindow(chain[pos + 1], path[-1],
                                                   self.tau.apply(prev))
                    for off, p in enumerate(reversed(path), start=1):
                        chain.append(p)
                        self._cls[p] = (_K_SEMI, oid, pos + off)
                    return self._cls[x]
                if kind == _K_ORBIT:
                    # a backward walk can only enter a cycle if two points
                    # share an image, i.e. the rule is not injective
                    raise NonInjectiveOnWindow(path[-1], None, self.tau.apply(prev))
                rec = (_K_UNDET, -1, -1)
                for p in path:
                    self._cls[p] = rec
                return rec
            if prev in path_pos:
                if prev != x:
                    raise NonInjectiveOnWindow(path[-1], None, prev)
                oid = self._next_oid
                self._next_oid += 1
                cyc = list(reversed(path))
                self._cycles[oid] = cyc
                for pos, p in enumerate(cyc):
                    self._cls[p] = (_K_ORBIT, oid, pos)
                return self._cls[x]
            path.append(prev)
            path_pos[prev] = len(path) - 1

    def chain(self, oid) -> list:
        return self._chains[oid]

    def chain_point(self, oid, pos: int):
        """Point at a chain position, extending forward with tau as needed."""
        chain = self._chains[oid]
        while len(chain) <= pos:
            nxt = self.tau_image(chain[-1])
            rec = self._cls.get(nxt)
            if rec is None:
                self._cls[nxt] = (_K_SEMI, oid, len(chain))
            chain.append(nxt)
        return chain[pos]

    def window_struct(self, n: int) -> "_Win":
        """The _Win of the window [0, n), built once per n."""
        ws = self._ws_cache.get(n)
        if ws is None:
            ws = _Win(self, tuple(self.tau.domain.window(n)))
            self._ws_cache[n] = ws
        return ws

    def points_struct(self, pts: tuple) -> "_Win":
        """The _Win of an arbitrary point tuple, cached by the tuple."""
        ws = self._pts_cache.get(pts)
        if ws is None:
            ws = _Win(self, pts)
            self._pts_cache[pts] = ws
        return ws


class _Win:
    """Vectorized view of one window, as small integer ids.

    Window point w has id w; tau images and chain points outside the window
    get ids from len(pts) on, and rev maps every id back to its point.
    Per window point: tau_ids is its image under tau, chain_pos its position
    on its rooted chain (-1 off semi-orbits) and chain_base the offset of
    that chain in chain_ids, the ids of every window chain laid end to end.
    """

    __slots__ = ("pts", "rev", "tau_ids", "chain_pos", "chain_base",
                 "chain_ids", "undet_widx")

    def __init__(self, cls: OrbitClassifier, pts: tuple):
        n = len(pts)
        self.pts = pts
        # classify every point before reading chains: a later point can
        # still extend a chain an earlier point lies on
        recs = [cls.classify(p) for p in pts]
        intern = {p: i for i, p in enumerate(pts)}
        rev = list(pts)
        def iid(p):
            i = intern.get(p)
            if i is None:
                i = len(rev)
                intern[p] = i
                rev.append(p)
            return i
        self.tau_ids = np.fromiter((iid(cls.tau_image(p)) for p in pts),
                                   np.int64, n)
        chain_pos = [-1] * n
        chain_base = [0] * n
        bases: dict = {}
        flat: list = []
        undet = []
        for w, (k, o, ps) in enumerate(recs):
            if k == _K_SEMI:
                b = bases.get(o)
                if b is None:
                    b = bases[o] = len(flat)
                    flat.extend(iid(p) for p in cls.chain(o))
                chain_pos[w] = ps
                chain_base[w] = b
            elif k == _K_UNDET:
                undet.append(w)
        self.chain_pos = np.array(chain_pos, np.int64)
        self.chain_base = np.array(chain_base, np.int64)
        self.chain_ids = np.array(flat, np.int64)
        self.undet_widx = undet
        self.rev = rev


@dataclass(frozen=True)
class OrbitDecomposition:
    """Window classification of an injection's orbit structure."""

    window: int
    tau_description: str
    records: dict   # point -> (kind, orbit_id, position)
    roots: dict     # orbit_id -> root point, for rooted chains
    cycles: dict    # orbit_id -> tuple of points in forward order
    undetermined: tuple

    @property
    def orbit_count(self) -> int:
        return len(self.cycles)

    @property
    def semi_orbit_count(self) -> int:
        return len(self.roots)

    def position_of(self, x) -> int:
        return self.records[x][2]


def orbit_decompose(tau: WindowInjection, window: int,
                    max_steps: int | None = None) -> OrbitDecomposition:
    """Classify every window point of tau into orbit / semi-orbit / undetermined.

    Raises NonInjectiveOnWindow when two window points share an image.
    """
    tau.validate_window(window)
    cls = OrbitClassifier(tau, max_steps or max(100_000, 10 * window))
    records = {}
    relabel: dict = {}
    roots: dict = {}
    cycles: dict = {}
    undet = []
    for p in tau.domain.window(window):
        k, o, pos = cls.classify(p)
        if k == _K_UNDET:
            records[p] = (UNDETERMINED, -1, -1)
            undet.append(p)
            continue
        if o not in relabel:
            rid = len(relabel)
            relabel[o] = rid
            if k == _K_SEMI:
                roots[rid] = cls.chain(o)[0]
            else:
                cycles[rid] = tuple(cls._cycles[o])
        records[p] = (_KIND_NAMES[k], relabel[o], pos)
    return OrbitDecomposition(window, tau.description, records, roots,
                              cycles, tuple(undet))


class CycleApproxBijection(WindowInjection):
    """sigma_i of the approximating family for one injection."""

    is_bijection = True

    def __init__(self, classifier: OrbitClassifier, n: int, i: int):
        assert 0 <= i < n
        self.classifier = classifier
        self.n = n
        self.i = i
        tau = classifier.tau
        super().__init__(tau.domain, f"approx[{tau.description};n={n},i={i}]")

    @property
    def tau(self) -> WindowInjection:
        return self.classifier.tau

    def key(self):
        return ("approx", self.tau.key(), self.n, self.i)

    def apply(self, x):
        kind, oid, j = self.classifier.classify(x)
        if kind != _K_SEMI:
            return self.classifier.tau_image(x)
        n, i = self.n, self.i
        if j >= 1 and j % n == (i + 1) % n:
            chain = self.classifier.chain(oid)
            return chain[0] if j == i + 1 else chain[j - n + 1]
        return self.classifier.tau_image(x)

    def preimage(self, y):
        kind, oid, m = self.classifier.classify(y)
        if kind != _K_SEMI:
            return self.tau.preimage(y)
        n, i = self.n, self.i
        if m == 0:
            return self.classifier.chain_point(oid, i + 1)
        if m >= 2 and m % n == (i + 2) % n:
            return self.classifier.chain_point(oid, m + n - 1)
        return self.classifier.chain(oid)[m - 1]

    # -- vectorized window paths ------------------------------------------

    def _image_ids(self, ws: _Win) -> np.ndarray:
        """Image ids of the window points; the array form of apply."""
        n, i = self.n, self.i
        out = ws.tau_ids.copy()
        j = ws.chain_pos
        w = np.flatnonzero((j > i) & ((j - i - 1) % n == 0))
        jw = j[w]
        src = np.where(jw == i + 1, 0, jw - n + 1)
        out[w] = ws.chain_ids[ws.chain_base[w] + src]
        return out

    def apply_window(self, pts: list) -> list:
        ws = self.classifier.points_struct(tuple(pts))
        rev = ws.rev
        return [rev[k] for k in self._image_ids(ws).tolist()]

    def window_bijectivity(self, n: int) -> bool:
        """Window bijectivity on [0, n), vectorized.

        Checks that the images of all window points are distinct, that every
        undetermined point y (where sigma falls back to tau) has a preimage
        p with apply(p) == y, and the same round trip at every 61st window
        point as a spot check.  Determined points have preimages by the
        cycle structure.
        """
        ws = self.classifier.window_struct(n)
        pts = ws.pts
        ids = self._image_ids(ws)
        if np.bincount(ids, minlength=1).max() > 1:
            return False
        for w in ws.undet_widx:
            y = pts[w]
            p = self.preimage(y)
            if p is None or self.apply(p) != y:
                return False
        for y in pts[::61]:
            p = self.preimage(y)
            if p is None or self.apply(p) != y:
                return False
        return True


def approximate_by_automorphisms(tau: WindowInjection, n: int,
                                 classifier: OrbitClassifier | None = None,
                                 ) -> list[CycleApproxBijection]:
    """The n bijections that jointly disagree with tau at most once per point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cls = classifier or OrbitClassifier(tau)
    cls.validate_window(256)
    return [CycleApproxBijection(cls, n, i) for i in range(n)]


@dataclass(frozen=True)
class DefectProfile:
    """Per-point disagreement counts of a bijection family against tau."""

    pts: tuple
    counts: tuple
    undetermined: tuple

    @property
    def max_defect(self) -> int:
        und = set(self.undetermined)
        determined = [c for p, c in zip(self.pts, self.counts) if p not in und]
        return max(determined, default=0)

    def as_dict(self) -> dict:
        return dict(zip(self.pts, self.counts))


def defect_profile(tau: WindowInjection, sigmas: list, window: int) -> DefectProfile:
    """Exhaustively count, per window point, how many sigmas disagree with tau.

    Undetermined points are reported separately and excluded from max_defect.
    """
    shared = (sigmas and all(isinstance(s, CycleApproxBijection) for s in sigmas)
              and all(s.classifier is sigmas[0].classifier for s in sigmas)
              and sigmas[0].tau.key() == tau.key())
    if shared:
        ws = sigmas[0].classifier.window_struct(window)
        pts = ws.pts
        counts = np.zeros(len(pts), np.int64)
        for s in sigmas:
            counts += s._image_ids(ws) != ws.tau_ids
        undet = tuple(pts[w] for w in ws.undet_widx)
        return DefectProfile(pts, tuple(int(c) for c in counts), undet)
    pts = tau.domain.window(window)
    tau_im = tau.apply_window(pts)
    counts = [0] * len(pts)
    for s in sigmas:
        for k, (a, b) in enumerate(zip(s.apply_window(pts), tau_im)):
            if a != b:
                counts[k] += 1
    cls = OrbitClassifier(tau)
    undet = tuple(p for p in pts if cls.classify(p)[0] == _K_UNDET)
    return DefectProfile(tuple(pts), tuple(counts), undet)


def strip_lift(gs: list) -> StepMap:
    """Lift a finite family of maps to equal horizontal strips of the square.

    The value on the strip of heights [i/n, (i+1)/n) is gs[i]; acting on any
    first-coordinate-only map, the lift realizes the averaged family.
    """
    if not gs:
        raise ValueError("need at least one map to lift")
    n = len(gs)
    return StepMap.from_horizontal_strips(
        (Frac(i, n), Frac(i + 1, n), g) for i, g in enumerate(gs))
