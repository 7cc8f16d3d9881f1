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
closes, roots, nor joins a known orbit within MAX_STEPS steps is reported
undetermined and never guessed.
"""
from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain, compress, groupby

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

# steps a backward walk may take before its points are undetermined
MAX_STEPS = 100_000

_K_ORBIT, _K_SEMI, _K_UNDET = 0, 1, 2
_KIND_NAMES = {_K_ORBIT: ORBIT, _K_SEMI: SEMI_ORBIT, _K_UNDET: UNDETERMINED}


class OrbitClassifier:
    """Memoized backward-walking orbit classification for one injection,
    holding one window [0, n) laid out for the sigma rule.

    Points are handled as their codes k (tau.domain.point_at(k)) through
    tau's code rules, so the walk builds no point; point() decodes a code
    where a caller reads it, once per code.  has_undetermined says whether
    any code has been classified undetermined.

    window_struct(n) lays [0, n) out on fresh records unless it is the
    window laid out, so a classifier holds one window, laid out as a fresh
    classifier would lay it out; n is -1 until then.  Window point w is
    its code w, and so are tau images and chain points past the window.
    tau_ids is tau.window_codes(n), shared with tau's other readers, so
    nothing here writes to it; tau_set, its set, has n codes.  The
    window's rooted chains, each ending at its last window point, lie end
    to end in chain_ids, longest first, ties by first window point; groups
    holds (start, count, length) per run of one length, and undet_widx
    the undetermined window codes.

    A code's record is (kind code, oid, position): in the flat lists
    _kind, _oid and _pos for the window codes, in _far past them.  Rooted
    chain oid has _clen[oid] codes, the first _cut[oid] at _start[oid] in
    chain_ids, the rest in _tail[oid].  _cycles holds the cycles of two or
    more codes.  Every oid has a _clen entry, so len(_clen) is the next
    oid.  _img holds tau's images past the window, _points the decoded
    points.
    """

    def __init__(self, tau: WindowInjection):
        self.tau, self._points = tau, {}
        self._reset()

    def _reset(self):
        """Drop the window and every record, as a fresh classifier holds
        none; the decoded points stay."""
        self.has_undetermined, self.n = False, -1
        self._kind, self._oid, self._pos = [], [], []
        self._clen, self._start, self._cut = [], [], []
        self._far, self._tail, self._cycles, self._img = {}, {}, {}, {}
        self.tau_ids, self.tau_set, self.chain_ids = [], set(), []
        self.groups, self.undet_widx = [], []

    def point(self, k: int):
        """The point with code k, decoded once per classifier."""
        x = self._points.get(k)
        if x is None:
            x = self._points[k] = self.tau.domain.point_at(k)
        return x

    def _collision(self, k1, k2, y) -> NonInjectiveOnWindow:
        """NonInjectiveOnWindow naming the points of the codes (k2 may be None)."""
        return NonInjectiveOnWindow(self.point(k1),
                                    None if k2 is None else self.point(k2),
                                    self.point(y))

    def tau_image(self, k: int) -> int:
        """tau.apply_code(k), read from the window row below its length and
        memoized past it; every sigma of the family asks for it."""
        row = self.tau_ids
        if k < len(row):
            return row[k]
        y = self._img.get(k)
        if y is None:
            y = self._img[k] = self.tau.apply_code(k)
        return y

    def _record(self, x: int):
        if x < len(self._kind):
            kind = self._kind[x]
            return None if kind is None else (kind, self._oid[x], self._pos[x])
        return self._far.get(x)

    def classify(self, x: int):
        rec = self._record(x)
        if rec is None:
            rec, codes = self._walk(x, self.tau.preimage_code(x))
            if rec[0] == _K_SEMI:
                self._tail.setdefault(rec[1], []).extend(codes)
        return rec

    def _walk(self, x: int, prev: int | None):
        """Classify x, whose preimage code is prev, by walking back from it,
        up to MAX_STEPS steps; writes the walked codes' records and returns
        x's record and those codes in chain order."""
        path, seen, known = [x], {x}, None
        while len(path) <= MAX_STEPS and prev is not None and prev not in seen:
            known = self._record(prev)
            if known is not None:
                break
            path.append(prev)
            seen.add(prev)
            prev = self.tau.preimage_code(prev)
        if known is not None:
            kind, oid, pos = known
            if kind == _K_SEMI:
                pos += 1
                if self._clen[oid] != pos:
                    raise self._collision(self.chain_point(oid, pos), path[-1],
                                          self.tau_image(prev))
            elif kind == _K_ORBIT:  # only two codes with one image lead into a cycle
                raise self._collision(path[-1], None, self.tau_image(prev))
        elif len(path) > MAX_STEPS:
            kind, oid, pos = _K_UNDET, -1, -1
        elif prev is not None and prev != x:
            raise self._collision(path[-1], None, prev)
        else:  # the chain roots at path[-1], or the cycle closes at x
            kind, oid, pos = _K_SEMI if prev is None else _K_ORBIT, len(self._clen), 0
            self._clen.append(0)
            if prev is not None and len(path) > 1:
                self._cycles[oid] = tuple(reversed(path))
        path.reverse()
        if kind == _K_SEMI:
            self._clen[oid] += len(path)
        self.has_undetermined |= kind == _K_UNDET
        K, O, P, step = self._kind, self._oid, self._pos, kind != _K_UNDET
        for p in path:
            if p < len(K):
                K[p], O[p], P[p] = kind, oid, pos
            else:
                self._far[p] = (kind, oid, pos)
            pos += step
        return self._record(x), path

    def chain_point(self, oid: int, pos: int) -> int:
        """Code at a chain position, extending forward with tau as needed."""
        # chain_ids holds the first cut codes of a chain the window laid out
        laid = oid < len(self._cut)
        start, cut = (self._start[oid], self._cut[oid]) if laid else (0, 0)
        if pos < cut:
            return self.chain_ids[start + pos]
        tail = self._tail.setdefault(oid, [])
        while len(tail) <= pos - cut:
            nxt = self.tau_image(tail[-1] if tail else self.chain_ids[start + cut - 1])
            if nxt >= self.n:
                self._far.setdefault(nxt, (_K_SEMI, oid, cut + len(tail)))
            tail.append(nxt)
            self._clen[oid] += 1
        return tail[pos - cut]

    def _lay_out(self, n: int):
        """Lay the window [0, n) out on fresh records, one run of codes per
        chain: in code order, as in-order classify would, where tau is
        injective, a fixed point is settled at once and a chain is walked
        forward along the row, from its root or a backward walk's end,
        while its codes rise."""
        self.tau_ids = row = self.tau.window_codes(n)
        self.tau_set = set(row)
        if len(self.tau_set) < n:
            self.tau.validate_window(n)  # names the first collision
        K, O, P = self._kind, self._oid, self._pos = [None] * n, [None] * n, [None] * n
        clen, far, store, start, moved = self._clen, self._far, [], [], False
        injective, preimage = self.tau.injective, self.tau.preimage_code
        # a collision's chain_point reads the store while the layout runs
        self.chain_ids, self._start, self._cut = store, start, clen
        for x in range(n):
            if K[x] is not None:
                continue
            o = len(clen)
            if injective and row[x] == x:  # a fixed point
                K[x], O[x], P[x] = _K_ORBIT, o, 0
                clen.append(0)
                start.append(0)
                continue
            prev = preimage(x)
            if injective and prev is None:  # a root
                K[x], O[x], P[x] = _K_SEMI, o, 0
                clen.append(1)
                start.append(len(store))
                store.append(x)
            else:
                (kind, o, p), path = self._walk(x, prev)
                start += [0] * (len(clen) - len(start))
                if kind != _K_SEMI:
                    continue
                had = clen[o] - len(path)
                if had and start[o] + had != len(store):  # copy it to the end
                    store += store[start[o]:start[o] + had]
                    moved = True
                start[o] = s = len(store) - had
                store += path
                # in order, the walk would pass the chain's codes above x
                i = p - 1
                while i >= 0 and store[s + i] > x:
                    i -= 1
                if p - i > MAX_STEPS:  # ... and leave x undetermined
                    for c in store[s + i + 1:]:
                        if far.pop(c, None) is None:  # a window code
                            K[c] = None
                    del store[s + i + 1:]
                    clen[o] = i + 1
                    self._walk(x, prev)
                    continue
            p, y = clen[o], row[x] if injective else n  # walk on while it rises
            while x < y < n and K[y] is None:
                K[y], O[y], P[y] = _K_SEMI, o, p
                store.append(y)
                p, x, y = p + 1, y, row[y]
            clen[o] = p
        # each chain ends at a window code: one run per chain, in oid
        # order, which is first window code order
        cut = clen.copy()
        chains = list(filter(cut.__getitem__, range(len(cut))))
        order = sorted(chains, key=cut.__getitem__, reverse=True)
        if moved or order != chains:  # the chains' runs longest first
            store = list(chain.from_iterable(store[start[o]:start[o] + cut[o]]
                                             for o in order))
            at = 0
            for o in order:
                start[o], at = at, at + cut[o]
        self.chain_ids, self._start, self._cut, self.n = store, array("q", start), cut, n
        self.groups, at = [], 0
        for length, run in groupby(map(cut.__getitem__, order)):
            self.groups.append((at, count := len(list(run)), length))
            at += count * length
        self.undet_widx = (list(compress(range(n), map(_K_UNDET.__eq__, K)))
                           if self.has_undetermined else [])

    def window_struct(self, n: int) -> "OrbitClassifier":
        """Lay the window [0, n) out unless it is the one laid out, and
        return the classifier; raises NonInjectiveOnWindow if two window
        points share an image.  A failed layout leaves a fresh classifier."""
        if n < 0:
            raise ValueError(f"window size {n} is negative")
        if n != self.n:
            self._reset()
            try:
                self._lay_out(n)
            except BaseException:
                self._reset()
                raise
        return self


@dataclass(frozen=True)
class OrbitDecomposition:
    """Window classification of an injection's orbit structure.

    Held on codes, as DefectProfile is: code_records[k] is the (kind,
    orbit_id, position) of the window point with code k.  records, roots,
    cycles and undetermined decode through point_at when read; the counts
    read codes.
    """

    window: int
    tau_description: str
    code_records: tuple
    root_codes: dict    # orbit_id -> root code, for rooted chains
    cycle_codes: dict   # orbit_id -> tuple of codes in forward order
    undetermined_codes: tuple
    point_at: Callable = field(repr=False, compare=False)

    @property
    def records(self) -> dict:
        return dict(zip(map(self.point_at, range(self.window)), self.code_records))

    @property
    def roots(self) -> dict:
        return {o: self.point_at(k) for o, k in self.root_codes.items()}

    @property
    def cycles(self) -> dict:
        return {o: tuple(map(self.point_at, c)) for o, c in self.cycle_codes.items()}

    @property
    def undetermined(self) -> tuple:
        return tuple(map(self.point_at, self.undetermined_codes))

    @property
    def orbit_count(self) -> int:
        return len(self.cycle_codes)

    @property
    def semi_orbit_count(self) -> int:
        return len(self.root_codes)


def orbit_decompose(tau: WindowInjection, window: int,
                    classifier: OrbitClassifier | None = None,
                    ) -> OrbitDecomposition:
    """Classify every window point of tau into orbit / semi-orbit / undetermined.

    A given classifier for tau is reused: its records are read directly
    where its laid-out window covers [0, window).  Raises
    NonInjectiveOnWindow when two window points share an image.
    """
    cls = _classifier_for(tau, classifier)
    if cls.n < window:
        cls.window_struct(window)
    relabel, roots, cycles, records = {-1: -1}, {}, {}, []  # -1: undetermined
    for k, kind, o, pos in zip(range(window), cls._kind, cls._oid, cls._pos):
        if o not in relabel:
            relabel[o] = rid = len(relabel) - 1
            if kind == _K_SEMI:
                roots[rid] = cls.chain_point(o, 0)
            else:
                cycles[rid] = cls._cycles.get(o, (k,))
        records.append((_KIND_NAMES[kind], relabel[o], pos))
    undet = tuple(k for k, r in enumerate(records) if r[0] == UNDETERMINED)
    return OrbitDecomposition(window, tau.description, tuple(records), roots,
                              cycles, undet, cls.point)


def _classifier_for(tau: WindowInjection, classifier) -> OrbitClassifier:
    """The given classifier, or a fresh one; ValueError if it is not tau's."""
    cls = classifier or OrbitClassifier(tau)
    if cls.tau != tau:
        raise ValueError(f"a classifier for {cls.tau.description} "
                         f"cannot classify {tau.description}")
    return cls


class CycleApproxBijection(WindowInjection):
    """sigma_i of the approximating family for one injection.

    injective and is_bijection are tau's injective: with tau injective on
    the whole carrier, sigma_i is a bijection of the carrier by construction
    (finite cycles on rooted chains, tau elsewhere).
    """

    def __init__(self, classifier: OrbitClassifier, n: int, i: int):
        if not 0 <= i < n:
            raise ValueError(f"sigma index {i} outside [0, {n})")
        self.classifier = classifier
        self.n = n
        self.i = i
        tau = classifier.tau
        self.is_bijection = self.injective = tau.injective
        super().__init__(tau.domain, f"approx[{tau.description};n={n},i={i}]")
        self._last = (None, None, None)  # the chain_ids _moves last read, and its moves
        # apply and preimage on points decode through the classifier's memo
        self.point_of = classifier.point

    @property
    def tau(self) -> WindowInjection:
        return self.classifier.tau

    def key(self):
        return ("approx", self.tau._key, self.n, self.i)

    def apply_code(self, k):
        cls = self.classifier
        kind, oid, j = cls.classify(k)
        n, i = self.n, self.i
        if kind == _K_SEMI and j >= 1 and j % n == (i + 1) % n:
            return cls.chain_point(oid, 0 if j == i + 1 else j - n + 1)
        return cls.tau_image(k)

    def preimage_code(self, k):
        cls = self.classifier
        kind, oid, m = cls.classify(k)
        if kind != _K_SEMI:
            return cls.tau.preimage_code(k)
        n, i = self.n, self.i
        if m == 0:
            return cls.chain_point(oid, i + 1)
        if m >= 2 and m % n == (i + 2) % n:
            return cls.chain_point(oid, m + n - 1)
        return cls.chain_point(oid, m - 1)

    def _moves(self) -> tuple:
        """Codes of the points of the classifier's window that sigma_i moves
        off tau, and of their images.

        Those are the points at chain positions j = i+1, i+1+n, ...: the
        first goes to its chain's root, each later one to position j-n+1.
        Only they are read, from each group of the window's groups by
        stride-length slices (one per moved position) or stride-n ones (one
        per chain).  Every layout makes a new chain_ids, which nothing
        changes, so the moves are read once per window.
        """
        cls = self.classifier
        ids = cls.chain_ids
        if self._last[0] is ids:
            return self._last[1:]
        n, i = self.n, self.i
        moved, images = [], []
        for start, count, length in cls.groups:
            js = range(i + 1, length, n)
            if not js:
                break  # groups run longest first
            stop = start + count * length
            if len(js) <= count:
                for j in js:
                    moved += ids[start + j:stop:length]
                    images += ids[start + (0 if j == i + 1 else j - n + 1):stop:length]
            else:
                for b in range(start, stop, length):
                    moved += ids[b + i + 1:b + length:n]
                    images.append(ids[b])
                    images += ids[b + i + 2:b + length:n][:len(js) - 1]
        nw = cls.n
        if moved and max(moved) >= nw:  # chain points outside the window
            keep = [w < nw for w in moved]
            moved, images = list(compress(moved, keep)), list(compress(images, keep))
        self._last = (ids, moved, images)
        return moved, images

    def window_codes(self, n: int) -> list:
        """Codes of sigma's images of the window codes [0, n), as apply_code
        gives them: tau's window images with the moves written over them.

        A new list per call: a sigma keeps no row.  apply_code leaves an
        undetermined code to tau, and a chain grown forward by a preimage
        lookup can pass through one, so undetermined window codes are
        written back to tau's image last.  Where tau collides on the window
        the row is read code by code.
        """
        try:
            cls = self.classifier.window_struct(n)
        except NonInjectiveOnWindow:
            return list(map(self.apply_code, range(n)))
        row = cls.tau_ids.copy()
        for w, y in zip(*self._moves()):
            row[w] = y
        for w in cls.undet_widx:
            row[w] = cls.tau_ids[w]
        return row

    def window_bijectivity(self, n: int) -> bool:
        """Window bijectivity on [0, n), on codes, exact for every window code.

        Raises NonInjectiveOnWindow if tau is not injective on the window.
        A tau injective only on a window gets the base class's check of
        every code: its chains can leave the window and come back.  So does
        a classifier that holds an undetermined code, in the window or past
        it: sigma falls back to tau there, and a chain position read across
        it can leave a window code without a preimage.  Otherwise sigma is a
        bijection by construction, so what is checked is that the images of
        all window points are distinct.  The images are tau's but at the
        moved points, so distinctness is read from the moved points alone.
        """
        cls = self.classifier.window_struct(n)
        if not self.injective or cls.has_undetermined:
            return super().window_bijectivity(n)
        moved, images = self._moves()
        old = set(map(cls.tau_ids.__getitem__, moved))
        new = set(images)
        # no new image repeats or is also the image of a point that stays
        return len(new) == len(images) and (new & cls.tau_set) <= old


def approximate_by_automorphisms(tau: WindowInjection, n: int,
                                 classifier: OrbitClassifier | None = None,
                                 ) -> list[CycleApproxBijection]:
    """The n bijections that jointly disagree with tau at most once per point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cls = _classifier_for(tau, classifier)
    return [CycleApproxBijection(cls, n, i) for i in range(n)]


@dataclass(frozen=True)
class DefectProfile:
    """Per-point disagreement counts of a bijection family against tau.

    counts[k] belongs to the window point with code k and undetermined_codes
    lists the codes of the undetermined points; pts, undetermined and
    as_dict decode them through point_at when read.
    """

    counts: tuple
    undetermined_codes: tuple
    point_at: Callable = field(repr=False, compare=False)

    @property
    def pts(self) -> tuple:
        return tuple(map(self.point_at, range(len(self.counts))))

    @property
    def undetermined(self) -> tuple:
        return tuple(map(self.point_at, self.undetermined_codes))

    @property
    def max_defect(self) -> int:
        if not self.undetermined_codes:
            return max(self.counts, default=0)
        und = set(self.undetermined_codes)
        return max((c for k, c in enumerate(self.counts) if k not in und),
                   default=0)

    def as_dict(self) -> dict:
        return dict(zip(self.pts, self.counts))


def defect_profile(tau: WindowInjection, sigmas: list, window: int) -> DefectProfile:
    """Exhaustively count, per window point, how many sigmas disagree with tau.

    sigmas is one classifier's family for tau, as approximate_by_automorphisms
    builds it; anything else raises ValueError.  Undetermined points are
    reported separately and excluded from max_defect.
    """
    cls = getattr(sigmas[0], "classifier", None) if sigmas else None
    if (cls is None or cls.tau != tau
            or any(getattr(s, "classifier", None) is not cls for s in sigmas)):
        raise ValueError(f"not one classifier's sigma family for {tau.description}")
    tau_ids = cls.window_struct(window).tau_ids
    counts = [0] * window
    for s in sigmas:
        for w, y in zip(*s._moves()):
            counts[w] += y != tau_ids[w]
    return DefectProfile(tuple(counts), tuple(cls.undet_widx), cls.point)


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
