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

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress, groupby

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
    """Memoized backward-walking orbit classification for one injection.

    Points are handled as their codes k (tau.domain.point_at(k)) through
    tau's code rules, so the walk builds no point; point() decodes a code
    where a caller reads it, once per code.  has_undetermined says whether
    any code has been classified undetermined.
    """

    def __init__(self, tau: WindowInjection):
        self.tau = tau
        self.has_undetermined = False
        self._cls: dict = {}     # code -> (kind code, oid, position)
        self._chains: dict = {}  # oid -> list of codes for rooted chains
        self._cycles: dict = {}  # oid -> list of codes in forward order
        self._next_oid = 0
        self._row: list = []     # tau's window row of the longest window laid out
        self._img: dict = {}     # code -> code of tau's image, past _row
        self._points: dict = {}  # code -> decoded point
        self._ws_cache: dict = {}   # window size -> _Win

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
        row = self._row
        if k < len(row):
            return row[k]
        y = self._img.get(k)
        if y is None:
            y = self._img[k] = self.tau.apply_code(k)
        return y

    def classify(self, x: int):
        got = self._cls.get(x)
        if got is not None:
            return got
        # one step back settles most codes: x roots a new chain, or x
        # extends the rooted chain that ends at its preimage
        prev = self.tau.preimage_code(x)
        if prev is None:
            oid = self._next_oid
            self._next_oid += 1
            self._chains[oid] = [x]
            rec = self._cls[x] = (_K_SEMI, oid, 0)
            return rec
        known = self._cls.get(prev)
        if known is not None and known[0] == _K_SEMI:
            chain = self._chains[known[1]]
            if len(chain) == known[2] + 1:
                chain.append(x)
                rec = self._cls[x] = (_K_SEMI, known[1], known[2] + 1)
                return rec
        return self._walk(x, prev)

    def _walk(self, x: int, prev: int | None):
        """Classify x, whose preimage code is prev, by walking back from it,
        up to MAX_STEPS steps."""
        preimage = self.tau.preimage_code
        path = [x]
        path_pos = {x: 0}
        while True:
            if len(path) > MAX_STEPS:
                return self._undetermined(path)
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
                        raise self._collision(chain[pos + 1], path[-1],
                                              self.tau_image(prev))
                    for off, p in enumerate(reversed(path), start=1):
                        chain.append(p)
                        self._cls[p] = (_K_SEMI, oid, pos + off)
                    return self._cls[x]
                if kind == _K_ORBIT:
                    # a backward walk can only enter a cycle if two points
                    # share an image, i.e. the rule is not injective
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
                    self._cls[p] = (_K_ORBIT, oid, pos)
                return self._cls[x]
            path.append(prev)
            path_pos[prev] = len(path) - 1
            prev = preimage(prev)

    def _undetermined(self, path: list) -> tuple:
        self.has_undetermined = True
        rec = (_K_UNDET, -1, -1)
        for p in path:
            self._cls[p] = rec
        return rec

    def chain(self, oid) -> list:
        return self._chains[oid]

    def chain_point(self, oid, pos: int) -> int:
        """Code at a chain position, extending forward with tau as needed."""
        chain = self._chains[oid]
        while len(chain) <= pos:
            nxt = self.tau_image(chain[-1])
            rec = self._cls.get(nxt)
            if rec is None:
                self._cls[nxt] = (_K_SEMI, oid, len(chain))
            chain.append(nxt)
        return chain[pos]

    def _lay_out(self, tau_ids: list, tau_set: set) -> dict | None:
        """Classify the window codes [0, n) in one pass over tau's window
        row, leaving the state in-order classify would; or write nothing
        and return None where that pass does not apply.

        It applies to a classifier with no records and a tau injective on
        the whole carrier, when every window code is a fixed point, a root
        (no window code's image, and no preimage) or the image of a smaller
        window code.  In-order classify then settles each code in one step
        back, whatever MAX_STEPS.  Only the roots' preimages are read, after
        the row has passed.  Returns each rooted chain's length by oid.
        """
        if self._cls or not self.tau.injective:
            return None
        n = len(tau_ids)
        recs = [None] * n
        roots, chains, cycles = [], {}, {}
        oid = 0
        for x in range(n):
            if recs[x] is not None:
                continue
            y = tau_ids[x]
            if y == x:
                recs[x] = (_K_ORBIT, oid, 0)
                cycles[oid] = [x]
            elif x in tau_set:
                return None  # the image of a larger window code
            else:
                roots.append(x)
                recs[x] = (_K_SEMI, oid, 0)
                chain = chains[oid] = [x]
                p = x
                # a step down ends the chain early; its target, unreached
                # and in tau_set, then ends the pass
                while p < y < n:
                    recs[y] = (_K_SEMI, oid, len(chain))
                    chain.append(y)
                    p, y = y, tau_ids[y]
            oid += 1
        preimage = self.tau.preimage_code
        for x in roots:
            if preimage(x) is not None:
                return None  # the chain enters from outside the window
        self._cls.update(enumerate(recs))
        self._chains.update(chains)
        self._cycles.update(cycles)
        self._next_oid = oid
        return {o: len(c) for o, c in chains.items()}

    def window_struct(self, n: int) -> "_Win":
        """The _Win of the window [0, n), built once per n.

        Raises NonInjectiveOnWindow if two window points share an image.
        """
        ws = self._ws_cache.get(n)
        if ws is None:
            ws = self._ws_cache[n] = _Win(self, n)
        return ws


class _Win:
    """One window [0, n) of codes, laid out for the sigma rule.

    Window point w is its code w, and tau images and chain points outside
    the window are their codes too, all n or more.  tau_ids[w] is the code
    of tau(w) and tau_set their set; they are distinct, as tau is checked
    injective on the window before anything else.  The rooted chains
    through the window, each cut after its last window point, lie end to
    end in chain_ids, longest first; groups holds (start, count, length)
    for each run of chains of one length.  tau_ids is tau.window_codes(n),
    shared with tau's other window readers and the classifier's tau_image,
    so nothing here writes to it.

    The codes are laid out in one pass over tau_ids where that pass applies
    (OrbitClassifier._lay_out), and otherwise classified in code order.
    """

    __slots__ = ("n", "tau_ids", "tau_set", "chain_ids", "groups", "undet_widx")

    def __init__(self, cls: OrbitClassifier, n: int):
        self.n = n
        self.tau_ids = cls.tau.window_codes(n)
        self.tau_set = set(self.tau_ids)
        if len(self.tau_set) < n:
            cls.tau.validate_window(n)  # names the first collision
        if n > len(cls._row):
            cls._row = self.tau_ids
        self.undet_widx = []
        lengths = cls._lay_out(self.tau_ids, self.tau_set)
        if lengths is None:
            # classify every point before reading chains: a later point can
            # still extend a chain an earlier point lies on
            recs = list(map(cls.classify, range(n)))
            lengths = {}  # oid -> 1 + last window position on the chain
            for k, o, pos in recs:
                if k == _K_SEMI and lengths.get(o, 0) <= pos:
                    lengths[o] = pos + 1
            self.undet_widx = [w for w, r in enumerate(recs) if r[0] == _K_UNDET]
        flat: list = []
        self.groups = []
        for length, oids in groupby(sorted(lengths, key=lengths.get, reverse=True),
                                    lengths.get):
            oids = list(oids)
            self.groups.append((len(flat), len(oids), length))
            for o in oids:
                flat += cls.chain(o)[:length]
        self.chain_ids = flat


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

    A given classifier for tau is reused, so points it has already
    classified are not walked again, and a window it holds that covers
    [0, window) is not built again.  Raises NonInjectiveOnWindow when two
    window points share an image.
    """
    cls = classifier or OrbitClassifier(tau)
    if not any(n >= window for n in cls._ws_cache):
        cls.window_struct(window)
    records = []
    relabel: dict = {}
    roots: dict = {}
    cycles: dict = {}
    undet = []
    for k in range(window):
        kind, o, pos = cls.classify(k)
        if kind == _K_UNDET:
            records.append((UNDETERMINED, -1, -1))
            undet.append(k)
            continue
        if o not in relabel:
            rid = len(relabel)
            relabel[o] = rid
            if kind == _K_SEMI:
                roots[rid] = cls.chain(o)[0]
            else:
                cycles[rid] = tuple(cls._cycles[o])
        records.append((_KIND_NAMES[kind], relabel[o], pos))
    return OrbitDecomposition(window, tau.description, tuple(records), roots,
                              cycles, tuple(undet), cls.point)


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
            chain = cls.chain(oid)
            return chain[0] if j == i + 1 else chain[j - n + 1]
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
        return cls.chain(oid)[m - 1]

    def _moves(self, ws: _Win) -> tuple:
        """Codes of the window points sigma_i moves off tau, and of their images.

        Those are the points at chain positions j = i+1, i+1+n, ...: the
        first goes to its chain's root, each later one to position j-n+1.
        Only they are read, from each group of ws.groups by stride-length
        slices (one per moved position) or stride-n ones (one per chain).
        """
        n, i = self.n, self.i
        ids = ws.chain_ids
        moved, images = [], []
        for start, count, length in ws.groups:
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
        nw = ws.n
        if moved and max(moved) >= nw:  # chain points outside the window
            keep = [w < nw for w in moved]
            moved, images = list(compress(moved, keep)), list(compress(images, keep))
        return moved, images

    def window_row(self, n: int) -> list:
        """Codes of sigma's images of the window codes [0, n), as apply_code
        gives them: tau's window images with the moves written over them.

        Raises NonInjectiveOnWindow if tau is not injective on the window.
        apply_code leaves an undetermined code to tau, and a chain grown
        forward by a preimage lookup can pass through one, so undetermined
        window codes are written back to tau's image last.
        """
        ws = self.classifier.window_struct(n)
        row = ws.tau_ids.copy()
        for w, y in zip(*self._moves(ws)):
            row[w] = y
        for w in ws.undet_widx:
            row[w] = ws.tau_ids[w]
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
        cls = self.classifier
        ws = cls.window_struct(n)
        if not self.injective or cls.has_undetermined:
            return super().window_bijectivity(n)
        moved, images = self._moves(ws)
        old = set(map(ws.tau_ids.__getitem__, moved))
        new = set(images)
        # no new image repeats or is also the image of a point that stays
        return len(new) == len(images) and (new & ws.tau_set) <= old


def approximate_by_automorphisms(tau: WindowInjection, n: int,
                                 classifier: OrbitClassifier | None = None,
                                 ) -> list[CycleApproxBijection]:
    """The n bijections that jointly disagree with tau at most once per point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cls = classifier or OrbitClassifier(tau)
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
    ws = cls.window_struct(window)
    tau_ids = ws.tau_ids
    counts = [0] * ws.n
    for s in sigmas:
        for w, y in zip(*s._moves(ws)):
            counts[w] += y != tau_ids[w]
    return DefectProfile(tuple(counts), tuple(ws.undet_widx), cls.point)


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
