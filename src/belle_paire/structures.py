"""Countable carriers and lazily evaluable injective self-maps.

A carrier is a countable domain with a canonical enumeration; window(n)
returns its first n points and every check in the library is relative to
such a window.  The enumeration index k of a point (point_at(k), inverted
by index_of) is its code.  Injections are rules on codes, with a partial
preimage rule so orbits can be walked backwards without ever guessing;
points are decoded only where a caller reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "Domain",
    "NaturalNumbers",
    "FqVectors",
    "DisjointUnion",
    "PairProduct",
    "FqVector",
    "GeometrySpec",
    "WindowInjection",
    "IdentityInjection",
    "ShiftInjection",
    "TableInjection",
    "LinearInjection",
    "ComposedInjection",
    "InverseInjection",
    "UnionInjection",
    "WreathInjection",
    "NonInjectiveOnWindow",
    "successor_endo",
    "identity_endo",
    "shift_endo",
    "basis_shift_endo",
    "window_permutation",
    "is_prime",
    "is_prime_power",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True  # n itself prime


class Domain:
    """Countable carrier with a canonical enumeration."""

    def point_at(self, k: int):
        raise NotImplementedError

    def index_of(self, point) -> int:
        """The code k with point_at(k) == point."""
        raise NotImplementedError

    def window(self, n: int) -> list:
        return [self.point_at(k) for k in range(n)]

    def describe(self) -> str:
        """The carrier's name; carriers compare and hash by it."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Domain) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def __repr__(self):
        return self.describe()


class NaturalNumbers(Domain):
    """The pure countable set, carried by the naturals."""

    def point_at(self, k):
        return k

    def index_of(self, point):
        if type(point) is not int or point < 0:
            raise ValueError(f"{point!r} is not a natural number")
        return point

    def describe(self):
        return "nat"


class FqVectors(Domain):
    """Finitely supported vectors over the prime field F_q.

    Enumeration order is the base-q digit encoding: the vector enumerated at
    k has coefficients equal to the digits of k, so the window of size q**d
    is exactly the span of the first d basis vectors.
    """

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"q must be prime for vector carriers, got {q}")
        self.q = q

    def point_at(self, k):
        return FqVector.decode(self.q, k)

    def index_of(self, point):
        if not isinstance(point, FqVector) or point.q != self.q:
            raise ValueError(f"{point!r} is not a vector over F_{self.q}")
        return point.encode()

    def describe(self):
        return f"fqvec({self.q})"


def _is_pair(point) -> bool:
    return isinstance(point, tuple) and len(point) == 2


class DisjointUnion(Domain):
    """Tagged disjoint union; points are ('L', x) or ('R', y)."""

    def __init__(self, left: Domain, right: Domain):
        self.left = left
        self.right = right

    def point_at(self, k):
        if k % 2 == 0:
            return ("L", self.left.point_at(k // 2))
        return ("R", self.right.point_at(k // 2))

    def index_of(self, point):
        if not _is_pair(point) or point[0] not in ("L", "R"):
            raise ValueError(f"{point!r} is not a point of {self.describe()}")
        tag, v = point
        if tag == "L":
            return 2 * self.left.index_of(v)
        return 2 * self.right.index_of(v) + 1

    def describe(self):
        return f"union({self.left.describe()},{self.right.describe()})"


class PairProduct(Domain):
    """Cartesian pairs (b, a), enumerated along diagonals."""

    def __init__(self, first: Domain, second: Domain):
        self.first = first
        self.second = second

    @staticmethod
    def split(k: int) -> tuple:
        """The codes (i, j) of the two coordinates of the pair with code k."""
        s = (isqrt(8 * k + 1) - 1) // 2
        i = k - s * (s + 1) // 2
        return i, s - i

    @staticmethod
    def join(i: int, j: int) -> int:
        s = i + j
        return s * (s + 1) // 2 + i

    def point_at(self, k):
        i, j = self.split(k)
        return (self.first.point_at(i), self.second.point_at(j))

    def index_of(self, point):
        if not _is_pair(point):
            raise ValueError(f"{point!r} is not a point of {self.describe()}")
        b, a = point
        return self.join(self.first.index_of(b), self.second.index_of(a))

    def describe(self):
        return f"pair({self.first.describe()},{self.second.describe()})"


@dataclass(frozen=True)
class FqVector:
    """Sparse finitely supported vector over F_q, q prime."""

    q: int
    entries: tuple  # sorted ((index, coeff), ...) with 0 < coeff < q

    def __post_init__(self):
        prev = -1  # indices start at 0 and strictly increase
        for i, c in self.entries:
            if not 0 < c < self.q:
                raise ValueError(f"coefficients must lie in 1..{self.q - 1}: "
                                 f"{self.entries}")
            if i <= prev:
                raise ValueError(f"entries must be sorted: {self.entries}")
            prev = i

    @classmethod
    def zero(cls, q):
        return cls(q, ())

    @classmethod
    def basis(cls, q, i):
        return cls(q, ((i, 1),))

    @classmethod
    def from_coeffs(cls, q, coeffs):
        return cls(q, tuple((i, c % q) for i, c in enumerate(coeffs) if c % q))

    @classmethod
    def decode(cls, q, k):
        if k < 0:
            raise ValueError(f"codes are naturals, got {k}")
        code = k
        entries = []
        i = 0
        while k:
            k, c = divmod(k, q)
            if c:
                entries.append((i, c))
            i += 1
        v = cls(q, tuple(entries))
        object.__setattr__(v, "_code", code)
        return v

    def encode(self) -> int:
        """The code of the vector, its coefficients read as base-q digits;
        kept on the vector, since every code rule reads it."""
        try:
            return self._code
        except AttributeError:
            code = sum(c * self.q ** i for i, c in self.entries)
            object.__setattr__(self, "_code", code)
            return code

    def coeff(self, i) -> int:
        for j, c in self.entries:
            if j == i:
                return c
        return 0

    @property
    def is_zero(self):
        return not self.entries

    @property
    def max_index(self):
        return self.entries[-1][0] if self.entries else -1

    def dense(self, dim: int) -> tuple:
        if self.max_index >= dim:
            raise ValueError(f"{self} does not fit in {dim} coordinates")
        return tuple(self.coeff(i) for i in range(dim))

    def __repr__(self):
        if not self.entries:
            return "0"
        return "+".join(f"{c if c > 1 else ''}e{i}" for i, c in self.entries)


@dataclass(frozen=True)
class GeometrySpec:
    """One of the three pregeometry kinds measured by the bound module."""

    kind: str  # affine | projective | disintegrated
    q: int | None = None
    tuple_arity: int = 1

    def __post_init__(self):
        if self.kind not in ("affine", "projective", "disintegrated"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == "disintegrated":
            if self.q is not None:
                raise ValueError("disintegrated geometry takes no q")
        else:
            if self.q is None or self.q < 2 or not is_prime_power(self.q):
                raise ValueError("q must be a prime power >= 2")
        if self.tuple_arity < 1:
            raise ValueError("tuple_arity must be >= 1")


class NonInjectiveOnWindow(ValueError):
    """Two window points, or two keys of a table, were found sharing an image."""

    def __init__(self, x1, x2, y):
        self.pair = (x1, x2)
        self.image = y
        super().__init__(f"{x1} and {x2} both map to {y}")


class WindowInjection:
    """Self-map of a carrier, given as a rule on codes.

    A subclass defines apply_code and preimage_code on the ints k that stand
    for domain.point_at(k); preimage_code returns None when the rule has no
    preimage (or cannot name one).  apply, preimage and apply_window are the
    one point boundary: they encode with index_of, run the code rule and
    decode with point_of.  All soundness checks in the library are
    window-relative, and the window [0, n) is the codes 0..n-1.

    injective says the rule is injective on the whole carrier.  Each rule
    works it out from its own definition; no caller sets it.  It is false
    only where injectivity may fail: a table that does not permute its
    support is injective at most on a window, as validate_window checks.
    """

    is_bijection = False
    injective = True

    def __init__(self, domain: Domain, description: str):
        self.domain = domain
        self.description = description
        # key() and its hash, filled on first use (injections are not mutated
        # after __init__; a TableInjection's key sorts its table).  They are
        # set here as plain attributes: a later write through __dict__, as
        # functools.cached_property makes, takes the instance off CPython
        # 3.11's inline attribute values and slows every attribute read of
        # the rule (window-scan jobs ran 4-7% slower on a 2-core Xeon).
        self._key_memo = self._hash_memo = None
        # the window size and codes of the last window_codes row
        self._row_n, self._row = -1, None

    def point_of(self, k: int):
        """The point with code k; the point rules decode through it."""
        return self.domain.point_at(k)

    def apply(self, x):
        return self.point_of(self.apply_code(self.domain.index_of(x)))

    def preimage(self, y):
        k = self.preimage_code(self.domain.index_of(y))
        return None if k is None else self.point_of(k)

    def key(self) -> tuple:
        raise NotImplementedError

    def apply_window(self, pts: list) -> list:
        return [self.apply(x) for x in pts]

    def compose(self, inner: "WindowInjection") -> "WindowInjection":
        if isinstance(self, IdentityInjection):
            return inner
        if isinstance(inner, IdentityInjection):
            return self
        return ComposedInjection(self, inner)

    def inverse(self) -> "WindowInjection":
        if not self.is_bijection:
            raise ValueError(f"{self.description} is not presented as a bijection")
        return InverseInjection(self)

    def window_codes(self, n: int) -> list:
        """The codes of the images of the window codes [0, n), kept for the
        last n asked: the one whole-window read of every rule.

        Every whole-window reader of the rule (validate_window, the orbit
        classifier's window, orbit_reduce, the gap's rows) shares this one
        list, so the rule runs once per window code; no reader mutates it.
        """
        if self._row_n != n:
            self._row = list(map(self.apply_code, range(n)))
            self._row_n = n
        return self._row

    def validate_window(self, n: int) -> None:
        """Raise NonInjectiveOnWindow if two window points share an image.

        The window row is walked only when it collides, to name the first
        pair.
        """
        row = self.window_codes(n)
        if len(set(row)) == n:
            return
        seen = {}
        for k, y in enumerate(row):
            if y in seen:
                raise NonInjectiveOnWindow(*map(self.point_of, (seen[y], k, y)))
            seen[y] = k

    def window_bijectivity(self, n: int) -> bool:
        """Whether every code of [0, n) has a distinct image, read off the
        window row, and a preimage that maps back to it, checked code by code.

        Exact for any rule, one injective only on a window included;
        subclasses may use faster exact paths.
        """
        if len(set(self.window_codes(n))) < n:
            return False
        return all(x is not None and self.apply_code(x) == y
                   for y, x in enumerate(map(self.preimage_code, range(n))))

    @property
    def _key(self) -> tuple:
        """key(), computed once per instance."""
        if self._key_memo is None:
            self._key_memo = self.key()
        return self._key_memo

    def __eq__(self, other):
        return isinstance(other, WindowInjection) and self._key == other._key

    def __hash__(self):
        if self._hash_memo is None:
            self._hash_memo = hash(self._key)
        return self._hash_memo

    def __repr__(self):
        return f"<{self.description}>"


class IdentityInjection(WindowInjection):
    is_bijection = True

    def __init__(self, domain: Domain):
        super().__init__(domain, "identity")

    def apply_code(self, k):
        return k

    preimage_code = apply_code

    def validate_window(self, n):
        """The identity never collides, so it keeps no window row for it."""

    def inverse(self):
        return self

    def key(self):
        return ("identity", self.domain.describe())


class ShiftInjection(WindowInjection):
    """x -> x + offset on the naturals; offset 0 points have no preimage."""

    def __init__(self, offset: int):
        if offset < 1:
            raise ValueError(f"shift offset must be >= 1, got {offset}")
        name = "successor" if offset == 1 else f"shift+{offset}"
        super().__init__(NaturalNumbers(), name)
        self.offset = offset

    def apply_code(self, k):
        return k + self.offset

    def preimage_code(self, k):
        return k - self.offset if k >= self.offset else None

    def key(self):
        return ("shift", self.offset)


class TableInjection(WindowInjection):
    """Finite lookup table extended by the identity off its support.

    The stored rule is total.  It is injective on the whole carrier iff the
    table permutes its support; otherwise some key goes to a point off the
    support, which the identity also fixes, and whether the collision lies
    in a window is a window question (validate_window).
    """

    def __init__(self, domain: Domain, mapping: dict):
        table = dict(mapping)
        code = domain.index_of
        fwd, back = {}, {}  # the table on codes, both ways
        for x, y in table.items():
            kx, ky = code(x), code(y)
            if ky in back:
                raise NonInjectiveOnWindow(domain.point_at(back[ky]), x, y)
            fwd[kx], back[ky] = ky, kx
        self._table, self._fwd, self._back = table, fwd, back
        self.is_bijection = self.injective = fwd.keys() == back.keys()
        items = ",".join(f"{x}>{y}" for x, y in sorted(table.items(), key=repr))
        super().__init__(domain, f"table{{{items}}}")

    def apply_code(self, k):
        return self._fwd.get(k, k)

    def preimage_code(self, k):
        if k in self._back:
            return self._back[k]
        if k in self._fwd:
            return None  # identity image was overridden and nothing else hits k
        return k

    def key(self):
        return ("table", self.domain.describe(), tuple(sorted(self._table.items(), key=repr)))

    @property
    def support(self):
        return set(self._table)


def window_permutation(domain: Domain, mapping: dict) -> TableInjection:
    """A finite-support permutation: the table must permute its own support."""
    if set(mapping) != set(mapping.values()):
        raise ValueError("mapping does not permute its support")
    return TableInjection(domain, mapping)


# --- linear maps over F_q ------------------------------------------------

# a low code LinearInjection.preimage_code has not solved yet (None is a result)
_UNSOLVED = object()


def _code(digits: list, q: int) -> int:
    """The code of the vector with these coefficients, lowest index first."""
    k = 0
    for c in reversed(digits):
        k = k * q + c
    return k


def _row_reduce(rows: list[list[int]], p: int, n_cols: int | None = None):
    """Reduced row echelon form over F_p, pivoting on the first n_cols columns.

    Returns (reduced rows, rank): the first rank rows are the pivot rows in
    order of their pivot columns, and every later row is zero on the first
    n_cols columns.  Columns past n_cols (an appended identity, say) are
    carried along by the same row operations.
    """
    mat = [[v % p for v in r] for r in rows]
    if n_cols is None:
        n_cols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(n_cols):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return mat, rank


class LinearInjection(WindowInjection):
    """Linear map fixed by finitely many basis images plus a symbolic tail.

    Basis vector e_i maps to images[i] for i < len(images); beyond that the
    tail rule applies: 'identity' keeps e_i, 'shift' sends e_i to e_{i+1}.

    The matrix is block diagonal.  The finite block is the first
    D = max(len(images), max image index + 1, 1) columns; they reach only
    rows 0..D-1 under the identity tail and rows 0..D under the shift tail.
    Every later column is a tail column with its own unit row past the
    block rows.  The rule is on codes: apply_code splits k into low =
    k mod q**D (the block coordinates) and high = k div q**D (the tail
    ones) and returns block(low) + high * q**(D+off), so the basis shift
    (D = 1, off = 1) is k -> q*k.  preimage_code reads each digit of y past
    the block rows as one tail coefficient and solves the low D+off digits
    through the transform of one row reduction of [block | I], done here
    once.  Both rules keep their block part per low code, so a repeated low
    costs a divmod and a dict hit.
    """

    def __init__(self, q: int, images: tuple, tail: str = "identity"):
        if tail not in ("identity", "shift"):
            raise ValueError(f"unknown tail rule {tail!r}")
        images = tuple(images)
        if any(v.q != q for v in images):
            raise ValueError("image vectors live in the wrong field")
        dom = FqVectors(q)
        self.q = q
        self.images = images
        self.tail = tail
        maximg = max([v.max_index for v in images], default=-1)
        d = max(len(images), maximg + 1, 1)
        off = 0 if tail == "identity" else 1
        n_rows = d + off
        aug = [[0] * d + [int(r == k) for k in range(n_rows)]
               for r in range(n_rows)]
        for i in range(d):
            for r, a in self._basis_image_entries(i):
                aug[r][i] = a
        red, rank = _row_reduce(aug, q, d)
        # the tail columns are independent of the block and of each other,
        # so the whole map is injective iff the block has full column rank
        if rank < d:
            raise ValueError("basis images are not linearly independent")
        self._block = d
        self._off = off
        self._q_block = q ** d
        self._q_rows = q ** n_rows
        # per block column i, the nonzero (r, a) of its image
        self._cols = tuple(self._basis_image_entries(i) for i in range(d))
        # per block row k, the nonzero (r, T[r][k]) of the transform T;
        # with full column rank, row r < d is the pivot row of column r
        self._tcols = tuple(
            tuple((r, row[d + k]) for r, row in enumerate(red) if row[d + k])
            for k in range(n_rows))
        # low -> block(low), and low row code -> its solved low code or
        # None; plain attributes, as WindowInjection.__init__ explains
        self._low_img: dict = {}
        self._low_pre: dict = {}
        name = f"linear[q={q},{len(images)} images,tail={tail}]"
        super().__init__(dom, name)
        # identity tail with a finite block staying inside its own span is
        # onto; independence was checked above, so the block is invertible
        if tail == "identity" and maximg < len(images):
            self.is_bijection = True

    def _basis_image_entries(self, i: int) -> tuple:
        if i < len(self.images):
            return self.images[i].entries
        return ((i if self.tail == "identity" else i + 1, 1),)

    def _transform(self, low: int, cols: tuple) -> list:
        """The D+off digits of sum(c_i * cols[i]) over the digits c_i of low."""
        q = self.q
        acc = [0] * (self._block + self._off)
        i = 0
        while low:
            low, c = divmod(low, q)
            if c:
                for r, a in cols[i]:
                    acc[r] = (acc[r] + a * c) % q
            i += 1
        return acc

    def apply_code(self, k: int) -> int:
        high, low = divmod(k, self._q_block)
        y = self._low_img.get(low)
        if y is None:
            y = self._low_img[low] = _code(self._transform(low, self._cols), self.q)
        return y + high * self._q_rows

    def preimage_code(self, k: int):
        high, low = divmod(k, self._q_rows)
        x = self._low_pre.get(low, _UNSOLVED)
        if x is _UNSOLVED:
            d = self._block
            acc = self._transform(low, self._tcols)
            # None: k's block part is outside the block's image
            x = self._low_pre[low] = None if any(acc[d:]) else _code(acc[:d], self.q)
        return None if x is None else x + high * self._q_block

    def key(self):
        return ("linear", self.q, tuple(v.entries for v in self.images), self.tail)


def basis_shift_endo(q: int) -> LinearInjection:
    """The index-shift embedding e_i -> e_{i+1}, injective and not onto."""
    return LinearInjection(q, (), tail="shift")


class ComposedInjection(WindowInjection):
    """outer after inner."""

    def __init__(self, outer: WindowInjection, inner: WindowInjection):
        if outer.domain != inner.domain:
            raise ValueError(f"cannot compose {outer.description} after "
                             f"{inner.description}: carriers differ")
        super().__init__(inner.domain,
                         f"({outer.description} . {inner.description})")
        self.outer = outer
        self.inner = inner
        self.is_bijection = outer.is_bijection and inner.is_bijection
        self.injective = outer.injective and inner.injective

    def apply_code(self, k):
        return self.outer.apply_code(self.inner.apply_code(k))

    def preimage_code(self, k):
        mid = self.outer.preimage_code(k)
        return None if mid is None else self.inner.preimage_code(mid)

    def key(self):
        return ("compose", self.outer._key, self.inner._key)


class InverseInjection(WindowInjection):
    """Inverse of a bijectively presented injection."""

    def __init__(self, inner: WindowInjection):
        if not inner.is_bijection:
            raise ValueError(f"{inner.description} is not presented as a bijection")
        super().__init__(inner.domain, f"inverse({inner.description})")
        self.inner = inner
        self.injective = inner.injective

    is_bijection = True

    def apply_code(self, k):
        y = self.inner.preimage_code(k)
        if y is None:
            raise ValueError(
                f"{self.inner.description} has no preimage at {self.point_of(k)}; "
                "bijection presentation is unsound here")
        return y

    def preimage_code(self, k):
        return self.inner.apply_code(k)

    def inverse(self):
        return self.inner

    def key(self):
        return ("inverse", self.inner._key)


class UnionInjection(WindowInjection):
    """Componentwise action on a tagged disjoint union."""

    def __init__(self, domain: DisjointUnion, left: WindowInjection,
                 right: WindowInjection):
        if not isinstance(domain, DisjointUnion):
            raise ValueError("a union map needs a DisjointUnion carrier")
        if left.domain != domain.left or right.domain != domain.right:
            raise ValueError("union parts do not act on the union's summands")
        super().__init__(domain, f"[{left.description}|{right.description}]")
        self.left = left
        self.right = right
        self.is_bijection = left.is_bijection and right.is_bijection
        self.injective = left.injective and right.injective

    # code 2c is ('L', left point c) and code 2c+1 is ('R', right point c)
    def apply_code(self, k):
        c, tag = divmod(k, 2)
        return 2 * (self.right if tag else self.left).apply_code(c) + tag

    def preimage_code(self, k):
        c, tag = divmod(k, 2)
        w = (self.right if tag else self.left).preimage_code(c)
        return None if w is None else 2 * w + tag

    def compose(self, inner):
        if isinstance(inner, UnionInjection) and inner.domain == self.domain:
            return UnionInjection(self.domain, self.left.compose(inner.left),
                                  self.right.compose(inner.right))
        return super().compose(inner)

    def inverse(self):
        return UnionInjection(self.domain, self.left.inverse(),
                              self.right.inverse())

    def key(self):
        return ("unionmap", self.left._key, self.right._key)


class WreathInjection(WindowInjection):
    """(b, a) -> (h(b), g_b(a)) with finitely many materialized g_b.

    A fibre map equal to the default is dropped, so equal maps are built
    with equal coords, and compare, hash and describe equal.
    """

    def __init__(self, domain: PairProduct, h_part: WindowInjection,
                 coords: dict, default: WindowInjection):
        if not isinstance(domain, PairProduct):
            raise ValueError("a wreath map needs a PairProduct carrier")
        if h_part.domain != domain.first:
            raise ValueError("the base map does not act on the first factor")
        if default.domain != domain.second or any(
                g.domain != domain.second for g in coords.values()):
            raise ValueError("a fibre map does not act on the second factor")
        coords = {b: g for b, g in coords.items() if g != default}
        self.h_part = h_part
        self.coords = coords
        self.default = default
        # the fibre maps by the code of b
        self._fibres = {domain.first.index_of(b): g for b, g in coords.items()}
        self._ck = tuple(sorted(((repr(b), b, g._key) for b, g in coords.items())))
        names = ",".join(f"{b}:{g.description}" for _, b, gk in self._ck
                         for g in [coords[b]])
        super().__init__(domain,
                         f"wreath[{h_part.description};{names};*:{default.description}]")
        self.is_bijection = (h_part.is_bijection and default.is_bijection
                             and all(g.is_bijection for g in coords.values()))
        self.injective = (h_part.injective and default.injective
                          and all(g.injective for g in coords.values()))

    def coord(self, b) -> WindowInjection:
        return self.coords.get(b, self.default)

    def apply_code(self, k):
        b, a = PairProduct.split(k)
        return PairProduct.join(self.h_part.apply_code(b),
                                self._fibres.get(b, self.default).apply_code(a))

    def preimage_code(self, k):
        b1, a1 = PairProduct.split(k)
        b = self.h_part.preimage_code(b1)
        if b is None:
            return None
        a = self._fibres.get(b, self.default).preimage_code(a1)
        return None if a is None else PairProduct.join(b, a)

    def compose(self, inner):
        """(h1, g1) . (h2, g2) = (h1 h2, g1_{h2(b)} g2_b), a fibre at each b
        in coords2 or in h2's preimage of coords1."""
        if not (isinstance(inner, WreathInjection) and inner.domain == self.domain):
            return super().compose(inner)
        h2 = inner.h_part
        at = set(inner.coords).union(
            b for b in map(h2.preimage, self.coords) if b is not None)
        return WreathInjection(
            self.domain, self.h_part.compose(h2),
            {b: self.coord(h2.apply(b)).compose(inner.coord(b)) for b in at},
            self.default.compose(inner.default))

    def inverse(self):
        """(h, g)^-1 = (h^-1, g_b^-1 at h(b)), with default d^-1."""
        h = self.h_part
        return WreathInjection(
            self.domain, h.inverse(),
            {h.apply(b): g.inverse() for b, g in self.coords.items()},
            self.default.inverse())

    def key(self):
        return ("wreathmap", self.h_part._key,
                tuple((b_repr, gk) for b_repr, _, gk in self._ck),
                self.default._key)


def identity_endo(domain: Domain | None = None) -> IdentityInjection:
    return IdentityInjection(domain if domain is not None else NaturalNumbers())

def successor_endo() -> ShiftInjection:
    return ShiftInjection(1)

def shift_endo(offset: int) -> ShiftInjection:
    return ShiftInjection(offset)
