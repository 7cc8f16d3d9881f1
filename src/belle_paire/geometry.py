"""Finite-geometry counting bounds and a tiny-scale exhaustive gap search.

The symbolic bounds (1/(2n), the delta/k codimension law) are exact
formulas; the search oracle finds the minimal two-sided image gap over
every grid-constant assignment of automorphisms and reports it as plain
data.  The gap is a maximum of two column sums, so the search enumerates
the multisets of incidence classes one column can hold and runs an exact
DP over the reachable column sums; its guard bounds the ordered
per-column assignments, a column's rows and the matrices row-reduced to
list GL(dim, q), not the candidate space.  The search runs on
ints: an F_q point is its base-q digit code (e_0 the most significant
digit, so code order is the sorted order of the tuples), each kept
GL(dim, q) holds every matrix's row of image codes, and an incidence
class is one int whose digits are its (point, target) incidences, so a
column's hit counts are one int sum.  No finite run instantiates the
infinite-codimension hypotheses of the theory; the two kinds of output
are kept separate on purpose.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations
from itertools import product as iter_product
from struct import calcsize
from types import MappingProxyType

from .measure import Frac, _frac
from .structures import GeometrySpec, _row_reduce, is_prime

__all__ = [
    "SearchGuardExceeded",
    "closed_set_size",
    "min_k_for_delta",
    "min_k_violations",
    "epsilon_lower_bound",
    "subspace_span",
    "gl_matrices",
    "SearchResult",
    "exhaustive_pair_search",
    "exhaustive_pair_search_pure",
]


class SearchGuardExceeded(ValueError):
    """A search has more of something to enumerate than its guard allows.

    count is how many, what names them.  count is None when it is past
    COUNT_CAP and was not built, and any count past COUNT_CAP prints as
    "more than COUNT_CAP", so no message holds an int too long to print.
    """

    def __init__(self, count: int | None, guard: int,
                 what: str = "column assignments"):
        self.count = count
        self.guard = guard
        amount = (f"more than {COUNT_CAP}" if count is None or count > COUNT_CAP
                  else count)
        super().__init__(f"{amount} {what} exceed the search guard {guard}")


def closed_set_size(geometry: GeometrySpec, d: int) -> int:
    """Points of a d-dimensional closed set: q^d, (q^{d+1}-1)/(q-1), or d."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if geometry.kind == "affine":
        return geometry.q ** d
    if geometry.kind == "projective":
        return (geometry.q ** (d + 1) - 1) // (geometry.q - 1)
    return d


def min_k_for_delta(geometry: GeometrySpec, delta) -> int:
    """Smallest k such that codimension >= k forces |B| <= delta |A|.

    Affine flats shrink by exactly q per codimension, so k is the least
    power with q^-k <= delta; the projective ratio is dominated by the same
    power.  The disintegrated geometry admits no such k: dropping k points
    from a d-point set leaves a fraction (d-k)/d that tends to 1.
    """
    delta = _frac(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    if geometry.kind == "disintegrated":
        raise ValueError("no uniform codimension bound exists for the "
                         "disintegrated geometry")
    q = geometry.q
    k = 1
    while Frac(1, q ** k) > delta:
        k += 1
    return k


def min_k_violations(geometry: GeometrySpec, delta, k: int,
                     max_dim: int) -> list:
    """Exhaustive check of |B| <= delta |A| over dims <= max_dim.

    Returns (d, codim, ratio) triples that violate the bound; empty means
    the k works everywhere at these scales.
    """
    delta = _frac(delta)
    bad = []
    for d in range(max_dim + 1):
        big = closed_set_size(geometry, d)
        for j in range(k, d + 1):
            small = closed_set_size(geometry, d - j)
            if Fraction(small, big) > delta:
                bad.append((d, j, Fraction(small, big)))
    return bad


def epsilon_lower_bound(n: int, modular: bool) -> Fraction:
    """The distortion floor for n-tuples: 1/(2n), or 1/n when modular."""
    if n < 1:
        raise ValueError("tuple arity must be >= 1")
    return Frac(1, n) if modular else Frac(1, 2 * n)


# --- concrete point enumerations ------------------------------------------

def subspace_span(q: int, gens) -> frozenset:
    """All F_q-combinations of the given coordinate tuples."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return frozenset()
    width = len(gens[0])
    if any(len(g) != width for g in gens):
        raise ValueError("generators must all have the same length")
    out = set()
    for coeffs in iter_product(range(q), repeat=len(gens)):
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % q
                  for i in range(width))
        out.add(v)
    return frozenset(out)


# --- exhaustive tiny-scale search -----------------------------------------

SEARCH_GUARD = 10_000_000
# a guard count is built only up to this, so a modest refusal still reports
# its exact count (|GL(3,3)|^4 at grid 4 is about 1.6e16)
COUNT_CAP = SEARCH_GUARD ** 3


def _capped_prod(factors) -> int | None:
    """The product of factors, each >= 1, or None as soon as a partial
    product passes COUNT_CAP; so no product past COUNT_CAP times the
    largest factor read is built."""
    out = 1
    for x in factors:
        out *= x
        if out > COUNT_CAP:
            return None
    return out


def gl_matrices(dim: int, q: int) -> tuple:
    """All invertible dim x dim matrices over F_q, in lexicographic order.

    Kept, as a tuple, for the last four (dim, q) together with the
    group's action on point codes: every search of a (dim, q) reads the
    same group, and it enumerates the group only after the guard has
    bounded its order.
    """
    return _gl_group(dim, q)[0]


@lru_cache(maxsize=4)
def _gl_group(dim: int, q: int) -> tuple:
    """(gl_matrices(dim, q), a read-only {matrix: its row of image codes}).

    A point's code is its base-q digit code with e_0 the most significant
    digit, and row[c] is the code of M v for the point v of code c.  Only
    the invertible matrices get a row: each is summed from the value
    tables of its matrix rows, whose entry c is that linear form at v mod q.
    """
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    points = list(iter_product(range(q), repeat=dim))  # code order
    forms = {u: [sum(a * b for a, b in zip(u, v)) % q for v in points]
             for u in points}
    action = {}
    for flat in iter_product(range(q), repeat=dim * dim):
        rows = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
        if _row_reduce(rows, q)[1] == dim:
            codes = forms[rows[0]]
            for u in rows[1:]:
                codes = [c * q + x for c, x in zip(codes, forms[u])]
            action[tuple(rows)] = tuple(codes)
    return tuple(action), MappingProxyType(action)


def _point_code(v, q: int) -> int:
    """The base-q digit code of a point, its first entry most significant."""
    code = 0
    for c in v:
        code = code * q + c
    return code


def _gl_order(dim: int, q: int) -> int | None:
    """|GL(dim, q)| = q^(dim(dim-1)/2) prod_{i<=dim} (q^i - 1), without
    enumerating it, or None past COUNT_CAP (see _capped_prod).

    The q factors come first, so a large dim stops before any q^i is built.
    """
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    return _capped_prod(chain((q for _ in range(dim * (dim - 1) // 2)),
                              (q ** i - 1 for i in range(1, dim + 1))))


@dataclass(frozen=True)
class SearchResult:
    gap: Fraction
    candidates_checked: int
    witness: tuple  # per column, one automorphism label per row
    forward: Fraction
    backward: Fraction


def _pareto_front(pairs) -> list:
    """The (F, W) pairs that no other pair beats on both sums."""
    front = []
    for f, w in sorted(pairs):
        if not front or w < front[-1][1]:
            front.append((f, w))
    return front


def _guard(count: int | None, what: str) -> None:
    """Refuse a count over SEARCH_GUARD, or None (past COUNT_CAP)."""
    if count is None or count > SEARCH_GUARD:
        raise SearchGuardExceeded(count, SEARCH_GUARD, what)


def _check_guard(n_options: int | None, grid: int) -> None:
    """Refuse a grid below 1, n_options**grid column assignments over
    SEARCH_GUARD, or a column of more rows than that; callers check before
    enumerating their options.  n_options is None past COUNT_CAP, and the
    power is built only up to COUNT_CAP."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if n_options is not None and n_options > 1:
        n_options = _capped_prod(n_options for _ in range(grid))
    _guard(n_options, "column assignments")
    _guard(grid, "rows in one column")


def _min_grid_gap(cells_options, grid: int, points, targets, apply_fn):
    """Shared search core: minimize the two-sided gap over cell assignments.

    cells_options: list of automorphism labels usable in every cell;
    points: the probe alphabet; targets: the comparison alphabet, distinct
    points; apply_fn: (label, point) -> hashable point.  A candidate is one
    column assignment (grid rows) per column, and its gap is max(sum F_j,
    sum W_j) / grid^2 for integer per-column numerators F_j, W_j.  A
    column's (F_j, W_j) depends only on the multiset of its rows' incidence
    sets {(a, b) : g(a) = b} over points x targets, so each option is
    applied once per point, the options are grouped into incidence classes
    kept by their lowest-index member, and the multisets of class
    representatives are enumerated in lexicographic order.  A class is one
    int whose base-2^(8w) digits are its incidences, point-major, for w the
    1, 2, 4 or 8 bytes that hold grid; so a column's hits are the sum of
    its rows' ints, a point's hits are a run of that sum's digits and a
    target's a stride, and F_j and W_j are read off them.  A sorted tuple
    of representatives is the lowest-index column assignment of its (F_j,
    W_j), so each pair is first seen at the column the full |options|^grid
    product would give; the guard still bounds that product.  A DP over the
    Pareto front of reachable (F, W) sums then gives the exact minimum, and
    the witness is rebuilt column by column as the lowest-index candidate
    that attains it.
    """
    _check_guard(len(cells_options), grid)
    fmt = next((f for f in "BHI" if grid < 256 ** calcsize(f)), "Q")
    width = calcsize(fmt)  # bytes per hit count
    m = len(targets)
    index = {b: j for j, b in enumerate(targets)}
    classes = {}  # packed incidences -> lowest-index option with them
    for g in cells_options:
        packed = 0
        for i, a in enumerate(points):
            j = index.get(apply_fn(g, a))
            if j is not None:
                packed |= 1 << 8 * width * (i * m + j)
        classes.setdefault(packed, g)
    n = len(points) * m
    by_point = [slice(k, k + m) for k in range(0, n, m)]
    by_target = [slice(j, None, m) for j in range(m)]
    first = {}  # (F_j, W_j) -> lowest-index column assignment with it
    for vecs, rows in zip(combinations_with_replacement(classes, grid),
                          combinations_with_replacement(classes.values(), grid)):
        hits = sum(vecs).to_bytes(n * width, sys.byteorder)
        if width > 1:  # bytes already read as one-byte digits
            hits = memoryview(hits).cast(fmt)
        # miss = grid - hits, so max-min of misses is grid - min-max of hits
        first.setdefault((grid - min(map(max, map(hits.__getitem__, by_point))),
                          grid - min(map(max, map(hits.__getitem__, by_target)))),
                         rows)
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


def exhaustive_pair_search(q: int, dim: int, grid: int,
                           subspace_gens) -> SearchResult:
    """Minimal two-sided image gap over all grid-constant automorphism maps.

    Probes are V-constants per omega strip; the comparison class is
    W-valued strips for W spanned by subspace_gens, each a dim-tuple of
    entries in [0, q), with dim >= 1 (ValueError otherwise).  Exact
    rationals; the result is reported as searched data at this scale, not
    as an instance of any infinite-dimensional statement.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gens = [tuple(g) for g in subspace_gens]
    for g in gens:
        if len(g) != dim:
            raise ValueError(f"generator {list(g)} has length {len(g)}, "
                             f"expected dim {dim}")
        if not all(0 <= c < q for c in g):
            raise ValueError(f"generator {list(g)} has an entry outside [0, {q})")
    wset = subspace_span(q, gens)
    if not wset:
        raise ValueError("subspace must contain at least the origin")
    _check_guard(_gl_order(dim, q), grid)
    # _gl_group row-reduces every dim x dim matrix over F_q
    _guard(_capped_prod(q for _ in range(dim * dim)), "candidate matrices")
    mats = gl_matrices(dim, q)
    action = _gl_group(dim, q)[1]  # the kept rows of the group just read
    codes = sorted(_point_code(v, q) for v in wset)
    return _min_grid_gap(mats, grid, range(q ** dim), codes,
                         lambda mat, c: action[mat][c])


def exhaustive_pair_search_pure(m: int, grid: int,
                                subset_size: int) -> SearchResult:
    """Pure-set analogue on [0,m): candidates Sym(m), targets [0,subset_size)."""
    if not 0 < subset_size <= m:
        raise ValueError("subset must be a nonempty part of the carrier")
    _check_guard(_capped_prod(range(2, m + 1)), grid)  # m!
    perms = [tuple(p) for p in permutations(range(m))]
    return _min_grid_gap(perms, grid, list(range(m)),
                         list(range(subset_size)), lambda p, a: p[a])
