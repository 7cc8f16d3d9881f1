"""Random endomorphisms and elementary pairs of randomized structures.

A random endomorphism is a StepMap whose values are injections of one shared
carrier; it acts on carrier-valued step maps cellwise on the common
refinement.  This module provides that action, factorization through orbit
representatives, approximation by automorphism-valued maps with an exact
certified error bound, and two-sided Hausdorff-type distance estimates
between the images of two random endomorphisms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product as iter_product
from operator import mul, ne
from typing import NamedTuple

from .measure import (Frac, RationalSet, StepMap, _frac, _layout_of,
                      common_refinement, vertical_split)
from .structures import (Domain, IdentityInjection, WindowInjection,
                         window_permutation)
from .approx import (OrbitClassifier, approximate_by_automorphisms,
                     defect_profile)

__all__ = [
    "NoRepresentativeMatch",
    "StructuralMismatch",
    "validate_random_endo",
    "constant_endo",
    "endos_agree_on_window",
    "apply_random_endo",
    "compose_random_endos",
    "OrbitReduction",
    "orbit_reduce",
    "BudgetLine",
    "Certificate",
    "approximate_random_endo",
    "dist_to_image",
    "brute_force_dist_to_image",
    "max_strip_probe_distance",
    "GapBounds",
    "hausdorff_gap",
    "PairModel",
    "Refusal",
    "certify_epsilon_isomorphism",
]


class NoRepresentativeMatch(ValueError):
    """No representative factors the cell's value on the window."""

    def __init__(self, support: RationalSet, description: str):
        self.support = support
        self.value_description = description
        super().__init__(f"no representative factors {description} on the window")


class StructuralMismatch(ValueError):
    """The two pair models do not share an ambient presentation."""


def validate_random_endo(m: StepMap) -> Domain:
    """Check all cell values are injections of one carrier; return it."""
    vals = m.values()
    if not all(isinstance(v, WindowInjection) for v in vals):
        raise ValueError("random endo values must be window injections")
    dom = vals[0].domain
    if any(v.domain != dom for v in vals):
        raise StructuralMismatch("random endo values live on mismatched carriers")
    return dom


def constant_endo(h: WindowInjection) -> StepMap:
    return StepMap.constant(h)


def endos_agree_on_window(a_hat: StepMap, b_hat: StepMap, window: int) -> bool:
    """Cellwise pointwise agreement on the window (weaker than equality)."""
    validate_random_endo(a_hat)
    return all(g.window_codes(window) == h.window_codes(window)
               for _, (g, h) in common_refinement([a_hat, b_hat]))


def apply_random_endo(h_hat: StepMap, f: StepMap) -> StepMap:
    """(h_hat f)(x) = h_hat(x)(f(x)) on the common refinement."""
    validate_random_endo(h_hat)
    return StepMap([(s, h.apply(a))
                    for s, (h, a) in common_refinement([h_hat, f])])


def compose_random_endos(outer: StepMap, inner: StepMap) -> StepMap:
    """Cellwise composition; acting with the result equals acting twice."""
    dom = validate_random_endo(outer)
    if validate_random_endo(inner) != dom:
        raise ValueError("random endo values live on mismatched carriers")
    return StepMap([(s, g.compose(h))
                    for s, (g, h) in common_refinement([outer, inner])])


def _factor_through(h: WindowInjection, him: list,
                    rim: list) -> WindowInjection | None:
    """A window bijection g with g . rep = h on the window, if one exists.

    him and rim are the codes of h's and rep's images of the window codes.
    The matched part sends rep(x) to h(x); window points missed by rep are
    matched, in enumeration order, to the points missed by h, which squares
    the table into a finite-support permutation.  Identity tables collapse
    to the identity injection.  The table is built on codes and decoded
    once for window_permutation.
    """
    if len(set(rim)) != len(rim) or len(set(him)) != len(him):
        return None
    table = {}
    for r, v in zip(rim, him):
        if r in table and table[r] != v:
            return None
        table[r] = v
    rset, hset = set(rim), set(him)
    spare_targets = [r for r in rim if r not in hset]
    extra_sources = [v for v in him if v not in rset]
    for src, tgt in zip(extra_sources, spare_targets):
        table[src] = tgt
    table = {x: y for x, y in table.items() if x != y}
    if not table:
        return IdentityInjection(h.domain)
    if set(table) != set(table.values()):
        return None
    point = h.domain.point_at
    g = window_permutation(h.domain, {point(x): point(y) for x, y in table.items()})
    assert all(g.apply_code(r) == v for r, v in zip(rim, him))
    return g


@dataclass(frozen=True)
class OrbitReduction:
    """h_hat = g_hat . (reps o assignment) cellwise on the window."""

    g_hat: StepMap       # window-bijection valued
    assignment: StepMap  # representative index valued
    reps: tuple
    window: int

    def reconstruct(self) -> StepMap:
        rep_endo = self.assignment.map_values(lambda k: self.reps[k])
        return compose_random_endos(self.g_hat, rep_endo)


def orbit_reduce(h_hat: StepMap, reps: list, window: int) -> OrbitReduction:
    """Factor every cell value through a representative.

    Representatives agreeing with the value on the whole window win first
    (their twist is the identity); otherwise the lowest-index rep admitting
    any window factorization is used.  Without the first pass every
    window-injective value would factor through the first injective rep and
    the error budget would be charged needlessly.
    """
    validate_random_endo(h_hat)
    reps = list(reps)
    rep_ims = [r.window_codes(window) for r in reps]
    g_cells = []
    a_cells = []
    for s, h in h_hat.cells:
        him = h.window_codes(window)
        choice = next((k for k, rim in enumerate(rep_ims) if rim == him), None)
        if choice is not None:
            g_cells.append((s, IdentityInjection(h.domain)))
            a_cells.append((s, choice))
            continue
        for k, rim in enumerate(rep_ims):
            g = _factor_through(h, him, rim)
            if g is not None:
                g_cells.append((s, g))
                a_cells.append((s, k))
                break
        else:
            raise NoRepresentativeMatch(s, h.description)
    return OrbitReduction(StepMap(g_cells), StepMap(a_cells), tuple(reps), window)


@dataclass(frozen=True)
class BudgetLine:
    """Accounting for one representative's share of the approximation error."""

    rep_index: int
    rep_description: str
    measure: Fraction
    max_defect: int
    pieces: int
    contribution: Fraction


@dataclass(frozen=True)
class Certificate:
    """Automorphism-valued approximant with its exact certified bound.

    The bound covers every vertical-strip probe whose values lie in the
    stated window alphabet: l1_distance(g_hat(f), target(f)) <= bound <= eps,
    and a bound above eps is refused at construction, so every certificate
    is ok.  The group approximators set residual, the un-materialized budget
    mass (the wreath tail series), and may add notes on scope and the
    (part label, budget share) allocations of their split.
    """

    g_hat: StepMap
    bound: Fraction
    eps: Fraction
    window: int
    lines: tuple = ()
    residual: Fraction | None = None
    notes: tuple = ()
    allocations: tuple = ()

    ok = True

    def __post_init__(self):
        if self.bound > self.eps:
            raise ValueError(f"bound {self.bound} exceeds eps {self.eps}")


def approximate_random_endo(h_hat: StepMap, reps, eps, window: int,
                            ) -> Certificate:
    """Approximate a random endomorphism by an automorphism-valued one.

    With reps=None every distinct cell value serves as its own
    representative.  Each representative pays for its defect by splitting
    its region into n_k slice-proportional pieces with max_defect_k/n_k <=
    eps; the total certified error is the measure-weighted sum of those
    ratios.
    """
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    if reps is None:
        reps = list(dict.fromkeys(h_hat.values()))
    red = orbit_reduce(h_hat, reps, window)
    sigma_cells = []
    lines = []
    for k, rep in enumerate(red.reps):
        region = red.assignment.support_of(k)
        if region.is_empty:
            continue
        cls = OrbitClassifier(rep)
        base = approximate_by_automorphisms(rep, 1, cls)
        defect = defect_profile(rep, base, window).max_defect
        if defect == 0:
            # no window point is moved off rep, but a window point may still
            # lack a preimage; then the one-sigma family stands in for rep
            n_k = 1
            sigmas = [rep] if rep.window_bijectivity(window) else base
        else:
            # smallest n with defect/n <= eps
            n_k = -(-defect * eps.denominator // eps.numerator)
            sigmas = approximate_by_automorphisms(rep, n_k, cls)
        pieces = vertical_split(region, [Frac(1, n_k)] * n_k)
        sigma_cells.extend(zip(pieces, sigmas))
        lines.append(BudgetLine(k, rep.description, region.measure, defect,
                                n_k, region.measure * Frac(defect, n_k)))
    bound = sum((ln.contribution for ln in lines), Frac(0))
    # the pieces tile the square, so one refinement against g_hat gives
    # every (cell, piece) part that carries g . sigma
    g_hat = StepMap([(s, g.compose(sigma)) for s, (g, sigma)
                     in common_refinement([red.g_hat, StepMap(sigma_cells)])])
    return Certificate(g_hat, bound, eps, window, tuple(lines))


def _cover(widths: list, runs: list, choices) -> int:
    """The integral, over den**2, of the most slice length covered by the
    keys of one choice, taken per column."""
    best = [0] * len(widths)
    for ks in choices:
        cover = [0] * len(widths)
        for k in ks:
            for i, length in runs[k]:
                cover[i] += length
        best = list(map(max, best, cover))
    return sum(map(mul, widths, best))


def _uncovered(den: int, widths: list, runs: list, values, kv: list,
               wanted: list) -> int:
    """The integral, over den**2, of what the best image point leaves
    uncovered, key k being covered by a code that values[kv[k]] sends to
    wanted[k].  Only the preimages of the wanted codes are tried, each
    once; any other point covers nothing."""
    choices = []
    seen = set()
    targets = set(wanted)
    for v in values:
        for y in targets:
            a = v.preimage_code(y)
            if a is not None and a not in seen:
                seen.add(a)
                images = [w.apply_code(a) for w in values]
                choices.append([k for k, (i, z) in enumerate(zip(kv, wanted))
                                if images[i] == z])
    return den * den - _cover(widths, runs, choices)


def dist_to_image(f: StepMap, h_hat: StepMap) -> Fraction:
    """Exact distance from f to the image class of h_hat.

    Equals the infimum over all first-coordinate-only g of
    l1_distance(f, h_hat(g)): an optimal g may be normalized, on each omega
    column of the common refinement, to a preimage of one of f's values or
    to a point mapped outside f's alphabet by every cell value.  Such a
    point covers nothing, which is where the best cover starts, so only the
    preimages are tried.
    """
    code = validate_random_endo(h_hat).index_of
    den, widths, keys, runs = _layout_of([f, h_hat]).table
    fcode = list(map(code, f.values()))  # f's values are distinct
    return Frac(_uncovered(den, widths, runs, h_hat.values(),
                           [j for _, j in keys], [fcode[i] for i, _ in keys]),
                den * den)


def brute_force_dist_to_image(f: StepMap, h_hat: StepMap, strips: list,
                              pool: list) -> Fraction:
    """Oracle: minimize l1_distance(f, h_hat(g)) over all strip maps g.

    g ranges over every assignment of pool values to the given omega strips;
    feasible only for tiny pools and strip counts.  The pool must not be
    empty, and the strips must tile [0, 1) (StepMap's tiling ValueError
    otherwise).

    f, h_hat and the strips are laid out together once: on each layout
    piece, h_hat(g) is the piece's injection applied to the pool point of
    the piece's strip, so each injection is applied to each pool point
    once.  miss[j][p] is the int area, over den**2, of the pieces of strip
    j where f differs from that image of pool[p]; the distance is additive
    over pieces, so each assignment picks one entry of every strip's line,
    the product of the lines enumerates all |pool|^strips of them, each
    scores as the int sum of its picks, and one Fraction is built at the
    end.
    """
    validate_random_endo(h_hat)
    if not pool:
        raise ValueError("brute force needs a non-empty pool")
    strip_map = StepMap.from_vertical_strips(
        (lo, hi, j) for j, (lo, hi) in enumerate(strips))
    lay = _layout_of([f, h_hat, strip_map])
    fv, strip_of = f.values(), strip_map.values()
    rows = [[h.apply(a) for a in pool] for h in h_hat.values()]
    miss = [[0] * len(pool) for _ in strips]
    for (i, k, s), area in lay.areas:
        line = miss[strip_of[s]]
        for p, b in enumerate(rows[k]):
            if fv[i] != b:
                line[p] += area
    best = min(map(sum, iter_product(*miss)))
    return Frac(best, lay.den * lay.den)


def max_strip_probe_distance(g_hat: StepMap, h_hat: StepMap, strips: list,
                             alphabet: list) -> tuple:
    """Exact max of l1_distance(g_hat(f), h_hat(f)) over all strip probes f.

    Probes assign one alphabet value per strip, and the strips must tile
    [0, 1); the distance is additive across strips, so the maximum is the
    sum of per-strip worst cases, read off the disagreement table of a gap
    table that takes the strips as a third map.  Returns (max distance,
    witness probe), the witness taking each strip's lowest-index worst
    letter, alphabet[0] where none disagrees.
    """
    strip_map = StepMap.from_vertical_strips(
        (lo, hi, j) for j, (lo, hi) in enumerate(strips))
    gap = _gap_table([g_hat, h_hat, strip_map], alphabet)
    den, widths, keys, runs = gap[3:]
    strip_of = [strip_map.values()[s] for _, _, s in keys]
    area = [sum(widths[i] * length for i, length in r) for r in runs]
    best = [0] * len(strips)
    worst = [0] * len(strips)
    # distinct disagreement sets in order of their first letter: a strict
    # improvement keeps the lowest-index worst letter
    first: dict = {}
    for a, m in enumerate(_disagreements(gap)):
        first.setdefault(m, a)
    for m, a in first.items():
        d = [0] * len(strips)
        for k in _bits(m):
            d[strip_of[k]] += area[k]
        for j in range(len(strips)):
            if d[j] > best[j]:
                best[j], worst[j] = d[j], a
    witness = [(lo, hi, alphabet[a]) for (lo, hi), a in zip(strips, worst)]
    return Frac(sum(best), den * den), StepMap.from_vertical_strips(witness)


class GapBounds(NamedTuple):
    upper: Fraction
    lower: Fraction


def hausdorff_gap(g_hat: StepMap, h_hat: StepMap, alphabet) -> GapBounds:
    """Two-sided estimate of the Hausdorff distance between the images.

    upper integrates, over omega, the worst per-alphabet-point disagreement
    slice; this dominates l1_distance(g_hat(f), h_hat(f)) for every strip
    probe f over the alphabet, hence bounds the (alphabet-relative)
    Hausdorff distance from above.  lower is the best probe-certified
    distance to the other image, a true lower bound.  Both read one table
    of (g, h) runs; a certificate reads only the upper part.
    """
    gap = _gap_table([g_hat, h_hat], alphabet)
    return GapBounds(_gap_upper(gap), _gap_lower(gap))


def _gap_table(maps: list, alphabet) -> tuple:
    """(g values, h values, letter codes, den, widths, keys, runs): the one
    table of runs of g_hat and h_hat (maps[:2], on one carrier), and of the
    strips for strip probes, that every per-letter distance reads.  The
    cover at each omega is intrinsic, so reading it on this finer partition
    changes nothing.  An int alphabet is the window range(n)."""
    g_hat, h_hat = maps[:2]
    dom = validate_random_endo(g_hat)
    if validate_random_endo(h_hat) != dom:
        raise StructuralMismatch("carriers differ")
    # letters, images and candidates are all codes
    letters = (range(alphabet) if isinstance(alphabet, int)
               else list(map(dom.index_of, alphabet)))
    return (g_hat.values(), h_hat.values(), letters, *_layout_of(maps).table)


def _image_row(v: WindowInjection, letters) -> list:
    """The codes of v's images of the letters; not to be mutated."""
    if isinstance(letters, range):
        return v.window_codes(len(letters))
    return list(map(v.apply_code, letters))


def _disagreements(gap: tuple) -> list:
    """bad[a]: bit k set when key k's g and h disagree at letter a.

    An int per letter, most of them small and shared, where a tuple of keys
    per letter took 48 MB more at window 10^6.  Each h row is built once
    and each g row once per h it meets, whatever else the keys tell apart.
    """
    gs, hs, letters, _, _, keys, _ = gap
    by_h: dict = {}
    for k, (i, j, *_) in enumerate(keys):
        by_g = by_h.setdefault(j, {})
        by_g[i] = by_g.get(i, 0) | 1 << k
    bad = [0] * len(letters)
    at = range(len(letters))
    for j, by_g in by_h.items():
        h_row = _image_row(hs[j], letters)
        for i, bits in by_g.items():
            for a in compress(at, map(ne, _image_row(gs[i], letters), h_row)):
                bad[a] |= bits
    return bad


def _gap_upper(gap: tuple) -> Fraction:
    """hausdorff_gap's upper bound on its table: the best cover over the
    distinct disagreement sets."""
    den, widths, _, runs = gap[3:]
    choices = [_bits(m) for m in set(_disagreements(gap)) if m]
    return Frac(_cover(widths, runs, choices), den * den)


def _bits(m: int) -> list:
    """The positions of the set bits of m."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _gap_lower(gap: tuple) -> Fraction:
    """hausdorff_gap's lower bound on its table: the constant probes."""
    gs, hs, letters, den, widths, keys, runs = gap
    # the probe a scores g_hat(a) against h_hat's image and h_hat(a) against
    # g_hat's; kg[k], kh[k] are key k's cell indices, and a step map's
    # values are distinct, so each g and h gives one row, read per letter
    kg = [i for i, _ in keys]
    kh = [j for _, j in keys]
    lower = 0
    g_rows = [_image_row(g, letters) for g in gs]
    h_rows = [_image_row(h, letters) for h in hs]
    for g_im, h_im in zip(zip(*g_rows), zip(*h_rows)):
        lower = max(lower,
                    _uncovered(den, widths, runs, hs, kh, [g_im[i] for i in kg]),
                    _uncovered(den, widths, runs, gs, kg, [h_im[j] for j in kh]))
    return Frac(lower, den * den)


@dataclass(frozen=True)
class PairModel:
    """An ambient randomized structure with a designated submodel image."""

    structure: str
    window: int
    image: StepMap

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        dom = validate_random_endo(self.image)
        if dom.describe() != self.structure:
            raise ValueError(
                f"image lives on {dom.describe()}, not {self.structure}")
        for v in self.image.values():
            v.validate_window(self.window)

    @property
    def domain(self) -> Domain:
        return validate_random_endo(self.image)


@dataclass(frozen=True)
class Refusal:
    reason: str
    eps: Fraction
    evidence: dict

    ok = False


def certify_epsilon_isomorphism(pair1: PairModel, pair2: PairModel, eps,
                                obstruction: dict | None = None):
    """Certificate g_hat with gap(g_hat . image1, image2) <= eps, or a refusal.

    With an obstruction descriptor (tiny vector-space scale), an exhaustive
    search over grid certificates runs first; a searched minimal gap above
    eps refuses honestly at that scale.  The certified gap is
    hausdorff_gap's upper bound; its lower bound is computed only for the
    evidence of a refusal whose upper bound exceeds eps.
    """
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    if (pair1.structure, pair1.window) != (pair2.structure, pair2.window):
        raise StructuralMismatch(
            f"{pair1.structure}@{pair1.window} vs {pair2.structure}@{pair2.window}")
    if obstruction is not None:
        from .geometry import exhaustive_pair_search
        res = exhaustive_pair_search(obstruction["q"], obstruction["dim"],
                                     obstruction["grid"],
                                     obstruction["subspace"])
        if res.gap > eps:
            return Refusal(
                "exhaustive search at the stated scale: no grid certificate "
                f"achieves gap <= {eps} (minimum is {res.gap})",
                eps, {"search_gap": res.gap,
                      "candidates": res.candidates_checked})
    if pair1.image == pair2.image:
        ident = constant_endo(IdentityInjection(pair1.domain))
        return Certificate(ident, Frac(0), eps, pair1.window)
    if not all(v.is_bijection for v in pair1.image.values()):
        return Refusal("the first pair's image is not presented by "
                       "bijections, so it cannot be peeled off", eps, {})
    approx = approximate_random_endo(pair2.image, None, eps, pair1.window)
    inv1 = pair1.image.map_values(lambda v: v.inverse())
    g_hat = compose_random_endos(approx.g_hat, inv1)
    gap = _gap_table([approx.g_hat, pair2.image], pair1.window)
    upper = _gap_upper(gap)
    if upper > eps:
        # the lower bound is computed only as a refusal's evidence
        return Refusal("approximation exists but its certified gap "
                       f"{upper} exceeds {eps}", eps,
                       {"upper": upper, "lower": _gap_lower(gap)})
    return Certificate(g_hat, upper, eps, pair1.window, approx.lines)
