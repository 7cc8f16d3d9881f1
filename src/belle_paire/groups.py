"""Permutation-group presentations and error-budget-preserving combinators.

A presentation bundles a carrier, a registry of named elements, a
window-relative membership test, and an approximator that turns any
suitably-valued random endomorphism into an automorphism-valued one with a
certified exact bound.  The combinators build new presentations whose
approximators delegate to the parts under an explicit budget split:
products give each half eps/2, wreath products give the index part eps/2
and coordinate i the slice 2^-(i+2) eps, and finite-index extensions peel a
coset representative per cell and hand the full budget to the subgroup.
"""
from __future__ import annotations

from dataclasses import replace

from .measure import Frac, StepMap, ZERO, _frac, common_refinement
from .structures import (
    DisjointUnion,
    Domain,
    FqVectors,
    IdentityInjection,
    NaturalNumbers,
    PairProduct,
    UnionInjection,
    WindowInjection,
    WreathInjection,
    basis_shift_endo,
    identity_endo,
    successor_endo,
    window_permutation,
)
from .random_endo import (
    Certificate,
    StructuralMismatch,
    approximate_random_endo,
    validate_random_endo,
)

__all__ = [
    "PermGroupPresentation",
    "NoCosetFactorization",
    "pure_set_presentation",
    "parity_presentation",
    "fq_presentation",
    "direct_product",
    "wreath_product",
    "finite_index_supergroup",
    "wreath_element",
    "parse_group_expr",
    "PRESETS",
]


class NoCosetFactorization(ValueError):
    """A cell value factors through no supplied coset representative."""

    def __init__(self, support, description: str):
        self.support = support
        self.description = description
        super().__init__(f"no coset representative factors {description}")


def _always(h: WindowInjection, window: int) -> bool:
    return True


class PermGroupPresentation:
    """Carrier + named elements + membership test + certified approximator."""

    def __init__(self, name: str, domain: Domain, approximator,
                 member=_always, elements=None):
        self.name = name
        self.domain = domain
        self.approximator = approximator
        self.member = member
        self.elements = dict(elements or {})
        if any(g.domain != domain for g in self.elements.values()):
            raise ValueError(f"{name}: an element lives on another carrier")

    def approximate(self, h_hat: StepMap, eps, window: int) -> Certificate:
        if validate_random_endo(h_hat) != self.domain:
            raise StructuralMismatch("random endo lives on a different carrier")
        # the one eps check: approximators and their parts get eps > 0
        eps = _frac(eps)
        if eps <= 0:
            raise ValueError("eps must be a positive rational")
        return self.approximator(h_hat, eps, window)

    def __repr__(self):
        return f"<group {self.name} on {self.domain.describe()}>"


def _generic_approximator(h_hat, eps, window):
    return replace(approximate_random_endo(h_hat, None, eps, window),
                   residual=ZERO)


def pure_set_presentation() -> PermGroupPresentation:
    """Sym(N) on the pure set: every window injection is approximable."""
    dom = NaturalNumbers()
    elements = {
        "identity": identity_endo(dom),
        "successor": successor_endo(),
        "swap": window_permutation(dom, {0: 1, 1: 0}),
        "rot3": window_permutation(dom, {0: 1, 1: 2, 2: 0}),
    }
    return PermGroupPresentation("pure", dom, _generic_approximator,
                                 elements=elements)


def parity_presentation() -> PermGroupPresentation:
    """The parity-preserving subgroup of Sym(N): evens to evens, odds to odds."""
    dom = NaturalNumbers()

    def member(h, window):
        # a natural is its own code
        return all(y % 2 == k % 2 for k, y in enumerate(h.window_codes(window)))

    elements = {
        "identity": identity_endo(dom),
        "shift2": window_permutation(dom, {0: 2, 2: 0}),
    }
    return PermGroupPresentation("parity", dom, _generic_approximator,
                                 member=member, elements=elements)


def fq_presentation(q: int) -> PermGroupPresentation:
    """GL-style presentation on finitely supported F_q vectors."""
    dom = FqVectors(q)
    elements = {"identity": identity_endo(dom), "shift": basis_shift_endo(q)}
    return PermGroupPresentation(f"fq{q}", dom, _generic_approximator,
                                 elements=elements)


def _combine(eps, window, parts, maps, build, residual=ZERO, notes=()):
    """The certificate of a combinator split into (label, share, cert) parts.

    Bounds and residuals add up, each part's lines are tagged with its label,
    the combinator's notes follow the parts' own, the allocations list the
    shares, and g_hat is build(*values) on each piece of the maps' common
    refinement.
    """
    certs = [c for _, _, c in parts]
    return Certificate(
        StepMap([(s, build(*vals)) for s, vals in common_refinement(maps)]),
        sum((c.bound for c in certs), ZERO), eps, window,
        tuple(replace(l, rep_description=f"{label}:{l.rep_description}")
              for label, _, c in parts for l in c.lines),
        sum((c.residual for c in certs), residual),
        sum((c.notes for c in certs), ()) + notes,
        tuple((label, share) for label, share, _ in parts))


# --- direct product --------------------------------------------------------

def direct_product(G: PermGroupPresentation,
                   H: PermGroupPresentation) -> PermGroupPresentation:
    """Componentwise action on the disjoint union; budget eps/2 + eps/2."""
    dom = DisjointUnion(G.domain, H.domain)
    gid, hid = identity_endo(G.domain), identity_endo(H.domain)

    def split(v):
        if isinstance(v, UnionInjection):
            return v.left, v.right
        if isinstance(v, IdentityInjection):
            return gid, hid
        raise StructuralMismatch(
            f"product approximator needs componentwise values, got {v!r}")

    def approx(h_hat, eps, window):
        lefts = h_hat.map_values(lambda v: split(v)[0])
        rights = h_hat.map_values(lambda v: split(v)[1])
        cl = G.approximator(lefts, eps / 2, window)
        cr = H.approximator(rights, eps / 2, window)
        return _combine(eps, window, [("left", eps / 2, cl), ("right", eps / 2, cr)],
                        [cl.g_hat, cr.g_hat], lambda l, r: UnionInjection(dom, l, r))

    def member(v, window):
        try:
            l, r = split(v)
        except StructuralMismatch:
            return False
        return G.member(l, window) and H.member(r, window)

    elements = {"identity": identity_endo(dom)}
    for nm, g in G.elements.items():
        elements[f"L.{nm}"] = UnionInjection(dom, g, hid)
    for nm, h in H.elements.items():
        elements[f"R.{nm}"] = UnionInjection(dom, gid, h)
    return PermGroupPresentation(f"product({G.name},{H.name})", dom, approx,
                                 member=member, elements=elements)


# --- wreath product ---------------------------------------------------------

def wreath_element(P: PermGroupPresentation, h_part: WindowInjection,
                   coords: dict, default: WindowInjection | None = None
                   ) -> WreathInjection:
    dom = P.domain
    if not isinstance(dom, PairProduct):
        raise ValueError(f"{P.name} is not presented on a pair product")
    default = default if default is not None else identity_endo(dom.second)
    return WreathInjection(dom, h_part, coords, default)


def wreath_product(G: PermGroupPresentation, H: PermGroupPresentation,
                   m: int) -> PermGroupPresentation:
    """(h, g)(b, a) = (h b, g(b) a) with m materialized coordinates.

    The H part gets eps/2 and coordinate b_i gets 2^-(i+2) eps; the tail of
    the series, 2^-(m+1) eps, is reported as residual and the certificate
    notes that probes are scoped to the materialized coordinates.
    """
    if m <= 0:
        raise ValueError("truncation must materialize at least one coordinate")
    dom = PairProduct(H.domain, G.domain)
    coords = [H.domain.point_at(i) for i in range(m)]
    gid = identity_endo(G.domain)
    hid = identity_endo(H.domain)

    def shape(v):
        if isinstance(v, WreathInjection):
            return v
        if isinstance(v, IdentityInjection):
            return WreathInjection(dom, hid, {}, gid)
        raise StructuralMismatch(
            f"wreath approximator needs wreath-shaped values, got {v!r}")

    def approx(h_hat, eps, window):
        w = h_hat.map_values(shape)
        parts = [("h", eps / 2, H.approximator(w.map_values(lambda v: v.h_part),
                                               eps / 2, window))]
        for i, b in enumerate(coords):
            share = Frac(1, 2 ** (i + 2)) * eps
            parts.append((f"b{i}", share, G.approximator(
                w.map_values(lambda v, b=b: v.coord(b)), share, window)))
        tail = Frac(1, 2 ** (m + 1)) * eps

        def build(orig, hp, *gs):
            # coordinates beyond the truncation are copied verbatim
            return WreathInjection(dom, hp, orig.coords | dict(zip(coords, gs)),
                                   orig.default)

        return _combine(eps, window, parts, [w] + [c.g_hat for _, _, c in parts],
                        build, tail, (f"coordinates materialized: {m}; "
                                      f"residual tail {tail}",))

    def member(v, window):
        try:
            v = shape(v)
        except StructuralMismatch:
            return False
        return (H.member(v.h_part, window)
                and G.member(v.default, window)
                and all(G.member(g, window) for g in v.coords.values()))

    elements = {"identity": identity_endo(dom)}
    for nm, h in H.elements.items():
        elements[f"H.{nm}"] = WreathInjection(dom, h, {}, gid)
    for nm, g in G.elements.items():
        if g != gid:
            elements[f"b0.{nm}"] = WreathInjection(dom, hid, {coords[0]: g}, gid)
    return PermGroupPresentation(f"wreath({G.name},{H.name},m={m})", dom,
                                 approx, member=member, elements=elements)


# --- finite-index supergroup ------------------------------------------------

def finite_index_supergroup(H: PermGroupPresentation,
                            coset_reps) -> PermGroupPresentation:
    """Factor each cell through a coset representative, lowest index first.

    The peeled H-part keeps the whole budget: composing with a fixed
    window bijection preserves pointwise disagreement sets exactly.
    """
    reps = list(coset_reps)
    if not reps:
        raise ValueError("need at least one coset representative")
    if any(r.domain != H.domain for r in reps):
        raise ValueError("a coset representative lives on another carrier")

    def peel(v, window):
        for j, rep in enumerate(reps):
            candidate = rep.inverse().compose(v)
            if H.member(candidate, window):
                return j, candidate
        return None

    def approx(h_hat, eps, window):
        for rep in reps:
            if not rep.window_bijectivity(window):
                raise ValueError(f"coset rep {rep!r} is not window-bijective")
        idx_cells, part_cells = [], []
        for s, v in h_hat.cells:
            got = peel(v, window)
            if got is None:
                raise NoCosetFactorization(s, v.description)
            idx_cells.append((s, got[0]))
            part_cells.append((s, got[1]))
        ch = H.approximator(StepMap(part_cells), eps, window)
        return _combine(eps, window, [("H", eps, ch)], [StepMap(idx_cells), ch.g_hat],
                        lambda j, hp: reps[j].compose(hp),
                        notes=(f"coset reps: {len(reps)}",))

    def member(v, window):
        return peel(v, window) is not None

    elements = dict(H.elements)
    for j, rep in enumerate(reps):
        elements.setdefault(f"coset{j}", rep)
    return PermGroupPresentation(f"findex({H.name},{len(reps)})", H.domain,
                                 approx, member=member, elements=elements)


# --- tiny prefix grammar for the CLI ---------------------------------------

# deepest combinator nesting parse_group_expr accepts; it recurses once a level
MAX_EXPR_DEPTH = 32

PRESETS = {
    "pure": pure_set_presentation,
    "parity": parity_presentation,
    "fq2": lambda: fq_presentation(2),
    "fq3": lambda: fq_presentation(3),
}


def _split_args(body: str) -> list:
    out, depth, cur = [], 0, []
    for c in body:
        if c == "(":
            depth += 1
            if depth >= MAX_EXPR_DEPTH:
                raise ValueError(f"group expression nests deeper than "
                                 f"{MAX_EXPR_DEPTH} levels")
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if c == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    if depth:
        raise ValueError("unbalanced parentheses")
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def parse_group_expr(text: str) -> PermGroupPresentation:
    """product(pure,pure) | wreath(pure,pure,m=4) | findex(parity,reps=...)."""
    text = text.strip()
    if "(" not in text:
        if text not in PRESETS:
            raise ValueError(f"unknown group {text!r}; presets: "
                             f"{', '.join(sorted(PRESETS))}")
        return PRESETS[text]()
    head, _, rest = text.partition("(")
    head = head.strip()
    if not rest.endswith(")"):
        raise ValueError("unbalanced parentheses")
    args = _split_args(rest[:-1])
    if head == "product":
        if len(args) != 2:
            raise ValueError("product takes exactly two groups")
        return direct_product(parse_group_expr(args[0]),
                              parse_group_expr(args[1]))
    if head == "wreath":
        if len(args) != 3 or not args[2].startswith("m="):
            raise ValueError("wreath takes two groups and m=<count>")
        return wreath_product(parse_group_expr(args[0]),
                              parse_group_expr(args[1]),
                              int(args[2][2:]))
    if head == "findex":
        if len(args) < 2:
            raise ValueError("findex takes a group and rep names")
        sub = parse_group_expr(args[0])
        names = [a[5:] if a.startswith("reps=") else a for a in args[1:]]
        missing = [n for n in names if n not in sub.elements]
        if missing:
            raise ValueError(f"unknown elements {missing}; known: "
                             f"{', '.join(sorted(sub.elements))}")
        return finite_index_supergroup(sub, [sub.elements[n] for n in names])
    raise ValueError(f"unknown combinator {head!r}")
