import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import belle_paire
from belle_paire.measure import StepMap
from belle_paire.structures import (
    ComposedInjection,
    DisjointUnion,
    Domain,
    FqVector,
    FqVectors,
    GeometrySpec,
    IdentityInjection,
    InverseInjection,
    LinearInjection,
    NaturalNumbers,
    NonInjectiveOnWindow,
    PairProduct,
    ShiftInjection,
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


def test_domain_windows_enumerate_without_repeats():
    for dom in (NaturalNumbers(), FqVectors(2), FqVectors(3),
                DisjointUnion(NaturalNumbers(), NaturalNumbers()),
                PairProduct(NaturalNumbers(), FqVectors(2))):
        w = dom.window(60)
        assert len(w) == 60
        assert len(set(w)) == 60
        assert dom.point_at(17) == w[17]


def test_domain_equality_is_structural():
    assert NaturalNumbers() == NaturalNumbers()
    assert FqVectors(2) == FqVectors(2)
    assert FqVectors(2) != FqVectors(3)
    assert NaturalNumbers() != FqVectors(2)
    # carriers are identified by their description alone
    def nested():
        return [DisjointUnion(NaturalNumbers(), FqVectors(2)),
                PairProduct(NaturalNumbers(), FqVectors(2)),
                PairProduct(DisjointUnion(NaturalNumbers(), NaturalNumbers()),
                            FqVectors(3))]
    for a, b in zip(nested(), nested()):
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a.describe())
    assert len(set(nested())) == 3
    assert not hasattr(Domain, "key")


@given(st.integers(0, 3000))
def test_fq_encode_decode_roundtrip(k):
    for q in (2, 3, 5):
        v = FqVector.decode(q, k)
        assert v.encode() == k


def test_fq_vector_coefficients():
    q = 3
    a = FqVector.from_coeffs(q, (1, 2, 0, 4))
    b = FqVector.from_coeffs(q, (2, 2, 1))
    assert [a.coeff(i) for i in range(5)] == [1, 2, 0, 1, 0]
    assert a.max_index == 3 and FqVector.from_coeffs(q, (3, 0, 6)).is_zero
    assert FqVector.zero(q).max_index == -1
    assert b.dense(4) == (2, 2, 1, 0)


def test_fq_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        FqVector(2, ((0, 5),))
    with pytest.raises(ValueError):
        FqVector(3, ((0, 0),))
    with pytest.raises(ValueError):
        FqVector(3, ((2, 1), (0, 1)))
    with pytest.raises(ValueError, match="sorted"):
        FqVector(2, ((0, 1), (0, 1)))  # a repeated index
    with pytest.raises(ValueError, match="sorted"):
        FqVector(2, ((-1, 1),))
    with pytest.raises(ValueError, match="naturals"):
        FqVector.decode(2, -1)
    with pytest.raises(ValueError):
        FqVector.basis(2, 3).dense(3)


def test_fq_vector_validates_under_optimize():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from belle_paire.structures import FqVector\n"
            "try:\n"
            "    FqVector(2, ((0, 5),))\n"
            "except ValueError:\n"
            "    print('refused')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


# each line builds a combinator or sigma_i from parts that do not fit
BAD_COMBINATORS = [
    "ComposedInjection(s, b)",
    "InverseInjection(s)",
    "UnionInjection(pair, s, s)",
    "UnionInjection(union, s, b)",
    "WreathInjection(union, s, {}, b)",
    "WreathInjection(pair, b, {}, b)",
    "WreathInjection(pair, s, {}, s)",
    "WreathInjection(pair, s, {0: s}, b)",
    "CycleApproxBijection(OrbitClassifier(s), 3, 3)",
]


def test_combinators_validate_under_optimize():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from belle_paire.approx import CycleApproxBijection, OrbitClassifier\n"
            "from belle_paire.structures import *\n"
            "nat, fq = NaturalNumbers(), FqVectors(2)\n"
            "union, pair = DisjointUnion(nat, nat), PairProduct(nat, fq)\n"
            "s, b = successor_endo(), basis_shift_endo(2)\n"
            f"for expr in {BAD_COMBINATORS!r}:\n"
            "    try:\n"
            "        eval(expr)\n"
            "    except ValueError:\n"
            "        print('refused')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * len(BAD_COMBINATORS)


def test_successor_has_no_zero_preimage():
    tau = successor_endo()
    assert tau.apply(5) == 6
    assert tau.preimage(0) is None
    assert tau.preimage(6) == 5
    assert not tau.window_bijectivity(10)
    tau.validate_window(500)


def test_shift_window_injective_but_not_onto():
    tau = shift_endo(2)
    assert tau.apply(3) == 5
    assert tau.preimage(1) is None
    assert identity_endo().window_bijectivity(100)
    assert not tau.window_bijectivity(100)


def test_table_injection_identity_off_support():
    h = TableInjection(NaturalNumbers(), {0: 5, 5: 0})
    assert h.apply(0) == 5 and h.apply(5) == 0 and h.apply(3) == 3
    assert h.preimage(5) == 0
    assert h.is_bijection
    assert h.window_bijectivity(50)


def test_table_collision_rejected():
    with pytest.raises(ValueError):
        TableInjection(NaturalNumbers(), {0: 0, 1: 0})


def test_table_colliding_with_identity_detected_on_window():
    # 0 -> 3 and the untouched 3 -> 3 collide; only a window check can see it
    h = TableInjection(NaturalNumbers(), {0: 3})
    assert not h.is_bijection
    with pytest.raises(NonInjectiveOnWindow, match="0 and 3 both map to 3"):
        h.validate_window(10)


@pytest.mark.parametrize("point", [-1, 1.5, "2", True, None])
def test_natural_index_of_rejects_non_naturals(point):
    with pytest.raises(ValueError, match="is not a natural number"):
        NaturalNumbers().index_of(point)
    with pytest.raises(ValueError, match="is not a natural number"):
        TableInjection(NaturalNumbers(), {point: 2})


def test_point_rules_check_their_points():
    # the identity and shift rules on codes are the point rules too, yet
    # their points still go through index_of
    calls = [lambda: successor_endo().apply(-1),
             lambda: shift_endo(2).preimage(-5),
             lambda: identity_endo().apply(-1),
             lambda: basis_shift_endo(2).apply(FqVector(3, ((0, 2),))),
             lambda: basis_shift_endo(2).apply(5)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert successor_endo().apply(3) == 4
    assert shift_endo(2).preimage(5) == 3 and shift_endo(2).preimage(1) is None
    assert identity_endo().apply(7) == 7
    assert basis_shift_endo(2).apply(FqVector.basis(2, 0)) == FqVector.basis(2, 1)


def test_window_permutation_requires_permutation():
    with pytest.raises(ValueError):
        window_permutation(NaturalNumbers(), {0: 1})
    p = window_permutation(NaturalNumbers(), {0: 1, 1: 0})
    assert p.inverse().apply(1) == 0


def test_basis_shift_injective_not_onto():
    tau = basis_shift_endo(2)
    e0 = FqVector.basis(2, 0)
    assert tau.apply(e0) == FqVector.basis(2, 1)
    assert tau.preimage(e0) is None
    assert tau.apply(FqVector.zero(2)).is_zero
    tau.validate_window(200)


def test_linear_endo_and_composition():
    q = 2
    swap = LinearInjection(q, (FqVector.basis(q, 1), FqVector.basis(q, 0)))
    v = FqVector.from_coeffs(q, (1, 0, 1))
    assert swap.apply(v) == FqVector.from_coeffs(q, (0, 1, 1))
    assert swap.compose(swap).apply(v) == v
    assert swap.inverse().apply(swap.apply(v)) == v


def test_compose_and_inverse_window_laws():
    tau = shift_endo(3)
    sig = successor_endo()
    comp = tau.compose(sig)
    for x in range(40):
        assert comp.apply(x) == tau.apply(sig.apply(x)) == x + 4
        assert comp.preimage(comp.apply(x)) == x


def test_union_and_pair_points_tag_correctly():
    du = DisjointUnion(NaturalNumbers(), FqVectors(2))
    pts = du.window(10)
    sides = {p[0] for p in pts}
    assert sides == {"L", "R"}
    pp = PairProduct(NaturalNumbers(), NaturalNumbers())
    seen = set(pp.window(50))
    assert (0, 0) in seen and (1, 2) in seen


def test_geometry_spec_validation():
    GeometrySpec("affine", 4)  # prime powers allowed
    GeometrySpec("disintegrated")
    with pytest.raises(ValueError):
        GeometrySpec("affine", 6)
    with pytest.raises(ValueError):
        GeometrySpec("disintegrated", 2)
    with pytest.raises(ValueError):
        GeometrySpec("euclidean", 2)


def test_injection_equality_by_key():
    assert successor_endo() == shift_endo(1)
    assert shift_endo(2) != shift_endo(3)
    assert identity_endo(FqVectors(2)) != identity_endo(NaturalNumbers())


# --- LinearInjection.preimage against a dense reference --------------------

def _reference_echelon(rows, p):
    """Gauss-Jordan over F_p: (reduced rows, pivot (row, column) pairs)."""
    mat = [[v % p for v in r] for r in rows]
    piv = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(piv)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[r])]
        piv.append((r, c))
    return mat, piv


def _column(q, images, tail, i, height):
    if i < len(images):
        v = images[i]
    else:
        v = FqVector.basis(q, i if tail == "identity" else i + 1)
    return v.dense(height)


def _reference_independent(q, images, tail):
    """The columns that can interact, len(images) + max index + 2 of them,
    have full rank."""
    maximg = max([v.max_index for v in images], default=-1)
    d = len(images) + maximg + 2
    cols = [_column(q, images, tail, i, d + 1) for i in range(d)]
    return len(_reference_echelon([list(r) for r in zip(*cols)], q)[1]) == d


def _reference_preimage(tau, y):
    """The dense solve: every column up to y's support, one row more, and
    one elimination of [A | y] per call."""
    q = tau.q
    maximg = max([v.max_index for v in tau.images], default=-1)
    d = max(len(tau.images), maximg + 1, y.max_index + 1, 1)
    cols = [_column(q, tau.images, tau.tail, i, d + 1) for i in range(d)]
    rows = [[col[r] for col in cols] + [b] for r, b in enumerate(y.dense(d + 1))]
    red, piv = _reference_echelon(rows, q)
    if any(c == d for _, c in piv):
        return None  # inconsistent
    if len(piv) < d:
        return None  # underdetermined
    sol = [0] * d
    for r, c in piv:
        sol[c] = red[r][d]
    return FqVector.from_coeffs(q, sol)


def _random_linear_maps(seed, count):
    """Seeded LinearInjections over q in {2, 3, 5} with both tails, whose
    images often reach past len(images); refusals must match the reference.
    Draws go on until there are count maps and at least one refusal, and
    at least one map has the shift tail, so is not onto."""
    rng = random.Random(seed)
    maps, refused = [], 0
    while len(maps) < count or not refused:
        q = rng.choice((2, 3, 5))
        tail = rng.choice(("identity", "shift"))
        if len(maps) == count - 1 and all(t.tail == "identity" for t in maps):
            tail = "shift"
        k = rng.randint(0, 4)
        reach = k + rng.randint(0, 3)
        images = tuple(
            FqVector.from_coeffs(q, [rng.randrange(q) if rng.random() < 0.5
                                     else 0 for _ in range(reach)])
            for _ in range(k))
        independent = _reference_independent(q, images, tail)
        try:
            tau = LinearInjection(q, images, tail)
        except ValueError:
            assert not independent
            refused += 1
            continue
        assert independent
        if len(maps) < count:
            maps.append(tau)
    assert refused
    return maps


@pytest.mark.parametrize("seed", range(4))
def test_linear_preimage_matches_dense_reference(seed):
    no_preimage = past_block = 0
    for tau in _random_linear_maps(seed, 20):
        maximg = max([v.max_index for v in tau.images], default=-1)
        block_rows = max(len(tau.images), maximg + 1, 1) + (tau.tail == "shift")
        for y in tau.domain.window(300):
            x = tau.preimage(y)
            assert x == _reference_preimage(tau, y), (tau.key(), y)
            if x is None:
                no_preimage += 1
            else:
                assert tau.apply(x) == y
            past_block += y.max_index >= block_rows
    # both the consistency rows and the tail coefficients were exercised
    assert no_preimage and past_block


# --- the code layer: index_of and the code rules ---------------------------

LEAF_DOMAINS = [NaturalNumbers(), FqVectors(2), FqVectors(3), FqVectors(5)]
NESTED_DOMAINS = st.recursive(
    st.sampled_from(LEAF_DOMAINS),
    lambda inner: (st.builds(DisjointUnion, inner, inner)
                   | st.builds(PairProduct, inner, inner)),
    max_leaves=6)


@given(NESTED_DOMAINS, st.integers(0, 10 ** 6))
def test_index_of_inverts_point_at(dom, k):
    assert dom.index_of(dom.point_at(k)) == k


def test_index_of_on_every_leaf_and_nesting():
    for dom in LEAF_DOMAINS + [
            DisjointUnion(PairProduct(NaturalNumbers(), FqVectors(5)),
                          DisjointUnion(FqVectors(2), NaturalNumbers())),
            PairProduct(DisjointUnion(FqVectors(3), NaturalNumbers()),
                        PairProduct(NaturalNumbers(), FqVectors(2)))]:
        assert [dom.index_of(p) for p in dom.window(500)] == list(range(500))


def test_compound_index_of_refuses_points_off_the_carrier():
    union = DisjointUnion(NaturalNumbers(), NaturalNumbers())
    pairs = PairProduct(NaturalNumbers(), NaturalNumbers())
    for dom, points in [(union, [("X", 3), 5, ("L", 3, 4), ["L", 3], ("L",)]),
                        (pairs, [5, (1,), (1, 2, 3), "ab", [1, 2]])]:
        for point in points:
            with pytest.raises(ValueError, match="is not a point of"):
                dom.index_of(point)


def test_wreath_maps_drop_fibres_equal_to_the_default():
    dom = PairProduct(NaturalNumbers(), NaturalNumbers())
    kept = WreathInjection(dom, shift_endo(2), {3: shift_endo(1)}, successor_endo())
    dropped = WreathInjection(dom, shift_endo(2), {}, successor_endo())
    assert kept.coords == {} and kept == dropped
    assert hash(kept) == hash(dropped) and kept.description == dropped.description
    assert len(StepMap.uniform_strips([kept, dropped]).cells) == 1


def _every_injection_class():
    """One injection of each class, on carriers that exercise decoding, and
    wreaths whose fibre maps are keyed by vectors or are unions."""
    fq2, fq3 = FqVectors(2), FqVectors(3)
    e = [FqVector.basis(3, i) for i in range(3)]
    swap = LinearInjection(3, (e[1], e[0]))
    table = window_permutation(fq2, {FqVector.basis(2, 0): FqVector.basis(2, 2),
                                     FqVector.basis(2, 2): FqVector.basis(2, 0)})
    nat = NaturalNumbers()
    return [
        identity_endo(fq3),
        shift_endo(3),
        TableInjection(nat, {2: 9, 9: 4}),
        table,
        basis_shift_endo(2),
        swap,
        ComposedInjection(basis_shift_endo(2), table),
        InverseInjection(swap),
        InverseInjection(window_permutation(nat, {0: 1, 1: 2, 2: 0})),
        UnionInjection(DisjointUnion(nat, fq2), successor_endo(), basis_shift_endo(2)),
        WreathInjection(PairProduct(nat, fq3), shift_endo(2),
                        {1: basis_shift_endo(3)}, identity_endo(fq3)),
        WreathInjection(PairProduct(fq2, nat), basis_shift_endo(2),
                        {FqVector.basis(2, 1): successor_endo()}, identity_endo(nat)),
        WreathInjection(PairProduct(nat, DisjointUnion(fq2, nat)), successor_endo(),
                        {2: UnionInjection(DisjointUnion(fq2, nat),
                                           basis_shift_endo(2), shift_endo(3))},
                        identity_endo(DisjointUnion(fq2, nat))),
    ]


def _point_apply(h, x):
    """The image of point x by the combinators' rules on points; leaves
    (identity, shift, linear) are checked on their own elsewhere."""
    if isinstance(h, TableInjection):
        return h._table.get(x, x)
    if isinstance(h, ComposedInjection):
        return _point_apply(h.outer, _point_apply(h.inner, x))
    if isinstance(h, InverseInjection):
        return _point_preimage(h.inner, x)
    if isinstance(h, UnionInjection):
        tag, v = x
        return (tag, _point_apply(h.left if tag == "L" else h.right, v))
    if isinstance(h, WreathInjection):
        b, a = x
        return (_point_apply(h.h_part, b), _point_apply(h.coord(b), a))
    return h.apply(x)


def _point_preimage(h, y):
    if isinstance(h, TableInjection):
        inv = {v: u for u, v in h._table.items()}
        return inv[y] if y in inv else (None if y in h._table else y)
    if isinstance(h, ComposedInjection):
        mid = _point_preimage(h.outer, y)
        return None if mid is None else _point_preimage(h.inner, mid)
    if isinstance(h, InverseInjection):
        return _point_apply(h.inner, y)
    if isinstance(h, UnionInjection):
        tag, v = y
        w = _point_preimage(h.left if tag == "L" else h.right, v)
        return None if w is None else (tag, w)
    if isinstance(h, WreathInjection):
        b1, a1 = y
        b = _point_preimage(h.h_part, b1)
        a = None if b is None else _point_preimage(h.coord(b), a1)
        return None if a is None else (b, a)
    return h.preimage(y)


@pytest.mark.parametrize("h", _every_injection_class(), ids=lambda h: h.description)
def test_code_rules_agree_with_point_rules(h):
    dom = h.domain
    pts = dom.window(400)
    assert [dom.index_of(h.apply(x)) for x in pts] == list(map(h.apply_code, range(400)))
    assert list(map(h.apply, pts)) == [_point_apply(h, x) for x in pts]
    for k, y in enumerate(pts):
        x, c = h.preimage(y), h.preimage_code(k)
        assert (x is None) == (c is None)
        assert x == _point_preimage(h, y)
        if x is not None:
            assert dom.index_of(x) == c and dom.point_at(c) == x


def _injection_classes() -> list:
    """Every subclass of WindowInjection, CycleApproxBijection included."""
    from belle_paire.approx import CycleApproxBijection

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = list(subclasses(WindowInjection))
    assert CycleApproxBijection in classes
    return classes


def test_every_injection_class_is_a_code_rule():
    base = vars(WindowInjection)
    for cls in _injection_classes():
        for on_points, on_codes in (("apply", "apply_code"),
                                    ("preimage", "preimage_code")):
            # the base class has no code rule of its own
            rule = getattr(cls, on_codes, None)
            assert rule is not None, (cls.__name__, on_codes)
            # a point rule is the base's derived one or an alias of the code rule
            assert getattr(cls, on_points) in (base[on_points], rule), (
                cls.__name__, on_points)


def _equal_injection_builds() -> dict:
    """Per injection class, builders of equal injections from fresh parts."""
    from belle_paire.approx import CycleApproxBijection, approximate_by_automorphisms

    nat, fq2 = NaturalNumbers, lambda: FqVectors(2)
    e = [FqVector.basis(2, i) for i in range(3)]
    entries = [(3, 7), (7, 12), (12, 3), (20, 21), (21, 20)]
    swap = lambda: window_permutation(fq2(), {e[0]: e[2], e[2]: e[0]})
    cycle = lambda: window_permutation(nat(), {0: 1, 1: 2, 2: 0})
    fibres = lambda: {1: basis_shift_endo(2), 4: swap()}
    return {
        IdentityInjection: [lambda: identity_endo(FqVectors(3))],
        ShiftInjection: [lambda: shift_endo(2)],
        # one table inserted in two orders
        TableInjection: [lambda: TableInjection(nat(), dict(entries)),
                         lambda: TableInjection(nat(), dict(reversed(entries)))],
        LinearInjection: [lambda: LinearInjection(2, (e[1], e[0]))],
        ComposedInjection: [
            lambda: ComposedInjection(basis_shift_endo(2), swap()),
            lambda: ComposedInjection(LinearInjection(2, (), "shift"),
                                      window_permutation(fq2(), {e[2]: e[0], e[0]: e[2]}))],
        InverseInjection: [lambda: InverseInjection(cycle())],
        UnionInjection: [lambda: UnionInjection(DisjointUnion(nat(), fq2()),
                                                successor_endo(), swap())],
        WreathInjection: [
            lambda: WreathInjection(PairProduct(nat(), fq2()), cycle(), fibres(),
                                    identity_endo(fq2())),
            lambda: WreathInjection(PairProduct(nat(), fq2()), cycle(),
                                    dict(reversed(fibres().items())), identity_endo(fq2()))],
        CycleApproxBijection: [
            lambda: approximate_by_automorphisms(
                ComposedInjection(cycle(), successor_endo()), 3)[1]],
    }


def test_injection_keys_are_computed_once_and_agree():
    builds = _equal_injection_builds()
    assert set(builds) == set(_injection_classes())
    for cls, makers in builds.items():
        # every maker twice: separately built instances
        xs = [make() for make in makers for _ in range(2)]
        assert len({id(x) for x in xs}) == len(xs)
        for x in xs:
            assert type(x) is cls
            assert hash(x) == hash(x.key())
            # the key is read once per instance and equals a fresh one
            assert x._key is x._key
            assert x._key == x.key()
        for x in xs:
            for y in xs:
                assert x == y and hash(x) == hash(y), cls.__name__
    # and a different rule of each kind is unequal
    assert TableInjection(NaturalNumbers(), {3: 7, 7: 3}) != builds[TableInjection][0]()
    assert ComposedInjection(basis_shift_endo(2), basis_shift_endo(2)) != (
        builds[ComposedInjection][0]())


def test_injective_is_worked_out_from_the_rule():
    from belle_paire.approx import approximate_by_automorphisms

    for makers in _equal_injection_builds().values():
        for make in makers:
            h = make()
            assert h.injective, h.description
            h.validate_window(500)
    nat = NaturalNumbers()
    table = TableInjection(nat, {0: 3})  # 0 and the untouched 3 both go to 3
    for h in (table, ComposedInjection(successor_endo(), table),
              UnionInjection(DisjointUnion(nat, nat), successor_endo(), table),
              WreathInjection(PairProduct(nat, nat), identity_endo(), {1: table},
                              identity_endo()),
              approximate_by_automorphisms(table, 2)[1]):
        assert not h.injective, h.description
    # a sigma of such a table is no bijection, so it has no inverse
    with pytest.raises(ValueError, match="not presented as a bijection"):
        approximate_by_automorphisms(table, 2)[1].inverse()
    assert window_permutation(nat, {0: 3, 3: 0}).injective


def _reference_apply(tau, v):
    """The image by dict arithmetic on FqVector entries, column by column."""
    q = tau.q
    acc: dict = {}
    for i, c in v.entries:
        col = (tau.images[i].entries if i < len(tau.images)
               else ((i if tau.tail == "identity" else i + 1, 1),))
        for j, a in col:
            acc[j] = (acc.get(j, 0) + a * c) % q
    return FqVector(q, tuple(sorted((j, a) for j, a in acc.items() if a)))


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@example(seed=569924, offset=0)  # its first six draws refuse nothing
@settings(max_examples=20, deadline=None)
def test_linear_code_rules_match_vector_reference(seed, offset):
    # random full-rank blocks under both tails; codes from offset on, so
    # digits far past the block are reached too, and the basis codes q**i:
    # a shift-tail block (at most 8 rows here) misses one of them
    none = 0
    for tau in _random_linear_maps(seed, 6):
        for k in [*range(offset, offset + 60), *(tau.q ** i for i in range(8))]:
            y = tau.domain.point_at(k)
            assert tau.apply_code(k) == _reference_apply(tau, y).encode()
            x = _reference_preimage(tau, y)
            got = tau.preimage_code(k)
            assert got == (None if x is None else x.encode()), (tau.key(), k)
            none += got is None
            assert tau.apply_code(tau.apply_code(k)) == _reference_apply(
                tau, _reference_apply(tau, y)).encode()
    assert none  # codes outside the block image were met


@st.composite
def small_linear_maps(draw):
    """A LinearInjection over F_q, q in {2, 3, 5}, with 0-4 images on the
    first six basis vectors, so its block is at most six columns wide."""
    q = draw(st.sampled_from((2, 3, 5)))
    tail = draw(st.sampled_from(("identity", "shift")))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=6, max_size=6),
                         max_size=4))
    try:
        return LinearInjection(q, tuple(FqVector.from_coeffs(q, r) for r in rows),
                               tail)
    except ValueError:  # dependent images
        assume(False)


@given(small_linear_maps())
@example(basis_shift_endo(2))
@example(basis_shift_endo(5))
@settings(max_examples=25, deadline=None)
def test_linear_memo_matches_dense_matrix(tau):
    # images reach row 6 at most, so a code below q**6 with a preimage has
    # it below q**6 too: the dense 7 x 6 matrix on those codes is the rule
    q, n = tau.q, tau.q ** 6
    cols = [_column(q, tau.images, tau.tail, i, 7) for i in range(6)]
    dense = []
    for k in range(n):
        x = [k // q ** i % q for i in range(6)]
        y = [sum(c[r] * a for c, a in zip(cols, x)) % q for r in range(7)]
        dense.append(sum(a * q ** r for r, a in enumerate(y)))
    back = {y: k for k, y in enumerate(dense) if y < n}
    for _ in range(2):  # the second pass reads the memo
        assert list(map(tau.apply_code, range(n))) == dense
        assert list(map(tau.preimage_code, range(n))) == list(map(back.get, range(n)))
        assert all(tau.preimage_code(tau.apply_code(k)) == k for k in range(n))


def test_basis_shift_is_multiplication_by_q():
    for q in (2, 3, 5):
        tau = basis_shift_endo(q)
        assert [tau.apply_code(k) for k in range(200)] == [q * k for k in range(200)]
        assert [tau.preimage_code(k) for k in range(200)] == [
            k // q if k % q == 0 else None for k in range(200)]


def test_validate_window_names_vector_points():
    e0, e1 = FqVector.basis(2, 0), FqVector.basis(2, 1)
    bad = TableInjection(FqVectors(2), {e0: e1})  # e1 keeps its own image
    with pytest.raises(NonInjectiveOnWindow, match="^e0 and e1 both map to e1$") as info:
        bad.validate_window(4)
    assert info.value.pair == (e0, e1) and info.value.image == e1
