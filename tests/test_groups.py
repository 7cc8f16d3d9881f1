import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import belle_paire

from belle_paire.groups import (
    MAX_EXPR_DEPTH,
    direct_product,
    finite_index_supergroup,
    fq_presentation,
    parity_presentation,
    parse_group_expr,
    pure_set_presentation,
    wreath_product,
)
from belle_paire.measure import Frac, StepMap, l1_distance
from belle_paire.random_endo import (
    Certificate,
    apply_random_endo,
    constant_endo,
    endos_agree_on_window,
    max_strip_probe_distance,
)
from belle_paire.structures import (ComposedInjection, InverseInjection,
                                   NaturalNumbers, identity_endo, successor_endo,
                                   window_permutation)

HALF_STRIPS = [(Frac(0), Frac(1, 2)), (Frac(1, 2), Frac(1))]


def measured(pres, cert, h_hat, window=40, strips=HALF_STRIPS):
    d, _ = max_strip_probe_distance(cert.g_hat, h_hat, strips,
                                    pres.domain.window(window))
    return d


def test_presentation_approximates_own_elements():
    pres = pure_set_presentation()
    h_hat = constant_endo(pres.elements["successor"])
    cert = pres.approximate(h_hat, Frac(1, 10), 80)
    assert cert.ok
    assert cert.bound <= Frac(1, 10)
    assert measured(pres, cert, h_hat) <= cert.bound


def test_certificate_bound_gate():
    with pytest.raises(ValueError):
        Certificate(constant_endo(identity_endo()), Frac(1, 2),
                    Frac(1, 4), 10)


# each line trips one input gate of random_endo, groups, realization or
# sampling
BAD_INPUTS = [
    "Certificate(constant_endo(identity_endo()), Frac(1, 2), Frac(1, 4), 10)",
    "PermGroupPresentation('bad', nat, None, elements={'b': basis_shift_endo(2)})",
    "wreath_element(pure_set_presentation(), successor_endo(), {})",
    "finite_index_supergroup(pure_set_presentation(), [basis_shift_endo(2)])",
    "RealizationSpec([('not a set', [(0, Profile.constant(1))])])",
    "SampleStream(0).cuts(0)",
    "SampleStream(0).cuts(25)",
]


def test_input_gates_hold_under_optimize():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from belle_paire.groups import *\n"
            "from belle_paire.measure import Frac, Profile\n"
            "from belle_paire.random_endo import Certificate, constant_endo\n"
            "from belle_paire.realization import RealizationSpec\n"
            "from belle_paire.sampling import SampleStream\n"
            "from belle_paire.structures import *\n"
            "nat = NaturalNumbers()\n"
            f"for expr in {BAD_INPUTS!r}:\n"
            "    try:\n"
            "        eval(expr)\n"
            "    except ValueError:\n"
            "        print('refused')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * len(BAD_INPUTS)


def test_parity_presentation_membership():
    pres = parity_presentation()
    assert pres.member(pres.elements["identity"], 40)
    assert pres.member(pres.elements["shift2"], 40)
    assert not pres.member(successor_endo(), 40)
    # a swap of 5 and 6 breaks parity only inside windows that reach 5
    swap = window_permutation(NaturalNumbers(), {5: 6, 6: 5})
    assert pres.member(swap, 5) and not pres.member(swap, 6)


def test_direct_product_splits_budget():
    G = pure_set_presentation()
    H = pure_set_presentation()
    P = direct_product(G, H)
    h_hat = constant_endo(P.elements["L.successor"])
    eps = Frac(1, 10)
    cert = P.approximate(h_hat, eps, 60)
    assert cert.bound <= eps
    assert dict(cert.allocations) == {"left": eps / 2, "right": eps / 2}
    assert measured(P, cert, h_hat, window=30) <= cert.bound


def test_direct_product_both_sides_move():
    P = direct_product(pure_set_presentation(), parity_presentation())
    h_hat = constant_endo(P.elements["R.shift2"])
    cert = P.approximate(h_hat, Frac(1, 8), 60)
    assert cert.bound <= Frac(1, 8)
    assert endos_agree_on_window(cert.g_hat, h_hat, 0) or cert.bound >= 0


def test_wreath_product_budget_schedule():
    W = wreath_product(pure_set_presentation(), pure_set_presentation(), m=2)
    eps = Frac(1, 4)
    h_hat = constant_endo(W.elements["b0.successor"])
    cert = W.approximate(h_hat, eps, 40)
    alloc = dict(cert.allocations)
    assert alloc["h"] == eps / 2
    assert alloc["b0"] == eps / 4  # 2^-(i+2) eps at coordinate i
    assert alloc["b1"] == eps / 8
    assert cert.residual == eps / 8  # 2^-(m+1) eps tail beyond truncation
    assert cert.bound <= eps
    assert any("residual" in note for note in cert.notes)


def test_wreath_rejects_bad_truncation():
    with pytest.raises(ValueError):
        wreath_product(pure_set_presentation(), pure_set_presentation(), m=0)


def test_wreath_identity_is_free():
    W = wreath_product(pure_set_presentation(), pure_set_presentation(), m=3)
    h_hat = constant_endo(W.elements["identity"])
    cert = W.approximate(h_hat, Frac(1, 9), 30)
    assert cert.bound == 0
    assert endos_agree_on_window(cert.g_hat, h_hat, 30)


def test_wreath_h_part_element():
    W = wreath_product(pure_set_presentation(), pure_set_presentation(), m=2)
    h_hat = constant_endo(W.elements["H.rot3"])
    cert = W.approximate(h_hat, Frac(1, 5), 30)
    # rot3 is an automorphism, so the H share is spent at zero cost
    assert cert.bound == 0
    assert endos_agree_on_window(cert.g_hat, h_hat, 30)


def test_finite_index_peels_coset():
    H = parity_presentation()
    # swap of 0 and 1 is an odd move: it lands in the nontrivial coset
    from belle_paire.structures import NaturalNumbers, window_permutation
    odd = window_permutation(NaturalNumbers(), {0: 1, 1: 0})
    G = finite_index_supergroup(H, [identity_endo(), odd])
    h_hat = constant_endo(odd.compose(H.elements["shift2"]))
    cert = G.approximate(h_hat, Frac(1, 6), 40)
    assert cert.bound <= Frac(1, 6)
    assert dict(cert.allocations) == {"H": Frac(1, 6)}
    assert measured(G, cert, h_hat, window=20) <= cert.bound


def test_finite_index_exact_for_automorphism_member():
    H = pure_set_presentation()
    from belle_paire.structures import NaturalNumbers, window_permutation
    odd = window_permutation(NaturalNumbers(), {0: 1, 1: 0})
    G = finite_index_supergroup(H, [identity_endo(), odd])
    h_hat = constant_endo(odd.compose(H.elements["rot3"]))
    cert = G.approximate(h_hat, Frac(1, 3), 40)
    assert cert.bound == 0
    assert endos_agree_on_window(cert.g_hat, h_hat, 40)


def test_parse_group_expr_round_trip():
    for text, name in [("pure", "pure"),
                       ("product(pure,parity)", "product"),
                       ("wreath(pure,pure,m=3)", "wreath"),
                       ("findex(parity,reps=identity,shift2)", "findex"),
                       ("wreath(product(pure,pure),pure,m=2)", "wreath")]:
        pres = parse_group_expr(text)
        assert name in pres.name
        assert "identity" in pres.elements


def test_parse_group_expr_errors():
    with pytest.raises(ValueError):
        parse_group_expr("unknown_group")
    with pytest.raises(ValueError):
        parse_group_expr("wreath(pure)")
    with pytest.raises(ValueError):
        parse_group_expr("product(pure")


def nested_products(depth):
    return "product(" * depth + "pure" + ",pure)" * depth


def test_parse_group_expr_refuses_deep_nesting_before_recursing():
    assert "product" in parse_group_expr(nested_products(MAX_EXPR_DEPTH)).name
    for depth in (MAX_EXPR_DEPTH + 1, 1200):
        with pytest.raises(ValueError, match="nests deeper than"):
            parse_group_expr(nested_products(depth))


def test_nested_combinator_budget():
    pres = parse_group_expr("wreath(product(pure,pure),pure,m=2)")
    h_hat = constant_endo(pres.elements["b0.L.successor"])
    eps = Frac(1, 2)
    cert = pres.approximate(h_hat, eps, 30)
    assert cert.bound <= Frac(1, 16)  # b0 share eps/4, split again, halved
    assert measured(pres, cert, h_hat, window=12) <= eps


def test_fq_presentation_elements():
    pres = fq_presentation(2)
    h_hat = constant_endo(pres.elements["shift"])
    cert = pres.approximate(h_hat, Frac(1, 6), 60)
    assert cert.bound <= Frac(1, 6)
    assert measured(pres, cert, h_hat, window=30) <= cert.bound


# a product's or a wreath's composites and inverses stay in its own kind, so
# its membership test and a finite-index extension over it can read them
@pytest.mark.parametrize("expr", ["product(pure,parity)", "product(fq2,pure)",
                                  "wreath(pure,pure,m=2)", "wreath(pure,fq2,m=2)"])
def test_composites_and_inverses_are_members(expr):
    pres = parse_group_expr(expr)
    els = list(pres.elements.values())
    for u in els:
        for v in els:
            uv = u.compose(v)
            assert uv.window_codes(300) == ComposedInjection(u, v).window_codes(300)
            assert pres.member(uv, 60), (u, v)
        if u.is_bijection:
            inv = u.inverse()
            assert inv.window_codes(300) == InverseInjection(u).window_codes(300)
            assert pres.member(inv, 60), u

