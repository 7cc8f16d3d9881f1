import json
from fractions import Fraction

import jsonschema
import pytest

from belle_paire.groups import parse_group_expr
from belle_paire.measure import Frac, Profile, RationalSet, StepMap
from belle_paire.random_endo import (
    PairModel,
    approximate_random_endo,
    certify_epsilon_isomorphism,
    constant_endo,
)
from belle_paire.sampling import SampleStream
from belle_paire.serialize import (
    certificate_to_json,
    endo_from_json,
    endo_to_json,
    frac_str,
    injection_from_json,
    injection_to_json,
    json_dumps,
    load_baseline,
    load_schema,
    pair_model_from_json,
    pair_model_to_json,
    parse_frac,
    profile_from_json,
    profile_to_json,
    rational_set_from_json,
    rational_set_to_json,
    realization_spec_from_json,
    realization_spec_to_json,
    rows_to_csv,
    search_result_to_json,
    store_baseline,
)
from belle_paire.structures import (
    FqVector,
    FqVectors,
    NaturalNumbers,
    TableInjection,
    basis_shift_endo,
    identity_endo,
    shift_endo,
    successor_endo,
)


def test_frac_round_trip():
    for x in (Frac(0), Frac(1, 3), Frac(-7, 5), Frac(4)):
        assert parse_frac(frac_str(x)) == x
    with pytest.raises(ValueError):
        parse_frac("0.5")
    with pytest.raises(ValueError):
        parse_frac(0.5)
    for text in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_frac(text)


def test_rational_set_round_trip():
    s = RationalSet.from_rect(Frac(1, 3), Frac(2, 3), Frac(0), Frac(1, 2))
    assert rational_set_from_json(rational_set_to_json(s)) == s


def test_profile_round_trip():
    p = Profile([(Frac(0), Frac(1, 2), Frac(2)),
                 (Frac(1, 2), Frac(1), Frac(1, 3))])
    assert profile_from_json(profile_to_json(p)) == p


@pytest.mark.parametrize("h", [
    identity_endo(NaturalNumbers()),
    identity_endo(FqVectors(3)),
    successor_endo(),
    shift_endo(4),
    TableInjection(NaturalNumbers(), {0: 2, 2: 0}),
    TableInjection(FqVectors(2), {FqVector.basis(2, 0): FqVector.basis(2, 2),
                                  FqVector.basis(2, 2): FqVector.basis(2, 0)}),
    basis_shift_endo(2),
], ids=lambda h: h.description)
def test_injection_round_trip(h):
    back = injection_from_json(injection_to_json(h))
    assert back == h
    for x in h.domain.window(20):
        assert back.apply(x) == h.apply(x)


def test_table_entries_are_codes():
    e = [FqVector.basis(2, i) for i in range(3)]
    h = TableInjection(FqVectors(2), {e[0]: e[2], e[2]: e[0]})
    assert injection_to_json(h)["entries"] == [(1, 4), (4, 1)]
    with pytest.raises(ValueError):
        injection_from_json({"kind": "table", "carrier": "fqvec(2)",
                             "entries": [[-1, 2]]})


@pytest.mark.parametrize("field,value", [
    ("offset", 1.5), ("offset", "1"), ("offset", True),
    ("q", 2.0), ("window", 20.5), ("entries", [[0, 1.0], [1, 0]]),
    ("entries", [[0, "1"], [1, 0]]),
])
def test_non_integer_json_numbers_are_rejected(field, value):
    shift = {"kind": "shift", "offset": 1}
    blobs = {"offset": shift,
             "q": injection_to_json(basis_shift_endo(2)),
             "window": shift,
             "entries": {"kind": "table", "entries": [[0, 1], [1, 0]]}}
    inj = dict(blobs[field])
    pair = {"structure": "nat", "window": 20,
            "image": {"cells": [[{"rects": [["0", "1", "0", "1"]]}, inj]]}}
    if field == "window":
        pair["window"] = value
    else:
        inj[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        pair_model_from_json(pair)


@pytest.mark.parametrize("carrier", [0, {}, None])
def test_non_string_carrier_is_rejected(carrier):
    with pytest.raises(ValueError, match="unknown carrier"):
        injection_from_json({"kind": "identity", "carrier": carrier})


def test_sampled_twists_permute_codes():
    fq3 = FqVectors(3)
    twist = SampleStream(5).finite_permutation(9, fq3)
    assert sorted(map(fq3.index_of, twist.support)) == sorted(
        fq3.index_of(twist.apply(x)) for x in twist.support)
    assert all(fq3.index_of(x) < 9 for x in twist.support)
    assert twist.window_bijectivity(9)


def test_endo_round_trip():
    h_hat = StepMap.uniform_strips([identity_endo(NaturalNumbers()),
                                    successor_endo()])
    assert endo_from_json(endo_to_json(h_hat)) == h_hat


def test_pair_model_round_trip_and_schema():
    pm = PairModel("nat", 50, constant_endo(successor_endo()))
    blob = pair_model_to_json(pm)
    jsonschema.validate(blob, load_schema("pair_model"))
    back = pair_model_from_json(blob)
    assert back.structure == pm.structure
    assert back.window == pm.window
    assert back.image == pm.image


def test_certificate_json_and_schema():
    schema = load_schema("certificate")
    h_hat = StepMap.uniform_strips([identity_endo(NaturalNumbers()),
                                    successor_endo()])
    cert = approximate_random_endo(h_hat, None, Frac(1, 8), 100)
    blob = certificate_to_json(cert)
    jsonschema.validate(blob, schema)
    assert blob["kind"] == "certificate"
    assert parse_frac(blob["bound"]) == cert.bound

    p1 = PairModel("nat", 50, constant_endo(successor_endo()))
    p2 = PairModel("nat", 50, constant_endo(identity_endo(NaturalNumbers())))
    ref = certify_epsilon_isomorphism(p1, p2, Frac(1, 4))
    blob2 = certificate_to_json(ref)
    jsonschema.validate(blob2, schema)
    assert blob2["kind"] == "refusal"

    # one certificate type: each construction keeps its own optional keys
    base = {"kind", "bound", "eps", "window", "cells", "lines"}
    certs = {"approximator": (cert, base),
             "pair": (certify_epsilon_isomorphism(p2, p1, Frac(1, 4)), base)}
    split = base | {"residual", "allocations"}
    for expr, element, keys in [
            ("pure", "successor", base | {"residual"}),
            ("product(pure,pure)", "L.successor", split),
            ("wreath(pure,pure,m=2)", "b0.successor", split | {"notes"}),
            ("findex(parity,shift2)", "coset0", split | {"notes"})]:
        pres = parse_group_expr(expr)
        certs[expr] = (pres.approximate(constant_endo(pres.elements[element]),
                                        Frac(1, 8), 40), keys)
    for name, (c, keys) in certs.items():
        blob = certificate_to_json(c)
        jsonschema.validate(blob, schema)
        assert set(blob) == keys, name
        assert parse_frac(blob["bound"]) == c.bound <= c.eps, name


def test_realization_spec_round_trip_and_schema():
    spec = SampleStream(11).realization_spec()
    blob = realization_spec_to_json(spec)
    jsonschema.validate(blob, load_schema("realization"))
    back = realization_spec_from_json(blob)
    assert back.values() == spec.values()
    for (h1, p1), (h2, p2) in zip(spec.groups, back.groups):
        assert h1 == h2
        assert p1 == p2


def test_search_result_json():
    from belle_paire.geometry import exhaustive_pair_search
    res = exhaustive_pair_search(2, 2, 1, [(1, 0)])
    blob = search_result_to_json(res)
    assert parse_frac(blob["gap"]) == res.gap
    assert blob["candidates"] == res.candidates_checked


def test_json_dumps_deterministic():
    a = json_dumps({"b": Frac(1, 2), "a": [Frac(1, 3)]})
    b = json_dumps({"a": [Frac(1, 3)], "b": Frac(1, 2)})
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # well-formed


def test_rows_to_csv_uses_exact_rationals():
    out = rows_to_csv(["n", "bound"], [(1, Frac(1, 2)), (2, Frac(1, 4))])
    lines = out.strip().split("\n")
    assert lines[0] == "n,bound"
    assert lines[1] == "1,1/2"
    assert lines[2] == "2,1/4"


def test_load_baseline_package_data():
    data = load_baseline("search")
    assert "q2_dim2_grid2_span_e0" in data
    with pytest.raises(FileNotFoundError):
        load_baseline("no_such_baseline")


def test_baseline_env_override(tmp_path, monkeypatch):
    store_baseline("search", {"key": {"gap": "1/2"}}, str(tmp_path))
    monkeypatch.setenv("BELLE_PAIRE_BASELINES", str(tmp_path))
    assert load_baseline("search") == {"key": {"gap": "1/2"}}
    monkeypatch.delenv("BELLE_PAIRE_BASELINES")
    assert "q2_dim2_grid2_span_e0" in load_baseline("search")
