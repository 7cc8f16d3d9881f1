"""Exact-rational JSON and CSV codecs plus regression-baseline storage.

Every numeric is carried as a string "p/q" (or "p" for integers); floats
are rejected on input and never produced on output.  Encoders cover the
descriptor types that cross the CLI boundary: rational sets, profiles,
step maps over a value codec, a small family of named injections, pair
models, certificates, search results, and realization specs.  Baselines
live in the package's baselines/ directory unless BELLE_PAIRE_BASELINES
points somewhere else.
"""
from __future__ import annotations

import csv
import io
import json
import os
import re
from fractions import Fraction
from importlib import resources

from .measure import Profile, RationalSet, Rect, StepMap
from .structures import (
    Domain,
    FqVector,
    FqVectors,
    IdentityInjection,
    LinearInjection,
    NaturalNumbers,
    ShiftInjection,
    TableInjection,
    WindowInjection,
)

__all__ = [
    "frac_str",
    "parse_frac",
    "rational_set_to_json",
    "rational_set_from_json",
    "profile_to_json",
    "profile_from_json",
    "injection_to_json",
    "injection_from_json",
    "endo_to_json",
    "endo_from_json",
    "pair_model_to_json",
    "pair_model_from_json",
    "certificate_to_json",
    "search_result_to_json",
    "realization_spec_to_json",
    "realization_spec_from_json",
    "json_dumps",
    "rows_to_csv",
    "load_baseline",
    "store_baseline",
    "load_schema",
]


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        raise ValueError("floats are not exact; pass a 'p/q' string")
    if not isinstance(s, str):
        raise ValueError(f"cannot parse a rational from {s!r}")
    s = s.strip()
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise ValueError(f"not a 'p/q' rational: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rational_set_to_json(s: RationalSet) -> dict:
    return {"rects": [[frac_str(r.x0), frac_str(r.x1),
                       frac_str(r.y0), frac_str(r.y1)] for r in s.rects]}


def rational_set_from_json(d: dict) -> RationalSet:
    return RationalSet.from_rects(
        [Rect(*map(parse_frac, row)) for row in d["rects"]])


def profile_to_json(p: Profile) -> list:
    return [[frac_str(x0), frac_str(x1), frac_str(v)] for x0, x1, v in p.pieces]


def profile_from_json(rows) -> Profile:
    return Profile([tuple(map(parse_frac, row)) for row in rows])


# --- injections -------------------------------------------------------------

def _domain_to_json(dom: Domain) -> str:
    return dom.describe()


def domain_from_json(name: str) -> Domain:
    if name == "nat":
        return NaturalNumbers()
    if isinstance(name, str) and name.startswith("fqvec(") and name.endswith(")"):
        return FqVectors(int(name[6:-1]))
    raise ValueError(f"unknown carrier {name!r}")


def injection_to_json(h: WindowInjection) -> dict:
    if isinstance(h, IdentityInjection):
        return {"kind": "identity", "carrier": _domain_to_json(h.domain)}
    if isinstance(h, ShiftInjection):
        return {"kind": "shift", "offset": h.offset}
    if isinstance(h, TableInjection):
        code = h.domain.index_of  # the entries are codes
        return {"kind": "table",
                "entries": sorted((code(x), h.apply_code(code(x)))
                                  for x in h.support),
                "carrier": _domain_to_json(h.domain)}
    if isinstance(h, LinearInjection):
        return {"kind": "linear", "q": h.q, "tail": h.tail,
                "images": [list(v.dense(max(v.max_index + 1, 1)))
                           for v in h.images]}
    raise ValueError(f"no JSON form for injection {h.description!r}")


def _json_int(v, what: str) -> int:
    """v if it is a JSON integer; a float, string or bool is refused."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def injection_from_json(d: dict) -> WindowInjection:
    kind = d["kind"]
    if kind == "identity":
        return IdentityInjection(domain_from_json(d.get("carrier", "nat")))
    if kind == "shift":
        return ShiftInjection(_json_int(d["offset"], "offset"))
    if kind == "table":
        dom = domain_from_json(d.get("carrier", "nat"))
        table = {}
        for x, y in d["entries"]:  # codes
            x, y = (dom.point_at(_json_int(c, "table entry")) for c in (x, y))
            if table.setdefault(x, y) != y:
                raise ValueError(f"table key {x} is listed with images "
                                 f"{table[x]} and {y}")
        return TableInjection(dom, table)
    if kind == "linear":
        q = _json_int(d["q"], "q")
        images = tuple(FqVector.from_coeffs(
            q, [_json_int(c, "image entry") for c in row]) for row in d["images"])
        return LinearInjection(q, images, d.get("tail", "identity"))
    raise ValueError(f"unknown injection kind {kind!r}")


def endo_to_json(h_hat: StepMap) -> dict:
    return {"cells": [[rational_set_to_json(s), injection_to_json(v)]
                      for s, v in h_hat.cells]}


def endo_from_json(d: dict) -> StepMap:
    return StepMap([(rational_set_from_json(s), injection_from_json(v))
                    for s, v in d["cells"]])


def pair_model_to_json(pm) -> dict:
    return {"structure": pm.structure, "window": pm.window,
            "image": endo_to_json(pm.image)}


def pair_model_from_json(d: dict):
    from .random_endo import PairModel
    return PairModel(d["structure"], _json_int(d["window"], "window"),
                     endo_from_json(d["image"]))


# --- certificates and reports ----------------------------------------------

def _line_to_json(line) -> dict:
    return {"rep": line.rep_index, "description": line.rep_description,
            "measure": frac_str(line.measure), "max_defect": line.max_defect,
            "pieces": line.pieces, "contribution": frac_str(line.contribution)}


def _jsonable(v):
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def certificate_to_json(cert) -> dict:
    """JSON for a Certificate or a Refusal."""
    if not cert.ok:
        return {"kind": "refusal", "reason": cert.reason,
                "eps": frac_str(cert.eps), "evidence": _jsonable(cert.evidence)}
    out = {"kind": "certificate", "bound": frac_str(cert.bound),
           "eps": frac_str(cert.eps), "window": cert.window,
           "cells": len(cert.g_hat.cells),
           "lines": [_line_to_json(l) for l in cert.lines]}
    if cert.residual is not None:
        out["residual"] = frac_str(cert.residual)
    if cert.notes:
        out["notes"] = list(cert.notes)
    if cert.allocations:
        out["allocations"] = [[label, frac_str(share)]
                              for label, share in cert.allocations]
    return out


def search_result_to_json(res) -> dict:
    return {"gap": frac_str(res.gap), "candidates": res.candidates_checked,
            "forward": frac_str(res.forward), "backward": frac_str(res.backward)}


# --- realization specs -------------------------------------------------------

def realization_spec_to_json(spec) -> dict:
    return {"groups": [
        {"home": rational_set_to_json(home),
         "pieces": [{"value": v, "density": profile_to_json(p)}
                    for v, p in pieces]}
        for home, pieces in spec.groups]}


def realization_spec_from_json(d: dict):
    from .realization import RealizationSpec
    return RealizationSpec([
        (rational_set_from_json(g["home"]),
         [(pc["value"], profile_from_json(pc["density"]))
          for pc in g["pieces"]])
        for g in d["groups"]])


# --- deterministic output ----------------------------------------------------

def json_dumps(obj) -> str:
    def default(v):
        if isinstance(v, Fraction):
            return frac_str(v)
        raise TypeError(f"not JSON serializable: {v!r}")
    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"


def rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([frac_str(c) if isinstance(c, Fraction) else c
                    for c in row])
    return buf.getvalue()


# --- baselines and schemas ---------------------------------------------------

def load_baseline(name: str) -> dict:
    env = os.environ.get("BELLE_PAIRE_BASELINES")
    path = os.path.join(env, f"{name}.json") if env else None
    if path and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    ref = resources.files("belle_paire").joinpath("baselines", f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def store_baseline(name: str, data: dict, directory: str):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json_dumps(data))


def load_schema(name: str) -> dict:
    ref = resources.files("belle_paire").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))
