"""Command-line front end.

Exit codes: 0 success; 1 only for a computed refusal, budget violation or
baseline mismatch, with its payload on stdout; 2 malformed input (any
ValueError or OSError: bad values, grammar or JSON, a zero denominator, a
non-natural table point, a group expression nested too deep, an unreadable
file); 3 a failed precondition (NonInjectiveOnWindow, StructuralMismatch,
SearchGuardExceeded).  main() is the one place that maps exceptions to
these codes.  All emitted numbers are exact rationals; reruns
with the same arguments produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from .approx import (
    OrbitClassifier,
    approximate_by_automorphisms,
    defect_profile,
    orbit_decompose,
    strip_lift,
)
from .geometry import (
    GeometrySpec,
    SearchGuardExceeded,
    closed_set_size,
    epsilon_lower_bound,
    exhaustive_pair_search,
    exhaustive_pair_search_pure,
    min_k_for_delta,
)
from .groups import parse_group_expr
from .measure import Frac, RationalSet, StepMap, l1_distance
from .random_endo import (
    PairModel,
    StructuralMismatch,
    apply_random_endo,
    certify_epsilon_isomorphism,
    constant_endo,
    hausdorff_gap,
    max_strip_probe_distance,
)
from .realization import assemble_realization, verify_probability_identity
from .sampling import SampleStream
from .serialize import (
    _json_int,
    certificate_to_json,
    frac_str,
    injection_from_json,
    json_dumps,
    load_baseline,
    pair_model_from_json,
    parse_frac,
    realization_spec_from_json,
    rows_to_csv,
    search_result_to_json,
)
from .structures import (
    FqVectors,
    NaturalNumbers,
    NonInjectiveOnWindow,
    basis_shift_endo,
    identity_endo,
    shift_endo,
    successor_endo,
)

__all__ = ["main"]


class CliInputError(ValueError):
    """Malformed input: exit 2."""


def _emit(args: argparse.Namespace, payload: dict, csv_table=None) -> None:
    if args.format == "csv" and csv_table is not None:
        header, rows = csv_table
        sys.stdout.write(rows_to_csv(header, rows))
    else:
        sys.stdout.write(json_dumps(payload))


def parse_endo(text: str):
    """identity | successor | x+K | shift:K | fq-shift:Q | table:[[x,y],...]"""
    text = text.strip()
    if text == "identity":
        return identity_endo(NaturalNumbers())
    if text == "successor":
        return successor_endo()
    if text.startswith("x+"):
        return shift_endo(int(text[2:]))
    if text.startswith("shift:"):
        return shift_endo(int(text[6:]))
    if text.startswith("fq-shift:"):
        return basis_shift_endo(int(text[9:]))
    if text.startswith("table:"):
        try:
            return injection_from_json({"kind": "table",
                                        "entries": json.loads(text[6:])})
        except NonInjectiveOnWindow:
            raise
        except (ValueError, TypeError) as e:
            raise CliInputError(f"bad table payload: {e}") from None
    raise CliInputError(f"unknown endo {text!r}")


def _parse_pair(text: str, window: int) -> PairModel:
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            blob = json.load(fh)
        try:
            return pair_model_from_json(blob)
        except (KeyError, TypeError) as e:
            raise CliInputError(f"bad pair model {text[1:]!r}: {e!r}") from None
    if ":" in text:
        dom_name, _, endo_name = text.partition(":")
        # each preset image is built only when it is the one named
        if dom_name == "pure":
            dom = NaturalNumbers()
            endos = {"identity": lambda: identity_endo(dom),
                     "successor": successor_endo}
        elif dom_name in ("fq2", "fq3"):
            q = int(dom_name[2:])
            dom = FqVectors(q)
            endos = {"identity": lambda: identity_endo(dom),
                     "shift": lambda: basis_shift_endo(q)}
        else:
            raise CliInputError(f"unknown pair carrier {dom_name!r}")
        if endo_name not in endos:
            raise CliInputError(f"unknown pair image {endo_name!r}; "
                                f"known: {', '.join(sorted(endos))}")
        return PairModel(dom.describe(), window,
                         constant_endo(endos[endo_name]()))
    raise CliInputError(f"cannot parse pair descriptor {text!r}")


# --- subcommands --------------------------------------------------------------

def cmd_approx_endo(args: argparse.Namespace) -> int:
    tau = parse_endo(args.endo)
    n = args.n
    if n < 1:
        raise CliInputError("--n must be >= 1")
    cls = OrbitClassifier(tau)
    sigmas = approximate_by_automorphisms(tau, n, cls)
    prof = defect_profile(tau, sigmas, args.window)
    bijective = all(s.window_bijectivity(args.window) for s in sigmas)
    hist = Counter(prof.counts)
    dec = orbit_decompose(tau, min(args.window, 2000), classifier=cls)
    preview_pts = tau.domain.window(min(args.window, 8))
    previews = [{"sigma": i,
                 "images": [[repr(x), repr(s.apply(x))] for x in preview_pts]}
                for i, s in enumerate(sigmas[:4])]
    payload = {"tau": tau.description, "n": n, "window": args.window,
               "max_defect": prof.max_defect,
               "defect_histogram": {str(k): v for k, v in sorted(hist.items())},
               "undetermined": len(prof.undetermined_codes),
               "bijective": bijective,
               "orbits": dec.orbit_count,
               "semi_orbits": dec.semi_orbit_count,
               "sigma_previews": previews}
    rows = [(i, s.description) for i, s in enumerate(sigmas)]
    _emit(args, payload, (["sigma", "description"], rows))
    return 0 if prof.max_defect <= 1 and bijective else 1


def _lift_distances(tau, sigmas, size: int):
    """(a, L1 distance of the strip lift from tau on the constant a), a in [0, size)."""
    g_hat, h_hat = strip_lift(sigmas), constant_endo(tau)
    for a in tau.domain.window(size):
        f = StepMap.constant(a)
        yield a, l1_distance(apply_random_endo(g_hat, f),
                             apply_random_endo(h_hat, f))


def cmd_lift(args: argparse.Namespace) -> int:
    tau = parse_endo(args.endo)
    n = args.n
    tau.validate_window(args.alphabet)  # the lift reads the alphabet's points
    sigmas = approximate_by_automorphisms(tau, n)
    worst = Frac(0)
    formula_ok = True
    rows = []
    tau_row = tau.window_codes(args.alphabet)
    sigma_rows = [s.window_codes(args.alphabet) for s in sigmas]
    for k, (a, d) in enumerate(_lift_distances(tau, sigmas, args.alphabet)):
        cell = Frac(sum(row[k] != tau_row[k] for row in sigma_rows), n)
        formula_ok = formula_ok and d == cell
        worst = max(worst, d)
        rows.append((repr(a), d))
    payload = {"tau": tau.description, "n": n,
               "alphabet": args.alphabet,
               "max_distance": frac_str(worst), "bound": frac_str(Frac(1, n)),
               "matches_cell_formula": formula_ok,
               "within_bound": worst <= Frac(1, n)}
    _emit(args, payload, (["point", "distance"], rows))
    return 0 if formula_ok and worst <= Frac(1, n) else 1


def cmd_pair_certify(args: argparse.Namespace) -> int:
    pair1 = _parse_pair(args.pair1, args.window)
    pair2 = _parse_pair(args.pair2, args.window)
    obstruction = None
    if args.obstruction:
        try:
            ob = json.loads(args.obstruction)
            obstruction = {k: _json_int(ob[k], k) for k in ("q", "dim", "grid")}
            obstruction["subspace"] = [
                tuple(_json_int(c, "subspace entry") for c in g)
                for g in ob["subspace"]]
        except (ValueError, TypeError, KeyError) as e:
            raise CliInputError(f"bad obstruction descriptor: {e}") from None
    result = certify_epsilon_isomorphism(pair1, pair2, args.eps, obstruction)
    payload = certificate_to_json(result)
    out = args.out
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json_dumps(payload))
    _emit(args, payload)
    return 0 if result.ok else 1


def cmd_pair_distance(args: argparse.Namespace) -> int:
    pair1 = _parse_pair(args.pair1, args.window)
    pair2 = _parse_pair(args.pair2, args.window)
    gap = hausdorff_gap(pair1.image, pair2.image, args.alphabet)
    payload = {"structure": pair1.structure, "window": args.window,
               "alphabet": args.alphabet,
               "upper": frac_str(gap.upper), "lower": frac_str(gap.lower)}
    _emit(args, payload,
          (["side", "value"],
           [("upper", gap.upper), ("lower", gap.lower)]))
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    if args.grid < 1:
        raise CliInputError("--grid must be >= 1")
    pres = parse_group_expr(args.expr)
    name = args.element
    if name is None:
        named = sorted(n for n in pres.elements
                       if not n.rsplit(".", 1)[-1] == "identity")
        name = named[0] if named else "identity"
    if name not in pres.elements:
        raise CliInputError(f"unknown element {name!r}; known: "
                            f"{', '.join(sorted(pres.elements))}")
    h_hat = constant_endo(pres.elements[name])
    cert = pres.approximate(h_hat, args.eps, args.window)
    strips = [(Frac(i, args.grid), Frac(i + 1, args.grid))
              for i in range(args.grid)]
    alphabet = pres.domain.window(args.alphabet)
    measured, witness = max_strip_probe_distance(cert.g_hat, h_hat, strips,
                                                 alphabet)
    payload = {"expr": args.expr, "element": name,
               "certificate": certificate_to_json(cert),
               "measured_max": frac_str(measured),
               "probe_strips": args.grid,
               "probe_alphabet": args.alphabet,
               "within_budget": measured <= args.eps}
    rows = [(label, share) for label, share in cert.allocations] or \
           [("total", cert.bound)]
    _emit(args, payload, (["part", "budget"], rows))
    return 0 if measured <= args.eps else 1


def _parse_geometry(text: str) -> GeometrySpec:
    text = text.strip()
    if text == "disintegrated":
        return GeometrySpec("disintegrated")
    kind, _, q = text.partition(":")
    try:
        return GeometrySpec(kind, int(q))
    except ValueError as e:
        raise CliInputError(f"bad geometry {text!r}: {e}") from None


def cmd_bound(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise CliInputError("--n-max must be >= 1")
    geom = _parse_geometry(args.geometry)
    deltas = [parse_frac(d) for d in (args.delta or ["1/2", "1/4", "1/8"])]
    for d in deltas:
        if not 0 < d < 1:
            raise CliInputError(f"--delta {frac_str(d)} must lie strictly "
                                "between 0 and 1")
    ks = {}
    for d in deltas:
        try:
            ks[frac_str(d)] = min_k_for_delta(geom, d)
        except ValueError as e:
            ks[frac_str(d)] = str(e)
    rows = []
    for n in range(1, args.n_max + 1):
        rows.append((n, epsilon_lower_bound(n, False),
                     epsilon_lower_bound(n, True)))
    payload = {"geometry": args.geometry,
               "bounds": [{"n": n, "lower": frac_str(lo), "modular": frac_str(mo)}
                          for n, lo, mo in rows],
               "min_k": ks,
               "closed_set_sizes": {str(d): closed_set_size(geom, d)
                                    for d in range(0, 5)}}
    _emit(args, payload, (["n", "lower_bound", "modular_bound"], rows))
    return 0


def _parse_subspace(text: str, dim: int) -> list:
    text = text.strip()
    if text == "full":
        return [tuple(1 if j == i else 0 for j in range(dim))
                for i in range(dim)]
    gens = []
    for part in text.split(","):
        part = part.strip()
        if part.startswith("e"):
            i = int(part[1:])
            if not 0 <= i < dim:
                raise CliInputError(f"basis index {i} outside dim {dim}")
            gens.append(tuple(1 if j == i else 0 for j in range(dim)))
        else:
            gens.append(tuple(int(c) for c in part.split()))
    if not gens:
        raise CliInputError("empty subspace description")
    return gens


def _baseline_status(key: str, res) -> str:
    """match, MISMATCH or untracked: res against the search baseline key."""
    try:
        base = load_baseline("search")[key]
    except (FileNotFoundError, KeyError):
        return "untracked"
    match = (parse_frac(base["gap"]) == res.gap
             and base["candidates"] == res.candidates_checked)
    return "match" if match else "MISMATCH"


def cmd_search(args: argparse.Namespace) -> int:
    if args.pure:
        try:
            m, subset = (int(x) for x in args.pure.split(","))
        except ValueError:
            raise CliInputError("--pure takes 'm,subset_size'") from None
        res = exhaustive_pair_search_pure(m, args.grid, subset)
        key = None
    else:
        gens = _parse_subspace(args.subspace, args.dim)
        res = exhaustive_pair_search(args.q, args.dim, args.grid, gens)
        key = args.baseline_key
        if key is None and args.subspace == "e0":
            key = f"q{args.q}_dim{args.dim}_grid{args.grid}_span_e0"
        if key is None and args.subspace == "full":
            key = f"q{args.q}_dim{args.dim}_grid{args.grid}_full"
    payload = search_result_to_json(res)
    status = "untracked"
    if key is not None:
        status = _baseline_status(key, res)
        payload["baseline_key"] = key
    payload["baseline"] = status
    _emit(args, payload,
          (["field", "value"], sorted((k, str(v)) for k, v in payload.items())))
    return 1 if status == "MISMATCH" else 0


def cmd_realize(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            try:
                spec = realization_spec_from_json(json.load(fh))
            except (ValueError, KeyError, TypeError) as e:
                raise CliInputError(f"bad realization spec: {e}") from None
    else:
        spec = SampleStream(args.seed).realization_spec()
    f = assemble_realization(spec)
    values = spec.values()
    events = [(RationalSet.unit_square(), lambda v: True),
              (RationalSet.vertical_strip(Frac(0), Frac(1, 2)),
               lambda v: v == values[0])]
    events += [(RationalSet.unit_square(), lambda v, t=t: v == t)
               for t in values]
    report = verify_probability_identity(f, spec, events)
    payload = {"groups": len(spec.groups), "values": len(values),
               "cells": len(f.cells), "events": len(events),
               "identity_holds": report.ok,
               "rows": [{"event": r.event_index, "group": r.group_index,
                         "lhs": frac_str(r.lhs), "rhs": frac_str(r.rhs)}
                        for r in report.rows]}
    rows = [(r.event_index, r.group_index, r.lhs, r.rhs) for r in report.rows]
    _emit(args, payload, (["event", "group", "lhs", "rhs"], rows))
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as e:  # a failing check is a result, not a crash
            checks.append((name, False, f"{type(e).__name__}: {e}"))
            return
        checks.append((name, ok, ""))

    def defect_ok():
        tau = successor_endo()
        prof = defect_profile(tau, approximate_by_automorphisms(tau, 8), 2000)
        return prof.max_defect <= 1

    def lift_ok():
        tau = shift_endo(2)
        sig = approximate_by_automorphisms(tau, 10)
        return all(d <= Frac(1, 10)
                   for _, d in _lift_distances(tau, sig, 30))

    def search_ok():
        res1 = exhaustive_pair_search(2, 2, 2, [(1, 0)])
        res2 = exhaustive_pair_search(2, 2, 2, [(1, 0)])
        return (res1 == res2
                and _baseline_status("q2_dim2_grid2_span_e0", res1) == "match")

    def realize_ok():
        spec = SampleStream(args.seed).realization_spec()
        f = assemble_realization(spec)
        events = [(RationalSet.unit_square(), lambda v: True)]
        return verify_probability_identity(f, spec, events).ok

    def compose_ok():
        pres = parse_group_expr("product(pure,pure)")
        h_hat = constant_endo(pres.elements["L.successor"])
        cert = pres.approximate(h_hat, Frac(1, 5), 60)
        strips = [(Frac(0), Frac(1, 2)), (Frac(1, 2), Frac(1))]
        d, _ = max_strip_probe_distance(cert.g_hat, h_hat, strips,
                                        pres.domain.window(20))
        return d <= Frac(1, 5)

    check("defect_bound", defect_ok)
    check("strip_lift", lift_ok)
    check("search_baseline", search_ok)
    check("realization_round_trip", realize_ok)
    check("combinator_budget", compose_ok)
    payload = {"checks": [{"name": n, "ok": ok, "error": err}
                          for n, ok, err in checks],
               "all_ok": all(ok for _, ok, _ in checks)}
    rows = [(n, "pass" if ok else "FAIL", err) for n, ok, err in checks]
    _emit(args, payload, (["check", "status", "error"], rows))
    return 0 if payload["all_ok"] else 1


# --- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gives a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="belle-paire",
        description="Desk-scale simulation and verification for randomized "
                    "countable structures and their elementary pairs.")
    p.add_argument("--window", type=int, default=100,
                   help="finite prefix [0,N) all checks run on (default 100)")
    p.add_argument("--grid", type=int, default=2,
                   help="grid granularity for searches and probes (default 2)")
    p.add_argument("--eps", default="1/10",
                   help="error budget as an exact rational 'p/q'")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled instances (default 0)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("approx-endo", help="sigma family and defect histogram")
    q.add_argument("--endo", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_approx_endo)

    q = sub.add_parser("lift", help="strip-lift distance vs the 1/n bound")
    q.add_argument("--endo", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alphabet", type=int, default=100)
    q.set_defaults(func=cmd_lift)

    q = sub.add_parser("pair-certify", help="epsilon-isomorphism certificate")
    q.add_argument("--pair1", required=True)
    q.add_argument("--pair2", required=True)
    q.add_argument("--obstruction", default=None,
                   help='JSON like {"q":2,"dim":2,"grid":2,"subspace":[[1,0]]} '
                        "(subspace = generator vectors) for a search-backed refusal")
    q.add_argument("--out", default=None, help="also write the certificate here")
    q.set_defaults(func=cmd_pair_certify)

    q = sub.add_parser("pair-distance", help="two-sided Hausdorff gap bounds")
    q.add_argument("--pair1", required=True)
    q.add_argument("--pair2", required=True)
    q.add_argument("--alphabet", type=int, default=20)
    q.set_defaults(func=cmd_pair_distance)

    q = sub.add_parser("compose", help="combinator approximator with budgets")
    q.add_argument("--expr", required=True)
    q.add_argument("--element", default=None)
    q.add_argument("--alphabet", type=int, default=20)
    q.set_defaults(func=cmd_compose)

    q = sub.add_parser("bound", help="counterexample bound tables")
    q.add_argument("--geometry", default="affine:2")
    q.add_argument("--n-max", type=int, default=4)
    q.add_argument("--delta", action="append", default=None)
    q.set_defaults(func=cmd_bound)

    q = sub.add_parser("search", help="exhaustive tiny-scale gap search")
    q.add_argument("--q", type=int, default=2)
    q.add_argument("--dim", type=int, default=2)
    q.add_argument("--subspace", default="e0")
    q.add_argument("--pure", default=None, help="'m,subset_size' pure-set run")
    q.add_argument("--baseline-key", default=None)
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("realize", help="assemble and verify a realization")
    q.add_argument("--spec", default=None, help="JSON spec path (else sampled)")
    q.set_defaults(func=cmd_realize)

    q = sub.add_parser("verify", help="run the built-in verification battery")
    q.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    """Run one subcommand; the one place that maps exceptions to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        if args.window < 1:
            raise CliInputError("--window must be >= 1")
        if getattr(args, "alphabet", 1) < 1:
            raise CliInputError("--alphabet must be >= 1")
        args.eps = parse_frac(args.eps)
        return args.func(args)
    # every precondition type is a ValueError, so this clause comes first
    except (NonInjectiveOnWindow, StructuralMismatch, SearchGuardExceeded) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
