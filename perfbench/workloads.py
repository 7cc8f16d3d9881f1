"""The four workloads: seeded inputs, the timed job, and the output checks.

Every workload builds its inputs with its own seeded random.Random, never
with the program's `sampling` module, so a change to `sampling` cannot
change a workload. Within a workload jobs are equal in size. Expected
values come from the benchmark's own code: closed forms, independent
enumerations and properties the method must have, all derived at set-up.
Nothing is a stored copy of the program's output.

A workload has `next_input()` (untimed), `run(inp)` (the timed job, calls
into the program only) and `check(inp, out)`, which returns a list of
error strings, empty when every output is right.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from belle_paire import approx, cli, measure, random_endo, structures

SRC = Path(approx.__file__).resolve().parent


# --- window-scan ---------------------------------------------------------------

SCAN_WINDOW = 600
SCAN_SIZES = 3       # family sizes n drawn per family and job
SCAN_SIZE_TOTAL = 24  # their sum, so every job builds the same number of sigmas


class _ScanFamily:
    """One injection tau with the closed form of its sigma family on [0, N).

    Points are handled as their enumeration codes: the naturals themselves,
    or the base-q digit code of an F_q vector, under which the basis shift
    is k -> q*k. On its rooted chain a point has position j (x // k for
    shift+k, the lowest nonzero basis index for the basis shift) and the
    chain's root is the point j steps back. The zero vector is fixed.
    """

    def __init__(self, label: str, tau, step: int, q: int | None):
        self.label = label
        self.tau = tau
        self.q = q
        self.step = step
        n = SCAN_WINDOW
        if q is None:  # shift+step on the naturals
            self.tau_code = [x + step for x in range(n)]
            pos = [x // step for x in range(n)]
            self.root = [x % step for x in range(n)]
        else:  # basis shift on F_q
            self.tau_code = [x * q for x in range(n)]
            pos, self.root = [-1], [0]
            for x in range(1, n):
                j, r = 0, x
                while r % q == 0:
                    j, r = j + 1, r // q
                pos.append(j)
                self.root.append(r)
        self.pos = pos
        self.by_pos: dict = {}
        for x, j in enumerate(pos):
            if j >= 1:
                self.by_pos.setdefault(j, []).append(x)
        self.max_pos = max(pos)
        self._codes: dict = {}  # F_q vector -> its code, filled by code()

    def back(self, x: int, steps: int) -> int:
        """The point `steps` positions earlier on x's chain."""
        if self.q is None:
            return x - steps * self.step
        return x // self.q ** steps

    def expected_images(self, n: int, i: int) -> list:
        """sigma_i's image codes: a position j >= 1 with j = i+1 (mod n)
        goes to its root when j == i+1 and n-1 steps back otherwise; every
        other point goes to tau(x)."""
        out = list(self.tau_code)
        for j in range(i + 1, self.max_pos + 1, n):
            for x in self.by_pos.get(j, ()):
                out[x] = self.root[x] if j == i + 1 else self.back(x, n - 1)
        return out

    def code(self, point) -> int:
        if self.q is None:
            return point
        got = self._codes.get(point)
        if got is None:
            got = self._codes[point] = sum(c * self.q ** k for k, c in point.entries)
        return got


class WindowScan:
    """Criterion 01's check: build, profile and verify sigma families."""

    name = "window-scan"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.families = [
            _ScanFamily("successor", structures.successor_endo(), 1, None),
            _ScanFamily("shift+2", structures.shift_endo(2), 2, None),
            _ScanFamily("F_2 basis shift", structures.basis_shift_endo(2), 1, 2),
            _ScanFamily("F_3 basis shift", structures.basis_shift_endo(3), 1, 3),
        ]

    def next_input(self) -> list:
        """Per family, SCAN_SIZES family sizes summing to SCAN_SIZE_TOTAL."""
        sizes = []
        for _ in self.families:
            cuts = sorted(self.rng.sample(range(1, SCAN_SIZE_TOTAL), SCAN_SIZES - 1))
            bounds = [0] + cuts + [SCAN_SIZE_TOTAL]
            sizes.append([b - a for a, b in zip(bounds, bounds[1:])])
        return sizes

    def run(self, inp: list) -> list:
        out = []
        for fam, sizes in zip(self.families, inp):
            cls = approx.OrbitClassifier(fam.tau)
            runs = []
            for n in sizes:
                sigmas = approx.approximate_by_automorphisms(fam.tau, n, cls)
                prof = approx.defect_profile(fam.tau, sigmas, SCAN_WINDOW)
                bij = [s.window_bijectivity(SCAN_WINDOW) for s in sigmas]
                runs.append((sigmas, prof, bij))
            out.append(runs)
        return out

    def check(self, inp: list, out: list) -> list:
        errors = []
        for fam, sizes, runs in zip(self.families, inp, out):
            pts = fam.tau.domain.window(SCAN_WINDOW)
            if [fam.code(p) for p in pts] != list(range(SCAN_WINDOW)):
                errors.append(f"{fam.label}: window is not enumerated in code order")
                continue
            for n, (sigmas, prof, bij) in zip(sizes, runs):
                errors += self._check_family(fam, n, pts, sigmas, prof, bij)
        return errors

    @staticmethod
    def _check_family(fam, n, pts, sigmas, prof, bij) -> list:
        where = f"{fam.label} n={n}"
        if len(sigmas) != n:
            return [f"{where}: {len(sigmas)} sigmas"]
        errors = []
        if not all(bij):
            errors.append(f"{where}: window_bijectivity is False")
        defects = [0] * SCAN_WINDOW
        for i, s in enumerate(sigmas):
            got = [fam.code(y) for y in s.apply_window(pts)]
            want = fam.expected_images(n, i)
            if got != want:
                x = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
                errors.append(f"{where} sigma_{i}: image of {x} is {got[x]}, "
                              f"closed form {want[x]}")
            if len(set(got)) != SCAN_WINDOW:
                errors.append(f"{where} sigma_{i}: images on the window collide")
            for x, (a, t) in enumerate(zip(got, fam.tau_code)):
                defects[x] += a != t
        if max(defects) > 1:
            errors.append(f"{where}: a point disagrees with tau in "
                          f"{max(defects)} sigmas")
        if list(prof.counts) != defects or prof.undetermined:
            errors.append(f"{where}: defect_profile differs from the images")
        return errors


# --- certify -------------------------------------------------------------------

CERT_WINDOW = 40
CERT_CELLS = 10  # eps is drawn from [1/10, 1/9), so ceil(1/eps) == 10
OBSTRUCTION = '{"q": 2, "dim": 2, "grid": 2, "subspace": [[1, 0]]}'


def gl2_f2_order() -> int:
    """|GL_2(F_2)|, counted from the determinant."""
    return sum(1 for a, b, c, d in itertools.product(range(2), repeat=4)
               if (a * d - b * c) % 2)


def run_cli(argv: list) -> tuple:
    """cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Certify:
    """pair-certify through cli.main: two certificates and one refusal."""

    name = "certify"

    def __init__(self, seed: int):
        import jsonschema  # here, so only this workload's set-up pays for it
        self.rng = random.Random(seed)
        schema = json.loads((SRC / "schemas" / "certificate.schema.json")
                            .read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.refusal_candidates = gl2_f2_order() ** 4
        self.seen: set = set()

    def next_input(self) -> Fraction:
        """A fresh eps in [1/CERT_CELLS, 1/(CERT_CELLS-1))."""
        while True:
            den = self.rng.randint(10 ** 4, 10 ** 6)
            lo = -(-den // CERT_CELLS)
            hi = -(-den // (CERT_CELLS - 1)) - 1
            eps = Fraction(self.rng.randint(lo, hi), den)
            if eps not in self.seen:
                self.seen.add(eps)
                return eps

    def run(self, eps: Fraction) -> list:
        head = ["--eps", str(eps), "--window", str(CERT_WINDOW), "pair-certify"]
        return [
            run_cli(head + ["--pair1", "pure:identity", "--pair2", "pure:successor"]),
            run_cli(head + ["--pair1", "fq2:identity", "--pair2", "fq2:shift"]),
            run_cli(head + ["--pair1", "fq2:identity", "--pair2", "fq2:shift",
                            "--obstruction", OBSTRUCTION]),
        ]

    def check(self, eps: Fraction, out: list) -> list:
        errors = []
        cells = -(-eps.denominator // eps.numerator)
        for k, ((code, text), want) in enumerate(zip(out, (0, 0, 1))):
            where = f"eps={eps} call {k}"
            if code != want:
                errors.append(f"{where}: exit code {code}, expected {want}")
            try:
                blob = json.loads(text)
            except ValueError:
                errors.append(f"{where}: stdout is not JSON")
                continue
            bad = next(self.validator.iter_errors(blob), None)
            if bad is not None:
                errors.append(f"{where}: schema: {bad.message}")
                continue
            if Fraction(blob["eps"]) != eps:
                errors.append(f"{where}: eps echoed as {blob['eps']}")
            if want == 0:
                errors += self._check_certificate(where, blob, eps, cells)
            else:
                errors += self._check_refusal(where, blob, eps)
        return errors

    @staticmethod
    def _check_certificate(where, blob, eps, cells) -> list:
        if blob["kind"] != "certificate":
            return [f"{where}: {blob['kind']}, expected a certificate"]
        errors = []
        if Fraction(blob["bound"]) > eps:
            errors.append(f"{where}: bound {blob['bound']} above eps")
        if blob.get("cells") != cells:
            errors.append(f"{where}: {blob.get('cells')} cells, expected {cells}")
        return errors

    def _check_refusal(self, where, blob, eps) -> list:
        if blob["kind"] != "refusal":
            return [f"{where}: {blob['kind']}, expected a refusal"]
        ev = blob.get("evidence", {})
        errors = []
        if Fraction(ev.get("search_gap", "0")) != 1 or not 1 > eps:
            errors.append(f"{where}: search gap {ev.get('search_gap')}, expected 1 > eps")
        if ev.get("candidates") != self.refusal_candidates:
            errors.append(f"{where}: {ev.get('candidates')} candidates, "
                          f"expected {self.refusal_candidates}")
        return errors


# --- oracle --------------------------------------------------------------------

ORACLE_DEN = 6        # cell edges on the 1/6 grid
ORACLE_STRIPS = 3     # omega strips of every instance
ORACLE_ROWS = 2       # f is an ORACLE_STRIPS x ORACLE_ROWS grid
ORACLE_ALPHABET = 4
ORACLE_TWIST = 4      # twists permute [0, 4)
ORACLE_POOL = list(range(6))


class Oracle:
    """Criterion 08's check: dist_to_image against brute-force enumeration.

    Every instance has the same shape, so jobs are equal in size: h_hat has
    one strip per omega strip, each with its own injection, so 3 cells, and
    f is a 3 x 2 grid on the same columns that uses every letter, so 4
    cells. Drawing 1-3 cells per instance made the dearest jobs twice the
    cheapest and moved the 90th percentile by 10% between seeds.
    """

    name = "oracle"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set = set()

    def _draw(self) -> tuple:
        rng = self.rng
        cuts = tuple(sorted(rng.sample(range(1, ORACLE_DEN), ORACLE_STRIPS - 1)))
        h_vals = []
        for _ in range(ORACLE_STRIPS):
            img = list(range(ORACLE_TWIST))
            rng.shuffle(img)
            h_vals.append((rng.randrange(2), tuple(img)))
        ys = (0, *sorted(rng.sample(range(1, ORACLE_DEN), ORACLE_ROWS - 1)), ORACLE_DEN)
        f_vals = tuple(rng.randrange(ORACLE_ALPHABET)
                       for _ in range(ORACLE_STRIPS * ORACLE_ROWS))
        return cuts, tuple(h_vals), ys, f_vals

    def next_input(self) -> tuple:
        while True:
            desc = self._draw()
            _, h_vals, _, f_vals = desc
            if (len(set(h_vals)) == ORACLE_STRIPS and len(set(f_vals)) == ORACLE_ALPHABET
                    and desc not in self.seen):
                self.seen.add(desc)
                return self._build(*desc)

    @staticmethod
    def _build(cuts, h_vals, ys, f_vals) -> tuple:
        F = Fraction
        xs = [F(c, ORACLE_DEN) for c in (0, *cuts, ORACLE_DEN)]
        strips = list(zip(xs, xs[1:]))
        reps = [structures.identity_endo(structures.NaturalNumbers()),
                structures.successor_endo()]
        h_cells = []
        for (lo, hi), (r, img) in zip(strips, h_vals):
            rep = reps[r]
            table = {x: y for x, y in enumerate(img) if x != y}
            value = (structures.window_permutation(rep.domain, table).compose(rep)
                     if table else rep)
            h_cells.append((measure.RationalSet.vertical_strip(lo, hi), value))
        vals = iter(f_vals)
        f_cells = [(measure.RationalSet.from_rect(lo, hi, F(c, ORACLE_DEN), F(d, ORACLE_DEN)),
                    next(vals))
                   for lo, hi in strips for c, d in zip(ys, ys[1:])]
        return measure.StepMap(f_cells), measure.StepMap(h_cells), strips

    def run(self, inp: tuple) -> tuple:
        f, h_hat, strips = inp
        return (random_endo.dist_to_image(f, h_hat),
                random_endo.brute_force_dist_to_image(f, h_hat, strips, ORACLE_POOL))

    @staticmethod
    def check(inp: tuple, out: tuple) -> list:
        exact, brute = out
        errors = []
        if exact != brute:
            errors.append(f"dist_to_image {exact} differs from brute force {brute}")
        if not 0 <= exact <= 1:
            errors.append(f"dist_to_image {exact} outside [0, 1]")
        return errors


# --- search --------------------------------------------------------------------

def _q2_search_case(subspace: str, gens: list) -> dict:
    """q=2, dim 2, grid 2: GL_2(F_2) acting on F_2^2, targets the span."""
    mats = [m for m in itertools.product(range(2), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 2]
    points = list(itertools.product(range(2), repeat=2))
    span = {tuple(sum(c * g[i] for c, g in zip(cs, gens)) % 2 for i in range(2))
            for cs in itertools.product(range(2), repeat=len(gens))}
    key = {"e0": "q2_dim2_grid2_span_e0", "full": "q2_dim2_grid2_full"}.get(subspace)
    return {"argv": ["search", "--q", "2", "--dim", "2", "--subspace", subspace],
            "options": mats, "points": points, "targets": sorted(span),
            "apply": lambda m, v: ((m[0] * v[0] + m[1] * v[1]) % 2,
                                   (m[2] * v[0] + m[3] * v[1]) % 2),
            "key": key}


def _pure_search_case(subset: int) -> dict:
    """m=3, grid 2: Sym(3) acting on [0, 3), targets [0, subset)."""
    return {"argv": ["search", "--pure", f"3,{subset}"],
            "options": list(itertools.permutations(range(3))),
            "points": list(range(3)), "targets": list(range(subset)),
            "apply": lambda p, a: p[a], "key": None}


SEARCH_GRID = 2


def enumerate_min_gap(case: dict) -> Fraction:
    """The least two-sided gap over every grid x grid cell assignment.

    Column j of a candidate holds one option per row. Its forward share is
    the worst probe point's least row-disagreement with any one target, its
    backward share the worst target's least disagreement with any one
    point; the gap is the larger of the two sums over columns, over grid^2.
    """
    g = SEARCH_GRID
    opts, pts, tgts, ap = case["options"], case["points"], case["targets"], case["apply"]
    best = None
    for cells in itertools.product(opts, repeat=g * g):
        fwd = bwd = 0
        for j in range(g):
            col = cells[j * g:(j + 1) * g]
            miss = {(a, b): sum(ap(o, a) != b for o in col) for a in pts for b in tgts}
            fwd += max(min(miss[a, b] for b in tgts) for a in pts)
            bwd += max(min(miss[a, b] for a in pts) for b in tgts)
        gap = max(fwd, bwd)
        best = gap if best is None else min(best, gap)
    return Fraction(best, g * g)


class Search:
    """The tiny-scale gap searches through cli.main search."""

    name = "search"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cases = [_q2_search_case("e0", [(1, 0)]),
                      _q2_search_case("e1", [(0, 1)]),
                      _q2_search_case("1 1", [(1, 1)]),
                      _q2_search_case("full", [(1, 0), (0, 1)]),
                      _pure_search_case(1), _pure_search_case(2),
                      _pure_search_case(3)]
        baselines = json.loads((SRC / "baselines" / "search.json")
                               .read_text(encoding="utf-8"))
        for case in self.cases:
            case["gap"] = enumerate_min_gap(case)
            case["candidates"] = len(case["options"]) ** (SEARCH_GRID * SEARCH_GRID)
            case["tracked"] = case["key"] in baselines

    def next_input(self) -> list:
        """Every case once, in a seeded order."""
        order = list(range(len(self.cases)))
        self.rng.shuffle(order)
        return order

    def run(self, order: list) -> list:
        return [run_cli(self.cases[k]["argv"]) for k in order]

    def check(self, order: list, out: list) -> list:
        errors = []
        for k, (code, text) in zip(order, out):
            case = self.cases[k]
            where = " ".join(case["argv"])
            try:
                blob = json.loads(text)
                gap, fwd, bwd = (Fraction(blob[f]) for f in ("gap", "forward", "backward"))
            except (ValueError, KeyError):
                errors.append(f"{where}: exit {code}, unreadable output")
                continue
            if code != 0:
                errors.append(f"{where}: exit code {code}")
            if gap != max(fwd, bwd):
                errors.append(f"{where}: gap {gap} is not max({fwd}, {bwd})")
            if blob.get("candidates") != case["candidates"]:
                errors.append(f"{where}: {blob.get('candidates')} candidates, "
                              f"expected {case['candidates']}")
            if gap != case["gap"]:
                errors.append(f"{where}: gap {gap}, enumeration finds {case['gap']}")
            if case["tracked"] and blob.get("baseline") != "match":
                errors.append(f"{where}: baseline {blob.get('baseline')}")
        return errors


WORKLOADS = {w.name: w for w in (WindowScan, Certify, Oracle, Search)}
