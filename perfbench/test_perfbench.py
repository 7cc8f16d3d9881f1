"""Tests of the benchmark itself: its arithmetic and its output checks.

    python3 -m pytest perfbench

Each workload's check must pass the program's real output and reject one
corrupted copy of it.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- normalisation ---------------------------------------------------------

def test_normalise_scales_by_mean_kernel_time():
    # the machine runs at half the nominal speed: kernel 0.02 s for 0.01 nominal
    assert timing.normalise(0.5, 0.02, 0.02, nominal_s=0.01) == pytest.approx(0.25)
    # speed changes during the job: the mean of the two kernel times counts
    assert timing.normalise(0.3, 0.01, 0.02, nominal_s=0.01) == pytest.approx(0.2)
    assert timing.normalise(0.3, 0.01, 0.01, nominal_s=0.01) == pytest.approx(0.3)


def test_normalise_refuses_nonpositive_kernel_times():
    with pytest.raises(ValueError):
        timing.normalise(0.3, 0.0, 0.01)


def test_job_metrics_on_synthetic_times():
    jobs = [0.1] * 30 + [0.2] * 10
    m = timing.job_metrics(jobs)
    assert m["jobs_per_s"] == pytest.approx(40 / 5.0)
    assert m["job_p50_s"] == pytest.approx(0.1)
    assert m["job_p90_s"] == pytest.approx(0.2)


def test_p90_needs_forty_jobs():
    with pytest.raises(ValueError, match="at least 40"):
        timing.p90([0.1] * 39)
    with pytest.raises(ValueError):
        timing.job_metrics([0.1] * 39)
    assert timing.p90([0.1] * 40) == pytest.approx(0.1)


def test_kernel_is_fixed_work():
    assert timing.kernel(1000) == timing.kernel(1000)
    assert timing.time_kernel() > 0


# --- tracing ---------------------------------------------------------------

def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    inner = tr._wrap("inner", lambda: timing.kernel(20_000), None)

    def outer_body():
        timing.kernel(20_000)
        inner()
        inner()
    outer = tr._wrap("outer", outer_body, None)
    outer()  # outside a job: records nothing
    assert len(tr.start) == 0
    tr.job = 1
    outer()
    tr.job = -1
    got = tr.per_job({1: 2.0})
    assert got["outer.calls"] == 1 and got["inner.calls"] == 2
    total = 2.0 * (tr.end[0] - tr.start[0])
    assert got["outer.self_s"] + got["inner.self_s"] == pytest.approx(total)
    assert 0 < got["outer.self_s"] < total


# --- output checks -----------------------------------------------------------

def test_window_scan_check_rejects_a_moved_image():
    wl = workloads.WindowScan(0)
    inp = wl.next_input()
    out = wl.run(inp)
    assert wl.check(inp, out) == []

    class Moved:
        def __init__(self, sigma):
            self.sigma = sigma

        def apply_window(self, pts):
            images = self.sigma.apply_window(pts)
            images[7] += 1
            return images
    sigmas, prof, bij = out[0][0]  # the successor family's first size
    out[0][0] = ([Moved(sigmas[0])] + sigmas[1:], prof, bij)
    errors = wl.check(inp, out)
    assert any("closed form" in e for e in errors)


def test_certify_check_rejects_a_bound_above_eps():
    wl = workloads.Certify(0)
    eps = wl.next_input()
    out = wl.run(eps)
    assert wl.check(eps, out) == []
    code, text = out[0]
    blob = json.loads(text)
    blob["bound"] = str(eps + Fraction(1, 1000))
    out[0] = (code, json.dumps(blob))
    errors = wl.check(eps, out)
    assert any("above eps" in e for e in errors)


def test_oracle_check_rejects_a_distance_off_by_a_36th():
    wl = workloads.Oracle(0)
    inp = wl.next_input()
    exact, brute = wl.run(inp)
    assert wl.check(inp, (exact, brute)) == []
    assert wl.check(inp, (exact + Fraction(1, 36), brute))


def test_search_check_rejects_a_halved_gap():
    wl = workloads.Search(0)
    order = wl.next_input()
    out = wl.run(order)
    assert wl.check(order, out) == []
    k = next(i for i, c in enumerate(order) if wl.cases[c]["gap"] > 0)
    code, text = out[k]
    blob = json.loads(text)
    blob["gap"] = str(Fraction(blob["gap"]) / 2)
    out[k] = (code, json.dumps(blob))
    errors = wl.check(order, out)
    assert any("enumeration finds" in e for e in errors)


def test_search_enumeration_reproduces_the_frozen_baselines():
    base = json.loads((workloads.SRC / "baselines" / "search.json").read_text())
    cases = {c["key"]: c for c in workloads.Search(0).cases if c["key"]}
    for key, case in cases.items():
        assert workloads.enumerate_min_gap(case) == Fraction(base[key]["gap"])
        assert len(case["options"]) ** 4 == base[key]["candidates"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(3), cls(3)
    assert [a.next_input() for _ in range(3)] == [b.next_input() for _ in range(3)]


def test_benchmark_json_names_only_measured_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    timed = set(timing.job_metrics([0.1] * 40)) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in bench["end_to_end"]} == timed
    spans = {name or f"{mod}.{path}" for mod, path, name, _ in tracing.TRACED}
    counters = {"measure.StepMap.cells", "measure.common_refinement.pairs",
                "measure.common_refinement.pieces_per_pair", "geometry.candidates"}
    for m in bench["per_layer"]:
        base, _, kind = m["name"].rpartition(".")
        assert m["name"] in counters or (base in spans and kind in ("calls", "self_s")), m
