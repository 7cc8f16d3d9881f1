"""Benchmark of the exact verifier: four workloads, each in a fresh interpreter.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload the four workloads run one after another. With
--trace 0 each workload reports its end-to-end metrics, measured
untraced. With --trace 1 every workload runs traced for a quarter of
--seconds, so that every layer the workloads touch is measured, and the
run reports the per-layer metrics. Every metric is printed by name with
its unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Results and spans are written
under perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7      # fresh interpreters timed from start to the first job
CHILD_TIMEOUT_S = 150
TRACED_MIN_JOBS = 5
# One string-hash layout for every worker: with a random one per process,
# the median job time of identical search inputs spread 5.9% over five 20 s
# runs on a 2-core Xeon (quartile distance over median), with
# PYTHONHASHSEED=0 3.5%.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> tuple:
    """Run worker.py in a fresh interpreter; returns (its result, setup seconds
    normalised by the kernel timed just before the spawn and just after set-up)."""
    k_spawn = timing.time_kernel()
    t_spawn = perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    res = json.loads(lines[-1])
    if res["warmup_errors"]:
        raise BenchError(f"{workload} warm-up job failed its checks: {res['warmup_errors'][:3]}")
    setup = timing.normalise(res["t_ready"] - t_spawn, k_spawn, res["k_ready"])
    return res, setup


def load_bench() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(bench: dict, kind: str) -> list:
    """(name, unit) of each `end_to_end` or `per_layer` metric."""
    return [(m["name"], m["unit"]) for m in bench[kind]]


def run_timed(bench: dict, workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, seconds, "--setup-only")[1]
              for _ in range(SETUP_SAMPLES - 1)]
    res, setup = spawn(workload, seed, seconds)
    setups.append(setup)
    end_to_end = units(bench, "end_to_end")
    for err in res["errors"]:
        print(f"  FAILED: {err}", file=sys.stderr)
    metrics = timing.job_metrics(res["job_s"]) if len(res["job_s"]) >= timing.MIN_TAIL_JOBS else {}
    if metrics:
        metrics.update(setup_s=statistics.median(setups), peak_rss_mb=res["peak_rss_mb"])
    raw = timing.job_metrics(res["job_raw_s"]) if metrics else {}
    print(f"{workload}: seed {seed}, closed loop of one caller for {seconds:g} s, "
          f"{len(res['job_s'])} jobs timed")
    print(f"  jobs attempted {res['attempted']}, failed {res['failed']}")
    for name, unit in end_to_end:
        if name in metrics:
            side = f"   raw {raw[name]:.6g}" if name in raw else ""
            print(f"  {name:<12} {metrics[name]:.6g} {unit}{side}")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "setup_samples": setups,
              "raw": raw, **{k: res[k] for k in ("attempted", "failed", "job_s", "job_raw_s")}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}.json").write_text(json.dumps(detail, indent=1))
    return {"correct": res["failed"] == 0 and bool(metrics), "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in end_to_end if n in metrics}}


def run_traced(bench: dict, seed: int, seconds: float) -> dict:
    """Every workload traced for a quarter of the run; per-layer metrics are
    means per round, one round being one job of each workload."""
    OUT.mkdir(exist_ok=True)
    per_round: dict = {}
    attempted = failed = 0
    names = [w["name"] for w in bench["workloads"]]
    leg = max(seconds / len(names), 1.0)
    for w in names:
        res, _ = spawn(w, seed, leg, "--min-jobs", str(TRACED_MIN_JOBS),
                       "--trace-file", str(OUT / f"trace-{w}.npz"))
        attempted += res["attempted"]
        failed += res["failed"]
        for err in res["errors"]:
            print(f"  FAILED: {err}", file=sys.stderr)
        p50 = statistics.median(res["job_s"]) if res["job_s"] else float("nan")
        print(f"{w}: traced, {len(res['job_s'])} jobs, {res['spans']} spans, "
              f"traced job_p50_s {p50:.6g} s")
        for key, val in sorted(res["per_job"].items()):
            if val:
                print(f"  {key:<58} {val:.6g}")
            per_round[key] = per_round.get(key, 0) + val
    pairs = per_round.get("measure.common_refinement.pairs", 0)
    per_round["measure.common_refinement.pieces_per_pair"] = (
        per_round.get("measure.common_refinement.pieces", 0) / pairs if pairs else 0.0)
    print("per round (one job of each workload):")
    metrics = {}
    for name, unit in units(bench, "per_layer"):
        metrics[name] = {"value": per_round.get(name, 0.0), "unit": unit}
        print(f"  {name:<58} {metrics[name]['value']:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "belle_paire" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'belle_paire'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = run_traced(bench, args.seed, args.seconds)
        elif args.workload:
            result = run_timed(bench, args.workload, args.seed, args.seconds)
        else:
            parts = {w: run_timed(bench, w, args.seed, args.seconds) for w in names}
            result = {"correct": all(p["correct"] for p in parts.values()),
                      "attempted": sum(p["attempted"] for p in parts.values()),
                      "failed": sum(p["failed"] for p in parts.values()),
                      "metrics": {f"{w}.{n}": m for w, p in parts.items()
                                  for n, m in p["metrics"].items()}}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
