"""One workload in a fresh interpreter: set-up, then a timed closed loop.

One caller on one thread; each job starts when the previous one ends.
Before and after every job the reference kernel is timed, and the job's
wall time is normalised by their mean (see timing.py). Outputs are
checked after each job, outside the timed region. Prints one JSON object
on its last line of stdout. Started by run.py, not by hand.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import timing  # noqa: E402
import workloads  # noqa: E402  (imports the program and numpy)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-jobs", type=int, default=timing.MIN_TAIL_JOBS)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None,
                    help="trace the run and write its spans here")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    # warm-up: one untimed job fills lazy imports and caches
    inp = wl.next_input()
    warm_errors = wl.check(inp, wl.run(inp))
    t_ready = perf_counter()
    k_ready = timing.time_kernel()
    result = {"t_ready": t_ready, "k_ready": k_ready, "warmup_errors": warm_errors}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    job_s, raw_s, factors, errors = [], [], {}, []
    attempted = failed = 0
    t0 = perf_counter()
    deadline = t0 + args.seconds
    while perf_counter() < deadline or attempted < args.min_jobs:
        inp = wl.next_input()
        attempted += 1
        gc.collect()
        k_before = timing.time_kernel()
        if tracer:
            tracer.job = attempted
        try:
            start = perf_counter()
            out = wl.run(inp)
            wall = perf_counter() - start
        except Exception:  # a job that raises is a failed job, not a crash
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        finally:
            if tracer:
                tracer.job = -1
        k_after = timing.time_kernel()
        bad = wl.check(inp, out)
        if bad:
            failed += 1
            errors += bad
            continue
        norm = timing.normalise(wall, k_before, k_after)
        job_s.append(norm)
        raw_s.append(wall)
        factors[attempted] = norm / wall
    result.update(attempted=attempted, failed=failed, errors=errors[:10],
                  job_s=job_s, job_raw_s=raw_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        result["per_job"] = tracer.per_job(factors)
        result["spans"] = len(tracer.start)
        tracer.write(args.trace_file, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
