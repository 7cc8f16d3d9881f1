"""The reference kernel and the arithmetic that normalises wall times.

The machine this benchmark was built on drifts in speed by up to 2x within
a minute, and the process CPU clock drifts with it, so raw wall times do not
repeat. Between consecutive jobs the benchmark times a fixed kernel; a
job's normalised time is its wall time divided by the mean of the kernel
times just before and just after it, times the kernel's nominal time. Every
`_s` metric is therefore in seconds at one fixed machine speed.

The kernel uses only int and dict work: a dict that holds only ints is not
tracked by the garbage collector, so a collection never lands inside it,
and it runs no code of the program under test. Its keys spread over 2^16
slots, so its table outgrows the core's private caches as the jobs' heaps
do; on this box that tracked the jobs' speed better than a 1024-slot table
(correlation with job time 0.73-0.86 against 0.73-0.83).
"""
from __future__ import annotations

import statistics
from time import perf_counter

KERNEL_ROUNDS = 40_000
NOMINAL_KERNEL_S = 0.0125  # the kernel's time on a calm run of the 2-core box
MIN_TAIL_JOBS = 40  # below this a 90th percentile has too few samples past it


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed reference work: a linear congruential walk into a 2^16-slot dict."""
    table: dict = {}
    x = 12345
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x >> 16
        table[k] = table.get(k, 0) + i
    return len(table)


def time_kernel() -> float:
    """Wall seconds of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def normalise(wall_s: float, kernel_before_s: float, kernel_after_s: float,
              nominal_s: float = NOMINAL_KERNEL_S) -> float:
    """Wall time rescaled to the speed at which the kernel takes nominal_s."""
    if kernel_before_s <= 0 or kernel_after_s <= 0:
        raise ValueError("kernel times must be positive")
    return wall_s * nominal_s / ((kernel_before_s + kernel_after_s) / 2)


def p90(values: list) -> float:
    """90th percentile, refused with fewer than MIN_TAIL_JOBS samples."""
    if len(values) < MIN_TAIL_JOBS:
        raise ValueError(f"a 90th percentile needs at least {MIN_TAIL_JOBS} "
                         f"samples, got {len(values)}")
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def job_metrics(job_s: list) -> dict:
    """jobs_per_s, job_p50_s and job_p90_s from normalised job times."""
    return {"jobs_per_s": len(job_s) / sum(job_s),
            "job_p50_s": statistics.median(job_s),
            "job_p90_s": p90(job_s)}
