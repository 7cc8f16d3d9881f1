"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each function in TRACED with a wrapper, in every
loaded `belle_paire` module that bound it (or on its class, for methods).
A span records its name, start, end, parent span and job id; spans stay in
flat arrays in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its child spans. Calls made
outside a job (input building, checks) record nothing.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _stepmap_cells(args, result):
    return (("measure.StepMap.cells", len(args[0].cells)),)


def _refinement_pieces(args, result):
    maps = args[0]
    if len(maps) != 2:  # every call on the workloads refines two maps
        return ()
    return (("measure.common_refinement.pairs", len(maps[0].cells) * len(maps[1].cells)),
            ("measure.common_refinement.pieces", len(result)))


def _candidates(args, result):
    return (("geometry.candidates", result.candidates_checked),)


# (module, attribute path, span name, counter hook)
TRACED = [
    ("structures", "LinearInjection.preimage", None, None),
    ("structures", "LinearInjection.apply", None, None),
    ("approx", "OrbitClassifier.classify", None, None),
    ("approx", "OrbitClassifier.window_struct", None, None),
    ("approx", "defect_profile", None, None),
    ("approx", "CycleApproxBijection.window_bijectivity", None, None),
    ("measure", "StepMap.__init__", "measure.StepMap", _stepmap_cells),
    ("measure", "RationalSet.union", None, None),
    ("measure", "RationalSet.intersect", None, None),
    ("measure", "common_refinement", None, _refinement_pieces),
    ("measure", "l1_distance", None, None),
    ("random_endo", "hausdorff_gap", None, None),
    ("random_endo", "dist_to_image", None, None),
    ("random_endo", "apply_random_endo", None, None),
    ("random_endo", "approximate_random_endo", None, None),
    ("random_endo", "brute_force_dist_to_image", None, None),
    ("geometry", "exhaustive_pair_search", None, _candidates),
    ("geometry", "exhaustive_pair_search_pure", None, _candidates),
    ("geometry", "gl_matrices", None, None),
    ("cli", "main", None, None),
    ("serialize", "json_dumps", None, None),
    ("serialize", "load_baseline", None, None),
]


class Tracer:
    """Span recorder for one process; `job` is the id of the running job."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list = []
        self.job = -1
        self.counters: dict = {}  # (job, counter name) -> total

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "belle_paire" or k.startswith("belle_paire.")]
        for mod_name, path, span_name, hook in TRACED:
            owner = importlib.import_module(f"belle_paire.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self._wrap(span_name or f"{mod_name}.{path}", orig, hook)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def _wrap(self, span_name: str, fn, hook):
        idx = len(self.names)
        self.names.append(span_name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.job < 0:
                return fn(*args, **kwargs)
            sid = len(tr.start)
            stack = tr.stack
            tr.name.append(idx)
            tr.parent.append(stack[-1] if stack else -1)
            tr.job_of.append(tr.job)
            tr.child.append(0.0)
            tr.end.append(0.0)
            stack.append(sid)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                stack.pop()
                tr.end[sid] = t
                p = tr.parent[sid]
                if p >= 0:
                    tr.child[p] += t - tr.start[sid]
            if hook is not None:
                for key, n in hook(args, result):
                    ck = (tr.job, key)
                    tr.counters[ck] = tr.counters.get(ck, 0) + n
            return result
        return traced

    def per_job(self, job_factor: dict) -> dict:
        """Mean per job of each span's calls and normalised self seconds,
        and of each counter. job_factor maps job id to the factor that turns
        its wall seconds into normalised seconds."""
        n_jobs = len(job_factor)
        name = np.frombuffer(self.name, np.int32)
        job = np.frombuffer(self.job_of, np.int32)
        self_s = (np.frombuffer(self.end, np.float64) - np.frombuffer(self.start, np.float64)
                  - np.frombuffer(self.child, np.float64))
        factor = np.zeros(max(job_factor, default=0) + 1)
        for j, f in job_factor.items():
            factor[j] = f
        keep = np.isin(job, list(job_factor))
        calls = np.bincount(name[keep], minlength=len(self.names))
        norm = np.bincount(name[keep], weights=(self_s * factor[job])[keep],
                           minlength=len(self.names))
        out = {}
        for k, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[k] / n_jobs
            out[f"{span}.self_s"] = norm[k] / n_jobs
        totals: dict = {}
        for (j, key), total in self.counters.items():
            if j in job_factor:
                totals[key] = totals.get(key, 0) + total
        out.update((key, total / n_jobs) for key, total in totals.items())
        return out

    def write(self, path, t0: float) -> None:
        """Write every span, with times in seconds since t0."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 job=np.frombuffer(self.job_of, np.int32),
                 start=np.frombuffer(self.start, np.float64) - t0,
                 end=np.frombuffer(self.end, np.float64) - t0)
