"""Spans around sqtransport's public functions, recorded from outside the package.

``Tracer.install`` replaces each public entry point named in ``TRACED`` by a
wrapper that records a span (name, parent span, start, end, a little call
information and the exception type, if any) in memory.  Nothing inside the
package changes: calls the package makes through a module attribute (for
example ``medium.build_medium_checkpoints`` calling ``star_compose``) pass
through the wrappers, calls it makes through a local name do not.

Pool workers run in other processes, so their spans never reach the tracer;
a traced pass therefore runs the Monte Carlo with one worker.
"""

from __future__ import annotations

import functools
import math
import os
import time

import numpy as np

from sqtransport import analytics, cli, ensemble, fock, io, medium, photostatistics

NAME, PARENT, START, END, INFO, ERROR = range(6)


def _build_info(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    lengths = list(args[1] if len(args) > 1 else kwargs["lengths"])
    periods = int(math.ceil(lengths[-1])) if lengths else 0
    return {"periods": periods, "n_modes": spec.n_modes}


def _compose_info(args, kwargs):
    a, b = args[:2]
    # the same test star_compose makes before it takes the cavity branch
    return {"cavity": bool(a.r.any() and b.r_prime.any())}


def _collect_after(result, args, kwargs):
    return {"skipped": sum(entry is None for row in result for entry in row)}


def _write_after(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (owner, attribute, span name, info taken before the call, info taken after it)
TRACED = [
    (cli, "main", "cli.main", None, None),
    (medium, "calibrate_mean_free_path", "medium.calibrate", None, None),
    (medium, "build_medium_checkpoints", "medium.build", _build_info, None),
    (ensemble, "build_medium_checkpoints", "medium.build", _build_info, None),
    (medium, "star_compose", "medium.compose", _compose_info, None),
    # the batched eigendecomposition of the slice sampler, looked up as np.linalg.eigh
    (np.linalg, "eigh", "medium.eigh", None, None),
    (medium.ScatteringMatrix, "validate", "medium.validate", None, None),
    (ensemble, "collect_statistics", "ensemble.collect", None, _collect_after),
    (ensemble, "assemble_direct_fano", "ensemble.assemble", None, None),
    (ensemble, "assemble_homodyne_fano", "ensemble.assemble", None, None),
    (photostatistics, "direct_cumulants_squeezed", "photostatistics.cumulants", None, None),
    (photostatistics, "thermal_cumulant_densities", "photostatistics.cumulants", None, None),
    (photostatistics, "numeric_factorial_cumulants", "photostatistics.generating", None, None),
    (photostatistics, "log_generating_density_direct", "photostatistics.generating.eval",
     None, None),
    (photostatistics, "fano_direct", "photostatistics.fano", None, None),
    (photostatistics, "fano_homodyne", "photostatistics.fano", None, None),
    (photostatistics, "fano_homodyne_min", "photostatistics.fano", None, None),
    (fock, "lossy_channel_photostats", "fock.lossy", None, None),
    (fock, "amplifying_channel_photostats", "fock.amplifying", None, None),
    (analytics, "fano_direct_absorbing_avg", "analytics.eval", None, None),
    (analytics, "fano_direct_amplifying_avg", "analytics.eval", None, None),
    (analytics, "fano_homo_min_absorbing_avg", "analytics.eval", None, None),
    (analytics, "fano_homo_min_amplifying_avg", "analytics.eval", None, None),
    (analytics, "fano_homo_fixed_phase_avg", "analytics.eval", None, None),
    (io, "write_csv", "io.write", None, _write_after),
]

# only the collection span: the timer behind ensemble.parallel_efficiency
COLLECT_ONLY = [entry for entry in TRACED if entry[2] == "ensemble.collect"]


class Tracer:
    """In-memory span list; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, entries=TRACED):
        for owner, attr, name, before, after in entries:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    before(args, kwargs) if before else None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after:
                span[INFO] = {**(span[INFO] or {}), **after(result, args, kwargs)}
            return result

        return traced


def _duration(span):
    return span[END] - span[START]


def _has_ancestor(spans, span, prefix):
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans) -> dict:
    """Per-layer times and counts of one traced pass.

    A group's time is the summed duration of its outermost spans: a span
    whose name starts with the group's name, nested in another such span, is
    not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    children_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children_time[span[PARENT]] += _duration(span)

    def outer(prefix):
        return [s for s in spans
                if s[NAME].startswith(prefix) and not _has_ancestor(spans, s, prefix)]

    def total(name):
        return sum(_duration(s) for s in outer(name))

    def self_time(name):
        return sum(_duration(s) - children_time[i]
                   for i, s in enumerate(spans) if s[NAME] == name)

    builds = [s for s in spans if s[NAME] == "medium.build"]
    composes = [s for s in spans if s[NAME] == "medium.compose"]
    validates = [s for s in spans if s[NAME] == "medium.validate"]
    build_s = total("medium.build")
    build_periods = sum(s[INFO]["periods"] for s in builds)
    batch_bytes = max((16 * s[INFO]["periods"] * (2 * s[INFO]["n_modes"]) ** 2 for s in builds),
                      default=0)
    fock_lossy = outer("fock.lossy")
    fock_amplifying = outer("fock.amplifying")
    return {
        "cli.self_s": self_time("cli.main"),
        "medium.build_s": build_s,
        # build minus compose minus validate: eigh stays in the sampling time
        "medium.sample_self_s": self_time("medium.build") + sum(
            _duration(s) for s in spans
            if s[NAME] == "medium.eigh" and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "medium.build"),
        "medium.eigh_s": total("medium.eigh"),
        "medium.compose_s": total("medium.compose"),
        "medium.compose_calls": len(composes),
        "medium.compose_cavity_calls": sum(s[INFO]["cavity"] for s in composes),
        "medium.validate_s": total("medium.validate"),
        "medium.validate_calls": len(validates),
        "medium.build_periods": build_periods,
        "medium.build_ms_per_period": 1e3 * build_s / build_periods if build_periods else 0.0,
        "medium.cavity_skips": sum(s[ERROR] == "NearSingularCavity" for s in composes),
        "medium.gain_violations": sum(s[ERROR] == "GainPositivityViolation" for s in validates),
        "medium.calibrate_s": total("medium.calibrate"),
        "medium.calibrate_periods": sum(s[INFO]["periods"] for s in builds
                                        if _has_ancestor(spans, s, "medium.calibrate")),
        "medium.slice_batch_mb": batch_bytes / 1e6,
        "ensemble.collect_s": total("ensemble.collect"),
        "ensemble.measure_self_s": self_time("ensemble.collect"),
        "ensemble.assemble_s": total("ensemble.assemble"),
        "ensemble.assemble_calls": len(outer("ensemble.assemble")),
        "ensemble.skipped": sum(s[INFO]["skipped"] for s in outer("ensemble.collect")),
        "photostatistics.cumulants_s": total("photostatistics.cumulants"),
        "photostatistics.generating_s": total("photostatistics.generating"),
        "photostatistics.generating_calls": sum(
            s[NAME] == "photostatistics.generating.eval" for s in spans),
        "photostatistics.fano_s": total("photostatistics.fano"),
        "fock.lossy_s": sum(_duration(s) for s in fock_lossy),
        "fock.amplifying_s": sum(_duration(s) for s in fock_amplifying),
        "fock.calls": len(fock_lossy) + len(fock_amplifying),
        "analytics.eval_s": total("analytics.eval"),
        "analytics.evals": len(outer("analytics.eval")),
        "io.write_s": total("io.write"),
        "io.bytes": sum(s[INFO]["bytes"] for s in spans if s[NAME] == "io.write"),
    }
