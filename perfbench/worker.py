"""One pass, or the correctness checks, of a workload in a fresh process.

    python3 perfbench/worker.py pass  WORKLOAD SEED OUTDIR none|collect|full THREADS
    python3 perfbench/worker.py check WORKLOAD SEED OUTDIR

``run.py`` starts this file; it is not meant to be run by hand.  A pass
imports the package, builds its inputs (that much is set-up), runs the
workload once with the requested tracing and prints one JSON record as its
last line of output.  ``check`` reads the outputs of a pass from OUTDIR and
verifies them.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from sqtransport import cli  # noqa: E402


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def blas_info() -> dict:
    """Name, configuration and live thread count of the loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    libraries = [path for path in paths if ".so" in path]
    if not libraries:
        return {"library": None}
    library = ctypes.CDLL(libraries[0])
    info = {"library": os.path.basename(libraries[0])}
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(library, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            info.update(threads=get_threads(), config=get_config().decode())
            return info
    return info


def run_pass(workload: str, seed: int, outdir: str, trace: str, threads: int) -> dict:
    if workload == wl.DIRECT:
        inputs = wl.direct_argv(seed, f"{outdir}/fano-direct.csv")
    elif workload == wl.HOMODYNE:
        inputs = wl.homodyne_argv(seed, f"{outdir}/fano-homodyne.csv", threads)
    else:
        inputs = wl.oracle_inputs(seed)
    setup_done = time.monotonic()

    tracer = tracing.Tracer()
    if trace != "none":
        tracer.install(tracing.TRACED if trace == "full" else tracing.COLLECT_ONLY)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        if workload == wl.ORACLE:
            results = wl.run_oracle(inputs, outdir)
        elif cli.main(inputs) != 0:
            raise RuntimeError("the command exited non-zero")
        wall = time.perf_counter() - start
    hwm_kb = _status_kb("VmHWM")
    tracer.uninstall()

    record = {
        "setup_done": setup_done, "wall_s": wall, "hwm_kb": hwm_kb,
        "ops": wl.OPS_PER_PASS[workload],
        "warnings": sorted({type(w.message).__name__ for w in caught}),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_info(),
    }
    if trace == "full":
        record["layers"] = tracing.layer_metrics(tracer.spans)
    if trace != "none":
        record["collect_s"] = sum(span[tracing.END] - span[tracing.START]
                                  for span in tracer.spans if span[tracing.NAME] == "ensemble.collect")
    if workload == wl.ORACLE:
        with open(f"{outdir}/oracle.json", "w") as handle:
            json.dump(results, handle)
    return record


def main(argv) -> int:
    mode, workload, seed, outdir = argv[0], argv[1], int(argv[2]), argv[3]
    if workload not in wl.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if mode == "pass":
        record = run_pass(workload, seed, outdir, argv[4], int(argv[5]))
    else:
        import checks

        record = checks.run(workload, seed, outdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
