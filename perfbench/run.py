"""The sqtransport benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  A closed loop in this one process starts one pass of the
workload at a time, each in a fresh ``worker.py`` process, until ``--seconds``
have passed; then a separate process checks the outputs of the first pass.
BLAS is pinned to one thread in every process started.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
``wall_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes, the tracing overhead and the parallel efficiency.  The last line of
standard output is one JSON object; the full record, with the environment,
goes to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# before anything can load numpy, here or in a child process
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

DIRECT, HOMODYNE, ORACLE = "direct-absorbing-n50", "homodyne-amplifying-n10", "oracle"
# (label, tracing in the pass, Monte Carlo workers) of the passes of one round
ROUNDS = {
    (DIRECT, 0): [("run", "none", 1)],
    (DIRECT, 1): [("untraced", "collect", 1), ("traced", "full", 1)],
    (HOMODYNE, 0): [("run", "none", 2)],
    (HOMODYNE, 1): [("pooled", "collect", 2), ("untraced", "collect", 1),
                    ("traced", "full", 1)],
    (ORACLE, 0): [("run", "none", 1)],
    (ORACLE, 1): [("untraced", "collect", 1), ("traced", "full", 1)],
}
# a run must end within 180 s: the last pass starts before --seconds (at most 60) end
PASS_TIMEOUT_S = 50
CHECK_TIMEOUT_S = 60
RSS_POLL_S = 0.02


def _process_tree(pid: int) -> list[int]:
    """A process and all its living descendants."""
    tree, stack = [], [pid]
    while stack:
        current = stack.pop()
        tree.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return tree


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            return next((int(line.split()[1]) for line in handle if line.startswith("VmRSS:")), 0)
    except OSError:
        return 0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQT_SEED", None)  # would override the workload's seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_worker(args, timeout):
    """Run worker.py; returns (start time, exit code, last stdout line, peak tree RSS kB)."""
    peak = [0]
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    done = threading.Event()

    def sample():
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], sum(_rss_kb(pid) for pid in _process_tree(proc.pid)))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        for pid in reversed(_process_tree(proc.pid)):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        out, _ = proc.communicate()
    finally:
        done.set()
        sampler.join()
    lines = out.strip().splitlines()
    return start, proc.returncode, lines[-1] if lines else "", peak[0]


def _run_pass(workload, seed, passdir, tracing, threads):
    start, code, line, tree_kb = _run_worker(
        ["pass", workload, str(seed), str(passdir), tracing, str(threads)], PASS_TIMEOUT_S)
    if code != 0:
        return None
    record = json.loads(line)
    record["setup_s"] = record["setup_done"] - start
    record["peak_rss_mb"] = max(tree_kb, record["hwm_kb"]) * 1024 / 1e6
    record["csv"] = {path.name: path.read_text() for path in sorted(passdir.glob("*.csv"))}
    return record


def _without_threads(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if not line.startswith("# threads = "))


def _stderr_of(csv_text: str, match: dict) -> float:
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(columns, line.split(",")))
        if all(row[key] == value if isinstance(value, str) else float(row[key]) == value
               for key, value in match.items()):
            return float(row["stderr"])
    raise KeyError(f"no row matches {match}")


# reference rows and target standard errors of ensemble.time_to_target_s
TARGETS = {
    DIRECT: ("fano-direct.csv", {"s": 1.0, "f_in": 0.0}, 0.005),
    HOMODYNE: ("fano-homodyne.csv", {"s": 1.0, "policy": "min"}, 0.002),
}


def _layer_metrics(workload, passes) -> dict:
    def median_of(label, key):
        values = [p[key] for p in passes if p["label"] == label]
        return statistics.median(values) if values else 0.0

    # one whole pass, so that its self times still add up to its build time
    traced = [p for p in passes if p["label"] == "traced"]
    middle = statistics.median_low(p["wall_s"] for p in traced)
    metrics = dict(next(p["layers"] for p in traced if p["wall_s"] == middle))
    untraced_wall = median_of("untraced", "wall_s")
    metrics["trace.overhead_s"] = median_of("traced", "wall_s") - untraced_wall
    single, pooled = median_of("untraced", "collect_s"), median_of(
        "pooled" if workload == HOMODYNE else "untraced", "collect_s")
    metrics["ensemble.parallel_efficiency"] = single / pooled if pooled else 0.0
    metrics["ensemble.time_to_target_s"] = 0.0
    if workload in TARGETS:
        name, match, target = TARGETS[workload]
        label = "pooled" if workload == HOMODYNE else "untraced"
        first = next(p for p in passes if p["label"] == label)
        stderr = _stderr_of(first["csv"][name], match)
        metrics["ensemble.time_to_target_s"] = median_of(label, "wall_s") * (stderr / target) ** 2
    return metrics


UNITS = {"_s": "s", "_ms_per_period": "ms", "_mb": "MB", "_efficiency": "ratio", ".bytes": "B"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqtransport benchmark")
    parser.add_argument("--workload", required=True, choices=[DIRECT, HOMODYNE, ORACLE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqtransport" / "__init__.py").is_file():
        print(f"no sqtransport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / tag
    shutil.rmtree(workdir, ignore_errors=True)

    # every pass writes to the same path, so repeated passes can be byte-identical
    outdir, firstdir = workdir / "out", workdir / "first"
    begin = time.monotonic()
    passes, failed_passes = [], 0
    while not passes or time.monotonic() - begin < args.seconds:
        for label, tracing, threads in ROUNDS[args.workload, args.trace]:
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            record = _run_pass(args.workload, args.seed, outdir, tracing, threads)
            if record is None:
                failed_passes += 1
                print(f"a {label} pass failed", file=sys.stderr)
                continue
            if not passes:
                shutil.copytree(outdir, firstdir)
            passes.append({"label": label, **record})
        if failed_passes and not passes:
            print("every pass failed", file=sys.stderr)
            return 1
    measured_s = time.monotonic() - begin

    first = passes[0]
    _, code, line, _ = _run_worker(["check", args.workload, str(args.seed), str(firstdir)],
                                   CHECK_TIMEOUT_S)
    check = json.loads(line) if code == 0 else {"failures": [f"check process exit {code}"]}
    failures = list(check["failures"])
    reference = {name: _without_threads(text) for name, text in first["csv"].items()}
    for p in passes:
        if {name: _without_threads(text) for name, text in p["csv"].items()} != reference:
            failures.append(f"CSV output of a {p['label']} pass differs from the first pass")
        same = [q for q in passes if q["label"] == p["label"]]
        if p["csv"] != same[0]["csv"]:
            failures.append(f"repeated {p['label']} passes wrote different CSV bytes")

    if args.trace:
        values = _layer_metrics(args.workload, passes)
    else:
        values = {key: statistics.median(p[key] for p in passes)
                  for key in ("wall_s", "setup_s", "peak_rss_mb")}
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    ops = first["ops"]
    result = {
        "correct": not failures,
        "attempted": ops * (len(passes) + failed_passes),
        "failed": ops * failed_passes,
        "metrics": metrics,
    }
    blas = first["blas"]
    environment = {
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_live": blas.get("threads"), "openblas": blas.get("config"),
        "python": first["python"], "numpy": first["numpy"], "platform": platform.platform(),
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{tag}.json", "w") as handle:
        json.dump({"args": vars(args), "environment": environment, "measured_s": measured_s,
                   "result": result, "failures": failures,
                   "diagnostics": check.get("diagnostics", {}),
                   "passes": [{k: v for k, v in p.items() if k != "csv"} for p in passes]},
                  handle, indent=1)
    print(f"{tag}: {len(passes)} passes in {measured_s:.1f} s; cores {environment['cores']}, "
          f"BLAS threads {environment['blas_threads_live']}, {environment['openblas']}, "
          f"Python {environment['python']}, numpy {environment['numpy']}", file=sys.stderr)
    if args.trace:
        print("traced passes run the Monte Carlo with one worker", file=sys.stderr)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
