"""perispec benchmark: seeded workloads, end-to-end metrics, traced layer split.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload figure-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, one after another

Every program run is a fresh interpreter running the ``perispec`` command
(``perispec.cli.main``) or ``bench/torus.py`` under ``bench/launch.py``, with
``PYTHONPATH=src``, single-threaded BLAS, and the generated inputs only, so
each run pays the package's cold caches as a user's command does.  A run of
the benchmark repeats program runs with fresh inputs from ``--seed`` until
``--seconds`` of program time are spent, and checks every output outside the
timed region.

``--trace 0`` prints the end-to-end metrics: throughput, median wall time
per program run, set-up time (interpreter start plus ``import perispec``,
median of several) and peak resident memory.  ``--trace 1`` pairs each
plain program run with a run under ``bench/trace.py`` and prints the
per-layer split; it also checks that both runs wrote byte-identical
outputs.  The last line of standard output is the JSON result; earlier
lines describe each program run (inputs, wall time, sha256 of each output
file).  Without ``src/perispec`` next to this directory the benchmark exits
with code 2 and prints no result.
"""

import os

# Every process of the benchmark, this one included, does single-threaded
# numerics: the machine is small and threads would add run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from workloads import WORKLOADS, CheckResult, digests

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {"items_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "hypergeom.escalated.calls": "count", "hypergeom.escalated.self_s": "s",
    "hypergeom.escalated.bits_max": "bits", "hypergeom.float.calls": "count",
    "hypergeom.float.self_s": "s", "hypergeom.terms_mean": "count",
    "hypergeom.repeat_ratio": "ratio", "multipliers.calls": "count",
    "multipliers.self_s": "s", "oracle.calls": "count", "oracle.self_s": "s",
    "oracle.rules.calls": "count", "oracle.rules.self_s": "s",
    "oracle.rules.repeat_ratio": "ratio", "spectrum.modes": "count",
    "spectrum.self_s": "s", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}

#: Interpreter starts timed for ``setup_s`` (after one untimed warm-up that
#: also compiles the bytecode).
SETUP_REPEATS = 5
#: A program run still going after this long is killed and counted failed.
RUN_TIMEOUT_S = 120.0
#: No program run starts if, at the last run's pace, it would end after this
#: point of the benchmark run (the whole run must end within 180 s).
RUN_DEADLINE_S = 140.0


def _env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def run_program(argv, log_path):
    """Run ``python3 argv`` to completion; return (wall_s, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    return wall, code


def _log_tail(path, lines=5):
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().splitlines()[-lines:])


def measure_setup(work):
    log = os.path.join(work, "setup.log")
    argv = ["-c", "import perispec"]
    run_program(argv, log)
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, code = run_program(argv, log)
        if code != 0:
            raise RuntimeError(f"import perispec failed: {_log_tail(log)}")
        walls.append(wall)
    return statistics.median(walls)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _fresh_dir(work, name):
    path = os.path.join(work, name)
    os.mkdir(path)
    return path


def measure(workload, seed, seconds, trace, work):
    """Repeat program runs for ``seconds`` of program time; return the result."""
    started = time.perf_counter()
    metrics = {}
    if not trace:
        metrics["setup_s"] = measure_setup(work)
    walls, rates, rss, traced = [], [], [], []
    attempted = failed = 0
    spent = 0.0
    i = 0
    while True:
        round_start = time.perf_counter()
        inputs = workload.inputs(seed, i)
        in_dir = _fresh_dir(work, f"in{i}")
        out_dir = _fresh_dir(work, f"out{i}")
        log = os.path.join(work, f"run{i}.log")
        peak_file = os.path.join(work, f"peak{i}")
        wall, code = run_program(
            [os.path.join(BENCH_DIR, "launch.py"), peak_file,
             *workload.program(inputs, in_dir, out_dir)], log)
        spent += wall
        problems = [] if code == 0 else [f"exit code {code}: {_log_tail(log)}"]
        try:
            with open(peak_file) as fh:
                peak_mb = int(fh.read()) / 1024.0
            rss.append(peak_mb)
        except (OSError, ValueError):
            peak_mb = None
            problems.append("no peak memory record")
        try:
            check = workload.check(inputs, out_dir,
                                   np.random.default_rng([seed, i, 1]))
        except Exception:   # a crashing check is a failed operation
            traceback.print_exc()
            check = CheckResult(problems=["output check raised"])
        problems += check.problems
        hashes = digests(out_dir)
        if trace:
            traced_dir = _fresh_dir(work, f"traced{i}")
            summary = os.path.join(work, f"trace{i}.json")
            program = workload.program(inputs, in_dir, traced_dir)
            t_wall, t_code = run_program(
                [os.path.join(BENCH_DIR, "trace.py"), summary, *program], log)
            spent += t_wall
            if t_code != 0:
                problems.append(f"traced exit code {t_code}: {_log_tail(log)}")
            else:
                if digests(traced_dir) != hashes:
                    problems.append("traced and plain runs wrote different outputs")
                with open(summary) as fh:
                    layer = json.load(fh)
                cli_run = program[:2] == ["-m", "perispec.cli"]
                layer["cli.bytes_out"] = _dir_bytes(traced_dir) if cli_run else 0
                layer["trace.wall_s"] = t_wall
                layer["trace.overhead_ratio"] = t_wall / wall
                traced.append(layer)
        attempted += 1
        if problems:
            failed += 1
            print(f"{workload.name} run {i}: " + "; ".join(problems),
                  file=sys.stderr)
        walls.append(wall)
        rates.append(check.items / wall)
        shown = {k: v for k, v in inputs.items() if not isinstance(v, np.ndarray)}
        print(json.dumps({"workload": workload.name, "run": i, "inputs": shown,
                          "wall_s": wall, "peak_rss_mb": peak_mb,
                          "items": check.items,
                          "problems": problems, "sha256": hashes}))
        for path in (in_dir, out_dir):
            shutil.rmtree(path)
        if trace:
            shutil.rmtree(traced_dir)
        i += 1
        pace = time.perf_counter() - round_start
        if spent >= seconds or (time.perf_counter() - started + pace
                                > RUN_DEADLINE_S):
            break

    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            values = [layer[name] for layer in traced if name in layer]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics["items_per_s"] = statistics.median(rates)
        metrics["wall_s"] = statistics.median(walls)
        if rss:
            metrics["peak_rss_mb"] = statistics.median(rss)
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in metrics}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload, seed, seconds, trace):
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT)
    try:
        return measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "perispec", "__init__.py")):
        print(f"bench: no perispec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)   # the output checks call the quadrature oracle
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
