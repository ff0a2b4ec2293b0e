"""Twin-experiment benchmark of mpfilter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the program in ``src/``.
Each measured run is a fresh interpreter (``worker.py``) that runs the
workload's generated config through ``mpfilter.cli.main``.

``--trace 0`` repeats that run, at least twice and then while another run
still fits in ``--seconds``, and reports the end-to-end metrics: medians
over runs, and cycle time percentiles over the cycles of all runs.
``--trace 1`` makes one untraced and one traced run plus the fixed-size
microtimings, and reports the per-layer metrics.  Every run's CSV is checked; a run that fails a
check counts all its requested cycles as failed.  The last line of
standard output is the result as JSON; the lines before it give the
environment, every metric by name with its unit, and the check verdict.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_csv  # noqa: E402
from workloads import MIN_RUNS, WORKLOADS, p90_index  # noqa: E402

MAX_RUNS = 20
DEADLINE_S = 170.0  # the command must end within 180 s
WORK_DIR = ROOT / ".bench_out"


def git_sha() -> str:
    """Commit of the checkout, or "unknown" when it is not a git work tree
    of its own (a checkout inside another repository must not report that
    repository's commit)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is OpenBLAS."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_probe_ms() -> float:
    """Median time of a fixed task of Python loops and small numpy calls, the
    program's mix; recorded beside the metrics to make host speed drift
    visible, never used to scale them."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((20, 40))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(2_000):
            a = np.tanh(a @ a.T @ a / 40.0)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "host_probe_ms": host_probe_ms(),
    }


def spawn(work: Path, args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` in its own directory under ``work``; its result."""
    out = Path(tempfile.mkdtemp(dir=work))
    cmd = [sys.executable, str(HERE / "worker.py"), str(out), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    try:
        return json.loads((out / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"error": proc.stderr.strip()[-2000:] or f"worker exit {proc.returncode}"}


def check_runs(name: str, runs: list[dict]) -> None:
    """Attach ``problems`` and ``rmse_mean`` to each run.  Runs of one seed
    must agree byte for byte outside the timing columns."""
    spec = WORKLOADS[name]
    reference = None
    for run in runs:
        problems = []
        if run.get("error") or run.get("rc") != 0:
            problems.append("run failed: " + str(run.get("error") or f"exit {run.get('rc')}")
                            .strip().splitlines()[-1])
        csv_problems, run["rmse_mean"], cells = check_csv(spec, run.get("csv", ""))
        problems += csv_problems
        if not problems and len(run["cycle_ms"]) != spec.cycles:
            problems.append(f"{len(run['cycle_ms'])} cycle timings for {spec.cycles} cycles")
        if not problems:
            if reference is None:
                reference = cells
            elif cells != reference:
                problems.append("CSV differs from an earlier run of this seed "
                                "outside the timing columns")
        run["problems"] = problems


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, runs: list[dict]) -> dict:
    cycles = WORKLOADS[name].cycles
    ok = [r for r in runs if not r["problems"]]
    pooled = sorted(ms for r in ok for ms in r["cycle_ms"])
    return {
        "setup_s": median(r["setup_s"] for r in ok),
        "run_s": median(r["run_s"] for r in ok),
        "cycles_per_s": median(cycles / (r["run_s"] - r["setup_s"]) for r in ok),
        "cycle_ms.p50": median(pooled),
        "cycle_ms.p90": pooled[p90_index(len(pooled))] if pooled else 0.0,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
        "rmse_mean": ok[0]["rmse_mean"] if ok else 0.0,
        "pass_rate": len(ok) / len(runs),
    }


def per_layer(runs: list[dict], micro: dict, probe_ms: float) -> dict:
    plain, traced = runs
    base = plain.get("run_s", 0.0)
    overhead = (traced.get("run_s", 0.0) - base) / base if base else 0.0
    return {
        **traced.get("layers", {}),
        "trace.overhead_frac": overhead,
        "host.probe_ms": probe_ms,
        **micro.get("micro", {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mpfilter twin-experiment benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    started = perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - started)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mpfilter" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mpfilter sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    run_args = ["run", args.workload, str(args.seed)]
    try:
        runs: list[dict] = []
        if args.trace:
            runs.append(spawn(work, run_args, remaining()))
            runs.append(spawn(work, run_args + ["--traced"], remaining()))
            micro = spawn(work, ["micro"], remaining())
        else:
            budget = min(args.seconds, DEADLINE_S)
            longest = 0.0
            while len(runs) < MIN_RUNS or (
                    len(runs) < MAX_RUNS
                    and perf_counter() - started + longest <= budget):
                t0 = perf_counter()
                runs.append(spawn(work, run_args, remaining()))
                longest = max(longest, perf_counter() - t0)
        check_runs(args.workload, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"run {i}: {p}" for i, run in enumerate(runs) for p in run["problems"]]
    if args.trace:
        values = per_layer(runs, micro, env["host_probe_ms"])
        if "error" in micro:
            problems.append("microtimings failed: " + micro["error"].splitlines()[-1])
    else:
        values = end_to_end(args.workload, runs)
    cycles = WORKLOADS[args.workload].cycles
    failed = sum(cycles for r in runs if r["problems"])
    correct = not problems

    print(f"{args.workload} seed {args.seed}: {len(runs)} runs of {cycles} cycles"
          + (" (untraced, traced)" if args.trace else ""))
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
    for problem in problems:
        print("  " + problem)
    print(f"output check: {'PASS' if correct else 'FAIL'} "
          f"({len(runs) - sum(1 for r in runs if r['problems'])}/{len(runs)} runs)")
    print(json.dumps({"correct": correct, "attempted": cycles * len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
