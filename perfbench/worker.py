"""One measurement in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py DIR run WORKLOAD SEED [--traced]
    python3 perfbench/worker.py DIR micro

``run`` writes the workload's config into DIR and calls
``mpfilter.cli.main(["run", cfg, "--seed", SEED, "--out", DIR])``, the
user's path, with the in-process caches cold.  Untraced, only
``build_setup`` and ``score_cycle`` are wrapped, for the setup and
per-cycle timing points; ``--traced`` wraps every layer entry point and
adds the per-layer metrics.  ``micro`` runs the fixed-size microtimings.
Either writes its figures to DIR/result.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import column, read_csv  # noqa: E402
from layers import LAYER_TARGETS, TIMING_TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def workload_config(workload: str, seed: int):
    """The workload's preset with the benchmark's seed and cycle count."""
    from mpfilter.config import load_preset

    spec = WORKLOADS[workload]
    cfg = load_preset(spec.preset)
    cfg.seed = seed
    cfg.cycles = spec.cycles
    return cfg


def measure(workload: str, seed: int, out: Path, traced: bool) -> dict:
    from mpfilter import cli
    from mpfilter.config import dump_config

    cfg_path = out / f"{workload}.cfg"
    cfg_path.write_text(dump_config(workload_config(workload, seed)), encoding="utf-8")
    csv_path = out / f"{workload}.csv"

    tracer = Tracer()
    rc, error = None, None
    with tracer.installed(LAYER_TARGETS if traced else TIMING_TARGETS):
        start = perf_counter()
        try:
            rc = cli.main(["run", str(cfg_path), "--seed", str(seed), "--out", str(out)])
        except Exception:
            error = traceback.format_exc()
        end = perf_counter()

    setup = tracer.first("experiment.build_setup")
    marks = ([setup[2]] if setup else []) + tracer.ends("diagnostics.score_cycle")
    result = {
        "rc": rc,
        "error": error,
        "run_s": end - start,
        "setup_s": setup[2] - setup[1] if setup else None,
        "cycle_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "csv": str(csv_path),
    }
    if traced:
        try:
            header, rows = read_csv(csv_path)
            iterations = [int(v) for v in column(header, rows, "map_iterations")]
        except (OSError, ValueError, IndexError):
            iterations = []
        result["layers"] = layer_metrics(tracer, iterations)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("seed", type=int)
    run.add_argument("--traced", action="store_true")
    sub.add_parser("micro")
    args = parser.parse_args(argv)

    if args.mode == "run":
        result = measure(args.workload, args.seed, args.dir, args.traced)
    else:
        from micro import microtimings

        result = {"micro": microtimings()}
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
