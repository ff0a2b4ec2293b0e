"""Check that a change that reorders floating-point sums keeps the MPF results,
over an ensemble of seeds.

    python tools/equiv.py --parent TREE --change TREE --seeds 1-K

Each tree is a checkout with the package under ``src/``.  For every seed
each tree runs every MPF preset (the ``filter = mpf`` presets that
``mpfilter list-presets`` names) at its own cycle count with the seed
replaced, all in one fresh interpreter per (tree, seed) with that tree's
``src`` on ``PYTHONPATH``, two interpreters at a time.  A run yields its
time-mean RMSE, mean ``map_iterations`` and min N_eff (NaN where the
filter reports none).  It reads no wall time: the median ``wallclock_ms``
of a preset moves by up to 45% between identical trees, so it tells no
change apart.

Per preset the tool prints, over the seeds, the median of the paired
differences (change minus parent) of the RMSE, the iterations and the min
N_eff, with the number of seeds on which the change is higher and lower;
the parent's seed-to-seed interquartile range (IQR) of the RMSE and of the
iterations.  A preset fails when the median
paired difference of its RMSE or of its iterations (the ``GATED``
metrics) exceeds ``BOUND`` times the parent's IQR of that metric, either
way; when the RMSE moved the same way on at least ``SIGN_SHARE`` of the
seeds on which it moved and its median paired difference exceeds
``SIGN_FLOOR`` times its IQR (a consistent shift, small against the
seed-to-seed spread); or when a run fails in one tree and not the other.
The exit status is 1 if any preset fails, else 0.  One seed gives an IQR
of 0, so any difference fails: the check needs several seeds, and was
calibrated at 10.

A change that reorders sums moves the time-mean RMSE of a chaotic,
partially observed preset by up to about 10% on one seed, so neither a
byte-level comparison (``tools/same_csvs.py``) nor one seed can tell it
from a regression; paired over many seeds, its differences center on 0,
and where they share a sign on nearly every seed they sit in the last
bits.  The sign gate leaves out the iterations: a rounding change can move
a stopping rule's mean iteration count the same way on every seed.
CHANGES.md records the calibration of ``BOUND``, ``SIGN_SHARE`` and
``SIGN_FLOOR``.
This is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

BOUND = 0.5
SIGN_SHARE = 0.9
SIGN_FLOOR = 0.05

RUNNER = """\
import json, math, statistics, sys
from mpfilter.config import load_preset, preset_names
from mpfilter.experiment import run_twin_experiment
seed, out = int(sys.argv[1]), {}
for name in preset_names():
    cfg = load_preset(name)
    if cfg.filter != "mpf":
        continue
    cfg.seed = seed
    try:
        records = run_twin_experiment(cfg).records
    except Exception as exc:
        out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        continue
    neffs = [r.neff for r in records if not math.isnan(r.neff)]
    out[name] = {
        "rmse": statistics.fmean(r.rmse for r in records),
        "iterations": statistics.fmean(r.map_iterations for r in records),
        "min_neff": min(neffs) if neffs else math.nan,
    }
print(json.dumps(out))
"""

METRICS = ("rmse", "iterations", "min_neff")
GATED = ("rmse", "iterations")


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3"`` or ``"1,4,7"``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seed(tree: Path, seed: int) -> dict:
    """All MPF presets of ``tree`` at ``seed`` in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(seed)],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        raise RuntimeError(f"{tree} seed {seed}: {lines[-1] if lines else proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values: list[float]) -> float:
    finite = [v for v in values if not np.isnan(v)]
    return statistics.median(finite) if finite else float("nan")


def _signs(diffs: list[float]) -> str:
    return f"{sum(d > 0 for d in diffs)}+/{sum(d < 0 for d in diffs)}-"


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Paired statistics of one preset over the seeds both trees ran."""
    errors = [(p.get("error"), c.get("error")) for p, c in zip(parent, change)]
    pairs = [(p, c) for p, c in zip(parent, change) if "error" not in p and "error" not in c]
    out = {"errors": sum(e != (None, None) for e in errors),
           "mismatched_errors": sum((p is None) != (c is None) for p, c in errors)}
    for metric in METRICS:
        diffs = [c[metric] - p[metric] for p, c in pairs]
        out[f"d_{metric}"] = _median(diffs)
        out[f"d_{metric}_signs"] = _signs(diffs)
    for metric in GATED:
        q1, q3 = np.percentile([p[metric] for p, _ in pairs], [25, 75]) if pairs else (0.0, 0.0)
        iqr, diff = float(q3 - q1), out[f"d_{metric}"]
        out[f"{metric}_iqr"] = iqr
        out[f"{metric}_ratio"] = abs(diff) / iqr if iqr > 0 else (
            0.0 if diff == 0 else float("inf"))
    rmse_diffs = [c["rmse"] - p["rmse"] for p, c in pairs]
    up, down = sum(d > 0 for d in rmse_diffs), sum(d < 0 for d in rmse_diffs)
    share = max(up, down) / (up + down) if up + down else 0.0
    out["shift"] = share >= SIGN_SHARE and out["rmse_ratio"] > SIGN_FLOOR
    out["ok"] = (bool(pairs) and out["mismatched_errors"] == 0
                 and all(out[f"{metric}_ratio"] <= BOUND for metric in GATED)
                 and not out["shift"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds, e.g. 1-10 (default) or 1,4,7")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    jobs = [(tree, seed) for seed in args.seeds for tree in trees]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run_seed(*job), jobs))
    parent, change = results[0::2], results[1::2]
    names = sorted(set().union(*parent, *change))

    print(f"{len(args.seeds)} seeds, bound {BOUND} x parent IQR; an RMSE shift of one "
          f"sign on {SIGN_SHARE:.0%} of the seeds it moved on fails above {SIGN_FLOOR} x IQR")
    print(f"{'preset':30} {'dRMSE':>10} {'signs':>7} {'IQR':>8} {'ratio':>6} "
          f"{'dIter':>7} {'signs':>7} {'IQR':>6} {'ratio':>6} "
          f"{'dMinNeff':>9}")
    failed = 0
    for name in names:
        s = summarize([r.get(name, {"error": "missing"}) for r in parent],
                      [r.get(name, {"error": "missing"}) for r in change])
        failed += not s["ok"]
        print(f"{name:30} {s['d_rmse']:>+10.4f} {s['d_rmse_signs']:>7} "
              f"{s['rmse_iqr']:>8.4f} {s['rmse_ratio']:>6.2f} "
              f"{s['d_iterations']:>+7.2f} {s['d_iterations_signs']:>7} "
              f"{s['iterations_iqr']:>6.2f} {s['iterations_ratio']:>6.2f} "
              f"{s['d_min_neff']:>+9.3f}  {'ok' if s['ok'] else 'FAILS'}"
              + (" (RMSE shifted)" if s["shift"] else "")
              + (f" ({s['errors']} failed runs)" if s["errors"] else ""))
    print(f"{len(names) - failed} of {len(names)} presets within the bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
