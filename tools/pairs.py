"""Alternated benchmark pairs of two source trees, written as a BENCH file.

    python tools/pairs.py --parent TREE --change TREE --workload W [--workload W ...]
                          --pairs K --out BENCH.json [--first-seed S] [--seconds T]
                          [--trace-seed N]

Each tree is a checkout with ``perfbench/`` and the package under ``src/``.
Pair ``k`` (1 to K) runs each tree's own ``perfbench/run.py --workload W
--seed S+k-1 --seconds T --trace 0``, each command in a fresh interpreter
started in its tree, the parent first on odd pairs and the change first on
even ones, so a drift of the host's speed falls on both sides alike.  With
``--trace-seed`` each tree also makes one ``--trace 1`` run per workload,
after its pairs.

The output has the keys of the committed ``BENCH_*.json`` files: ``what``
(the plan), ``host``, ``parent`` (the parent tree's commit), ``summary``,
``trace``, ``runs`` (every command's result, failed ones included) and
``superseded_runs`` (empty).  Per workload and end-to-end metric of
``BENCHMARK.json`` the summary gives each side's median and linear-
interpolated quartiles over its runs, the pairs the change wins in the
metric's direction (ties count for neither side) and the change-over-parent
ratio per pair, with its median, minimum and maximum.  A command that fails
or reports a failed check stays in ``runs`` and drops its pair from the
summary.  The exit status is 1 if any command failed, else 0.

This is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def git_sha(tree: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` command in ``tree``: its JSON result (or
    ``{"error": ...}``) and the environment line it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        err = proc.stderr.strip().splitlines()
        return {"error": err[-1] if err else f"exit {proc.returncode}"}, env
    if proc.returncode != 0 or not result.get("correct"):
        result["error"] = f"exit {proc.returncode}, check {'PASS' if result.get('correct') else 'FAIL'}"
    return result, env


def host_line(env: dict) -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return (f"{env.get('nproc', '?')}-CPU {model}, {platform.system()}, "
            f"Python {env.get('python', '?')}, numpy {env.get('numpy', '?')} "
            f"({env.get('blas', '?')})")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]) if values else (0.0, 0.0, 0.0)
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and its ratios,
    over the pairs in which neither command failed."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [(p["parent"], p["change"]) for _, p in sorted(by_pair.items())
             if len(p) == 2 and not any("error" in r["result"] for r in p.values())]
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
        change = [c["result"]["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        out[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": f"{wins}/{len(pairs)}",
            "ratio_change_over_parent": {
                "median": float(np.median(ratios)) if ratios else float("nan"),
                "min": min(ratios, default=float("nan")),
                "max": max(ratios, default=float("nan")),
            },
            "ratio_by_seed": {str(p["seed"]): round(r, 4) for (p, _), r in zip(pairs, ratios)},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/workloads.py; may repeat")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 1")
    parser.add_argument("--seconds", type=float, default=60.0, help="--seconds of each command")
    parser.add_argument("--trace-seed", type=int, help="seed of one --trace 1 run per side")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs, summary, traces, env = [], {}, {}, {}
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, env = bench(trees[side], workload, seed, args.seconds, 0)
                runs.append({"workload": workload, "seed": seed, "side": side, "trace": 0,
                             "pair": pair, "result": result})
                value = result.get("metrics", {}).get("cycles_per_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      + (f"cycles_per_s {value:.1f}" if "error" not in result
                         else result["error"]), flush=True)
        summary[workload] = summarize([r for r in runs if r["workload"] == workload],
                                      spec["end_to_end"])
        if args.trace_seed is not None:
            traces[workload] = {side: bench(tree, workload, args.trace_seed, args.seconds, 1)[0]
                                for side, tree in trees.items()}

    plan = (f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 in "
            f"each tree, alternating parent and change runs (pair k: seed "
            f"{args.first_seed}+k-1; odd pairs parent first, even pairs change first); "
            f"{args.pairs} pairs on each of {', '.join(args.workload)}. Quartiles are numpy's "
            "linear percentiles over the per-run values; change_wins counts pairs in which "
            "the change is better in the metric's direction (ties count for neither); "
            "ratio_change_over_parent is per pair.")
    if args.trace_seed is not None:
        plan += f" The 'trace' entries are one --trace 1 run per side and workload, seed {args.trace_seed}."
    out = {"what": plan, "host": host_line(env), "parent": git_sha(trees["parent"]),
           "summary": summary, "trace": traces, "runs": runs, "superseded_runs": []}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 1 if any("error" in r["result"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
