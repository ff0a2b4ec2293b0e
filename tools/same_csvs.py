"""Check that two source trees give the same per-cycle output on every preset.

    python tools/same_csvs.py PARENT_TREE CHANGE_TREE [--cycles N]

Each tree is a checkout with the package under ``src/``.  Every preset that
``mpfilter list-presets`` names (the MPF presets and their ``-sir`` and
``-enkf`` twins) runs once per tree, two runs at a time, each in a fresh
interpreter with that tree's ``src`` on ``PYTHONPATH``, at the preset's own
cycle count or at ``--cycles N``.  The files a run writes are then
compared: a CSV field by field outside the ``*_ms`` columns (wall-clock
timings), every other file (``_resolved.cfg``) byte for byte, reported by
the first line a diff removes or adds and the count of the others.  A run
that fails must fail alike in both trees.  The last line counts the CSVs
and the resolved configs that are the same.  The exit status is 1 if any
file or run differs, else 0.

This is the check for a change that should not move any result bit; it is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RUNNER = """\
import sys
from mpfilter.config import load_preset
from mpfilter.experiment import run_twin_experiment
name, out, cycles = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = load_preset(name)
if cycles:
    cfg.cycles = cycles
run_twin_experiment(cfg, out_dir=out, name=name)
"""


def _env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def preset_names(tree: Path) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-m", "mpfilter.cli", "list-presets"],
        env=_env(tree), capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def run_preset(tree: Path, name: str, out: Path, cycles: int) -> str:
    """Run one preset in a fresh interpreter; return its error text or ''."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, name, str(out), str(cycles)],
        env=_env(tree), capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return ""
    lines = proc.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit {proc.returncode}"


def csv_difference(a: Path, b: Path) -> str:
    """First difference of two CSVs outside the ``*_ms`` columns, or ''."""
    rows_a = a.read_text(encoding="utf-8").splitlines()
    rows_b = b.read_text(encoding="utf-8").splitlines()
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "header differs"
    header = rows_a[0].split(",")
    keep = [i for i, col in enumerate(header) if not col.endswith("_ms")]
    for n, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        fa, fb = ra.split(","), rb.split(",")
        for i in keep:
            if fa[i] != fb[i]:
                return f"row {n}, column {header[i]}: {fa[i]} != {fb[i]}"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} rows != {len(rows_b) - 1} rows"
    return ""


def text_difference(a: Path, b: Path) -> str:
    """First line a diff of two text files removes or adds, and how many
    other lines it changes, or ''."""
    text_a, text_b = a.read_bytes(), b.read_bytes()
    if text_a == text_b:
        return ""
    diff = difflib.unified_diff(text_a.decode().splitlines(), text_b.decode().splitlines(),
                                lineterm="", n=0)
    changed = [line for line in diff
               if line[:1] in "-+" and not line.startswith(("---", "+++"))]
    if not changed:
        return "bytes differ"
    more = f" (and {len(changed) - 1} more changed lines)" if len(changed) > 1 else ""
    return f"{changed[0]!r}{more}"


def compare(out_a: Path, out_b: Path) -> dict[str, str]:
    """Each file either run wrote, by name, with its first difference or
    ''; a file only one run wrote differs."""
    diffs = {}
    for fname in sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()}):
        a, b = out_a / fname, out_b / fname
        if not (a.exists() and b.exists()):
            diffs[fname] = f"written in the {'parent' if a.exists() else 'change'} only"
        else:
            diffs[fname] = (csv_difference if fname.endswith(".csv") else text_difference)(a, b)
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent source tree")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--cycles", type=int, default=0,
                        help="cycles per run (default: each preset's own)")
    args = parser.parse_args(argv)
    if args.cycles < 0:
        parser.error("--cycles must be >= 0")
    trees = (args.parent.resolve(), args.change.resolve())
    names = preset_names(trees[0])
    if preset_names(trees[1]) != names:
        print("the two trees list different presets")
        return 1

    with tempfile.TemporaryDirectory(prefix="same_csvs_") as tmp:
        jobs = [(tree, name, Path(tmp) / side / name)
                for name in names for side, tree in zip(("parent", "change"), trees)]
        for _, _, out in jobs:
            out.mkdir(parents=True)
        with ThreadPoolExecutor(max_workers=2) as pool:
            errors = list(pool.map(
                lambda job: run_preset(job[0], job[1], job[2], args.cycles), jobs))
        failed = 0
        files = {"CSVs": [0, 0], "resolved configs": [0, 0]}  # kind -> [same, total]
        for k, name in enumerate(names):
            err_a, err_b = errors[2 * k], errors[2 * k + 1]
            diffs = compare(jobs[2 * k][2], jobs[2 * k + 1][2])
            for fname, diff in diffs.items():
                tally = files["CSVs" if fname.endswith(".csv") else "resolved configs"]
                tally[0] += not diff
                tally[1] += 1
            problems = [f"{fname}: {diff}" for fname, diff in diffs.items() if diff]
            if err_a != err_b:
                problems.append(f"run error {err_a!r} != {err_b!r}")
            failed += bool(problems)
            status = "DIFFERS" if problems else "same"
            if err_a and not problems:
                status += f" (both fail: {err_a})"
            print(f"{name}: {status}")
            for problem in problems:
                print(f"    {problem}")
    print("; ".join(f"{same} of {total} {kind} the same"
                    for kind, (same, total) in files.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
