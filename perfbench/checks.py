"""Output checks on the per-cycle CSV a benchmark run writes."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Workload

TIMING_SUFFIX = "_ms"


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def untimed(header: list[str], rows: list[list[str]]) -> list[tuple[str, ...]]:
    """The header and rows without timing columns (names ending in ``_ms``),
    the only columns allowed to differ between runs of one seed."""
    keep = [i for i, name in enumerate(header) if not name.endswith(TIMING_SUFFIX)]
    return [tuple(row[i] for i in keep) for row in [header, *rows]]


def column(header: list[str], rows: list[list[str]], name: str) -> list[float]:
    i = header.index(name)
    return [float(row[i]) for row in rows]


def check_csv(workload: Workload, path: str | Path) -> tuple[list[str], float, list]:
    """Problems found in one run's CSV, its time-mean RMSE and its untimed
    cells (for comparison with other runs of the same seed)."""
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"no CSV: {exc}"], math.nan, []
    problems = []
    if len(rows) != workload.cycles:
        problems.append(f"{len(rows)} CSV rows for {workload.cycles} cycles")
    try:
        rmse = column(header, rows, "rmse")
        spread = column(header, rows, "spread")
        neff = column(header, rows, "neff")
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable CSV: {exc}"], math.nan, []
    for name, values in (("rmse", rmse), ("spread", spread), ("neff", neff)):
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite {name}")
    rmse_mean = sum(rmse) / len(rmse) if rmse else math.nan
    lo, hi = workload.rmse_band
    if not lo <= rmse_mean <= hi:
        problems.append(f"rmse_mean {rmse_mean:.4f} outside [{lo}, {hi}]")
    return problems, rmse_mean, untimed(header, rows)
