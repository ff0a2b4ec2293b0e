"""Benchmark workloads: which preset each runs and how its output is checked.

A command makes at least ``MIN_RUNS`` runs and pools their cycle times, so
the 90th percentile has at least ten cycles beyond it.  ``rmse_band`` is the
accepted range of the time-mean analysis RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

CYCLES = 100
MIN_RUNS = 2


@dataclass(frozen=True)
class Workload:
    preset: str
    rmse_band: tuple[float, float]
    cycles: int = CYCLES


WORKLOADS = {
    # Pairwise kernel passes dominate: the in-loop neff rule and the
    # end-of-cycle KDE report.  Setup is mostly the climatology.  The upper
    # limit is acceptance criterion 1's for this preset; its lower limit of
    # 0.38 holds for a 500-cycle mean, while 100-cycle means reach 0.380
    # (seeds 1-12 give 0.380-0.486), so the lower limit here is 0.30.
    "l63-mpf-100p": Workload("lorenz63-full-100p", (0.30, 0.58)),
    # The EnKF twin of the lorenz96-full-20p preset: 20 x 40 states whose
    # forecast loops over particles through StateSpaceModel.advance_state.
    # Setup is the spin-up plus the 20k-step bank, with no climatology.  At
    # about 200 ms a cycle, 50 cycles keep a run near 17 s.  No acceptance
    # test sets a band for this preset; the 50-cycle means of 106 seeds
    # ranged 0.979-1.311, so the band is that range widened by about 0.18 on
    # each side.
    "l96-enkf-20p": Workload("lorenz96-full-20p-enkf", (0.8, 1.5), cycles=50),
}
# The presets lorenz96-full-20p (MPF) and cholera-20p are not workloads.  On
# a shared 2-vCPU KVM guest, Python-bound code swings up to 1.8x in speed
# within seconds, and their short runs (about 10 s and 2.5 s) followed that
# so closely that ten-seed spreads of their timings reached 0.30-0.50 in two
# of five sets (lorenz96) and 0.22-0.32 in all three (cholera, even with
# 25 s of runs per command), above the largest allowed bound of 0.25.  The
# cholera model is timed in micro.py instead.


def p90_index(n: int) -> int:
    """Zero-based nearest-rank index of the 90th percentile of ``n`` values."""
    return -(-9 * n // 10) - 1


def beyond_p90(n: int) -> int:
    """How many of ``n`` sorted values lie beyond the nearest-rank p90."""
    return n - 1 - p90_index(n)
