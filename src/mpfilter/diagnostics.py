"""Filter diagnostics: importance weights against the sequential posterior,
effective sample size, KL-from-weights, and RMSE/spread scoring.

The proposal density for the weights is a kernel density estimate over the
particles, evaluated at the particles themselves from the kernel Gram
matrix, and only up to ``KDE_MAX_DIM`` state dimensions.  Weights are a
diagnostic by default; the filter ensemble itself stays equal-weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import (
    NumericalDegeneracyError,
    PriorMixture,
    StateSpaceModel,
    log_likelihood,
)

KDE_MAX_DIM = 10


@dataclass
class WeightReport:
    weights: np.ndarray
    n_eff: float
    kl_from_weights: float
    route: str


def effective_sample_size(weights: np.ndarray) -> float:
    # 1 / sum(w^2), written through the variance decomposition
    # sum(w^2) = 1/n + sum((w - mean)^2) so uniform weights give exactly n
    w = np.asarray(weights, dtype=float)
    n = w.size
    spread = np.sum(np.square(w - w.mean()))
    return float(1.0 / (1.0 / n + spread))


def kl_from_weights(weights: np.ndarray) -> float:
    """``-(1/N_p) sum_j log(N_p w_j)``; zero iff the weights are uniform."""
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(w * w.size)
    return float(-np.mean(logs))


def kde_log_proposal(
    kernel: GaussianKernel,
    states: np.ndarray,
    max_dim: int = KDE_MAX_DIM,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Log of the (unnormalized) KDE ``(1/N_p) sum_l K(x_l, .)`` at each
    particle ``x_j``.

    ``gram``, when given, is ``kernel.interactions(states)`` computed
    already.  The KDE normalization constant cancels in normalized weights.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] > max_dim:
        raise ContractViolation(
            f"KDE proposal limited to {max_dim} dimensions (got {states.shape[1]})"
        )
    gram = kernel.interactions(states) if gram is None else gram
    return np.log(gram.mean(axis=0))


def importance_report(
    ssm: StateSpaceModel,
    prior: PriorMixture,
    states: np.ndarray,
    y: np.ndarray,
    log_proposal: np.ndarray,
    route: str,
    log_psi: np.ndarray | None = None,
) -> WeightReport:
    """Normalized importance weights from log proposal densities.

    ``log_psi``, when given, is ``prior.log_psi(states)`` computed already.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    log_proposal = np.asarray(log_proposal, dtype=float)
    if log_proposal.shape != (states.shape[0],):
        raise ContractViolation("one proposal density per particle required")
    log_w = (
        np.atleast_1d(log_likelihood(ssm, states, y))
        + prior.log_density(states, log_psi)
        - log_proposal
    )
    top = np.max(log_w)
    if not np.isfinite(top):
        raise NumericalDegeneracyError(f"importance log weights degenerate (max {top})")
    w = np.exp(log_w - top)
    w = w / w.sum()
    return WeightReport(
        weights=w,
        n_eff=effective_sample_size(w),
        kl_from_weights=kl_from_weights(w),
        route=route,
    )


def score_cycle(truth: np.ndarray, analysis: Ensemble) -> tuple[float, float]:
    """RMSE of the analysis mean against the truth, and ensemble spread."""
    truth = np.asarray(truth, dtype=float)
    mean, spread = analysis.mean_and_spread()
    if truth.shape != mean.shape:
        raise ContractViolation("truth dimension must match the ensemble")
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    return rmse, spread


def weight_variance(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    return float(np.var(w))
