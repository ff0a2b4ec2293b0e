"""Filter diagnostics: importance weights against the sequential posterior,
effective sample size, KL-from-weights, RMSE/spread scoring, and the one
per-cycle diagnostic record every filter returns (:class:`CycleDiag`).

The proposal density for the weights is a kernel density estimate over the
particles, evaluated at the particles themselves from the column sums of
the kernel Gram matrix, and only up to ``KDE_MAX_DIM`` state dimensions.
The mapping forms the weights from what its pass at the particles
computed already (:func:`kde_log_density`, :func:`importance_weights`);
:func:`kde_log_proposal` and :func:`importance_report` take particles by
row.  Weights are a
diagnostic only: the filter ensemble, and the next cycle's prior, stay
equal-weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble, FilterFailure
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_likelihood

KDE_MAX_DIM = 10


@dataclass
class CycleDiag:
    """What one filter cycle reports; a filter leaves the fields it does
    not measure at their defaults (NaN, 0, False)."""

    neff: float = float("nan")
    kl_from_weights: float = float("nan")
    weight_variance: float = float("nan")
    map_iterations: int = 0
    grad_norm_initial: float = float("nan")
    grad_norm_final: float = float("nan")
    resampled: bool = False
    degenerate: bool = False


@dataclass
class WeightReport:
    weights: np.ndarray
    n_eff: float
    route: str

    @property
    def kl_from_weights(self) -> float:
        """Computed when read: the mapping's per-iteration N_eff reports
        never read it, only the cycle's closing one."""
        return kl_from_weights(self.weights)


def effective_sample_size(weights: np.ndarray) -> float:
    # 1 / sum(w^2), written through the variance decomposition
    # sum(w^2) = 1/n + sum((w - mean)^2) so uniform weights give exactly n
    w = np.asarray(weights, dtype=float)
    n = w.size
    spread = np.square(w - w.sum() / n).sum()
    return float(1.0 / (1.0 / n + spread))


def kl_from_weights(weights: np.ndarray) -> float:
    """``-(1/N_p) sum_j log(N_p w_j)``; zero iff the weights are uniform."""
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(w * w.size)
    return float(-np.mean(logs))


def kde_log_density(gram_colsums: np.ndarray) -> np.ndarray:
    """Log of the (unnormalized) KDE ``(1/N_p) sum_l K(x_l, .)`` at each
    particle ``x_j``, from the column sums of the Gram matrix.  The KDE
    normalization constant cancels in normalized weights."""
    return np.log(gram_colsums / gram_colsums.size)


def kde_log_proposal(
    kernel: GaussianKernel,
    states: np.ndarray,
    max_dim: int = KDE_MAX_DIM,
) -> np.ndarray:
    """:func:`kde_log_density` at the rows of a 2-D float array."""
    if states.shape[1] > max_dim:
        raise ContractViolation(
            f"KDE proposal limited to {max_dim} dimensions (got {states.shape[1]})"
        )
    return kde_log_density(kernel.interactions(states).sum(axis=0))


def importance_weights(
    log_lik: np.ndarray, log_prior: np.ndarray, log_proposal: np.ndarray, route: str,
) -> WeightReport:
    """Normalized importance weights of the sequential posterior, the log
    likelihood plus the log prior, against log proposal densities."""
    log_w = log_lik + log_prior - log_proposal
    top = log_w.max()
    if not np.isfinite(top):
        raise FilterFailure("degenerate weights", f"importance log weights degenerate (max {top})")
    w = np.exp(log_w - top)
    w /= w.sum()
    return WeightReport(weights=w, n_eff=effective_sample_size(w), route=route)


def importance_report(
    ssm: StateSpaceModel,
    prior: PriorMixture,
    states: np.ndarray,
    y: np.ndarray,
    log_proposal: np.ndarray,
    route: str,
) -> WeightReport:
    """:func:`importance_weights` at the rows of a 2-D float array."""
    if log_proposal.shape != (states.shape[0],):
        raise ContractViolation("one proposal density per particle required")
    _, log_prior = prior.evaluate(states)
    return importance_weights(log_likelihood(ssm, states, y), log_prior, log_proposal, route)


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
