"""Reference filters: bootstrap SIR particle filter and stochastic EnKF.

Both advance the ensemble with ``StateSpaceModel.forecast`` (the model
transition plus additive model noise), then apply their respective
analysis step, and return the analysis ensemble with its ``CycleDiag``.
The EnKF is the perturbed-observation variant without localization or
inflation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble
from mpfilter.diagnostics import CycleDiag, effective_sample_size, weight_variance
from mpfilter.ssm import StateSpaceModel, log_likelihood

RIDGE = 1e-8
ENKF_MIN_MEMBERS = 2  # the ensemble covariance divides by N_p - 1


@dataclass
class SirConfig:
    """Resampling policy: trigger threshold as a fraction of N_p."""

    resample_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ContractViolation("resample_threshold must be in (0, 1]")


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, stratified positions."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(w), positions).clip(0, n - 1)


def sir_cycle(
    ssm: StateSpaceModel,
    ens: Ensemble,
    y: np.ndarray,
    cfg: SirConfig,
    particle_rngs: list[np.random.Generator],
    resample_rng: np.random.Generator,
    t0: float = 0.0,
) -> tuple[Ensemble, CycleDiag]:
    """One bootstrap-filter cycle: forecast, reweight, maybe resample.

    If every likelihood underflows, the weights are reset to uniform and
    the cycle is flagged degenerate instead of crashing.  The diagnostics
    carry N_eff before resampling and the variance of the returned weights.
    """
    _, states = ssm.forecast(ens.states, particle_rngs, t0)
    n_p = states.shape[0]
    log_lik = log_likelihood(ssm, states, y)
    with np.errstate(divide="ignore"):
        log_w = np.log(ens.weights) + log_lik
    log_w = log_w - np.max(log_w)
    w = np.exp(log_w)
    total = w.sum()
    degenerate = not np.isfinite(total) or total <= 0.0
    if degenerate:
        w = np.full(n_p, 1.0 / n_p)
    else:
        w = w / total
    n_eff = effective_sample_size(w)
    resampled = False
    if n_eff <= cfg.resample_threshold * n_p:
        idx = systematic_resample(w, resample_rng)
        states = states[idx]
        w = np.full(n_p, 1.0 / n_p)
        resampled = True
    diag = CycleDiag(neff=n_eff, weight_variance=weight_variance(w),
                     resampled=resampled, degenerate=degenerate)
    return Ensemble(states, w), diag


def enkf_cycle(
    ssm: StateSpaceModel,
    ens: Ensemble,
    y: np.ndarray,
    particle_rngs: list[np.random.Generator],
    perturb_rng: np.random.Generator,
    t0: float = 0.0,
) -> tuple[Ensemble, CycleDiag]:
    """Stochastic (perturbed-observation) EnKF analysis, no localization.

    Gain from ensemble covariances; each member assimilates ``y`` plus an
    independent N(0, R) perturbation.  A singular innovation covariance is
    ridge-regularized.  The members stay equal-weight: N_eff is N_p and the
    weight KL and variance are 0.
    """
    if ens.n_particles < ENKF_MIN_MEMBERS:
        raise ContractViolation(f"EnKF needs at least {ENKF_MIN_MEMBERS} members")
    _, states = ssm.forecast(ens.states, particle_rngs, t0)
    n_p = states.shape[0]
    h = ssm.obs_matrix
    mean = states.mean(axis=0)
    anom = states - mean
    obs_anom = anom @ h.T
    pf_ht = anom.T @ obs_anom / (n_p - 1)
    innov_cov = obs_anom.T @ obs_anom / (n_p - 1) + ssm.r.matrix()
    try:
        gain = np.linalg.solve(innov_cov, pf_ht.T).T
    except np.linalg.LinAlgError:
        innov_cov = innov_cov + RIDGE * np.eye(innov_cov.shape[0])
        gain = np.linalg.solve(innov_cov, pf_ht.T).T
    perturbed = y + ssm.r.sample(perturb_rng, size=n_p)
    analysis = states + (perturbed - states @ h.T) @ gain.T
    diag = CycleDiag(neff=float(n_p), kl_from_weights=0.0, weight_variance=0.0)
    return Ensemble.equal_weight(analysis), diag
