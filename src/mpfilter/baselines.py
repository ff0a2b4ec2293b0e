"""Reference filters: bootstrap SIR particle filter and stochastic EnKF.

Both advance the ensemble with ``StateSpaceModel.forecast`` (the model
transition plus additive model noise), then apply their respective
analysis step.  The EnKF is the perturbed-observation variant without
localization or inflation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble
from mpfilter.diagnostics import effective_sample_size
from mpfilter.ssm import StateSpaceModel, log_likelihood

RIDGE = 1e-8
ENKF_MIN_MEMBERS = 2  # the ensemble covariance divides by N_p - 1


@dataclass
class SirConfig:
    """Resampling policy: trigger threshold as a fraction of N_p."""

    resample_threshold: float = 0.5
    resampler: str = "systematic"

    def __post_init__(self):
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ContractViolation("resample_threshold must be in (0, 1]")
        if self.resampler not in ("systematic", "multinomial"):
            raise ContractViolation(f"resampler {self.resampler!r} is unknown")


@dataclass
class SirDiagnostics:
    n_eff: float
    resampled: bool
    degenerate: bool


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, stratified positions."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(w), positions).clip(0, n - 1)


def multinomial_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    n = w.size
    return np.searchsorted(np.cumsum(w), rng.random(n)).clip(0, n - 1)


def sir_cycle(
    ssm: StateSpaceModel,
    ens: Ensemble,
    y: np.ndarray,
    cfg: SirConfig,
    particle_rngs: list[np.random.Generator],
    resample_rng: np.random.Generator,
    t0: float = 0.0,
) -> tuple[Ensemble, SirDiagnostics]:
    """One bootstrap-filter cycle: forecast, reweight, maybe resample.

    If every likelihood underflows, the weights are reset to uniform and
    the cycle is flagged degenerate instead of crashing.
    """
    _, states = ssm.forecast(ens.states, particle_rngs, t0)
    n_p = states.shape[0]
    log_lik = np.atleast_1d(log_likelihood(ssm, states, y))
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
        resample = {
            "systematic": systematic_resample,
            "multinomial": multinomial_resample,
        }[cfg.resampler]
        idx = resample(w, resample_rng)
        states = states[idx]
        w = np.full(n_p, 1.0 / n_p)
        resampled = True
    return Ensemble(states, w), SirDiagnostics(n_eff, resampled, degenerate)


def enkf_cycle(
    ssm: StateSpaceModel,
    ens: Ensemble,
    y: np.ndarray,
    particle_rngs: list[np.random.Generator],
    perturb_rng: np.random.Generator,
    t0: float = 0.0,
) -> Ensemble:
    """Stochastic (perturbed-observation) EnKF analysis, no localization.

    Gain from ensemble covariances; each member assimilates ``y`` plus an
    independent N(0, R) perturbation.  A singular innovation covariance is
    ridge-regularized.
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
    return Ensemble.equal_weight(analysis)
