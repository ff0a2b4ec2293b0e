"""Fixed-size layer microtimings, reported as per-layer metrics only.

Each function runs on synthetic inputs of N_p particles in n_x dimensions
(Lorenz-63 for n_x = 3, Lorenz-96 for n_x = 40) built from a fixed seed;
``cholera_advance`` steps N_p cholera states (n_x = 6) one at a time over
one 20-step window, as the twin experiment's MPF forecast does.
A timing is the median over five batches of the mean time per call, with
each batch long enough to cover a few milliseconds.  The filters' windows
are one integration step, so the analysis part of ``sir_cycle`` and
``enkf_cycle`` is not hidden behind a long forecast.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from mpfilter.baselines import SirConfig, enkf_cycle, sir_cycle
from mpfilter.core import Covariance, Ensemble
from mpfilter.diagnostics import importance_report, kde_log_proposal
from mpfilter.experiment import default_cholera_params_path
from mpfilter.kernels import GaussianKernel
from mpfilter.models import CholeraModel, Lorenz63, Lorenz96, load_cholera_params
from mpfilter.mpf import kl_gradient_field
from mpfilter.rng import RandomStream
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_posterior_grad

PARTICLES = (5, 20, 100)
DIMS = (3, 40)
FUNCTIONS = ("step", "interactions", "log_posterior_grad", "kl_gradient_field",
             "kde_importance", "sir_cycle", "enkf_cycle")
CHOLERA_DIM = 6
CHOLERA_STEPS = 20
BATCHES = 5
BATCH_SECONDS = 0.004


def metric_names() -> list[str]:
    return [f"micro.{fn}.{n_p}x{n_x}.us"
            for fn in FUNCTIONS for n_p in PARTICLES for n_x in DIMS] + [
        f"micro.cholera_advance.{n_p}x{CHOLERA_DIM}.us" for n_p in PARTICLES]


def time_call(call) -> float:
    """Median over batches of the mean wall time of one call, in µs."""
    call()
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            call()
        if perf_counter() - t0 >= BATCH_SECONDS:
            break
        reps *= 2
    per_call = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            call()
        per_call.append((perf_counter() - t0) / reps)
    return statistics.median(per_call) * 1e6


def _calls(n_p: int, n_x: int) -> dict:
    rng = np.random.default_rng(n_p * 100 + n_x)
    if n_x == 3:
        model, centre, q_var, alpha = Lorenz63(), np.array([-5.9, -5.5, 24.6]), 1.0, 0.5
    else:
        model, centre, q_var, alpha = Lorenz96(n_vars=n_x), np.full(n_x, 8.0), 0.3, 20.0
    centre = centre + rng.standard_normal(n_x)
    states = centre + rng.standard_normal((n_p, n_x))
    q = Covariance.diagonal(np.full(n_x, q_var))
    ssm = StateSpaceModel(dynamics=model, obs_matrix=np.eye(n_x), q=q,
                          r=Covariance.isotropic(0.5, n_x), cycle_steps=1)
    prior = PriorMixture(states + 0.5 * rng.standard_normal((n_p, n_x)), q)
    y = centre + rng.standard_normal(n_x)
    kernel = GaussianKernel.from_model_error(q, alpha)
    grads = log_posterior_grad(ssm, prior, states, y)
    interactions = kernel.interactions(states)
    ens = Ensemble.equal_weight(states)
    streams = RandomStream(n_p)
    particle_rngs = streams.particle_streams(n_p)
    other_rng = streams.substream("resampling")
    sir_cfg = SirConfig()

    def kde_importance():
        log_q = kde_log_proposal(kernel, states, max_dim=n_x)
        return importance_report(ssm, prior, states, y, log_q, route="kde")

    return {
        "step": lambda: model.step(states),
        "interactions": lambda: kernel.interactions(states),
        "log_posterior_grad": lambda: log_posterior_grad(ssm, prior, states, y),
        "kl_gradient_field": lambda: kl_gradient_field(kernel, states, grads, interactions),
        "kde_importance": kde_importance,
        "sir_cycle": lambda: sir_cycle(ssm, ens, y, sir_cfg, particle_rngs, other_rng),
        "enkf_cycle": lambda: enkf_cycle(ssm, ens, y, particle_rngs, other_rng),
    }


def _cholera_advance(n_p: int):
    model = CholeraModel(load_cholera_params(default_cholera_params_path()))
    rng = np.random.default_rng(n_p)
    states = model.params.initial_state() * (1.0 + 0.05 * rng.random((n_p, CHOLERA_DIM)))
    particle_rngs = RandomStream(n_p).particle_streams(n_p)

    def call():
        return [model.advance(states[j], 0.0, CHOLERA_STEPS, particle_rngs[j])
                for j in range(n_p)]

    return call


def microtimings() -> dict[str, float]:
    out = {}
    for n_p in PARTICLES:
        for n_x in DIMS:
            for fn, call in _calls(n_p, n_x).items():
                out[f"micro.{fn}.{n_p}x{n_x}.us"] = time_call(call)
    for n_p in PARTICLES:
        out[f"micro.cholera_advance.{n_p}x{CHOLERA_DIM}.us"] = time_call(_cholera_advance(n_p))
    return out
