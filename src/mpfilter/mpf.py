"""Mapping particle filter engine.

One assimilation cycle: freeze the Gaussian-mixture prior (centers are the
deterministically advanced previous particles), then iterate

    g_l   = grad log posterior at particle l
    dKL_j = -(1/N_p) sum_l [ K(x_l, x_j) g_l + grad_source K(x_l, x_j) ]
    x_j  <- x_j + step rule(-dKL_j direction)

with a synchronous (Jacobi-style) batch update, until a convergence
criterion or the iteration cap fires.  For the Gaussian kernel both sums
are matrix products with the Gram matrix G (the matrix form of SVGD):
attraction ``G^T g`` and repulsion ``A^{-1} (G^T X - colsum(G) * X)``.
The O(N_p^2) work -- the Gram matrix and the mixture log-psi -- is done
once per set of particle positions and shared by the gradient at those
positions, the N_eff rule after the update that produced them and the
cycle's closing weight report.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble
from mpfilter.diagnostics import (
    KDE_MAX_DIM,
    WeightReport,
    importance_report,
    kde_log_proposal,
)
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_posterior_grad

OPTIMIZERS = ("sgd", "adadelta", "adam")
CRITERIA = ("neff", "grad_ratio", "max_iter")


class NonFiniteGradientError(RuntimeError):
    """A KL gradient turned non-finite during the mapping."""

    def __init__(self, particle: int, iteration: int, cycle: int | None = None):
        ctx = f"particle {particle}, iteration {iteration}"
        if cycle is not None:
            ctx = f"cycle {cycle}, " + ctx
        super().__init__(f"non-finite KL gradient at {ctx}")
        self.particle = particle
        self.iteration = iteration
        self.cycle = cycle


@dataclass
class MappingConfig:
    """Optimizer and stopping configuration for the mapping iterations."""

    optimizer: str = "adadelta"
    learning_rate: float = 0.03
    max_iterations: int = 50
    criterion: str = "neff"
    neff_threshold: float | None = None  # default 0.9 * N_p, set at run time
    grad_ratio_threshold: float = 0.07
    adadelta_rho: float = 0.95
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ContractViolation(f"optimizer {self.optimizer!r} is unknown")
        if self.criterion not in CRITERIA:
            raise ContractViolation(f"criterion {self.criterion!r} is unknown")
        if self.learning_rate <= 0.0:
            raise ContractViolation("learning_rate must be > 0")
        if self.max_iterations < 1:
            raise ContractViolation("max_iterations must be >= 1")
        if not 0.0 < self.grad_ratio_threshold < 1.0:
            raise ContractViolation("grad_ratio_threshold must be in (0, 1)")

    def resolved_neff_threshold(self, n_particles: int) -> float:
        t = 0.9 * n_particles if self.neff_threshold is None else self.neff_threshold
        if not 0.0 < t <= n_particles:
            raise ContractViolation("neff threshold must be in (0, N_p]")
        return t


class SgdOptimizer:
    def __init__(self, cfg: MappingConfig, shape):
        self.lr = cfg.learning_rate

    def step(self, grads: np.ndarray) -> np.ndarray:
        return -self.lr * grads


class AdadeltaOptimizer:
    """Adadelta with the conditioning constant set by the learning rate.

    The update is ``-sqrt(E[dx^2] + lr^2) / sqrt(E[g^2] + lr^2) * g``: the
    standard RMS-ratio rule, with ``lr^2`` as the conditioning constant in
    both accumulators.  The first step per component then has magnitude
    ~``lr`` (with the tiny Zeiler constant the iteration never leaves its
    floor), while near a fixed point the denominator floor makes the step
    proportional to the gradient, so the iteration settles instead of
    jittering at a fixed step size.
    """

    def __init__(self, cfg: MappingConfig, shape):
        self.rho = cfg.adadelta_rho
        self.lr2 = cfg.learning_rate**2
        self.acc_grad = np.zeros(shape)
        self.acc_delta = np.zeros(shape)

    def step(self, grads: np.ndarray) -> np.ndarray:
        self.acc_grad = self.rho * self.acc_grad + (1.0 - self.rho) * grads**2
        delta = (
            -np.sqrt(self.acc_delta + self.lr2)
            / np.sqrt(self.acc_grad + self.lr2)
            * grads
        )
        self.acc_delta = self.rho * self.acc_delta + (1.0 - self.rho) * delta**2
        return delta


class AdamOptimizer:
    def __init__(self, cfg: MappingConfig, shape):
        self.lr = cfg.learning_rate
        self.b1 = cfg.adam_beta1
        self.b2 = cfg.adam_beta2
        self.eps = cfg.adam_eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grads: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grads
        self.v = self.b2 * self.v + (1.0 - self.b2) * grads**2
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: MappingConfig, shape):
    cls = {"sgd": SgdOptimizer, "adadelta": AdadeltaOptimizer, "adam": AdamOptimizer}
    return cls[cfg.optimizer](cfg, shape)


def kl_gradient_field(
    kernel: GaussianKernel,
    states: np.ndarray,
    logp_grads: np.ndarray,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Monte-Carlo KL divergence gradient at every particle.

    ``dKL(x_j) = -(1/N_p) sum_l [K(x_l, x_j) g_l - A^{-1}(x_l - x_j) K(x_l, x_j)]``
    ``gram``, when given, is ``kernel.interactions(states)`` computed
    already.  The second term is the repulsion; with a single particle the
    field collapses to ``-g`` (the 3D-Var limit).
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    logp_grads = np.atleast_2d(np.asarray(logp_grads, dtype=float))
    if logp_grads.shape != states.shape:
        raise ContractViolation("logp_grads shape must match particle states")
    gram = kernel.interactions(states) if gram is None else gram
    n_p = states.shape[0]
    attract = gram.T @ logp_grads  # sum_l G[l, j] g_l
    # sum_l grad_source(x_l, x_j) = -A^{-1} sum_l G[l, j] (x_l - x_j)
    repulse = -kernel.bandwidth.solve(
        gram.T @ states - gram.sum(axis=0)[:, None] * states
    )
    return -(attract + repulse) / n_p


def check_convergence(
    cfg: MappingConfig,
    grad_norm_trace: list[float],
    neff_trace: list[float] | None = None,
    n_particles: int | None = None,
) -> bool:
    """Stopping decision after the latest iteration."""
    if not grad_norm_trace:
        raise ContractViolation("convergence check needs a nonempty trace")
    if cfg.criterion == "max_iter":
        return len(grad_norm_trace) >= cfg.max_iterations
    if cfg.criterion == "grad_ratio":
        initial = grad_norm_trace[0]
        if initial == 0.0:
            return True
        return grad_norm_trace[-1] / initial < cfg.grad_ratio_threshold
    # neff criterion
    if neff_trace is None or not neff_trace:
        raise ContractViolation(
            "neff criterion requires per-iteration weight diagnostics"
        )
    if n_particles is None:
        raise ContractViolation("neff criterion requires the particle count")
    return neff_trace[-1] >= cfg.resolved_neff_threshold(n_particles)


@dataclass
class MappingResult:
    """``report``: KDE-route weights of the final particles, or None above
    ``KDE_MAX_DIM`` state dimensions."""

    ensemble: Ensemble
    iterations: int
    grad_norm_trace: list[float]
    neff_trace: list[float]
    report: WeightReport | None


def _pairwise_pass(kernel: GaussianKernel, prior: PriorMixture, states: np.ndarray):
    """The O(N_p^2) quantities at one set of positions: the kernel Gram
    matrix and the mixture log-psi."""
    return kernel.interactions(states), prior.log_psi(states)


def _kde_report(ssm, prior, kernel, states, y, pairs) -> WeightReport:
    gram, log_psi = pairs
    log_q = kde_log_proposal(kernel, states, gram=gram)
    return importance_report(ssm, prior, states, y, log_q, route="kde", log_psi=log_psi)


@contextmanager
def _aborts_at(cycle: int | None, iteration: int):
    """Prefix an error raised inside with where the mapping stopped."""
    try:
        yield
    except Exception as exc:
        msg = f"mapping aborted at cycle {cycle}, iteration {iteration}: {exc}"
        raise type(exc)(msg) from exc


def mapping_cycle(
    ssm: StateSpaceModel,
    prior: PriorMixture,
    forecast: Ensemble,
    y: np.ndarray,
    kernel: GaussianKernel,
    cfg: MappingConfig,
    cycle: int | None = None,
    diag_sink=None,
) -> MappingResult:
    """Transport the forecast ensemble toward the sequential posterior.

    The prior mixture stays frozen for the whole cycle; all particles are
    updated from the previous-iteration snapshot.  ``diag_sink``, when
    given, receives ``(iteration, mean_grad_norm, neff_or_nan)`` tuples.
    """
    states = forecast.states.copy()
    n_p, n_x = states.shape
    opt = make_optimizer(cfg, states.shape)
    want_neff = cfg.criterion == "neff"
    grad_norms: list[float] = []
    neffs: list[float] = []

    # pass at the current positions, built when first needed after an update
    pairs = None
    report = None
    iterations = 0
    for i in range(cfg.max_iterations):
        with _aborts_at(cycle, i):
            if pairs is None:
                pairs = _pairwise_pass(kernel, prior, states)
            gram, log_psi = pairs
            logp_grads = log_posterior_grad(ssm, prior, states, y, log_psi=log_psi)
            field_vals = kl_gradient_field(kernel, states, logp_grads, gram)
        bad = ~np.all(np.isfinite(field_vals), axis=-1)
        if np.any(bad):
            raise NonFiniteGradientError(int(np.argmax(bad)), i, cycle)
        grad_norms.append(float(np.mean(np.linalg.norm(field_vals, axis=1))))

        deltas = opt.step(field_vals)
        states = states + deltas
        pairs = None
        iterations = i + 1

        neff = float("nan")
        if want_neff:
            with _aborts_at(cycle, i):
                pairs = _pairwise_pass(kernel, prior, states)
                report = _kde_report(ssm, prior, kernel, states, y, pairs)
            neff = report.n_eff
            neffs.append(neff)
        if diag_sink is not None:
            diag_sink(iterations, grad_norms[-1], neff)
        if cfg.criterion != "max_iter" and check_convergence(
            cfg, grad_norms, neffs if want_neff else None, n_p
        ):
            break

    # under the neff rule the last report already scored the final states
    if report is None and n_x <= KDE_MAX_DIM:
        with _aborts_at(cycle, iterations):
            pairs = _pairwise_pass(kernel, prior, states)
            report = _kde_report(ssm, prior, kernel, states, y, pairs)
    return MappingResult(
        ensemble=Ensemble.equal_weight(states),
        iterations=iterations,
        grad_norm_trace=grad_norms,
        neff_trace=neffs,
        report=report,
    )
