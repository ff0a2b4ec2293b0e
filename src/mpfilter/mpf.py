"""Mapping particle filter engine.

One assimilation cycle: freeze the equal-weight Gaussian-mixture prior
(centers are the deterministically advanced previous particles), then
iterate

    g_l   = grad log posterior at particle l
    dKL_j = -(1/N_p) sum_l [ K(x_l, x_j) g_l + grad_source K(x_l, x_j) ]
    x_j  <- x_j + step rule(-dKL_j direction)

with a synchronous (Jacobi-style) batch update, until a convergence
criterion or the iteration cap fires.

:func:`mapping_cycle` holds the particles as one contiguous ``(n_x, N_p)``
array stored by component for the whole cycle, as the model integration
does, so each broadcast and reduction over particles runs along contiguous
rows; it returns the row-major ``Ensemble``.  Every per-particle quantity
is a ``(k, N_p)`` array: the whitened particles, the innovation, the
gradient, the field and the optimizer state.  The O(N_p^2) work is one
pass per set of particle positions (:class:`_Pass`).  It whitens the
particles once, ``z = Q^{-1/2} (x - m)`` around the mean of the centers,
into the operand ``[z; -h; 1]``, from which the kernel Gram matrix ``G``
and the mixture evaluation (weighted centers and log density) are one
matrix product each; it computes the innovation ``y - H x`` and the Gram
column sums once.  The pass at the positions an update produced is shared
by the N_eff rule there, the gradient of the next iteration and the
cycle's closing weight report.  In whitened units the prior covariance is
I and the kernel bandwidth ``alpha I``, and both sums of the KL gradient
come from one product, ``[g; z] @ G``: the attraction ``sum_l G[l, j]
g_l`` and ``sum_l G[l, j] z_l``, from which the repulsion is
``(colsum(G)_j z_j - sum_l G[l, j] z_l) / alpha``.  The optimizer sees the field in
state units, ``Q^{-1/2}`` times it, so its steps, the gradient norms and
the stopping rules are those of the state coordinates.
:func:`mapping_cycle` checks its inputs once; what it calls trusts them.
A run failure inside the mapping (a mixture underflow, degenerate weights
or a non-finite gradient) is a ``core.FilterFailure`` that names the
particle where it can; the mapping sets its iteration and the harness
its cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble, FilterFailure
from mpfilter.diagnostics import (
    KDE_MAX_DIM,
    CycleDiag,
    WeightReport,
    importance_weights,
    kde_log_density,
    weight_variance,
)
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import (
    PriorMixture,
    StateSpaceModel,
    innovation,
    innovation_log_likelihood,
    whitened_gain,
    whitened_log_posterior_grad,
)

OPTIMIZERS = ("sgd", "adadelta", "adam")
CRITERIA = ("neff", "grad_ratio", "max_iter")
ADADELTA_RHO = 0.95
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MappingConfig:
    """Optimizer and stopping configuration for the mapping iterations.

    The optimizers' decay rates and Adam's epsilon are the textbook
    constants ``ADADELTA_RHO``, ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``."""

    optimizer: str = "adadelta"
    learning_rate: float = 0.03
    max_iterations: int = 50
    criterion: str = "neff"
    neff_threshold: float | None = None  # default 0.9 * N_p, set at run time
    grad_ratio_threshold: float = 0.07

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ContractViolation(f"optimizer {self.optimizer!r} is unknown")
        if self.criterion not in CRITERIA:
            raise ContractViolation(f"criterion {self.criterion!r} is unknown")
        # Adadelta conditions its steps with the square of the rate
        if not (self.learning_rate > 0.0
                and math.isfinite(self.learning_rate * self.learning_rate)):
            raise ContractViolation("learning_rate must be > 0 with a finite square")
        if self.max_iterations < 1:
            raise ContractViolation("max_iterations must be >= 1")
        if not 0.0 < self.grad_ratio_threshold < 1.0:
            raise ContractViolation("grad_ratio_threshold must be in (0, 1)")

    def resolved_neff_threshold(self, n_particles: int) -> float:
        t = 0.9 * n_particles if self.neff_threshold is None else self.neff_threshold
        if not 0.0 < t <= n_particles:
            raise ContractViolation("neff threshold must be in (0, N_p]")
        return t


def _decay(acc: np.ndarray, rate: float, x: np.ndarray):
    """``acc = rate * acc + (1 - rate) * x``, in place."""
    acc *= rate
    acc += (1.0 - rate) * x


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
        self.lr2 = cfg.learning_rate**2
        self.acc_grad = np.zeros(shape)
        self.acc_delta = np.zeros(shape)

    def step(self, grads: np.ndarray) -> np.ndarray:
        _decay(self.acc_grad, ADADELTA_RHO, grads * grads)
        delta = -np.sqrt(self.acc_delta + self.lr2)
        delta /= np.sqrt(self.acc_grad + self.lr2)
        delta *= grads
        _decay(self.acc_delta, ADADELTA_RHO, delta * delta)
        return delta


class AdamOptimizer:
    def __init__(self, cfg: MappingConfig, shape):
        self.lr = cfg.learning_rate
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grads: np.ndarray) -> np.ndarray:
        self.t += 1
        _decay(self.m, ADAM_BETA1, grads)
        _decay(self.v, ADAM_BETA2, grads * grads)
        delta = self.m / (1.0 - ADAM_BETA1**self.t)
        delta *= -self.lr
        delta /= np.sqrt(self.v / (1.0 - ADAM_BETA2**self.t)) + ADAM_EPS
        return delta


def make_optimizer(cfg: MappingConfig, shape):
    cls = {"sgd": SgdOptimizer, "adadelta": AdadeltaOptimizer, "adam": AdamOptimizer}
    return cls[cfg.optimizer](cfg, shape)


def _field(
    alpha: float,
    grads: np.ndarray,
    z: np.ndarray,
    gram: np.ndarray,
    colsums: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """``scale`` times the KL gradient in whitened units at each column,
    before its ``-1/N_p``: the attraction ``sum_l G[l, j] g_l`` plus the
    repulsion ``(colsum(G)_j z_j - sum_l G[l, j] z_l) / alpha``, both sums
    read from the one product ``[g; z] @ G``."""
    n_x = z.shape[0]
    sums = np.concatenate((grads, z)) @ gram
    field, repulsion = sums[:n_x], sums[n_x:]
    np.subtract(colsums * z, repulsion, out=repulsion)
    repulsion /= alpha
    field += repulsion
    field *= scale
    return field


def kl_gradient_field(
    kernel: GaussianKernel,
    states: np.ndarray,
    logp_grads: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """Monte-Carlo KL divergence gradient at every particle, the rows of
    ``states``.

    ``dKL(x_j) = -(1/N_p) sum_l [K(x_l, x_j) g_l - A^{-1}(x_l - x_j) K(x_l, x_j)]``
    with ``gram = kernel.interactions(states)``, formed as the mapping
    forms it, in units of the kernel's Q (the repulsion does not depend on
    where they are centered).  The second term is the repulsion; with a
    single particle the field collapses to ``-g`` (the 3D-Var limit).
    """
    if logp_grads.shape != states.shape:
        raise ContractViolation("logp_grads shape must match particle states")
    std = kernel.q.std[:, None]
    return _field(kernel.alpha, logp_grads.T * std, states.T / std, gram, gram.sum(axis=0),
                  -1.0 / (states.shape[0] * std)).T


def check_convergence(
    cfg: MappingConfig,
    grad_norm_trace: list[float],
    neff_trace: list[float],
    n_particles: int,
) -> bool:
    """Stopping decision after the latest iteration under the ``neff`` or
    ``grad_ratio`` criterion; ``mapping_cycle`` applies the iteration cap."""
    if cfg.criterion == "grad_ratio":
        initial = grad_norm_trace[0]
        if initial == 0.0:
            return True
        return grad_norm_trace[-1] / initial < cfg.grad_ratio_threshold
    return neff_trace[-1] >= cfg.resolved_neff_threshold(n_particles)


class _Pass:
    """The O(N_p^2) pass at one set of positions ``x`` ``(n_x, N_p)``: the
    particles whitened once, the Gram matrix and its column sums, the
    mixture evaluation (weighted centers, log density) and the innovation
    ``y - H x``."""

    def __init__(self, ssm, prior, kernel, y, x):
        self.w = prior.whiten(x)
        self.gram = kernel.gram(self.w)
        self.colsums = self.gram.sum(axis=0)
        self.mixture = prior.mix(self.w)
        self.innov = innovation(ssm, x, y)

    def report(self, ssm) -> WeightReport:
        """The KDE importance weights at these positions."""
        return importance_weights(innovation_log_likelihood(ssm, self.innov.T),
                                  self.mixture[1], kde_log_density(self.colsums), "kde")


def mapping_cycle(
    ssm: StateSpaceModel,
    centers: np.ndarray,
    states: np.ndarray,
    y: np.ndarray,
    kernel: GaussianKernel,
    cfg: MappingConfig,
    diag_sink=None,
) -> tuple[Ensemble, CycleDiag]:
    """Transport the forecast ``states`` toward the sequential posterior
    whose prior is the equal-weight mixture on the model-transition
    ``centers``.

    The prior mixture stays frozen for the whole cycle; all particles are
    updated from the previous-iteration snapshot.  ``diag_sink``, when
    given, receives ``(iteration, mean_grad_norm, neff_or_nan)`` tuples.
    The ``CycleDiag`` carries the iteration count, the first and last mean
    gradient norms and, up to ``KDE_MAX_DIM`` state dimensions, the KDE
    weight report of the final particles.  A ``FilterFailure`` inside the
    loop, a non-finite gradient among them, gains the iteration it
    stopped at.
    """
    prior = PriorMixture(centers, ssm.q)
    x = np.array(np.asarray(states, dtype=float).T, order="C")
    n_x, n_p = x.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (ssm.obs_matrix.shape[0],):
        raise ContractViolation(f"observation shape {y.shape} does not match H")
    if not np.array_equal(kernel.q.std, ssm.q.std):
        raise ContractViolation("the kernel bandwidth must be alpha times the model's Q")
    want_neff = cfg.criterion == "neff"
    if want_neff and n_x > KDE_MAX_DIM:
        raise ContractViolation(
            f"KDE proposal limited to {KDE_MAX_DIM} dimensions (got {n_x})")
    opt = make_optimizer(cfg, x.shape)
    gain = whitened_gain(ssm)
    scale = -1.0 / (n_p * ssm.q.std[:, None])  # whitened units -> state units, times -1/N_p
    grad_norms: list[float] = []
    neffs: list[float] = []

    # the pass at the current positions, made when first needed after an update
    here = None
    report = None
    iterations = i = 0
    try:
        for i in range(cfg.max_iterations):
            if here is None:
                here = _Pass(ssm, prior, kernel, y, x)
            grads = whitened_log_posterior_grad(ssm, gain, x, here.mixture, here.innov)
            field = _field(kernel.alpha, grads, here.w[:n_x], here.gram, here.colsums, scale)
            # the mean column norm, with np.linalg.norm's and np.mean's
            # arithmetic; a column that is not finite or whose norm
            # overflows stops the mapping
            with np.errstate(over="ignore"):
                norms = np.sqrt((field * field).sum(axis=0))
            finite = np.isfinite(norms)
            if not finite.all():  # name the first bad particle
                raise FilterFailure("non-finite gradient", "non-finite KL gradient norm",
                                    particle=int(np.argmin(finite)))
            grad_norms.append(float(norms.sum() / n_p))

            x += opt.step(field)
            here = None
            iterations = i + 1

            neff = float("nan")
            if want_neff:
                here = _Pass(ssm, prior, kernel, y, x)
                report = here.report(ssm)
                neff = report.n_eff
                neffs.append(neff)
            if diag_sink is not None:
                diag_sink(iterations, grad_norms[-1], neff)
            if cfg.criterion != "max_iter" and check_convergence(cfg, grad_norms, neffs, n_p):
                break

        # under the neff rule the last report already scored the final states
        i = iterations
        if report is None and n_x <= KDE_MAX_DIM:
            report = _Pass(ssm, prior, kernel, y, x).report(ssm)
    except FilterFailure as exc:
        exc.iteration = i
        raise
    diag = CycleDiag(map_iterations=iterations, grad_norm_initial=grad_norms[0],
                     grad_norm_final=grad_norms[-1])
    if report is not None:
        diag.neff = report.n_eff
        diag.kl_from_weights = report.kl_from_weights
        diag.weight_variance = weight_variance(report.weights)
    return Ensemble.equal_weight(x.T), diag
