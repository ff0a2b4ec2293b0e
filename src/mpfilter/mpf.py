"""Mapping particle filter engine.

One assimilation cycle: freeze the equal-weight Gaussian-mixture prior
(centers are the deterministically advanced previous particles), then
iterate

    g_l   = grad log posterior at particle l
    dKL_j = -(1/N_p) sum_l [ K(x_l, x_j) g_l + grad_source K(x_l, x_j) ]
    x_j  <- x_j + step rule(-dKL_j direction)

with a synchronous (Jacobi-style) batch update, until a convergence
criterion or the iteration cap fires.  For the Gaussian kernel both sums
are matrix products with the Gram matrix G (the matrix form of SVGD):
attraction ``G^T g`` and repulsion ``A^{-1} (G^T X - colsum(G) * X)``, all
three read from the one product ``G^T [g | X | 1]``.
The O(N_p^2) work -- the Gram matrix and one evaluation of the mixture
(its responsibility-weighted centers and log density from one softmax) --
is done once per set of particle positions and shared by the gradient at
those positions, the N_eff rule after the update that produced them and
the cycle's closing weight report.  Each is one matrix product of the
particles whitened once (``Covariance.whiten``) against a stacked
operand; the mixture's center operands are built once per cycle, and the
KL of the weights only for the closing report.
:func:`mapping_cycle` checks its inputs once; what it calls trusts them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Ensemble
from mpfilter.diagnostics import (
    KDE_MAX_DIM,
    CycleDiag,
    WeightReport,
    importance_report,
    kde_log_proposal,
    weight_variance,
)
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_posterior_grad

OPTIMIZERS = ("sgd", "adadelta", "adam")
CRITERIA = ("neff", "grad_ratio", "max_iter")
ADADELTA_RHO = 0.95
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradientError(RuntimeError):
    """A KL gradient, or its norm, turned non-finite during the mapping."""

    def __init__(self, particle: int, iteration: int, cycle: int | None = None):
        ctx = f"particle {particle}, iteration {iteration}"
        if cycle is not None:
            ctx = f"cycle {cycle}, " + ctx
        super().__init__(f"non-finite KL gradient norm at {ctx}")
        self.particle = particle
        self.iteration = iteration
        self.cycle = cycle


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


def kl_gradient_field(
    kernel: GaussianKernel,
    states: np.ndarray,
    logp_grads: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """Monte-Carlo KL divergence gradient at every particle.

    ``dKL(x_j) = -(1/N_p) sum_l [K(x_l, x_j) g_l - A^{-1}(x_l - x_j) K(x_l, x_j)]``
    with ``gram = kernel.interactions(states)``.  The second term is the
    repulsion; with a single particle the field collapses to ``-g`` (the
    3D-Var limit).
    """
    if logp_grads.shape != states.shape:
        raise ContractViolation("logp_grads shape must match particle states")
    n_p, n_x = states.shape
    rhs = np.empty((n_p, 2 * n_x + 1))
    rhs[:, :n_x] = logp_grads
    rhs[:, n_x:-1] = states
    rhs[:, -1] = 1.0
    # sum_l G[l, j] [g_l | x_l | 1]: the attraction, G^T X and colsum(G)
    sums = gram.T @ rhs
    # sum_l grad_source(x_l, x_j) = -A^{-1} sum_l G[l, j] (x_l - x_j)
    field = np.multiply(sums[:, -1:], states)
    np.subtract(sums[:, n_x:-1], field, out=field)
    field = kernel.bandwidth.solve(field)
    field -= sums[:, :n_x]
    field /= n_p
    return field


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


def _pairwise_pass(kernel: GaussianKernel, prior: PriorMixture, states: np.ndarray):
    """The O(N_p^2) quantities at one set of positions: the kernel Gram
    matrix and the mixture evaluation (weighted centers, log density)."""
    return kernel.interactions(states), prior.evaluate(states)


def _kde_report(ssm, prior, kernel, states, y, pairs) -> WeightReport:
    gram, mixture = pairs
    log_q = kde_log_proposal(kernel, states, gram=gram)
    return importance_report(ssm, prior, states, y, log_q, route="kde", mixture=mixture)


@contextmanager
def _aborts_at(cycle: int | None, iteration: int):
    """Prefix the message of an error raised inside with where the mapping stopped."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"mapping aborted at cycle {cycle}, iteration {iteration}: {exc}",)
        raise


def mapping_cycle(
    ssm: StateSpaceModel,
    centers: np.ndarray,
    states: np.ndarray,
    y: np.ndarray,
    kernel: GaussianKernel,
    cfg: MappingConfig,
    cycle: int | None = None,
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
    weight report of the final particles.
    """
    prior = PriorMixture(centers, ssm.q)
    states = np.array(states, dtype=float)
    n_p, n_x = states.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (ssm.obs_matrix.shape[0],):
        raise ContractViolation(f"observation shape {y.shape} does not match H")
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
            gram, mixture = pairs
            logp_grads = log_posterior_grad(ssm, prior, states, y, mixture=mixture)
            field_vals = kl_gradient_field(kernel, states, logp_grads, gram)
        # the mean row norm, with np.linalg.norm's and np.mean's arithmetic;
        # a row that is not finite or whose norm overflows stops the mapping
        with np.errstate(over="ignore"):
            norms = np.sqrt((field_vals * field_vals).sum(axis=1))
        finite = np.isfinite(norms)
        if not finite.all():  # name the first bad particle
            raise NonFiniteGradientError(int(np.argmin(finite)), i, cycle)
        grad_norms.append(float(norms.sum() / n_p))

        states += opt.step(field_vals)
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
        if cfg.criterion != "max_iter" and check_convergence(cfg, grad_norms, neffs, n_p):
            break

    # under the neff rule the last report already scored the final states
    if report is None and n_x <= KDE_MAX_DIM:
        with _aborts_at(cycle, iterations):
            pairs = _pairwise_pass(kernel, prior, states)
            report = _kde_report(ssm, prior, kernel, states, y, pairs)
    diag = CycleDiag(map_iterations=iterations, grad_norm_initial=grad_norms[0],
                     grad_norm_final=grad_norms[-1])
    if report is not None:
        diag.neff = report.n_eff
        diag.kl_from_weights = report.kl_from_weights
        diag.weight_variance = weight_variance(report.weights)
    return Ensemble.equal_weight(states), diag
