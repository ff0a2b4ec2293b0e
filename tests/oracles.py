"""Reference forms the tests check the program against.

The program never evaluates the kernel or the log posterior at a single
point: it needs the Gram matrix, the KL-gradient repulsion and the
log-posterior gradient, batched over particles.  The closed forms here are
what those are checked against, and what acceptance criterion 7 checks by
finite differences:

* the Gaussian kernel ``K(x, x') = exp(-1/2 (x-x')^T A^{-1} (x-x'))``, its
  gradient in the source (first) argument and its mixed second derivative,
  as functions of the bandwidth covariance ``A``;
* the log sequential posterior up to an additive constant;
* the mixture log-sum-exp and softmax as two separate evaluations of
  ``log_psi``;
* the pairwise Mahalanobis distances as a difference tensor, as the
  allocating one-product form, and as the folded in-place product that
  both the Gram matrix and the mixture once called, with the Gram matrix,
  log-psi and mixture evaluation (weighted centers and log density)
  written on any of them; the program's own products reorder these sums,
  so the tests hold it to them within a tolerance that scales with the
  whitened squared norms (``gemm_tolerance``, ``mixture_tolerance``);
* the mapping's gradient, KL field and KDE weights as it formed them on
  particles stored by row, the oracle of the component-first pass;
* the Adadelta and Adam steps in their allocating form, whose bits the
  in-place optimizers must keep;
* the Lorenz drifts on states stored by particle, ``(..., n_x)``, and the
  RK4 window loop that stepped in that layout, whose bits the
  component-first integration must keep;
* the twin experiment's setup as the harness first wrote it, one branch per
  model name: the truth and initial ensemble (with the start-state table
  read it shares) and the observation operators, whose bits the models'
  own ``start``, ``initial_ensemble`` and ``observation_matrix`` must keep.
"""

import functools
import math
from dataclasses import fields
from importlib import resources

import numpy as np

from mpfilter.config import ConfigError
from mpfilter.core import Ensemble, FilterFailure
from mpfilter.models import advance_window, free_run
from mpfilter.ssm import log_likelihood


def bandwidth(kernel):
    """The kernel's bandwidth ``A = alpha Q`` as a covariance."""
    return kernel.q.scaled(kernel.alpha)


def kernel_value(bandwidth, x, xp) -> float:
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    return float(np.exp(-0.5 * bandwidth.quadratic_form(d)))


def grad_source(bandwidth, xl, x) -> np.ndarray:
    """Gradient of K with respect to its first argument, at ``(xl, x)``:
    ``-A^{-1} (xl - x) K(xl, x)``."""
    d = np.asarray(xl, dtype=float) - np.asarray(x, dtype=float)
    k = np.exp(-0.5 * bandwidth.quadratic_form(d))
    return -bandwidth.solve(d) * k


def cross_hessian(bandwidth, xl, xj) -> np.ndarray:
    """Mixed second derivative ``d^2 K / dx_j dx_l`` at ``(xl, xj)``:
    ``(A^{-1} - A^{-1} d d^T A^{-1}) K`` with ``d = xl - xj``."""
    d = np.asarray(xl, dtype=float) - np.asarray(xj, dtype=float)
    k = np.exp(-0.5 * bandwidth.quadratic_form(d))
    sd = bandwidth.solve(d)
    return (bandwidth.solve(np.eye(bandwidth.dim)) - np.outer(sd, sd)) * k


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):  # log(0) if all -inf
        return np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis)


def softmax_responsibilities(log_psi: np.ndarray) -> np.ndarray:
    """Row softmax of ``log_psi``; raises on a row whose components are all
    ``-inf``, naming the first such particle."""
    with np.errstate(invalid="ignore"):  # -inf - -inf is NaN
        lp = log_psi - np.max(log_psi, axis=1, keepdims=True)
    p = np.exp(lp)
    norm = p.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
        bad = int(np.argmin(np.where(np.isfinite(norm[:, 0]), norm[:, 0], -1.0)))
        raise FilterFailure("mixture underflow", "mixture responsibilities underflowed",
                            particle=bad)
    return p / norm


def log_posterior_unnormalized(ssm, prior, x, y):
    """Log of the sequential posterior up to an additive constant."""
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    out = (logsumexp(mixture_log_psi(prior, x_arr), axis=1)
           + np.atleast_1d(log_likelihood(ssm, x_arr, y)))
    return out if np.asarray(x).ndim > 1 else float(out[0])


def difference_tensor_form(cov, a, b):
    """Pairwise distances from the (N_a, N_b, n_x) difference tensor's
    quadratic form, as the Gram matrix and the mixture log-psi first built
    them."""
    return cov.quadratic_form(a[:, None, :] - b[None, :, :])


def allocating_form(cov, a, b):
    """Pairwise distances as one allocating matrix product: both sets
    whitened on the mean of ``b`` and separately, so the product is a
    general GEMM, then ``|z_a|^2 + |z_b|^2 - 2 z_a . z_b``, NaN to ``inf``
    and clipped at 0."""
    w = 1.0 / np.sqrt(np.diag(cov.matrix()))
    with np.errstate(over="ignore", invalid="ignore"):
        m = b.mean(axis=0)
        za, zb = (a - m) * w, (b - m) * w
        d = (za * za).sum(axis=1)[:, None] + (zb * zb).sum(axis=1) - 2.0 * (za @ zb.T)
    d[np.isnan(d)] = np.inf
    return np.maximum(d, 0.0, out=d)


def _whiten_rows(cov, x, m):
    """The rows of ``x`` whitened on ``m``, ``(x - m) Sigma^{-1/2}``, and
    their half squared norms, as the pairwise passes once whitened by row."""
    z = (x - m) * (1.0 / cov.std)
    h = (z * z).sum(axis=1)
    h *= 0.5
    return z, h


def folded_form(cov, a, b):
    """Pairwise distances as the one in-place product the Gram matrix and
    the mixture shared before each folded its terms into its own product:
    both sets whitened on the mean of ``b``, then ``-2 min(z_a . z_b -
    (h_a + h_b), 0)`` with ``h = |z|^2 / 2``, NaN to ``inf`` (scanned only
    when a whitened norm can overflow).  Bit for bit the allocating form,
    except at the ends of the float range."""
    m = b.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        (za, ha), (zb, hb) = _whiten_rows(cov, a, m), _whiten_rows(cov, b, m)
        d = za @ zb.T
        d -= ha[:, None] + hb
        if not math.isfinite(4.0 * (ha.max() + hb.max())):
            np.copyto(d, -np.inf, where=np.isnan(d))
        np.minimum(d, 0.0, out=d)
        return -2.0 * d


def gemm_tolerance(cov, *xs):
    """Absolute error allowed a one-product pairwise form against the
    difference tensor: its terms are whitened squared norms, so rounding
    scales with the largest of them.  Rows beyond 1e100, whose terms
    overflow to exact values, do not count."""
    return 1e-13 * max([1.0, *(cov.quadratic_form(x[np.abs(x).max(axis=1) < 1e100]).max(initial=0.0)
                              for x in xs)])


def mixture_tolerance(prior, x):
    """Absolute errors allowed the mixture's log density and weighted
    centers at the rows of ``x``: :func:`gemm_tolerance` of the rows and
    the centers, and that times the largest center coordinate."""
    tol = gemm_tolerance(prior.q, x, prior.centers)
    return tol, tol * max(1.0, np.abs(prior.centers).max())


def gram_matrix(bandwidth, states, pairwise=allocating_form):
    """Kernel Gram matrix with exactly 1 on the diagonal."""
    d = pairwise(bandwidth, states, states)
    np.fill_diagonal(d, 0.0)
    return np.exp(-0.5 * d)


def mixture_log_psi(prior, x, pairwise=allocating_form):
    """``log(1/N_c) - 1/2 ||x - c_m||^2_Q`` for every row of ``x``."""
    return np.log(1.0 / len(prior.centers)) - 0.5 * pairwise(prior.q, x, prior.centers)


def mixture_evaluate(prior, x, pairwise=allocating_form):
    """What ``PriorMixture.evaluate`` returns, from one allocating softmax:
    the responsibility-weighted centers and the log density (NaN centers
    and ``-inf`` where every component is ``-inf``)."""
    log_psi = mixture_log_psi(prior, x, pairwise)
    top = np.max(log_psi, axis=1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    p = np.exp(log_psi - top)
    s = p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0: all -inf
        return (p / s) @ prior.centers, np.log(s[:, 0]) + top[:, 0]


def row_major_grad(ssm, prior, x, y):
    """The log-posterior gradient at the rows of ``x`` as the mapping formed
    it by particle: ``H^T R^{-1} (y - H x) - Q^{-1} (x - sum_m resp_m
    c_m)``, the weighted centers from :func:`mixture_evaluate`; a particle
    whose mixture log density is ``-inf`` is rejected."""
    centers_bar, log_density = mixture_evaluate(prior, x)
    if (log_density == -np.inf).any():
        raise FilterFailure("mixture underflow", "mixture responsibilities underflowed",
                            particle=int(np.argmin(log_density)))
    innov = y - x @ ssm.obs_matrix.T
    return ssm.r.solve(innov) @ ssm.obs_matrix - ssm.q.solve(x - centers_bar)


def row_major_field(bandwidth, states, grads, gram):
    """The KL gradient at the rows of ``states`` as the mapping formed it by
    particle, from ``G^T [g | X | 1]``: ``(A^{-1} (G^T X - colsum(G) X) -
    G^T g) / N_p``."""
    n_p, n_x = states.shape
    sums = gram.T @ np.hstack([grads, states, np.ones((n_p, 1))])
    repulsion = bandwidth.solve(sums[:, n_x:-1] - sums[:, -1:] * states)
    return (repulsion - sums[:, :n_x]) / n_p


def row_major_weights(ssm, prior, states, y, gram):
    """The KDE importance weights at the rows of ``states`` as the mapping
    formed them by particle: the likelihood times the mixture over the KDE
    ``(1/N_p) sum_l K(x_l, .)``, normalized."""
    log_q = np.log(gram.sum(axis=0) / len(states))
    log_w = log_likelihood(ssm, states, y) + mixture_evaluate(prior, states)[1] - log_q
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def allocating_adadelta(rho, learning_rate, grads_seq):
    """Adadelta's steps as first written, every accumulator a new array per
    step: the bits the in-place optimizer must keep."""
    lr2 = learning_rate**2
    acc_grad = np.zeros_like(grads_seq[0])
    acc_delta = np.zeros_like(grads_seq[0])
    steps = []
    for grads in grads_seq:
        acc_grad = rho * acc_grad + (1.0 - rho) * grads**2
        delta = -np.sqrt(acc_delta + lr2) / np.sqrt(acc_grad + lr2) * grads
        acc_delta = rho * acc_delta + (1.0 - rho) * delta**2
        steps.append(delta)
    return steps


def allocating_adam(learning_rate, b1, b2, eps, grads_seq):
    """Adam's steps as first written, every moment a new array per step."""
    m = np.zeros_like(grads_seq[0])
    v = np.zeros_like(grads_seq[0])
    steps = []
    for t, grads in enumerate(grads_seq, start=1):
        m = b1 * m + (1.0 - b1) * grads
        v = b2 * v + (1.0 - b2) * grads**2
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        steps.append(-learning_rate * m_hat / (np.sqrt(v_hat) + eps))
    return steps


def row_major_drift(model, x: np.ndarray) -> np.ndarray:
    """The Lorenz-63 or Lorenz-96 drift of states ``(..., n_x)``."""
    if model.name == "lorenz63":
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty_like(x, dtype=float)
        out[..., 0] = model.sigma * (x2 - x1)
        out[..., 1] = x1 * (model.rho - x3) - x2
        out[..., 2] = x1 * x2 - model.beta * x3
        return out
    xp = x.take(np.arange(-2, model.n_x + 1) % model.n_x, axis=-1)
    out = xp[..., 3:] - xp[..., :-3]
    out *= xp[..., 1:-2]
    out -= x
    out += model.forcing
    return out


def row_major_window(model, x: np.ndarray, steps: int, every: int = 0):
    """``steps`` RK4 steps of ``row_major_drift`` from ``x`` ``(..., n_x)``:
    the final state and the states after every ``every``-th step.  A
    non-finite end state is replayed to raise the integration blow-up at
    the first step whose state is not finite, naming a batch's first row
    that is not."""
    def step(x):
        k1 = row_major_drift(model, x)
        k2 = row_major_drift(model, x + 0.5 * model.dt * k1)
        k3 = row_major_drift(model, x + 0.5 * model.dt * k2)
        k4 = row_major_drift(model, x + model.dt * k3)
        return x + (model.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x0 = x = np.asarray(x, dtype=float)
    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            x = step(x)
            if every and i % every == 0:
                samples.append(x.copy())
        if not np.isfinite(x).all():
            x = x0
            for i in range(1, steps + 1):
                x = step(x)
                finite = np.isfinite(x).all(axis=-1)
                if not finite.all():
                    particle = None if x.ndim == 1 else int(np.flatnonzero(~finite)[0])
                    raise FilterFailure("integration blow-up",
                                        f"integration of {model.name} blew up",
                                        particle=particle, step=i)
    return x, samples


def _table_key(model, entry: str) -> str:
    """Key of an ODE model's entry in ``data/start_states.npz``: the model
    name, every dataclass field as ``field:repr(value)``, then ``entry``
    (``climatology``, or ``spinup:<steps>`` for a start)."""
    params = [f"{f.name}:{getattr(model, f.name)!r}" for f in fields(model)]
    return " ".join([model.name, *params, entry])


def _shipped(model, entry: str, compute) -> np.ndarray:
    """``compute()``, read from the shipped ``data/start_states.npz`` when
    it lists the model's ``entry``."""
    with (resources.files("mpfilter") / "data" / "start_states.npz").open("rb") as f, \
            np.load(f, allow_pickle=False) as table:
        key = _table_key(model, entry)
        if key in table.files:
            return table[key]
    return compute()


def observation_matrix(cfg, model) -> np.ndarray:
    n_x = model.n_x
    window = cfg.cycle_steps * cfg.dt
    if cfg.obs_operator == "full":
        return np.eye(n_x)
    if cfg.obs_operator == "xonly":
        return np.eye(n_x)[:1]
    if cfg.obs_operator == "zonly":
        return np.eye(n_x)[2:3]
    if cfg.obs_operator == "every2":
        return np.eye(n_x)[::2]
    if cfg.obs_operator == "mortality":
        h = np.zeros((1, n_x))
        h[0, 1] = model.params.m_c * window  # mortality rate of the infected pool
        return h
    raise ConfigError(f"unknown obs_operator {cfg.obs_operator!r}")


def _integrate_start(model, spinup_steps: int) -> np.ndarray:
    """The seed-independent start of an ODE twin experiment, integrated from
    the model's fixed ``x0``: the Lorenz-63 truth after the spin-up, or the
    Lorenz-96 bank of 1000 states sampled every 20 steps after the spin-up
    (the truth is its last row; the members are drawn from the others)."""
    if model.name == "lorenz63":
        return advance_window(model, np.array([1.0, 1.0, 1.001]), spinup_steps)
    x0 = np.full(model.n_x, model.forcing)
    x0[0] += 0.01
    spun = advance_window(model, x0, spinup_steps)
    return free_run(model, spun, 20_000, sample_every=20)


@functools.lru_cache(maxsize=None)  # seed-independent; a copy per call below
def _cached_start(model, spinup_steps: int) -> np.ndarray:
    return _shipped(model, f"spinup:{spinup_steps}",
                    lambda: _integrate_start(model, spinup_steps))


def _start_states(model, spinup_steps: int) -> np.ndarray:
    """``_integrate_start(model, spinup_steps)``, shipped or integrated."""
    return _cached_start(model, spinup_steps).copy()


def setup_start(cfg, model, q, init_rng) -> tuple[np.ndarray, Ensemble]:
    """The truth and initial ensemble of a run, one branch per model, with
    ``init_rng`` the run's ``init`` stream."""
    if cfg.model == "lorenz63":
        truth0 = _start_states(model, cfg.spinup_steps)
        ens0 = Ensemble.equal_weight(truth0 + q.sample(init_rng, size=cfg.n_particles))
    elif cfg.model == "lorenz96":
        bank = _start_states(model, cfg.spinup_steps)
        truth0 = bank[-1]
        idx = init_rng.integers(0, bank.shape[0] - 1, size=cfg.n_particles)
        ens0 = Ensemble.equal_weight(bank[idx])
    else:
        truth0 = model.params.initial_state()
        start = truth0.copy()
        start[0] *= 0.8  # filter underestimates the susceptibles by 20%
        states = start + q.sample(init_rng, size=cfg.n_particles)
        states[:, :5] = np.maximum(states[:, :5], 0.0)
        ens0 = Ensemble.equal_weight(states)
    return truth0, ens0
