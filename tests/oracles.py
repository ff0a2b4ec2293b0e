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
  ``log_psi``, which ``PriorMixture.evaluate`` must match bit for bit;
* the pairwise Mahalanobis distances as a difference tensor, and as the
  allocating one-product form whose bits the in-place Gram matrix and
  mixture evaluation must keep, with the Gram matrix, log-psi and mixture
  evaluation written on either;
* the Adadelta and Adam steps in their allocating form, whose bits the
  in-place optimizers must keep.
"""

import numpy as np

from mpfilter.ssm import NumericalDegeneracyError, log_likelihood


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
        raise NumericalDegeneracyError(
            f"mixture responsibilities underflowed at particle {bad}"
        )
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


def gram_matrix(bandwidth, states, pairwise=allocating_form):
    """Kernel Gram matrix with exactly 1 on the diagonal."""
    d = pairwise(bandwidth, states, states)
    np.fill_diagonal(d, 0.0)
    return np.exp(-0.5 * d)


def mixture_log_psi(prior, x, pairwise=allocating_form):
    """``log w_m - 1/2 ||x - c_m||^2_Q`` for every row of ``x``."""
    return prior.log_weights - 0.5 * pairwise(prior.q, x, prior.centers)


def mixture_evaluate(prior, x, pairwise=allocating_form):
    """Responsibilities and log density from one allocating softmax."""
    log_psi = mixture_log_psi(prior, x, pairwise)
    top = np.max(log_psi, axis=1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    p = np.exp(log_psi - top)
    s = p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0: all -inf
        return p / s, np.log(s[:, 0]) + top[:, 0]


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
