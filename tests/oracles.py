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
  ``log_psi``, which ``PriorMixture.evaluate`` must match bit for bit.
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
    out = (logsumexp(prior.log_psi(x_arr), axis=1)
           + np.atleast_1d(log_likelihood(ssm, x_arr, y)))
    return out if np.asarray(x).ndim > 1 else float(out[0])
