"""Hidden Markov model layer: Gaussian likelihood, mixture prior from the
previous ensemble, and the gradient of the log sequential posterior.

The target density per assimilation cycle is the Gaussian-mixture prior
(centered on the advanced previous particles, covariance Q) times the
Gaussian observation likelihood.  The log-posterior value and gradient are
known up to the normalization constant, which the mapping never needs.
Mixture responsibilities use log-sum-exp throughout; at 40 dimensions the
raw exponentials underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mpfilter.core import ContractViolation, Covariance


class NumericalDegeneracyError(RuntimeError):
    """Mixture responsibilities became non-finite even after log-sum-exp."""


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


@dataclass
class StateSpaceModel:
    """Dynamics + linear observation operator + error covariances.

    ``obs_matrix`` is the (N_y, N_x) observation matrix H; ``cycle_steps``
    is the number of integration steps between observations.
    """

    dynamics: object
    obs_matrix: np.ndarray
    q: Covariance
    r: Covariance
    cycle_steps: int

    def __post_init__(self):
        self.obs_matrix = np.atleast_2d(np.asarray(self.obs_matrix, dtype=float))
        n_y, n_x = self.obs_matrix.shape
        if n_y < 1:
            raise ContractViolation("observation operator needs at least one row")
        if n_x != self.q.dim:
            raise ContractViolation("H columns must match state dimension")
        if n_y != self.r.dim:
            raise ContractViolation("H rows must match observation dimension")
        if self.cycle_steps < 1:
            raise ContractViolation("cycle_steps must be >= 1")

    @property
    def n_x(self) -> int:
        return self.obs_matrix.shape[1]

    def observe(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.obs_matrix.T

    def forecast(
        self, states: np.ndarray, rngs: list[np.random.Generator], t0: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance every particle over one window from time ``t0``.

        Returns the model-transition centers and the centers plus one
        N(0, Q) draw per particle.  Particle ``j`` takes its model noise
        (cholera) and then its Q draw from ``rngs[j]``.
        """
        centers = self.dynamics.forecast(states, t0, self.cycle_steps, rngs)
        noise = np.stack([self.q.sample(rng) for rng in rngs])
        return centers, centers + noise


@dataclass
class PriorMixture:
    """Gaussian mixture prior: centers M(x_{k-1}^{(m)}), shared covariance Q."""

    centers: np.ndarray
    q: Covariance
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        n_p = self.centers.shape[0]
        if self.weights is None:
            self.weights = np.full(n_p, 1.0 / n_p)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n_p,) or np.any(w < 0.0):
                raise ContractViolation("mixture weights must be a probability vector")
            self.weights = w / w.sum()
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(self.weights)

    def log_psi(self, x: np.ndarray) -> np.ndarray:
        """Per-component log weights ``log w_m - 1/2 ||x - c_m||^2_Q``; the
        methods below take it precomputed as ``log_psi`` when given."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diffs = x[:, None, :] - self.centers[None, :, :]
        return self.log_weights[None, :] - 0.5 * self.q.quadratic_form(diffs)

    def log_density(self, x: np.ndarray, log_psi: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized mixture log density (batched)."""
        out = _logsumexp(self.log_psi(x) if log_psi is None else log_psi, axis=1)
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def responsibilities(
        self, x: np.ndarray, log_psi: np.ndarray | None = None
    ) -> np.ndarray:
        """Softmax responsibilities of each component at ``x`` (batched)."""
        lp = self.log_psi(x) if log_psi is None else log_psi
        lp = lp - np.max(lp, axis=1, keepdims=True)
        p = np.exp(lp)
        norm = p.sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
            bad = int(np.argmin(np.where(np.isfinite(norm[:, 0]), norm[:, 0], -1.0)))
            raise NumericalDegeneracyError(
                f"mixture responsibilities underflowed at particle {bad}"
            )
        out = p / norm
        return out if np.asarray(x).ndim > 1 else out[0]


def log_likelihood(ssm: StateSpaceModel, x: np.ndarray, y: np.ndarray):
    """Gaussian observation log likelihood, additive constant omitted."""
    x = np.asarray(x, dtype=float)
    innov = np.asarray(y, dtype=float) - ssm.observe(x)
    out = -0.5 * ssm.r.quadratic_form(innov)
    return out if x.ndim > 1 else float(out)


def log_posterior_unnormalized(
    ssm: StateSpaceModel, prior: PriorMixture, x: np.ndarray, y: np.ndarray
):
    """Log of the sequential posterior up to an additive constant."""
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    out = prior.log_density(x_arr) + np.atleast_1d(log_likelihood(ssm, x_arr, y))
    return out if np.asarray(x).ndim > 1 else float(out[0])


def log_posterior_grad(
    ssm: StateSpaceModel, prior: PriorMixture, x: np.ndarray, y: np.ndarray,
    log_psi: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the log sequential posterior (batched over particles).

    ``H^T R^{-1} (y - H x) - Q^{-1} (x - sum_m resp_m c_m)`` where the
    responsibilities are the softmax of the mixture components at ``x``
    (from ``log_psi = prior.log_psi(x)`` when it is given).
    """
    x_in = np.asarray(x, dtype=float)
    x_arr = np.atleast_2d(x_in)
    resp = prior.responsibilities(x_arr, log_psi)
    centers_bar = resp @ prior.centers
    innov = np.asarray(y, dtype=float) - ssm.observe(x_arr)
    grad = ssm.r.solve(innov) @ ssm.obs_matrix - ssm.q.solve(x_arr - centers_bar)
    return grad if x_in.ndim > 1 else grad[0]
