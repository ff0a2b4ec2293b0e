"""Hidden Markov model layer: Gaussian likelihood, mixture prior from the
previous ensemble, and the gradient of the log sequential posterior.

The target density per assimilation cycle is the Gaussian-mixture prior
(centered on the advanced previous particles, covariance Q) times the
Gaussian observation likelihood.  The mapping needs only the gradient of
the log posterior, and the importance report the mixture's log density;
:meth:`PriorMixture.evaluate` gives both the responsibilities and that log
density from one max-shifted softmax (at 40 dimensions the raw exponentials
underflow), once per set of particle positions, computed in place under one
``np.errstate`` on trusted 2-D float input.  The centers are frozen for the
cycle, so the mixture whitens them once, when it is built; each evaluation
whitens only the particles.  The log-posterior value itself is a test
oracle, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mpfilter.core import ContractViolation, Covariance, neg_half_sq_distances


class NumericalDegeneracyError(RuntimeError):
    """Mixture responsibilities became non-finite even after log-sum-exp."""


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
        noisy = self.q.sample_rows(rngs)
        noisy += centers
        return centers, noisy


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
        # log(0) is -inf; the centers are frozen for the cycle: whiten once
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.log_weights = np.log(self.weights)
            self._mean = self.centers.mean(axis=0)
            self._z, self._half_norms = self.q.whiten(self.centers, self._mean)

    def _log_psi(self, x: np.ndarray) -> np.ndarray:
        """Per-component log weights ``log w_m - 1/2 ||x - c_m||^2_Q``, a
        fresh array per call, under :meth:`evaluate`'s ``np.errstate``."""
        z, h = self.q.whiten(x, self._mean)
        d = neg_half_sq_distances(z, h, self._z, self._half_norms)
        return np.add(d, self.log_weights, out=d)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mixture at each row of ``x`` from one softmax of its log-psi:
        the responsibilities ``p / s`` (N_x, N_c) and the unnormalized log
        density ``log(s) + top`` (N_x,), with ``p = exp(log_psi - top)``,
        ``s`` its row sums and ``top`` the row maximum (0 for a row whose
        components are all ``-inf``; its log density is ``-inf`` and its
        responsibilities NaN, which :func:`log_posterior_grad` rejects)."""
        # overflow far from the centers is -inf; s = 0 where a row is all -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_psi = self._log_psi(x)
            top = log_psi.max(axis=1, keepdims=True)
            top = np.where(np.isfinite(top), top, 0.0)
            log_psi -= top
            p = np.exp(log_psi, out=log_psi)
            s = p.sum(axis=1, keepdims=True)
            p /= s
            return p, np.log(s[:, 0]) + top[:, 0]


def log_likelihood(ssm: StateSpaceModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gaussian observation log likelihood of each row of the 2-D float
    ``x``, additive constant omitted."""
    return -0.5 * ssm.r.quadratic_form(y - x @ ssm.obs_matrix.T)


def log_posterior_grad(
    ssm: StateSpaceModel, prior: PriorMixture, x: np.ndarray, y: np.ndarray,
    mixture: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gradient of the log sequential posterior (batched over particles).

    ``H^T R^{-1} (y - H x) - Q^{-1} (x - sum_m resp_m c_m)`` where the
    responsibilities are the softmax of the mixture components at ``x``
    (read from ``mixture = prior.evaluate(x)`` when it is given).
    """
    xs = x if x.ndim > 1 else x[None]
    resp, log_density = prior.evaluate(xs) if mixture is None else mixture
    if (log_density == -np.inf).any():
        bad = int(np.argmin(log_density))
        raise NumericalDegeneracyError(
            f"mixture responsibilities underflowed at particle {bad}"
        )
    centers_bar = resp @ prior.centers
    innov = y - xs @ ssm.obs_matrix.T
    grad = ssm.r.solve(innov) @ ssm.obs_matrix - ssm.q.solve(xs - centers_bar)
    return grad if x.ndim > 1 else grad[0]
