"""Hidden Markov model layer: Gaussian likelihood, mixture prior from the
previous ensemble, and the gradient of the log sequential posterior.

The target density per assimilation cycle is the Gaussian-mixture prior
(centered on the advanced previous particles, covariance Q) times the
Gaussian observation likelihood.  The mapping needs only the gradient of
the log posterior, whose prior term pulls each particle toward its
responsibility-weighted center, and the importance report the mixture's
log density.  :meth:`PriorMixture.evaluate` gives both from one
max-shifted softmax (at 40 dimensions the raw exponentials underflow) and
two matrix products, once per set of particle positions: the scores
``[z_x, 1] @ [Z_c, log(1/N_c) - h_c]^T`` of the whitened particles against
the whitened centers, and the exponentiated scores times ``[C, 1]``, the
unnormalized weighted center sum and its normalizer together.  The
responsibilities themselves are never formed.  The centers are frozen for
the cycle, so the mixture builds both center matrices once, when it is
built.  The log-posterior value itself is a test oracle, in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Covariance


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
    """Equal-weight Gaussian mixture prior: centers M(x_{k-1}^{(m)}),
    shared covariance Q."""

    centers: np.ndarray
    q: Covariance

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        # the centers are frozen for the cycle: their scores
        # [Z_c, log(1/N_c) - h_c] and their sum operand [C, 1] are built once
        n_c, n_x = self.centers.shape
        self._mean = self.centers.mean(axis=0)
        self._scores = np.empty((n_c, n_x + 1))
        self._sums = np.empty((n_c, n_x + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            h = self.q.whiten(self.centers, self._mean, self._scores[:, :n_x])
            np.subtract(np.log(1.0 / n_c), h, out=self._scores[:, n_x])
        self._h_max = h.max()
        self._sums[:, :n_x] = self.centers
        self._sums[:, n_x] = 1.0

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mixture at each row of ``x`` (a 2-D float array): the
        responsibility-weighted centers ``(p @ C) / s`` (N_x, n_x) and the
        unnormalized log density ``log(s) + top - h_x`` (N_x,).

        ``e = [z_x, 1] @ [Z_c, log(1/N_c) - h_c]^T`` is the log-psi
        ``log(1/N_c) - 1/2 |z_x - z_c|^2`` plus the particle's own half norm
        ``h_x``, which cancels in the softmax; ``p = exp(e - top)`` with
        ``top`` the row maximum, and ``s`` its row sums come from the same
        product as ``p @ C``.  A component that overflows is ``-inf``; a row
        whose components are all ``-inf`` (``top`` taken as 0, ``s = 0``)
        has log density ``-inf`` and NaN centers, which
        :func:`log_posterior_grad` rejects."""
        n_p, n_x = x.shape
        a = np.empty((n_p, n_x + 1))
        # overflow far from the centers is -inf; s = 0 where a row is all -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h = self.q.whiten(x, self._mean, a[:, :n_x])
            a[:, n_x] = 1.0
            e = a @ self._scores.T
            # |z_x . z_c| <= h_x + h_c (Cauchy-Schwarz), so while this bound
            # (with room for rounding) is finite no score overflows, so
            # every row's maximum is finite
            far = not math.isfinite(4.0 * (h.max() + self._h_max))
            if far:
                np.nan_to_num(e, copy=False, nan=-np.inf, posinf=-np.inf, neginf=-np.inf)
            top = e.max(axis=1, keepdims=True)
            if far:
                top[top == -np.inf] = 0.0
            e -= top
            p = np.exp(e, out=e)
            sums = p @ self._sums  # [p @ C, s]
            centers_bar, s = sums[:, :n_x], sums[:, n_x]
            centers_bar /= s[:, None]
            return centers_bar, np.log(s) + top[:, 0] - h


def log_likelihood(ssm: StateSpaceModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gaussian observation log likelihood of each row of the 2-D float
    ``x``, additive constant omitted."""
    return -0.5 * ssm.r.quadratic_form(y - x @ ssm.obs_matrix.T)


def log_posterior_grad(
    ssm: StateSpaceModel, prior: PriorMixture, x: np.ndarray, y: np.ndarray,
    mixture: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gradient of the log sequential posterior at each row of the 2-D
    float ``x``.

    ``H^T R^{-1} (y - H x) - Q^{-1} (x - sum_m resp_m c_m)`` where the
    responsibilities are the softmax of the mixture components at ``x``;
    the weighted center sum is read from ``mixture = prior.evaluate(x)``
    when it is given.
    """
    centers_bar, log_density = prior.evaluate(x) if mixture is None else mixture
    if (log_density == -np.inf).any():
        bad = int(np.argmin(log_density))
        raise NumericalDegeneracyError(
            f"mixture responsibilities underflowed at particle {bad}"
        )
    innov = y - x @ ssm.obs_matrix.T
    return ssm.r.solve(innov) @ ssm.obs_matrix - ssm.q.solve(x - centers_bar)
