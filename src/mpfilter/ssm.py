"""Hidden Markov model layer: Gaussian likelihood, mixture prior from the
previous ensemble, and the gradient of the log sequential posterior.

The target density per assimilation cycle is the Gaussian-mixture prior
(centered on the advanced previous particles, covariance Q) times the
Gaussian observation likelihood.  The mapping works on particles stored
by component, ``(n_x, N_p)``, whitened once per set of positions by
:meth:`PriorMixture.whiten` into the operand ``[z; -h; 1]``, with ``z =
Q^{-1/2} (x - m)`` around the mean ``m`` of the centers and ``h = |z|^2 /
2``.  It needs the gradient of the log posterior, whose prior term pulls
each particle toward its responsibility-weighted center, and, for the
importance report, the mixture's log density.  :meth:`PriorMixture.mix`
gives both from one max-shifted softmax (at 40 dimensions the raw
exponentials underflow) and two matrix products: the scores ``[Z_c, 1,
log(1/N_c) - h_c] @ [z; -h; 1]``, the log-psi laid out ``(N_c, N_p)`` so
that the shift is a column maximum over contiguous rows, and ``[C^T; 1]``
times the exponentiated scores, the unnormalized weighted center sum and
its normalizer together.  The responsibilities themselves are never
formed.  The centers are frozen for the cycle, so the mixture whitens
them and builds both center operands once, when it is built.
:func:`whitened_log_posterior_grad` forms the gradient in the whitened
coordinates from the mixture and the innovation ``y - H x``;
:func:`log_posterior_grad` and :meth:`PriorMixture.evaluate` take and
return particles by row.  The log-posterior value itself is a test
oracle, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Covariance, FilterFailure


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
        # [Z_c, 1, log(1/N_c) - h_c] and their sum operand [C^T; 1] are built once
        n_c, n_x = self.centers.shape
        self._mean = self.centers.mean(axis=0)
        wc = self.whiten(self.centers.T)
        self._scores = np.empty((n_c, n_x + 2))
        self._scores[:, :n_x] = wc[:n_x].T
        self._scores[:, n_x] = 1.0
        np.add(wc[n_x], np.log(1.0 / n_c), out=self._scores[:, n_x + 1])
        self._h_max = -wc[n_x].min()
        self._sums = np.empty((n_x + 1, n_c))
        self._sums[:n_x] = self.centers.T
        self._sums[n_x] = 1.0

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """``Covariance.whiten`` of the columns of ``x`` ``(n_x, N)`` by Q,
        around the mean of the centers."""
        return self.q.whiten(x, self._mean)

    def mix(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mixture at the particles whitened into ``w`` (:meth:`whiten`):
        the responsibility-weighted centers ``(C^T p) / s`` ``(n_x, N)`` and
        the log density ``log(s) + top`` ``(N,)``.

        ``e = [Z_c, 1, log(1/N_c) - h_c] @ [z; -h; 1]`` is the log-psi
        ``log(1/N_c) - 1/2 |z - z_c|^2``; ``p = exp(e - top)`` with ``top``
        the column maximum, and ``s`` its column sums come from the same
        product as ``C^T p``.  A component that overflows is ``-inf``; a
        column whose components are all ``-inf`` (``top`` taken as 0, ``s =
        0``) has log density ``-inf`` and NaN centers, which
        :func:`whitened_log_posterior_grad` rejects.  A particle with a NaN
        coordinate has a NaN log density and NaN centers, which it passes
        on, so the mapping stops at the KL field that is not finite."""
        n_x = w.shape[0] - 2
        # overflow far from the centers is -inf; s = 0 where a column is all -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e = self._scores @ w
            # |z . z_c| <= h + h_c (Cauchy-Schwarz), so while this bound
            # (with room for rounding) is finite no score overflows, so
            # every column's maximum is finite
            far = not math.isfinite(4.0 * (self._h_max - w[n_x].min()))
            if far:
                np.nan_to_num(e, copy=False, nan=-np.inf, posinf=-np.inf, neginf=-np.inf)
            top = e.max(axis=0)
            if far:
                top[top == -np.inf] = 0.0
                top[np.isnan(w[n_x])] = np.nan  # a NaN particle's density is NaN
            e -= top
            p = np.exp(e, out=e)
            sums = self._sums @ p  # [C^T p; s]
            centers_bar, s = sums[:n_x], sums[n_x]
            centers_bar /= s
            return centers_bar, np.log(s) + top

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`mix` at the rows of the 2-D float ``x``: the weighted
        centers ``(N, n_x)`` and the log density."""
        centers_bar, log_density = self.mix(self.whiten(x.T))
        return centers_bar.T, log_density


def innovation(ssm: StateSpaceModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y - H x`` for each column of ``x`` ``(n_x, N)``: ``(n_y, N)``."""
    return y[:, None] - ssm.obs_matrix @ x


def log_likelihood(ssm: StateSpaceModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gaussian observation log likelihood of each row of the 2-D float
    ``x``, additive constant omitted."""
    return innovation_log_likelihood(ssm, y - x @ ssm.obs_matrix.T)


def innovation_log_likelihood(ssm: StateSpaceModel, innov: np.ndarray) -> np.ndarray:
    """The same, of the innovations ``y - H x``, the rows of ``innov``."""
    return -0.5 * ssm.r.quadratic_form(innov)


def whitened_gain(ssm: StateSpaceModel) -> np.ndarray:
    """``Q^{1/2} H^T R^{-1}`` ``(n_x, n_y)``: times the innovations, the
    gradient of the log likelihood in the whitened coordinates ``z``."""
    return ssm.q.std[:, None] * ssm.r.solve(ssm.obs_matrix.T)


def whitened_log_posterior_grad(
    ssm: StateSpaceModel,
    gain: np.ndarray,
    x: np.ndarray,
    mixture: tuple[np.ndarray, np.ndarray],
    innov: np.ndarray,
) -> np.ndarray:
    """Gradient of the log sequential posterior in the whitened coordinates
    ``z = Q^{-1/2} (x - m)`` at each column of ``x`` ``(n_x, N)``:

    ``Q^{1/2} H^T R^{-1} (y - H x) - Q^{-1/2} (x - sum_m resp_m c_m)``

    from ``gain = whitened_gain(ssm)``, ``mixture = prior.mix`` at ``x``
    and ``innov = innovation(ssm, x, y)``.  A particle whose mixture log
    density is ``-inf`` (its responsibilities underflowed) is rejected."""
    centers_bar, log_density = mixture
    if (log_density == -np.inf).any():
        raise FilterFailure("mixture underflow", "mixture responsibilities underflowed",
                            particle=int(np.argmin(log_density)))
    pull = x - centers_bar
    pull /= ssm.q.std[:, None]
    grad = gain @ innov
    grad -= pull
    return grad


def log_posterior_grad(
    ssm: StateSpaceModel, prior: PriorMixture, x: np.ndarray, y: np.ndarray,
) -> np.ndarray:
    """Gradient of the log sequential posterior at each row of the 2-D
    float ``x``: :func:`whitened_log_posterior_grad` mapped back to state
    units, ``Q^{-1/2}`` times it.

    ``H^T R^{-1} (y - H x) - Q^{-1} (x - sum_m resp_m c_m)`` where the
    responsibilities are the softmax of the mixture components at ``x``.
    """
    xt = x.T
    grad = whitened_log_posterior_grad(ssm, whitened_gain(ssm), xt,
                                       prior.mix(prior.whiten(xt)), innovation(ssm, xt, y))
    grad /= ssm.q.std[:, None]
    return grad.T
