"""Gaussian RBF kernel on state space with bandwidth tied to the model error.

The bandwidth matrix is ``A = alpha * Q`` where ``Q`` is the diagonal
model error covariance.  The filter needs one pairwise product of the
kernel, the Gram matrix (:meth:`GaussianKernel.interactions`, from the
particles whitened by ``A`` and ``core.neg_half_sq_distances``); the KL
gradient forms both its attraction and its repulsion from it.  The
pointwise value and derivatives, the closed forms the tests check the Gram
matrix and the repulsion against, live in ``tests/oracles.py``.
Derivatives follow the source-argument convention: gradients are taken
with respect to the *first* argument (the source particle), so that the
kernel term of the KL gradient acts as a repulsive force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Covariance, neg_half_sq_distances


@dataclass(frozen=True)
class GaussianKernel:
    """RBF kernel ``K(x, x') = exp(-1/2 (x-x')^T A^{-1} (x-x'))``."""

    bandwidth: Covariance

    @classmethod
    def from_model_error(cls, q: Covariance, alpha: float) -> "GaussianKernel":
        if alpha <= 0.0:
            raise ContractViolation("kernel alpha must be > 0")
        return cls(bandwidth=q.scaled(alpha))

    def interactions(self, states: np.ndarray) -> np.ndarray:
        """The pairwise pass over a particle set (a 2-D float array): the
        Gram matrix ``G[l, j] = K(x_l, x_j)``.

        The KL gradient (attraction and repulsion both) and the KDE reuse
        it, which is where the O(N_p^2) cost of the filter lives.  The
        distances come from one matrix product, whose rounding leaves the
        self-distances near but not at 0; they are set to exactly 0, so
        ``K(x, x) = 1`` even when the other distances have overflowed.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            m = states.sum(axis=0) / states.shape[0]  # np.mean's arithmetic
            z, h = self.bandwidth.whiten(states, m)
            d = neg_half_sq_distances(z, h, z.copy(), h)  # a copy: no syrk path
        np.fill_diagonal(d, 0.0)
        return np.exp(d, out=d)
