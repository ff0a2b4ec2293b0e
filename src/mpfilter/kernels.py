"""Gaussian RBF kernel on state space with bandwidth tied to the model error.

The bandwidth matrix is ``A = alpha * Q`` where ``Q`` is the diagonal
model error covariance.  The filter needs one pairwise product of the
kernel, the Gram matrix (:meth:`GaussianKernel.interactions`, from
``A.pairwise_quadratic_form``); the KL gradient forms both its
attraction and its repulsion from it.  The pointwise value and
derivatives are the closed forms the tests check that against.
Derivatives follow the source-argument convention: gradients are taken
with respect to the *first* argument (the source particle), so that the
kernel term of the KL gradient acts as a repulsive force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Covariance


@dataclass(frozen=True)
class GaussianKernel:
    """RBF kernel ``K(x, x') = exp(-1/2 (x-x')^T A^{-1} (x-x'))``."""

    bandwidth: Covariance

    @classmethod
    def from_model_error(cls, q: Covariance, alpha: float) -> "GaussianKernel":
        if alpha <= 0.0:
            raise ContractViolation("kernel alpha must be > 0")
        return cls(bandwidth=q.scaled(alpha))

    @property
    def dim(self) -> int:
        return self.bandwidth.dim

    def __call__(self, x, xp) -> float:
        d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
        return float(np.exp(-0.5 * self.bandwidth.quadratic_form(d)))

    def grad_source(self, xl, x) -> np.ndarray:
        """Gradient of K with respect to its first argument, at ``(xl, x)``.

        Equals ``-A^{-1} (xl - x) K(xl, x)``.
        """
        d = np.asarray(xl, dtype=float) - np.asarray(x, dtype=float)
        k = np.exp(-0.5 * self.bandwidth.quadratic_form(d))
        return -self.bandwidth.solve(d) * k

    def cross_hessian(self, xl, xj) -> np.ndarray:
        """Mixed second derivative ``d^2 K / dx_j dx_l`` at ``(xl, xj)``.

        Equals ``(A^{-1} - A^{-1} d d^T A^{-1}) K`` with ``d = xl - xj``.
        """
        d = np.asarray(xl, dtype=float) - np.asarray(xj, dtype=float)
        k = np.exp(-0.5 * self.bandwidth.quadratic_form(d))
        sd = self.bandwidth.solve(d)
        return (self.bandwidth.solve(np.eye(self.dim)) - np.outer(sd, sd)) * k

    def interactions(self, states: np.ndarray) -> np.ndarray:
        """The pairwise pass over a particle set: the Gram matrix
        ``G[l, j] = K(x_l, x_j)``.

        The KL gradient (attraction and repulsion both) and the KDE reuse
        it, which is where the O(N_p^2) cost of the filter lives.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.exp(-0.5 * self.bandwidth.pairwise_quadratic_form(states, states))
