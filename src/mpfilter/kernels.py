"""Gaussian RBF kernel on state space with bandwidth tied to the model error.

The bandwidth matrix is ``A = alpha * Q`` where ``Q`` is the diagonal
model error covariance.  The filter needs one pairwise product of the
kernel, the Gram matrix (:meth:`GaussianKernel.interactions`), whose
exponents come from one matrix product of the particles whitened by ``A``,
``[z, h, 1] @ [z, -1, -h]^T``; the KL gradient forms both its attraction
and its repulsion from it.  The pointwise value and derivatives, the
closed forms the tests check the Gram matrix and the repulsion against,
live in ``tests/oracles.py``.  Derivatives follow the source-argument
convention: gradients are taken with respect to the *first* argument (the
source particle), so that the kernel term of the KL gradient acts as a
repulsive force.
"""

from __future__ import annotations

import math
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

    def interactions(self, states: np.ndarray) -> np.ndarray:
        """The pairwise pass over a particle set (a 2-D float array): the
        Gram matrix ``G[l, j] = K(x_l, x_j)``.

        The KL gradient (attraction and repulsion both) and the KDE reuse
        it, which is where the O(N_p^2) cost of the filter lives.  Minus
        half the squared distances, ``z_l . z_j - h_l - h_j``, come from one
        general matrix product of the whitened particles and their half
        norms ``h``, clipped at 0; a term that overflows is ``-inf``.  The
        product's rounding leaves the self-distances near but not at 0; they
        are set to exactly 0, so ``K(x, x) = 1`` even when the other
        distances have overflowed.
        """
        n_p, n_x = states.shape
        m = states.sum(axis=0) / n_p  # np.mean's arithmetic
        a = np.empty((n_p, n_x + 2))
        b = np.empty((n_p, n_x + 2))
        with np.errstate(over="ignore", invalid="ignore"):
            h = self.bandwidth.whiten(states, m, a[:, :n_x])
            a[:, n_x] = h
            a[:, n_x + 1] = 1.0
            b[:, :n_x] = a[:, :n_x]
            b[:, n_x] = -1.0
            np.negative(h, out=b[:, n_x + 1])
            d = a @ b.T
            # |z_l . z_j| <= h_l + h_j (Cauchy-Schwarz), so while this bound
            # (with room for rounding) is finite no term overflows
            if not math.isfinite(8.0 * h.max()):
                np.nan_to_num(d, copy=False, nan=-np.inf, posinf=-np.inf, neginf=-np.inf)
        np.minimum(d, 0.0, out=d)
        d.ravel()[:: n_p + 1] = 0.0  # the diagonal, through the flat stride
        return np.exp(d, out=d)
