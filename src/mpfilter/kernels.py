"""Gaussian RBF kernel on state space with bandwidth tied to the model error.

The bandwidth matrix is ``A = alpha * Q`` where ``Q`` is the diagonal
model error covariance.  The filter needs one pairwise product of the
kernel, the Gram matrix, which the KL gradient forms its attraction and
its repulsion from.  :meth:`GaussianKernel.gram` takes it from the
particles whitened by ``Q``, stored by component as the operand ``[z; -h;
1]`` that the prior mixture's scores use too: in those coordinates the
bandwidth is ``alpha I``, and the exponents are one matrix product,
``[z; -h; 1]^T [z / alpha; 1 / alpha; -h / alpha]``.  The pointwise value
and derivatives, the closed forms the tests check the Gram matrix and the
repulsion against, live in ``tests/oracles.py``.  Derivatives follow the
source-argument convention: gradients are taken with respect to the
*first* argument (the source particle), so that the kernel term of the KL
gradient acts as a repulsive force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation, Covariance


@dataclass(frozen=True)
class GaussianKernel:
    """RBF kernel ``K(x, x') = exp(-1/2 (x-x')^T A^{-1} (x-x'))`` with
    bandwidth ``A = alpha Q``."""

    q: Covariance
    alpha: float

    @classmethod
    def from_model_error(cls, q: Covariance, alpha: float) -> "GaussianKernel":
        """The kernel of bandwidth ``alpha Q``; ``alpha`` must be > 0 and
        ``alpha Q`` a covariance (``ContractViolation`` otherwise)."""
        if alpha <= 0.0:
            raise ContractViolation("kernel alpha must be > 0")
        q.scaled(alpha)
        return cls(q, alpha)

    def gram(self, w: np.ndarray) -> np.ndarray:
        """The Gram matrix ``G[l, j] = K(x_l, x_j)`` of particles given as
        their whitened operand ``w = [z; -h; 1]`` (``Covariance.whiten`` by
        ``Q``, one column per particle).

        Minus half the squared distances in the bandwidth's units, ``(z_l .
        z_j - h_l - h_j) / alpha``, come from one general matrix product,
        clipped at 0; a term that overflows is ``-inf``.  The product's
        rounding leaves the self-distances near but not at 0; they are set
        to exactly 0, so ``K(x, x) = 1`` even when the other distances have
        overflowed.
        """
        n_x, n_p = w.shape[0] - 2, w.shape[1]
        inv = 1.0 / self.alpha
        b = np.empty_like(w)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(w[:n_x], inv, out=b[:n_x])
            b[n_x] = inv
            np.multiply(w[n_x], inv, out=b[n_x + 1])
            d = w.T @ b
            # |z_l . z_j| <= h_l + h_j (Cauchy-Schwarz), so while this bound
            # (with room for rounding) is finite no term overflows
            if not math.isfinite(-8.0 * inv * w[n_x].min()):
                np.nan_to_num(d, copy=False, nan=-np.inf, posinf=-np.inf, neginf=-np.inf)
        np.minimum(d, 0.0, out=d)
        d.ravel()[:: n_p + 1] = 0.0  # the diagonal, through the flat stride
        return np.exp(d, out=d)

    def interactions(self, states: np.ndarray) -> np.ndarray:
        """The Gram matrix of the rows of a 2-D float array: :meth:`gram` of
        the rows whitened on their own mean."""
        x = states.T
        return self.gram(self.q.whiten(x, x.mean(axis=1)))
