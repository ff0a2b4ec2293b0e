"""Core numerical objects: covariances and particle ensembles.

State vectors are plain 1-D ``numpy`` arrays; batches of states are 2-D
arrays with one row per particle.  All reductions run in fixed ascending
index order so identical seeds give bitwise-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WEIGHT_TOL = 1e-12


class ContractViolation(ValueError):
    """A caller broke a documented precondition (e.g. dimension mismatch)."""


class CovarianceError(ValueError):
    """Covariance construction rejected (non-positive, non-finite, wrong shape)."""


class Covariance:
    """Diagonal covariance, a vector of positive variances: Q, the kernel
    bandwidth ``A = alpha Q`` and R all are.  Solves, quadratic forms and
    samples are elementwise; :meth:`pairwise_quadratic_form` is the one
    place the Gram matrix and the mixture log-psi get their pairwise
    Mahalanobis distances from."""

    def __init__(self, variances: np.ndarray):
        variances = np.asarray(variances, dtype=float)
        if variances.ndim != 1 or variances.size == 0:
            raise CovarianceError("diagonal covariance needs a 1-D vector")
        if not np.all(np.isfinite(variances)) or np.any(variances <= 0.0):
            raise CovarianceError("diagonal entries must be finite and > 0")
        self._diag = variances.copy()
        self._sqrt_diag = np.sqrt(variances)
        self._inv_diag = 1.0 / variances

    @classmethod
    def diagonal(cls, entries) -> "Covariance":
        return cls(np.atleast_1d(np.asarray(entries, dtype=float)))

    @classmethod
    def isotropic(cls, variance: float, dim: int) -> "Covariance":
        return cls.diagonal(np.full(dim, float(variance)))

    @property
    def dim(self) -> int:
        return self._diag.size

    def matrix(self) -> np.ndarray:
        return np.diag(self._diag)

    def scaled(self, factor: float) -> "Covariance":
        """Return ``factor * self`` as a new covariance (factor > 0)."""
        if factor <= 0.0:
            raise CovarianceError("scale factor must be > 0")
        return Covariance.diagonal(self._diag * factor)

    def _check_dim(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise ContractViolation(
                f"vector length {v.shape[-1]} does not match covariance dim {self.dim}"
            )
        return v

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``inverse(Sigma) @ v`` (batched over leading axes)."""
        return self._check_dim(v) * self._inv_diag

    def quadratic_form(self, v: np.ndarray):
        """Return ``v^T Sigma^{-1} v`` (batched over leading axes)."""
        v = self._check_dim(v)
        return np.einsum("...i,...i->...", v, self.solve(v))

    def pairwise_quadratic_form(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``quadratic_form(a[:, None, :] - b[None, :, :])``, (N_a, N_b).  The
        difference tensor and its solve share one allocation: as two blocks,
        malloc trimmed them and every call faulted their pages back in."""
        d, sd = np.empty((2, len(a), len(b), self.dim))
        np.subtract(self._check_dim(a)[:, None], self._check_dim(b)[None], out=d)
        np.multiply(d, self._inv_diag, out=sd)
        return np.einsum("...i,...i->...", d, sd)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw ``N(0, Sigma)`` samples; shape ``(dim,)`` or ``(size, dim)``."""
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.standard_normal(shape) * self._sqrt_diag


@dataclass
class Ensemble:
    """Ordered set of particle states with normalized weights.

    ``states`` has shape ``(n_particles, n_x)``.  When ``weights`` is not
    given, every weight is exactly ``1/n_particles``.
    """

    states: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float)).copy()
        n_p = self.states.shape[0]
        if n_p < 1:
            raise ContractViolation("ensemble needs at least one particle")
        if self.weights is None:
            self.weights = np.full(n_p, 1.0 / n_p)
        else:
            w = np.asarray(self.weights, dtype=float).copy()
            if w.shape != (n_p,):
                raise ContractViolation("weights length must equal particle count")
            if np.any(w < 0.0):
                raise ContractViolation("weights must be nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise ContractViolation("weights must sum to 1 within 1e-12")
            self.weights = w

    @classmethod
    def equal_weight(cls, states) -> "Ensemble":
        return cls(np.atleast_2d(np.asarray(states, dtype=float)))

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def n_x(self) -> int:
        return self.states.shape[1]

    def mean_and_spread(self) -> tuple[np.ndarray, float]:
        """Weighted mean and spread.

        Spread is the square root of the mean (over components) of the
        weighted per-component population variance.
        """
        mean = self.weights @ self.states
        var = self.weights @ (self.states - mean) ** 2
        return mean, float(np.sqrt(np.mean(var)))
