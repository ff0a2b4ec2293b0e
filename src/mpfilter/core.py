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
    """Covariance construction rejected (non-SPD, non-finite, wrong shape)."""


class Covariance:
    """Symmetric positive definite covariance with cached inverse and factor.

    Two storage kinds are supported: ``diagonal`` (vector of positive
    variances) and ``dense`` (full SPD matrix, Cholesky-factorized once at
    construction).  Both sampling and inverse quadratic forms reuse the
    cached factorization.
    """

    def __init__(self, kind: str, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if kind == "diagonal":
            if data.ndim != 1 or data.size == 0:
                raise CovarianceError("diagonal covariance needs a 1-D vector")
            if not np.all(np.isfinite(data)) or np.any(data <= 0.0):
                raise CovarianceError("diagonal entries must be finite and > 0")
            self._diag = data.copy()
            self._sqrt_diag = np.sqrt(data)
            self._inv_diag = 1.0 / data
            self._chol = None
            self._inv = None
        elif kind == "dense":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise CovarianceError("dense covariance must be square")
            if not np.all(np.isfinite(data)):
                raise CovarianceError("dense covariance has non-finite entries")
            if not np.allclose(data, data.T, rtol=1e-10, atol=1e-12):
                raise CovarianceError("dense covariance must be symmetric")
            sym = 0.5 * (data + data.T)
            try:
                chol = np.linalg.cholesky(sym)
            except np.linalg.LinAlgError as exc:
                raise CovarianceError("covariance is not positive definite") from exc
            self._diag = None
            self._chol = chol
            self._inv = np.linalg.inv(sym)
            self._dense = sym
        else:
            raise CovarianceError(f"unknown covariance kind {kind!r}")
        self._kind = kind
        self._dim = data.shape[0]

    @classmethod
    def diagonal(cls, entries) -> "Covariance":
        return cls("diagonal", np.atleast_1d(np.asarray(entries, dtype=float)))

    @classmethod
    def dense(cls, matrix) -> "Covariance":
        return cls("dense", matrix)

    @classmethod
    def isotropic(cls, variance: float, dim: int) -> "Covariance":
        return cls.diagonal(np.full(dim, float(variance)))

    @property
    def dim(self) -> int:
        return self._dim

    def matrix(self) -> np.ndarray:
        if self._kind == "diagonal":
            return np.diag(self._diag)
        return self._dense.copy()

    def inverse(self) -> np.ndarray:
        if self._kind == "diagonal":
            return np.diag(self._inv_diag)
        return self._inv.copy()

    def scaled(self, factor: float) -> "Covariance":
        """Return ``factor * self`` as a new covariance (factor > 0)."""
        if factor <= 0.0:
            raise CovarianceError("scale factor must be > 0")
        if self._kind == "diagonal":
            return Covariance.diagonal(self._diag * factor)
        return Covariance.dense(self._dense * factor)

    def _check_dim(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self._dim:
            raise ContractViolation(
                f"vector length {v.shape[-1]} does not match covariance dim {self._dim}"
            )
        return v

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``inverse(Sigma) @ v`` (batched over leading axes)."""
        v = self._check_dim(v)
        if self._kind == "diagonal":
            return v * self._inv_diag
        return v @ self._inv  # inverse is symmetric

    def quadratic_form(self, v: np.ndarray):
        """Return ``v^T Sigma^{-1} v`` (batched over leading axes)."""
        v = self._check_dim(v)
        return np.einsum("...i,...i->...", v, self.solve(v))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw ``N(0, Sigma)`` samples; shape ``(dim,)`` or ``(size, dim)``."""
        shape = (self._dim,) if size is None else (size, self._dim)
        z = rng.standard_normal(shape)
        if self._kind == "diagonal":
            return z * self._sqrt_diag
        return z @ self._chol.T


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
