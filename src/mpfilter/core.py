"""Core numerical objects: covariances and particle ensembles.

State vectors are plain 1-D ``numpy`` arrays; batches of states are 2-D
arrays with one row per particle, which the integrator and the mapping
transpose into one contiguous copy stored by component, ``(n_x, N_p)``,
for their loops.  All reductions run in an order fixed
by the code and the numpy/BLAS build (the pairwise passes' matrix products
sum in the BLAS's order), so identical seeds give bitwise-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WEIGHT_TOL = 1e-12


class ContractViolation(ValueError):
    """A caller broke a documented precondition (e.g. dimension mismatch)."""


class FilterFailure(RuntimeError):
    """A run failed numerically.  ``kind`` says how: ``integration
    blow-up``, ``mixture underflow``, ``degenerate weights`` or
    ``non-finite gradient``.  ``cycle``, ``iteration``, ``particle`` and
    ``step`` say where, each ``None`` until code that knows it sets it on
    the way up.  The message is ``text``, then `` at `` and the fields that
    are set, in that order."""

    WHERE = ("cycle", "iteration", "particle", "step")

    def __init__(self, kind: str, text: str, *, particle: int | None = None,
                 step: int | None = None):
        super().__init__(kind, text)
        self.kind, self.text = kind, text
        self.cycle = self.iteration = None
        self.particle, self.step = particle, step

    def __str__(self) -> str:
        where = [f"{name} {getattr(self, name)}" for name in self.WHERE
                 if getattr(self, name) is not None]
        return f"{self.text} at {', '.join(where)}" if where else self.text


class Covariance:
    """Diagonal covariance, a vector of positive variances: Q, the kernel
    bandwidth ``A = alpha Q`` and R all are.  Solves, quadratic forms and
    samples are elementwise.  ``std`` holds the standard deviations, the
    square roots of the variances.  :meth:`whiten` gives the whitened
    coordinates, stored by component, from which the Gram matrix and the
    mixture form their pairwise Mahalanobis terms, each as one matrix
    product."""

    def __init__(self, variances: np.ndarray):
        variances = np.asarray(variances, dtype=float)
        if variances.ndim != 1 or variances.size == 0:
            raise ContractViolation("diagonal covariance needs a 1-D vector")
        if not np.all(np.isfinite(variances)) or np.any(variances <= 0.0):
            raise ContractViolation("diagonal entries must be finite and > 0")
        self._diag = variances.copy()
        self.std = np.sqrt(variances)
        self._inv_std = (1.0 / self.std)[:, None]
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
            raise ContractViolation("scale factor must be > 0")
        return Covariance.diagonal(self._diag * factor)

    def _check_dim(self, n: int):
        if n != self.dim:
            raise ContractViolation(
                f"vector length {n} does not match covariance dim {self.dim}")

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``inverse(Sigma) @ v`` (batched over leading axes)."""
        return v * self._inv_diag

    def quadratic_form(self, v: np.ndarray):
        """Return ``v^T Sigma^{-1} v`` (batched over leading axes)."""
        v = np.asarray(v, dtype=float)
        self._check_dim(v.shape[-1])
        return np.einsum("...i,...i->...", v, self.solve(v))

    def whiten(self, x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The pairwise operand ``[z; -h; 1]``, ``(n + 2, N)``, of the
        columns of ``x`` ``(n, N)``: the whitened columns ``z = Sigma^{-1/2}
        (x - m)``, minus their half squared norms ``h = |z|^2 / 2``, and a
        row of ones.  Centering on ``m`` (the mean of the set the columns
        are compared against) keeps the distance expansion from cancelling
        for states far from the origin.  A norm that overflows is ``inf``,
        without a warning."""
        n = x.shape[0]
        self._check_dim(n)
        w = np.empty((n + 2, x.shape[1]))
        z = w[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(x, m[:, None], out=z)
            z *= self._inv_std
            np.add.reduce(z * z, axis=0, out=w[n])
        w[n] *= -0.5
        w[n + 1] = 1.0
        return w

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw ``N(0, Sigma)`` samples; shape ``(dim,)`` or ``(size, dim)``."""
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.standard_normal(shape) * self.std

    def sample_rows(self, rngs: list[np.random.Generator]) -> np.ndarray:
        """One ``N(0, Sigma)`` draw per generator, row ``j`` from ``rngs[j]``:
        the same draws, bit for bit, as ``sample(rngs[j])`` for each ``j``."""
        draws = np.empty((len(rngs), self.dim))
        for row, rng in zip(draws, rngs):
            rng.standard_normal(out=row)
        draws *= self.std
        return draws


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

    def mean_and_spread(self) -> tuple[np.ndarray, float]:
        """Weighted mean and spread.

        Spread is the square root of the mean (over components) of the
        weighted per-component population variance.
        """
        mean = self.weights @ self.states
        var = self.weights @ (self.states - mean) ** 2
        return mean, float(np.sqrt(np.mean(var)))
