"""Dynamical models and their time integrators.

Lorenz-63 and Lorenz-96 are deterministic ODEs advanced with fixed-step
classical RK4; the cholera SI3R compartment model is an SDE advanced with
Euler-Maruyama.  Every model advances a whole ``(N_p, n_x)`` ensemble over
one assimilation window with ``forecast(states, t0, steps, rngs)``, where
particle ``j`` draws any model noise from ``rngs[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpfilter.core import ContractViolation


class IntegrationBlowupError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, model_name: str, step: int):
        super().__init__(f"integration of {model_name} blew up at step {step}")
        self.model_name = model_name
        self.step = step


def rk4_step(drift, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size ``dt``."""
    k1 = drift(x)
    k2 = drift(x + 0.5 * dt * k1)
    k3 = drift(x + 0.5 * dt * k2)
    k4 = drift(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class OdeModel:
    """Deterministic ODE advanced with fixed-step RK4.

    Subclasses define ``drift`` and ``dt``; states batch over leading axes.
    """

    def step(self, x: np.ndarray) -> np.ndarray:
        return rk4_step(self.drift, np.asarray(x, dtype=float), self.dt)

    def forecast(self, states: np.ndarray, t0: float, steps: int, rngs) -> np.ndarray:
        """Advance a batch over one window; ``t0`` and ``rngs`` are unused."""
        return advance_window(self, states, steps)


@dataclass(frozen=True)
class Lorenz63(OdeModel):
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.001

    name = "lorenz63"
    n_x = 3

    def drift(self, x: np.ndarray) -> np.ndarray:
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty_like(x, dtype=float)
        out[..., 0] = self.sigma * (x2 - x1)
        out[..., 1] = x1 * (self.rho - x3) - x2
        out[..., 2] = x1 * x2 - self.beta * x3
        return out


@dataclass(frozen=True)
class Lorenz96(OdeModel):
    n_vars: int = 40
    forcing: float = 8.0
    dt: float = 0.001

    name = "lorenz96"

    def __post_init__(self):
        if self.n_vars < 4:
            raise ContractViolation("n_vars must be >= 4 for Lorenz-96")

    @property
    def n_x(self) -> int:
        return self.n_vars

    def drift(self, x: np.ndarray) -> np.ndarray:
        # (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F with cyclic indices: the
        # interior by slices, then the three entries that wrap around
        out = np.empty_like(x, dtype=float)
        out[..., 2:-1] = (x[..., 3:] - x[..., :-3]) * x[..., 1:-2]
        out[..., 0] = (x[..., 1] - x[..., -2]) * x[..., -1]
        out[..., 1] = (x[..., 2] - x[..., -1]) * x[..., 0]
        out[..., -1] = (x[..., 0] - x[..., -3]) * x[..., -2]
        out -= x
        out += self.forcing
        return out


def advance_window(model, x: np.ndarray, steps: int) -> np.ndarray:
    """Compose ``steps`` deterministic single steps (ODE models)."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    # an overflow shows as a non-finite state, reported as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            x = model.step(x)
            if not np.all(np.isfinite(x)):
                raise IntegrationBlowupError(model.name, i + 1)
    return x


def free_run(model, x0: np.ndarray, steps: int, sample_every: int = 1) -> np.ndarray:
    """Deterministic trajectory sampled every ``sample_every`` steps."""
    x = np.asarray(x0, dtype=float)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            x = model.step(x)
            if not np.all(np.isfinite(x)):
                raise IntegrationBlowupError(model.name, i + 1)
            if (i + 1) % sample_every == 0:
                out.append(x.copy())
    return np.asarray(out)


def climatological_variance(
    model, n_steps: int = 100_000, spinup: int = 10_000, x0=None
) -> np.ndarray:
    """Per-component variance of a long free run after spin-up."""
    if x0 is None:
        x0 = np.full(model.n_x, 1.0)
        if model.n_x > 1:
            x0[0] += 0.001  # break the symmetric fixed point
    x = advance_window(model, np.asarray(x0, dtype=float), spinup)
    traj = free_run(model, x, n_steps, sample_every=10)
    return np.var(traj, axis=0)


@dataclass(frozen=True)
class PiecewiseSeries:
    """Linear interpolation of a (time, value) table, optionally periodic."""

    times: np.ndarray
    values: np.ndarray
    period: float | None = None

    def __call__(self, t: float) -> float:
        if self.period is not None:
            t = np.mod(t, self.period)
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True)
class CholeraParams:
    """SI3R rates in 1/month; populations as fractions of the total."""

    gamma: float
    r: float
    k: float
    m: float
    m_c: float
    eps: float
    tau: float
    transmission: PiecewiseSeries
    population: PiecewiseSeries
    dt: float = 1.0 / 20.0
    s0: float = 0.9
    i0: float = 0.01
    r0: float = 0.09

    def __post_init__(self):
        for name in ("gamma", "r", "k", "m", "m_c", "eps", "tau"):
            if getattr(self, name) < 0.0:
                raise ContractViolation(f"cholera rate {name} must be >= 0")
        if abs(self.dt - 1.0 / 20.0) > 1e-15:
            raise ContractViolation("cholera dt must be exactly 1/20 month")

    def initial_state(self) -> np.ndarray:
        r_each = self.r0 / 3.0
        return np.array([self.s0, self.i0, r_each, r_each, r_each, 0.0])


class CholeraModel:
    """Augmented SI3R cholera model: state (S, I, R1, R2, R3, T).

    Transmission carries multiplicative noise ``eps * I * S / P dW``; the
    auxiliary variable advances as ``dT = dW`` so the noise is additive in
    the augmented state.  T restarts at zero at the start of every window,
    so it holds that window's accumulated noise.  Recovery classes form the
    chain R1 -> R2 -> R3 -> S.  Negative compartments are clamped to zero
    and counted.
    """

    name = "cholera"
    n_x = 6

    def __init__(self, params: CholeraParams):
        self.params = params
        self.dt = params.dt
        self.clamp_count = 0

    def _em_step(self, x: np.ndarray, t: float, dw):
        """One Euler-Maruyama step of one state ``x`` (6,) with increment
        ``dw``, or of ``N_p`` states stored by compartment ``x`` (6, N_p)
        with increments ``dw`` (N_p,).  Returns the new state(s) and the
        cholera-mortality increment(s) ``m_c * I * dt`` of this step."""
        p = self.params
        s, i, r1, r2, r3, tvar = x
        dt = self.dt
        lam = p.transmission(t)
        pop = p.population(t)
        dpop = (p.population(t + dt) - pop) / dt

        noise_scale = p.eps * i * s / pop
        trans = lam * s * dt + noise_scale * dw

        ds = (dpop + p.m * pop) * dt - trans - p.m * s * dt + p.r * p.k * r3 * dt
        di = trans - (p.gamma + p.m_c + p.m) * i * dt
        dr1 = p.gamma * i * dt - (p.r * p.k + p.m) * r1 * dt
        dr2 = p.r * p.k * r1 * dt - (p.r * p.k + p.m) * r2 * dt
        dr3 = p.r * p.k * r2 * dt - (p.r * p.k + p.m) * r3 * dt

        new = np.array([s + ds, i + di, r1 + dr1, r2 + dr2, r3 + dr3, tvar + dw])
        neg = new[:5] < 0.0
        if np.any(neg):
            self.clamp_count += int(np.count_nonzero(neg))
            new[:5] = np.maximum(new[:5], 0.0)
        return new, p.m_c * i * dt

    def step(
        self, x: np.ndarray, t: float, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, float]:
        """One Euler-Maruyama step of one state; returns the new state and
        the cholera-mortality increment of this step."""
        dw = 0.0 if rng is None else float(rng.standard_normal()) * np.sqrt(self.dt)
        new, dc = self._em_step(np.asarray(x, dtype=float), t, dw)
        if not np.all(np.isfinite(new)):
            raise IntegrationBlowupError(self.name, 1)
        return new, dc

    def _window(self, x: np.ndarray, t0: float, z: np.ndarray):
        """Advance ``x`` (laid out as in ``_em_step``) one step per row of
        the standard normals ``z``, with T restarted at zero; returns the
        final state(s) and the accumulated mortality increment(s)."""
        if len(z) < 1:
            raise ContractViolation("steps must be >= 1")
        x = np.array(x, dtype=float)
        x[5] = 0.0
        delta_c = 0.0
        sqrt_dt = np.sqrt(self.dt)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(len(z)):
                x, dc = self._em_step(x, t0 + k * self.dt, z[k] * sqrt_dt)
                if not np.all(np.isfinite(x)):
                    raise IntegrationBlowupError(self.name, k + 1)
                delta_c += dc
        return x, delta_c

    def forecast(self, states: np.ndarray, t0: float, steps: int, rngs) -> np.ndarray:
        """Advance ``(N_p, 6)`` states over one window from time ``t0``;
        particle ``j`` draws its ``steps`` Wiener increments from
        ``rngs[j]`` up front."""
        z = np.stack([rng.standard_normal(steps) for rng in rngs], axis=1)
        x, _ = self._window(np.transpose(states), t0, z)
        return np.ascontiguousarray(x.T)

    def advance(
        self, x: np.ndarray, t: float, steps: int, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, float]:
        """Advance one state ``steps`` EM steps from time ``t`` (noise-free
        when ``rng`` is None); returns the final state and the accumulated
        cholera-mortality increment."""
        z = np.zeros(steps) if rng is None else rng.standard_normal(steps)
        return self._window(x, t, z)


def load_cholera_params(path_or_text) -> CholeraParams:
    """Read SI3R parameters from a flat ``key = value`` file.

    Tables use ``time:value`` pairs, e.g.
    ``lambda_table = 0:0.02, 3:0.08, 6:0.03``; ``lambda_period`` (months)
    makes the transmission seasonal.  Population is piecewise linear in
    the same format.
    """
    from mpfilter.config import ConfigError, parse_flat

    text = path_or_text
    if "\n" not in str(path_or_text) and "=" not in str(path_or_text):
        from pathlib import Path

        text = Path(path_or_text).read_text(encoding="utf-8")
    raw = {k: v for k, (v, _) in parse_flat(text).items()}

    def table(key: str, default: str) -> tuple[np.ndarray, np.ndarray]:
        pairs = [p for p in raw.pop(key, default).split(",") if p.strip()]
        times, values = [], []
        for pair in pairs:
            t, _, v = pair.partition(":")
            times.append(float(t))
            values.append(float(v))
        return np.asarray(times), np.asarray(values)

    lam_t, lam_v = table("lambda_table", "0:0.03")
    pop_t, pop_v = table("population_table", "0:1.0")
    period = raw.pop("lambda_period", None)
    known = {
        "gamma", "r", "k", "m", "m_c", "eps", "tau", "s0", "i0", "r0",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown cholera parameter keys: {sorted(unknown)}")
    kwargs = {key: float(raw[key]) for key in known if key in raw}
    missing = {"gamma", "r", "k", "m", "m_c", "eps", "tau"} - set(kwargs)
    if missing:
        raise ConfigError(f"missing cholera parameters: {sorted(missing)}")
    return CholeraParams(
        transmission=PiecewiseSeries(
            lam_t, lam_v, period=float(period) if period else None
        ),
        population=PiecewiseSeries(pop_t, pop_v),
        **kwargs,
    )


def cholera_observe(
    delta_c: float, tau: float, rng: np.random.Generator | None
) -> tuple[float, float]:
    """Noisy mortality observation ``N(delta_c, (tau * delta_c)^2)``.

    Returns the observation and its variance (the variance also feeds the
    time-dependent observation error of the likelihood).
    """
    if delta_c < 0.0:
        raise ContractViolation("cholera mortality increment must be >= 0")
    var = (tau * delta_c) ** 2
    y = delta_c
    if rng is not None and var > 0.0:
        y = delta_c + tau * delta_c * float(rng.standard_normal())
    return y, var
