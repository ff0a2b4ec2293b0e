"""Dynamical models and their time integrators.

Lorenz-63 and Lorenz-96 are deterministic ODEs advanced with fixed-step
classical RK4; the cholera SI3R compartment model is an SDE advanced with
Euler-Maruyama.  Every model advances a whole ``(N_p, n_x)`` ensemble over
one assimilation window with ``forecast(states, t0, steps, rngs)``, where
particle ``j`` draws any model noise from ``rngs[j]``, and generates one
window of a twin experiment's truth and observation with ``twin_window``.
Callers pass and get states as ``(..., n_x)``; inside a window the
integrators store them by component, ``(n_x, ...)``, so each arithmetic
op of a drift or a step runs on contiguous rows: ``_integrate`` transposes
an ODE batch once per window, as ``CholeraModel.forecast`` does for
``_em_step``, and the drifts take components on the first axis.
Each model owns its setup too: ``start``, ``initial_ensemble``, the
``observation_matrix`` of each of its ``obs_operators``, and its ``q_kinds``;
the ODE models read their start and ``climatology`` from the shipped
``data/start_states.npz`` when it lists them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from mpfilter.core import ContractViolation, Covariance, FilterFailure

R_VARIANCE_FLOOR = 1e-8  # lower bound of the cholera R, (tau y)^2, which is 0 at y = 0


def _blowup(model_name: str, x: np.ndarray, step: int) -> FilterFailure:
    """The blow-up of ``x``, stored by component, at ``step``; a batch
    names its first particle whose column is not finite."""
    particle = None if x.ndim == 1 else int(np.argmin(np.isfinite(x).all(axis=0)))
    return FilterFailure("integration blow-up", f"integration of {model_name} blew up",
                         particle=particle, step=step)


def rk4_step(drift, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size ``dt``."""
    k1 = drift(x)
    k2 = drift(x + 0.5 * dt * k1)
    k3 = drift(x + 0.5 * dt * k2)
    k4 = drift(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _table_key(model, entry: str) -> str:
    """Key of an ODE model's entry in ``data/start_states.npz``: the model
    name, every dataclass field as ``field:repr(value)``, then ``entry``
    (``climatology``, or ``spinup:<steps>`` for a start)."""
    params = [f"{f.name}:{getattr(model, f.name)!r}" for f in fields(model)]
    return " ".join([model.name, *params, entry])


def _shipped(model, entry: str, compute) -> np.ndarray:
    """``compute()``, read from the shipped ``data/start_states.npz`` when
    it lists the model's ``entry``."""
    with (resources.files("mpfilter") / "data" / "start_states.npz").open("rb") as f, \
            np.load(f, allow_pickle=False) as table:
        key = _table_key(model, entry)
        if key in table.files:
            return table[key]
    return compute()


class OdeModel:
    """Deterministic ODE advanced with fixed-step RK4.

    Subclasses define ``drift``, ``dt``, ``_integrate_start`` and
    ``obs_operators``, the rows of the identity each observation operator
    keeps.  ``step``, ``forecast``, :func:`advance_window` and
    :func:`free_run` take and return states ``(..., n_x)``, batched over
    leading axes; ``drift`` takes them component-first, ``(n_x, ...)``, the
    layout the integrator steps in.  An RK4 step adds an increment
    to the state, so a non-finite component of a Lorenz state stays
    non-finite through every later step: one finiteness check at the end
    of a window sees any blow-up inside it.
    """

    q_kinds = ("diag", "climatological")

    def step(self, x: np.ndarray) -> np.ndarray:
        return rk4_step(self.drift, np.asarray(x, dtype=float).T, self.dt).T

    def forecast(self, states: np.ndarray, t0: float, steps: int, rngs) -> np.ndarray:
        """Advance a batch over one window; ``t0`` and ``rngs`` are unused."""
        return advance_window(self, states, steps)

    def twin_window(self, ssm, truth: np.ndarray, t0: float, truth_rng, obs_rng):
        """One window of a twin experiment: the truth advanced over
        ``ssm.cycle_steps`` plus one N(0, Q) draw, its observation ``H x``
        and that plus one N(0, R) draw.  Returns ``(truth, true_obs, y,
        cycle_ssm)``; R is fixed, so ``cycle_ssm`` is ``ssm``."""
        truth = advance_window(self, truth, ssm.cycle_steps)
        truth = truth + ssm.q.sample(truth_rng)
        true_obs = ssm.observe(truth)
        return truth, true_obs, true_obs + ssm.r.sample(obs_rng), ssm

    def start(self, spinup_steps: int) -> np.ndarray:
        """``_integrate_start(spinup_steps)``, shipped or integrated."""
        return _shipped(self, f"spinup:{spinup_steps}",
                        lambda: self._integrate_start(spinup_steps))

    def climatology(self) -> np.ndarray:
        """``climatological_variance(self)``, shipped or integrated."""
        return _shipped(self, "climatology", lambda: climatological_variance(self))

    def observation_matrix(self, kind: str, window: float) -> np.ndarray:
        """The rows ``obs_operators[kind]`` of the identity; ``window`` is
        unused."""
        return np.eye(self.n_x)[self.obs_operators[kind]]


@dataclass(frozen=True)
class Lorenz63(OdeModel):
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.001

    name = "lorenz63"
    n_x = 3
    obs_operators = {"full": slice(None), "xonly": slice(1), "zonly": slice(2, 3)}

    def drift(self, x: np.ndarray) -> np.ndarray:
        x1, x2, x3 = x[0], x[1], x[2]
        out = np.empty_like(x, dtype=float)
        out[0] = self.sigma * (x2 - x1)
        out[1] = x1 * (self.rho - x3) - x2
        out[2] = x1 * x2 - self.beta * x3
        return out

    def _integrate_start(self, spinup_steps: int) -> np.ndarray:
        """The truth after ``spinup_steps`` from ``[1, 1, 1.001]``."""
        return advance_window(self, np.array([1.0, 1.0, 1.001]), spinup_steps)

    def initial_ensemble(self, start: np.ndarray, q: Covariance, rng, n_p: int):
        """The truth ``start`` and ``n_p`` members one Q draw around it."""
        return start, start + q.sample(rng, size=n_p)


@dataclass(frozen=True)
class Lorenz96(OdeModel):
    n_vars: int = 40
    forcing: float = 8.0
    dt: float = 0.001

    name = "lorenz96"
    obs_operators = {"full": slice(None), "every2": slice(None, None, 2)}

    def __post_init__(self):
        if self.n_vars < 4:
            raise ContractViolation("n_vars must be >= 4 for Lorenz-96")
        # cyclic ring [n-2, n-1, 0, ..., n-1, 0]; not a field, so eq and hash skip it
        object.__setattr__(self, "_ring", np.arange(-2, self.n_vars + 1) % self.n_vars)

    @property
    def n_x(self) -> int:
        return self.n_vars

    def drift(self, x: np.ndarray) -> np.ndarray:
        # (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F, cyclic: one gather through the ring
        xp = x.take(self._ring, axis=0)
        out = xp[3:] - xp[:-3]
        out *= xp[1:-2]
        out -= x
        out += self.forcing
        return out

    def _integrate_start(self, spinup_steps: int) -> np.ndarray:
        """The bank of 1000 states sampled every 20 steps after
        ``spinup_steps`` from ``F`` with ``x_0 + 0.01``."""
        x0 = np.full(self.n_x, self.forcing)
        x0[0] += 0.01
        spun = advance_window(self, x0, spinup_steps)
        return free_run(self, spun, 20_000, sample_every=20)

    def initial_ensemble(self, start: np.ndarray, q: Covariance, rng, n_p: int):
        """The truth, the bank's last row, and ``n_p`` members drawn from
        its other rows; ``q`` is unused."""
        idx = rng.integers(0, start.shape[0] - 1, size=n_p)
        return start[-1], start[idx]


def _integrate(model, x: np.ndarray, steps: int, every: int = 0):
    """``steps`` deterministic single steps from ``x`` ``(..., n_x)``;
    returns the final state and copies of the states after every
    ``every``-th step (none when ``every`` is 0), all ``(..., n_x)``.  The
    steps run on one contiguous component-first copy ``(n_x, ...)``.  The
    window is checked for a blow-up once, at its end (see
    :class:`OdeModel`); a non-finite end state is replayed step by step to
    name the step that blew up."""
    x0 = x = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    drift, dt = model.drift, model.dt
    samples = []
    # an overflow shows as a non-finite state, reported as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            x = rk4_step(drift, x, dt)
            if every and i % every == 0:
                samples.append(x.T.copy())
        if not np.isfinite(x).all():
            x = x0
            for i in range(1, steps + 1):
                x = rk4_step(drift, x, dt)
                if not np.isfinite(x).all():
                    raise _blowup(model.name, x, i)
    return np.ascontiguousarray(x.T), samples


def advance_window(model, x: np.ndarray, steps: int) -> np.ndarray:
    """Compose ``steps`` deterministic single steps (ODE models)."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    return _integrate(model, x, steps)[0]


def free_run(model, x0: np.ndarray, steps: int, sample_every: int = 1) -> np.ndarray:
    """Deterministic trajectory sampled every ``sample_every`` steps."""
    if sample_every < 1:
        raise ContractViolation("sample_every must be >= 1")
    return np.asarray(_integrate(model, x0, steps, sample_every)[1])


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
    obs_operators = ("mortality",)
    q_kinds = ("diag",)

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
                    raise _blowup(self.name, x, k + 1)
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

    def twin_window(self, ssm, truth: np.ndarray, t0: float, truth_rng, obs_rng):
        """One window of a twin experiment: the truth advanced over
        ``ssm.cycle_steps`` from ``t0``, the window's mortality and its
        noisy observation ``y``.  Returns ``(truth, true_obs, y, cycle_ssm)``,
        where ``cycle_ssm`` is ``ssm`` with this cycle's R,
        ``max((tau y)^2, R_VARIANCE_FLOOR)``."""
        truth, delta_c = self.advance(truth, t0, ssm.cycle_steps, truth_rng)
        tau = self.params.tau
        y = cholera_observe(delta_c, tau, obs_rng)
        r = Covariance.diagonal([max((tau * y) ** 2, R_VARIANCE_FLOOR)])
        return truth, np.array([delta_c]), np.array([y]), replace(ssm, r=r)

    def start(self, spinup_steps: int) -> np.ndarray:
        """The parameter file's initial state; there is no spin-up."""
        return self.params.initial_state()

    def initial_ensemble(self, start: np.ndarray, q: Covariance, rng, n_p: int):
        """The truth ``start`` and ``n_p`` members one Q draw around it with
        S underestimated by 20%, and S, I and R1-R3 clamped at 0."""
        biased = start.copy()
        biased[0] *= 0.8
        states = biased + q.sample(rng, size=n_p)
        states[:, :5] = np.maximum(states[:, :5], 0.0)
        return start, states

    def observation_matrix(self, kind: str, window: float) -> np.ndarray:
        """The ``mortality`` row: ``m_c * window`` on the infected pool."""
        h = np.zeros((1, self.n_x))
        h[0, 1] = self.params.m_c * window
        return h


def load_cholera_params(path) -> CholeraParams:
    """Read SI3R parameters from the flat ``key = value`` file at ``path``."""
    return parse_cholera_params(Path(path).read_text(encoding="utf-8"))


def parse_cholera_params(text: str) -> CholeraParams:
    """Parse SI3R parameters from flat ``key = value`` text.

    Tables use ``time:value`` pairs, e.g.
    ``lambda_table = 0:0.02, 3:0.08, 6:0.03``; ``lambda_period`` (months)
    makes the transmission seasonal.  Population is piecewise linear in
    the same format.
    """
    from mpfilter.config import ConfigError, parse_flat

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
) -> float:
    """Noisy mortality observation ``y ~ N(delta_c, (tau * delta_c)^2)``;
    ``delta_c`` itself when ``rng`` is None or that variance is 0."""
    if delta_c < 0.0:
        raise ContractViolation("cholera mortality increment must be >= 0")
    if rng is not None and (tau * delta_c) ** 2 > 0.0:
        return delta_c + tau * delta_c * float(rng.standard_normal())
    return delta_c
