"""Dynamical model and integrator tests: fixed points, convergence order,
stochastic-model contracts."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from mpfilter.core import ContractViolation, FilterFailure
from mpfilter.models import (
    CholeraModel,
    CholeraParams,
    Lorenz63,
    OdeModel,
    Lorenz96,
    PiecewiseSeries,
    advance_window,
    cholera_observe,
    climatological_variance,
    free_run,
    parse_cholera_params,
    rk4_step,
    _table_key,
)


def make_cholera(**overrides):
    kwargs = dict(
        gamma=1.5, r=0.2, k=3.0, m=0.0015, m_c=0.05, eps=0.3, tau=0.1,
        transmission=PiecewiseSeries(np.array([0.0]), np.array([0.05])),
        population=PiecewiseSeries(np.array([0.0]), np.array([1.0])),
    )
    kwargs.update(overrides)
    return CholeraModel(CholeraParams(**kwargs))


def first_nonfinite_step(model, x, steps):
    """Reference for the blow-up step: the first of ``steps`` single
    ``model.step`` calls whose state holds a non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            x = model.step(x)
            if not all(math.isfinite(v) for v in x.ravel()):
                return i
    return None


def blowup_step(model, x, steps):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FilterFailure) as info:
            advance_window(model, x, steps)
    return info.value.step


class TestLorenz63:
    def test_origin_fixed_point(self):
        model = Lorenz63()
        np.testing.assert_array_equal(model.step(np.zeros(3)), np.zeros(3))

    def test_default_parameters(self):
        model = Lorenz63()
        assert (model.sigma, model.rho, model.beta, model.dt) == (
            10.0, 28.0, 8.0 / 3.0, 0.001)

    def test_step_halving_reference(self):
        # 10 steps at dt=0.001 vs 100 steps at dt=0.0001
        coarse = advance_window(Lorenz63(dt=0.001), np.array([1.0, 1.0, 1.0]), 10)
        fine = advance_window(Lorenz63(dt=0.0001), np.array([1.0, 1.0, 1.0]), 100)
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_rk4_global_order(self):
        # halving dt reduces the endpoint error roughly 16x (4th order)
        x0 = np.array([1.0, 1.0, 1.0])
        ref = advance_window(Lorenz63(dt=0.01 / 8), x0, 200)
        err_h = np.linalg.norm(advance_window(Lorenz63(dt=0.01), x0, 25) - ref)
        err_h2 = np.linalg.norm(advance_window(Lorenz63(dt=0.005), x0, 50) - ref)
        assert 8.0 < err_h / err_h2 < 32.0

    def test_batched_step_matches_loop(self):
        model = Lorenz63()
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((5, 3)) + np.array([0.0, 0.0, 25.0])
        out = model.step(batch)
        for j in range(5):
            np.testing.assert_array_equal(out[j], model.step(batch[j]))

    def test_drift_matches_stack_form(self):
        model = Lorenz63()
        # the drift takes components first: 7 states as (3, 7)
        x = np.random.default_rng(3).standard_normal((3, 7)) * 10.0
        x1, x2, x3 = x[0], x[1], x[2]
        stacked = np.stack([model.sigma * (x2 - x1),
                            x1 * (model.rho - x3) - x2,
                            x1 * x2 - model.beta * x3])
        np.testing.assert_array_equal(model.drift(x), stacked)
        np.testing.assert_array_equal(model.drift(x[:, 0]), stacked[:, 0])

    def test_blowup_reports_first_nonfinite_step(self):
        model = Lorenz63(dt=0.05)
        x = np.full(3, 1e3)
        assert blowup_step(model, x, 10) == first_nonfinite_step(model, x, 10) == 3
        # a batch reports its earliest row: these rows blow up at 3, 4, 4
        batch = np.ones((3, 3)) * np.array([[1e3], [3e2], [1e2]])
        assert blowup_step(model, batch, 10) == first_nonfinite_step(model, batch, 10)

    def test_long_run_stays_bounded(self):
        traj = free_run(Lorenz63(), np.array([1.0, 1.0, 1.001]), 100_000,
                        sample_every=100)
        assert np.all(np.abs(traj) < 100.0)


class TestLorenz96:
    def test_forcing_fixed_point(self):
        model = Lorenz96(n_vars=8, forcing=8.0)
        x = np.full(8, 8.0)
        np.testing.assert_allclose(model.step(x), x, atol=1e-12)

    def test_cyclic_boundary(self):
        # drift formula checked explicitly at the wrap-around indices
        model = Lorenz96(n_vars=5, forcing=0.0)
        x = np.arange(5, dtype=float)
        d = model.drift(x)
        n = 5
        for i in range(n):
            expect = (x[(i + 1) % n] - x[(i - 2) % n]) * x[(i - 1) % n] - x[i]
            assert d[i] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n_vars", [4, 5, 40])
    def test_drift_matches_roll_form(self, n_vars):
        model = Lorenz96(n_vars=n_vars)
        # the drift takes components first: 6 states as (n_vars, 6)
        x = np.random.default_rng(n_vars).standard_normal((n_vars, 6)) * 5.0
        rolled = ((np.roll(x, -1, axis=0) - np.roll(x, 2, axis=0))
                  * np.roll(x, 1, axis=0) - x + model.forcing)
        np.testing.assert_array_equal(model.drift(x), rolled)
        np.testing.assert_array_equal(model.drift(x[:, 0]), rolled[:, 0])
        # states batch over any trailing axes
        x3 = x.reshape(n_vars, 2, 3)
        np.testing.assert_array_equal(model.drift(x3), rolled.reshape(n_vars, 2, 3))

    def test_ring_is_not_a_field(self):
        # the cached cyclic index leaves equality, hashing and data keys alone
        assert Lorenz96() == Lorenz96()
        assert hash(Lorenz96()) == hash(Lorenz96())
        assert Lorenz96() != Lorenz96(n_vars=41)
        assert _table_key(Lorenz96(), "climatology") == (
            "lorenz96 n_vars:40 forcing:8.0 dt:0.001 climatology")

    def test_too_few_variables_rejected(self):
        with pytest.raises(ContractViolation):
            Lorenz96(n_vars=3)

    def test_window_from_climatology_bounded(self):
        model = Lorenz96()
        x = advance_window(model, np.full(40, 8.0) + np.eye(40)[0] * 0.01, 20_000)
        out = advance_window(model, x, 50)
        assert np.all(np.abs(out) < 30.0)

    def test_blowup_detected(self):
        model = Lorenz96(n_vars=5, forcing=8.0, dt=1.0)  # absurd step
        x = np.arange(5, dtype=float) * 10.0
        assert blowup_step(model, x, 50) == first_nonfinite_step(model, x, 50)
        batch = np.random.default_rng(0).standard_normal((3, 5)) * 3.0
        assert blowup_step(model, batch, 50) == first_nonfinite_step(model, batch, 50)


@dataclass(frozen=True)
class Ramp(OdeModel):
    """``x' = 1`` until ``x`` reaches ``wall``, where the drift is inf: from
    0 with ``dt = 1`` the state is ``i`` after step ``i``, and step
    ``ceil(wall)`` is the first whose RK4 stages reach the wall."""

    wall: float = 5.5
    dt: float = 1.0

    name = "ramp"
    n_x = 1

    def drift(self, x):
        return np.where(x >= self.wall, np.inf, 1.0)


class TestIntegrators:
    @pytest.mark.parametrize("wall,steps", [(5.5, 10), (5.5, 6), (1.5, 3), (9.5, 10)])
    def test_blowup_mid_window_names_its_step(self, wall, steps):
        # the window is checked once, at its end; the inf that enters at
        # step ceil(wall) stays, and the replay names that step
        model = Ramp(wall=wall)
        assert blowup_step(model, np.zeros(1), steps) == math.ceil(wall)
        assert first_nonfinite_step(model, np.zeros(1), steps) == math.ceil(wall)
        assert advance_window(model, np.zeros(1), math.ceil(wall) - 1)[0] == math.ceil(wall) - 1

    def test_advance_window_composes(self):
        model = Lorenz63()
        x = np.array([1.0, 2.0, 3.0])
        step_by_step = x
        for _ in range(10):
            step_by_step = model.step(step_by_step)
        np.testing.assert_array_equal(advance_window(model, x, 10), step_by_step)

    def test_advance_window_single_step(self):
        model = Lorenz63()
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(advance_window(model, x, 1), model.step(x))

    def test_steps_must_be_positive(self):
        with pytest.raises(ContractViolation):
            advance_window(Lorenz63(), np.zeros(3), 0)

    def test_sample_every_must_be_positive(self):
        for every in (0, -1):
            with pytest.raises(ContractViolation):
                free_run(Lorenz63(), np.ones(3), 10, sample_every=every)

    def test_rk4_step_quadrature(self):
        # integrates dx/dt = x exactly enough to match e^dt to O(dt^5)
        out = rk4_step(lambda x: x, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(np.exp(0.1), abs=1e-7)

    def test_climatological_variance_l63(self):
        var = climatological_variance(Lorenz63(), n_steps=50_000, spinup=5_000)
        # documented attractor scales: variances of order 60-80 per component
        assert var.shape == (3,)
        assert np.all(var > 20.0) and np.all(var < 150.0)


class TestPiecewiseSeries:
    def test_interpolates(self):
        s = PiecewiseSeries(np.array([0.0, 2.0]), np.array([0.0, 4.0]))
        assert s(1.0) == 2.0

    def test_periodic(self):
        s = PiecewiseSeries(np.array([0.0, 6.0]), np.array([1.0, 3.0]), period=12.0)
        assert s(15.0) == s(3.0)


class TestCholeraModel:
    def test_null_dynamics(self):
        model = make_cholera(
            gamma=0.0, r=0.0, k=0.0, m=0.0, m_c=0.0, eps=0.0,
            transmission=PiecewiseSeries(np.array([0.0]), np.array([0.0])),
        )
        x = np.array([0.6, 0.02, 0.1, 0.1, 0.1, 0.0])
        new, dc = model.advance(x, 0.0, 1, np.random.default_rng(0))
        np.testing.assert_allclose(new[:5], x[:5], atol=1e-15)
        assert new[5] != 0.0  # T still random-walks
        assert dc == 0.0

    def test_reproducible(self):
        model = make_cholera()
        x = CholeraParams(
            gamma=1.5, r=0.2, k=3.0, m=0.0015, m_c=0.05, eps=0.3, tau=0.1,
            transmission=PiecewiseSeries(np.array([0.0]), np.array([0.05])),
            population=PiecewiseSeries(np.array([0.0]), np.array([1.0])),
        ).initial_state()
        a, _ = model.advance(x, 0.0, 20, np.random.default_rng(5))
        b, _ = model.advance(x, 0.0, 20, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_mass_conservation_without_sources(self):
        # closed population, no birth/death/mortality: compartment total fixed
        model = make_cholera(m=0.0, m_c=0.0, eps=0.0)
        x = np.array([0.6, 0.02, 0.15, 0.13, 0.1, 0.0])
        total0 = x[:5].sum()
        for i in range(200):
            x, _ = model.advance(x, i * model.dt, 1, None)
            assert abs(x[:5].sum() - total0) < 1e-10

    def test_mortality_increment(self):
        model = make_cholera(eps=0.0)
        x = np.array([0.6, 0.02, 0.1, 0.1, 0.1, 0.0])
        _, dc = model.advance(x, 0.0, 1, None)
        assert dc == pytest.approx(0.05 * 0.02 * model.dt, rel=1e-12)

    def test_negative_clamp_counted(self):
        model = make_cholera(gamma=1000.0, eps=0.0)  # drains I below zero
        x = np.array([0.0, 0.02, 0.0, 0.0, 0.0, 0.0])
        new, _ = model.advance(x, 0.0, 1, None)
        assert model.clamp_count >= 1
        assert np.all(new[:5] >= 0.0)

    def test_dt_fixed(self):
        with pytest.raises(ContractViolation):
            CholeraParams(
                gamma=1.0, r=0.1, k=1.0, m=0.0, m_c=0.0, eps=0.0, tau=0.0,
                transmission=PiecewiseSeries(np.array([0.0]), np.array([0.0])),
                population=PiecewiseSeries(np.array([0.0]), np.array([1.0])),
                dt=0.1,
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ContractViolation):
            make_cholera(gamma=-1.0)


class TestCholeraObserve:
    def test_zero_increment(self):
        assert cholera_observe(0.0, 0.1, np.random.default_rng(0)) == 0.0

    def test_noise_free(self):
        assert cholera_observe(5.0, 0.0, np.random.default_rng(0)) == 5.0

    def test_noise_scale(self):
        rng = np.random.default_rng(1)
        draws = np.array([cholera_observe(10.0, 0.1, rng) for _ in range(100_000)])
        assert abs(draws.std() - 1.0) < 0.05
        assert abs(draws.mean() - 10.0) < 0.05

    def test_negative_increment_rejected(self):
        with pytest.raises(ContractViolation):
            cholera_observe(-1e-9, 0.1, None)


class TestCholeraParamsFile:
    TEXT = """
gamma = 1.5
r = 0.2
k = 3
m = 0.0015
m_c = 0.05
eps = 0.3
tau = 0.1
lambda_table = 0:0.01, 6:0.10
lambda_period = 12
population_table = 0:1.0
"""

    def test_parses(self):
        params = parse_cholera_params(self.TEXT)
        assert params.gamma == 1.5
        assert params.transmission(6.0) == pytest.approx(0.10)
        assert params.transmission(18.0) == pytest.approx(0.10)  # periodic

    def test_missing_key_rejected(self):
        from mpfilter.config import ConfigError
        with pytest.raises(ConfigError):
            parse_cholera_params("gamma = 1.0\n")

    def test_unknown_key_rejected(self):
        from mpfilter.config import ConfigError
        with pytest.raises(ConfigError):
            parse_cholera_params(self.TEXT + "bogus = 1\n")
