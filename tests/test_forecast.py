"""The batched ensemble forecast against the forms it replaced.

The reference below advances one particle at a time, drawing the cholera
noise one scalar per step with the original scalar Euler-Maruyama step;
the batched forecast must reproduce its centers, noisy states, mortality
increments, clamp counts and random-stream positions bit for bit.  The
Lorenz windows, which step stored by component, must also reproduce the
RK4 loop on states stored by particle (``oracles.row_major_window``) bit
for bit, blow-up step included.
"""

from dataclasses import replace

import numpy as np
import pytest

from mpfilter.core import Covariance, FilterFailure
from mpfilter.experiment import default_cholera_params_path
from mpfilter.models import (
    CholeraModel,
    Lorenz63,
    Lorenz96,
    advance_window,
    free_run,
    load_cholera_params,
)
from mpfilter.rng import RandomStream
from mpfilter.ssm import StateSpaceModel
from oracles import row_major_window

T0 = 7.3


def reference_cholera_step(model, x, t, dw):
    """One scalar EM step of one state; returns state, mortality, clamps."""
    p = model.params
    s, i, r1, r2, r3, tvar = x
    dt = model.dt
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
    clamps = int(np.count_nonzero(new[:5] < 0.0))
    new[:5] = np.maximum(new[:5], 0.0)
    return new, p.m_c * i * dt, clamps


def reference_forecast(ssm, states, rngs, t0):
    """Per-particle loop: window transition, then one N(0, Q) draw."""
    model = ssm.dynamics
    centers, noisy = np.empty_like(states), np.empty_like(states)
    delta_c, clamps = np.zeros(len(states)), 0
    for j, rng in enumerate(rngs):
        if isinstance(model, CholeraModel):
            x = states[j].copy()
            x[5] = 0.0
            for k in range(ssm.cycle_steps):
                dw = float(rng.standard_normal()) * np.sqrt(model.dt)
                x, dc, n = reference_cholera_step(model, x, t0 + k * model.dt, dw)
                delta_c[j] += dc
                clamps += n
        else:
            x = advance_window(model, states[j], ssm.cycle_steps)
        centers[j] = x
        noisy[j] = x + ssm.q.sample(rng)
    return centers, noisy, delta_c, clamps


def make_case(kind, n_p):
    rng = np.random.default_rng(11)
    if kind == "lorenz63":
        model, steps, q = Lorenz63(), 10, 0.5
        states = np.array([-5.9, -5.5, 24.6]) + rng.standard_normal((n_p, 3))
    elif kind == "lorenz96":
        model, steps, q = Lorenz96(), 5, 0.1
        states = 8.0 + rng.standard_normal((n_p, 40))
    else:
        # a large transmission noise so that some compartments clamp
        params = replace(load_cholera_params(default_cholera_params_path()), eps=20.0)
        model, steps, q = CholeraModel(params), 20, 1e-4
        states = params.initial_state() + 0.05 * rng.standard_normal((n_p, 6))
        states[:, :5] = np.maximum(states[:, :5], 0.0)
        states[:, 5] = 3.0 * rng.standard_normal(n_p)  # T carried in
    ssm = StateSpaceModel(dynamics=model, obs_matrix=np.eye(model.n_x)[:1],
                          q=Covariance.isotropic(q, model.n_x),
                          r=Covariance.isotropic(1.0, 1), cycle_steps=steps)
    return ssm, states


def stream_states(rngs):
    return [rng.bit_generator.state for rng in rngs]


@pytest.mark.parametrize("kind", ["lorenz63", "lorenz96", "cholera"])
@pytest.mark.parametrize("n_p", [1, 7])
def test_batched_forecast_matches_particle_loop(kind, n_p):
    ssm, states = make_case(kind, n_p)
    batch_rngs = RandomStream(5).particle_streams(n_p)
    loop_rngs = RandomStream(5).particle_streams(n_p)
    centers, noisy = ssm.forecast(states, batch_rngs, T0)
    ref_centers, ref_noisy, _, _ = reference_forecast(ssm, states, loop_rngs, T0)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(noisy, ref_noisy)
    assert stream_states(batch_rngs) == stream_states(loop_rngs)


def test_cholera_window_matches_particle_loop():
    ssm, states = make_case("cholera", 9)
    model = ssm.dynamics
    batch_rngs = RandomStream(8).particle_streams(9)
    loop_rngs = RandomStream(8).particle_streams(9)
    z = np.stack([rng.standard_normal(ssm.cycle_steps) for rng in batch_rngs], axis=1)
    out, delta_c = model._window(states.T, T0, z)
    ref_centers, _, ref_delta_c, ref_clamps = reference_forecast(
        ssm, states, loop_rngs, T0)
    assert np.array_equal(out.T, ref_centers)
    assert np.array_equal(delta_c, ref_delta_c)
    assert ref_clamps > 0
    assert model.clamp_count == ref_clamps


def test_cholera_single_state_advance_matches_particle_loop():
    ssm, states = make_case("cholera", 3)
    model = ssm.dynamics
    rows = [model.advance(states[j], T0, ssm.cycle_steps, rng)
            for j, rng in enumerate(RandomStream(2).particle_streams(3))]
    ref_centers, _, ref_delta_c, _ = reference_forecast(
        ssm, states, RandomStream(2).particle_streams(3), T0)
    assert np.array_equal(np.array([r[0] for r in rows]), ref_centers)
    assert np.array_equal(np.array([r[1] for r in rows]), ref_delta_c)


LORENZ = [pytest.param(Lorenz63(), np.array([-5.9, -5.5, 24.6]), 1.0, id="lorenz63"),
          pytest.param(Lorenz96(), np.full(40, 8.0), 1.0, id="lorenz96")]
# a step far beyond RK4's stability limit and states that overflow in it
BLOWUP = [pytest.param(Lorenz63(dt=0.05), np.full(3, 1e3), 1e2, id="lorenz63"),
          pytest.param(Lorenz96(dt=0.5), np.zeros(40), 3.0, id="lorenz96")]


def lorenz_states(center, scale, n_p):
    shape = (center.size,) if n_p is None else (n_p, center.size)
    return center + scale * np.random.default_rng(n_p or 0).standard_normal(shape)


@pytest.mark.parametrize("n_p", [None, 1, 5, 20], ids=["1-D", "1", "5", "20"])
@pytest.mark.parametrize("model,center,scale", LORENZ)
def test_lorenz_window_matches_row_major_form(model, center, scale, n_p):
    x = lorenz_states(center, scale, n_p)
    ref, ref_samples = row_major_window(model, x, 30, every=7)
    assert np.array_equal(advance_window(model, x, 30), ref)
    assert np.array_equal(model.forecast(x, T0, 30, None), ref)
    assert np.array_equal(free_run(model, x, 30, sample_every=7), np.array(ref_samples))


@pytest.mark.parametrize("n_p", [None, 1, 5, 20], ids=["1-D", "1", "5", "20"])
@pytest.mark.parametrize("model,center,scale", BLOWUP)
def test_lorenz_blowup_matches_row_major_form(model, center, scale, n_p):
    x = lorenz_states(center, scale, n_p)
    with pytest.raises(FilterFailure) as ref:
        row_major_window(model, x, 50)
    for window in (advance_window, lambda m, x, s: m.forecast(x, T0, s, None)):
        with pytest.raises(FilterFailure) as info:
            window(model, x, 50)
        assert info.value.kind == ref.value.kind == "integration blow-up"
        assert info.value.step == ref.value.step > 1
        assert info.value.particle == ref.value.particle
        assert str(info.value) == str(ref.value)
