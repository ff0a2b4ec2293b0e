"""SIR and stochastic EnKF baseline tests against closed-form Kalman results
and resampler statistics."""

import numpy as np
import pytest

from mpfilter.baselines import (
    SirConfig,
    enkf_cycle,
    sir_cycle,
    systematic_resample,
)
from mpfilter.config import loads
from mpfilter.core import ContractViolation, Covariance, Ensemble
from mpfilter.experiment import build_setup
from mpfilter.models import OdeModel
from mpfilter.ssm import StateSpaceModel


class IdentityDynamics(OdeModel):
    """Trivial model: the state does not move."""

    name = "identity"
    n_x = 1
    dt = 1.0

    def drift(self, x):
        return np.zeros_like(x)  # an RK4 step adds exactly 0


def identity_ssm(q=1.0, r=1.0):
    return StateSpaceModel(
        dynamics=IdentityDynamics(),
        obs_matrix=np.eye(1),
        q=Covariance.diagonal([q]),
        r=Covariance.diagonal([r]),
        cycle_steps=1,
    )


def streams(n, seed=0):
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(n + 1)]


class TestSirConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            SirConfig(resample_threshold=0.0)


class TestResamplers:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        idx = systematic_resample(np.array([1.0, 0.0, 0.0]), rng)
        np.testing.assert_array_equal(idx, [0, 0, 0])

    def test_systematic_unbiased(self):
        w = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(1)
        counts = np.zeros(3)
        trials = 10_000
        for _ in range(trials):
            idx = systematic_resample(w, rng)
            counts += np.bincount(idx, minlength=3)
        expect = trials * 3 * w
        sigma = np.sqrt(trials * 3 * w * (1 - w))
        assert np.all(np.abs(counts - expect) < 3 * sigma)


class TestSirCycle:
    def test_identical_particles_no_resample(self):
        ssm = identity_ssm(q=1e-12)
        ens = Ensemble.equal_weight(np.zeros((4, 1)))
        out, diag = sir_cycle(ssm, ens, np.array([0.0]), SirConfig(),
                              streams(4)[:4], streams(1, seed=9)[0])
        assert diag.neff == pytest.approx(4.0, abs=1e-6)
        assert not diag.resampled
        assert not diag.degenerate

    def test_point_mass_likelihood_triggers_resample(self):
        ssm = identity_ssm(q=1e-18, r=1e-6)
        ens = Ensemble.equal_weight(np.array([[0.0], [100.0]]))
        out, diag = sir_cycle(ssm, ens, np.array([0.0]), SirConfig(),
                              streams(2)[:2], streams(1, seed=3)[0])
        assert diag.neff == pytest.approx(1.0, abs=1e-6)
        assert diag.resampled
        assert np.all(np.abs(out.states) < 1.0)  # survivor near the obs

    def test_degenerate_likelihoods_reset_uniform(self):
        ssm = identity_ssm(q=1e-18, r=1e-12)
        # quadratic forms overflow to inf so every log-likelihood is -inf
        ens = Ensemble.equal_weight(np.array([[1e200], [2e200]]))
        with np.errstate(over="ignore", invalid="ignore"):
            out, diag = sir_cycle(ssm, ens, np.array([0.0]), SirConfig(),
                                  streams(2)[:2], streams(1, seed=4)[0])
        assert diag.degenerate

    def test_weights_normalized(self):
        ssm = identity_ssm()
        rng_list = streams(8)
        ens = Ensemble.equal_weight(np.linspace(-1, 1, 8)[:, None])
        out, diag = sir_cycle(ssm, ens, np.array([0.3]),
                              SirConfig(resample_threshold=0.01),
                              rng_list[:8], rng_list[8])
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1.0 <= diag.neff <= 8.0


class TestEnkfCycle:
    def test_needs_two_members(self):
        ssm = identity_ssm()
        with pytest.raises(ContractViolation):
            enkf_cycle(ssm, Ensemble.equal_weight(np.zeros((1, 1))),
                       np.array([0.0]), streams(1)[:1], streams(1, seed=5)[0])

    def test_matches_kalman_large_ensemble(self):
        # identity dynamics, known prior: analysis mean/var within 2% of the
        # exact Kalman update
        n = 10_000
        q, r = 1.0, 0.5
        prior_mean, y = 0.0, 1.0
        ssm = identity_ssm(q=q, r=r)
        ens = Ensemble.equal_weight(np.full((n, 1), prior_mean))
        rngs = streams(n, seed=8)
        out, _ = enkf_cycle(ssm, ens, np.array([y]), rngs[:n], rngs[n])
        gain = q / (q + r)
        kalman_mean = prior_mean + gain * (y - prior_mean)
        kalman_var = (1 - gain) * q
        assert abs(out.states.mean() - kalman_mean) / abs(kalman_mean) < 0.02
        assert abs(out.states.var() - kalman_var) / kalman_var < 0.02

    def test_uninformative_observation_limit(self):
        ssm = identity_ssm(q=1e-12, r=1e6)
        states = np.linspace(-1, 1, 6)[:, None]
        rngs = streams(6, seed=11)
        out, _ = enkf_cycle(ssm, Ensemble.equal_weight(states), np.array([50.0]),
                         rngs[:6], rngs[6])
        assert np.max(np.abs(out.states - states)) < 1e-3

    def test_zero_spread_analysis_equals_forecast(self):
        ssm = identity_ssm(q=1e-18, r=1.0)
        states = np.full((4, 1), 2.0)
        rngs = streams(4, seed=12)
        out, _ = enkf_cycle(ssm, Ensemble.equal_weight(states), np.array([5.0]),
                         rngs[:4], rngs[4])
        np.testing.assert_allclose(out.states, states, atol=1e-6)

    def test_analysis_variance_not_larger_in_observed_space(self):
        rng = np.random.default_rng(13)
        ssm = identity_ssm(q=0.5, r=1.0)
        states = rng.standard_normal((200, 1))
        rngs = streams(200, seed=14)
        fc_like = states + ssm.q.sample(rng, size=200)  # proxy forecast spread
        out, _ = enkf_cycle(ssm, Ensemble.equal_weight(states), np.array([0.0]),
                         rngs[:200], rngs[200])
        assert out.states.var() < fc_like.var() * 1.2


@pytest.mark.parametrize("filt", ["sir", "enkf"])
def test_cholera_cycle_starts_window_at_zero_aux(filt):
    # the auxiliary T restarts at 0 each window, so the T a member carries
    # into the cycle cannot change its outcome
    setup = build_setup(loads("model = cholera\nseed = 4\nn_particles = 6\n"))
    y = np.array([0.002])

    def cycle(t_in):
        states = setup.ensemble0.states.copy()
        states[:, 5] = t_in
        ens = Ensemble.equal_weight(states)
        rngs = streams(6, seed=21)
        if filt == "sir":
            return sir_cycle(setup.ssm, ens, y, SirConfig(), rngs[:6], rngs[6],
                             t0=1.0)[0]
        return enkf_cycle(setup.ssm, ens, y, rngs[:6], rngs[6], t0=1.0)[0]

    fresh, carried = cycle(0.0), cycle(-24.0)
    np.testing.assert_array_equal(fresh.states, carried.states)
    np.testing.assert_array_equal(fresh.weights, carried.weights)
