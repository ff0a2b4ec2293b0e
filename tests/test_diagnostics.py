"""Importance-weight diagnostics: KDE proposal, weight identities, scoring."""

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance, Ensemble
from mpfilter.diagnostics import (
    effective_sample_size,
    importance_report,
    kde_log_proposal,
    kl_from_weights,
    score_cycle,
    weight_variance,
)
from mpfilter.kernels import GaussianKernel
from mpfilter.models import Lorenz63
from mpfilter.ssm import PriorMixture, StateSpaceModel
from oracles import bandwidth, kernel_value, log_posterior_unnormalized


def kernel_1d():
    return GaussianKernel.from_model_error(Covariance.diagonal([1.0]), 1.0)


def gaussian_ssm_1d(q=1.0, r=1.0):
    return StateSpaceModel(
        dynamics=Lorenz63(),
        obs_matrix=np.eye(1),
        q=Covariance.diagonal([q]),
        r=Covariance.diagonal([r]),
        cycle_steps=1,
    )


class TestWeightIdentities:
    def test_uniform_weights_exact(self):
        for n in (1, 2, 5, 50):
            w = np.full(n, 1.0 / n)
            assert effective_sample_size(w) == pytest.approx(n, abs=1e-12)
            assert kl_from_weights(w) == 0.0

    def test_hand_value(self):
        w = np.array([0.75, 0.25])
        assert effective_sample_size(w) == pytest.approx(1.6, rel=1e-12)

    def test_three_way_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(8))
            neff = effective_sample_size(w)
            kl = kl_from_weights(w)
            uniform = np.allclose(w, 1.0 / 8.0, atol=1e-12)
            assert (neff > 8.0 - 1e-9) == uniform
            assert (kl < 1e-12) == uniform
            assert kl >= 0.0

    def test_weight_variance(self):
        assert weight_variance(np.full(4, 0.25)) == 0.0
        assert weight_variance(np.array([1.0, 0.0])) == 0.25


class TestKdeProposal:
    def test_single_particle_at_itself(self):
        k = kernel_1d()
        assert kde_log_proposal(k, np.array([[0.0]])).tolist() == [0.0]

    def test_two_particle_hand_value(self):
        k = kernel_1d()
        log_q = kde_log_proposal(k, np.array([[0.0], [1.0]]))
        expected = np.log(0.5 * (1.0 + np.exp(-0.5)))
        np.testing.assert_allclose(log_q, [expected, expected], rtol=1e-12)

    def test_midpoint_symmetry(self):
        # the KDE of a cloud symmetric about 0 is equal at -0.5 and +0.5
        k = kernel_1d()
        states = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        log_q = kde_log_proposal(k, states)
        assert log_q[1] == pytest.approx(log_q[2], rel=1e-14)
        assert log_q[0] == pytest.approx(log_q[3], rel=1e-14)

    def test_self_evaluation_matches_explicit(self):
        rng = np.random.default_rng(2)
        k = kernel_1d()
        states = rng.standard_normal((6, 1))
        log_q = kde_log_proposal(k, states)
        for j in range(6):
            explicit = np.log(np.mean([kernel_value(bandwidth(k), s, states[j])
                                       for s in states]))
            assert log_q[j] == pytest.approx(explicit, rel=1e-12)

    def test_dimension_guard(self):
        q = Covariance.isotropic(1.0, 12)
        k = GaussianKernel.from_model_error(q, 1.0)
        with pytest.raises(ContractViolation):
            kde_log_proposal(k, np.zeros((3, 12)))


class TestImportanceWeights:
    def test_proposal_proportional_to_posterior(self):
        # proposal equal to the target at the particles -> uniform weights
        rng = np.random.default_rng(3)
        ssm = gaussian_ssm_1d()
        prior = PriorMixture(np.zeros((5, 1)), ssm.q)
        states = rng.standard_normal((5, 1))
        y = np.array([0.7])
        log_target = log_posterior_unnormalized(ssm, prior, states, y)
        report = importance_report(ssm, prior, states, y, log_target, "kde")
        np.testing.assert_allclose(report.weights, 0.2, atol=1e-12)
        assert report.n_eff == pytest.approx(5.0, abs=1e-9)
        assert report.kl_from_weights == pytest.approx(0.0, abs=1e-12)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        ssm = gaussian_ssm_1d()
        prior = PriorMixture(np.zeros((4, 1)), ssm.q)
        states = rng.standard_normal((4, 1))
        y = np.array([0.1])
        log_q = np.log(np.abs(rng.standard_normal(4)) + 0.1)
        a = importance_report(ssm, prior, states, y, log_q, "kde")
        b = importance_report(ssm, prior, states, y, log_q + np.log(7.3), "kde")
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    def test_shape_guard(self):
        ssm = gaussian_ssm_1d()
        prior = PriorMixture(np.zeros((2, 1)), ssm.q)
        with pytest.raises(ContractViolation):
            importance_report(ssm, prior, np.zeros((2, 1)), np.array([0.0]),
                              np.zeros(3), "kde")


class TestScoreCycle:
    def test_perfect_analysis(self):
        ens = Ensemble.equal_weight(np.array([[1.0, 2.0]]))
        rmse, spread = score_cycle(np.array([1.0, 2.0]), ens)
        assert rmse == 0.0
        assert spread == 0.0

    def test_hand_values(self):
        ens = Ensemble.equal_weight(np.array([[1.0]]))
        assert score_cycle(np.array([0.0]), ens)[0] == 1.0
        ens2 = Ensemble.equal_weight(np.array([[1.0, 1.0]]))
        assert score_cycle(np.zeros(2), ens2)[0] == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            score_cycle(np.zeros(3), Ensemble.equal_weight(np.zeros((2, 2))))
