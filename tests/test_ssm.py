"""Likelihood, mixture prior and log-posterior gradient tests, including the
finite-difference oracle for the gradient and the one mixture evaluation
against the separate log-sum-exp and softmax it replaced."""

import warnings

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance
from mpfilter.models import Lorenz63
from mpfilter.ssm import (
    NumericalDegeneracyError,
    PriorMixture,
    StateSpaceModel,
    log_likelihood,
    log_posterior_grad,
)
from oracles import (
    log_posterior_unnormalized,
    logsumexp,
    mixture_evaluate,
    mixture_log_psi,
    softmax_responsibilities,
)


def make_ssm(n_x=1, n_y=None, q=1.0, r=1.0, h=None):
    n_y = n_y or n_x
    h = np.eye(n_x)[:n_y] if h is None else np.asarray(h, dtype=float)
    return StateSpaceModel(
        dynamics=Lorenz63(),
        obs_matrix=h,
        q=Covariance.isotropic(q, n_x),
        r=Covariance.isotropic(r, h.shape[0]),
        cycle_steps=1,
    )


class TestStateSpaceModel:
    def test_shape_validation(self):
        with pytest.raises(ContractViolation):
            StateSpaceModel(Lorenz63(), np.eye(3), Covariance.isotropic(1.0, 2),
                            Covariance.isotropic(1.0, 3), 1)
        with pytest.raises(ContractViolation):
            StateSpaceModel(Lorenz63(), np.eye(3), Covariance.isotropic(1.0, 3),
                            Covariance.isotropic(1.0, 2), 1)
        with pytest.raises(ContractViolation):
            make_ssm(cycle_steps=0) if False else StateSpaceModel(
                Lorenz63(), np.eye(3), Covariance.isotropic(1.0, 3),
                Covariance.isotropic(1.0, 3), 0)

    def test_observe_selects(self):
        ssm = make_ssm(n_x=3, n_y=1)
        np.testing.assert_array_equal(ssm.observe(np.array([1.0, 2.0, 3.0])), [1.0])


class TestLogLikelihood:
    # one value per row of the 2-D states
    def test_perfect_fit(self):
        ssm = make_ssm(n_x=2)
        x = np.array([1.0, 2.0])
        assert log_likelihood(ssm, x[None], ssm.observe(x)).tolist() == [0.0]

    def test_hand_value(self):
        ssm = make_ssm(n_x=1, r=0.5)
        assert log_likelihood(ssm, np.array([[0.0]]), np.array([1.0])).tolist() == [-1.0]

    def test_translation_invariance(self):
        ssm = make_ssm(n_x=2)
        x, y = np.array([[0.3, -0.7]]), np.array([1.0, 0.5])
        shift = np.array([4.0, -2.0])
        assert log_likelihood(ssm, x, y) == pytest.approx(
            log_likelihood(ssm, x + shift, y + ssm.observe(shift)), rel=1e-12)


class TestPriorMixture:
    def test_responsibilities_probability_vector(self):
        rng = np.random.default_rng(3)
        prior = PriorMixture(rng.standard_normal((6, 3)), Covariance.isotropic(1.0, 3))
        resp, _ = prior.evaluate(rng.standard_normal((10, 3)))
        assert np.all(resp >= 0.0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_log_density_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((4, 2))
        q = Covariance.diagonal([0.5, 2.0])
        prior = PriorMixture(centers, q)
        x = rng.standard_normal(2)
        direct = np.log(np.mean(
            [np.exp(-0.5 * q.quadratic_form(x - c)) for c in centers]))
        assert prior.evaluate(x[None])[1][0] == pytest.approx(direct, rel=1e-12)

    def test_weight_renormalization_invariance(self):
        centers = np.array([[0.0], [2.0]])
        q = Covariance.diagonal([1.0])
        a = PriorMixture(centers, q, weights=np.array([0.25, 0.75]))
        b = PriorMixture(centers, q, weights=np.array([1.0, 3.0]))
        x = np.array([[0.7]])
        assert a.evaluate(x)[1][0] == pytest.approx(b.evaluate(x)[1][0], rel=1e-14)

    def test_high_dimension_no_underflow(self):
        # raw exponentials underflow at 40 dimensions; log-sum-exp must not
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((10, 40)) * 30.0
        prior = PriorMixture(centers, Covariance.isotropic(0.3, 40))
        resp, _ = prior.evaluate(centers + 0.1)
        assert np.all(np.isfinite(resp))

    @pytest.mark.parametrize("n_x_pts,n_c,n_x", [(1, 1, 1), (5, 7, 3), (100, 100, 40)])
    def test_log_psi_matches_difference_tensor(self, n_x_pts, n_c, n_x):
        # log-psi built its own (N_x, N_c, n_x) difference tensor before it
        # took the covariance's pairwise form, one matrix product that
        # reorders the sums: they agree to rounding of the whitened norms
        rng = np.random.default_rng(n_x_pts + n_c + n_x)
        q = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        prior = PriorMixture(3.0 * rng.standard_normal((n_c, n_x)), q,
                             weights=rng.uniform(0.1, 1.0, size=n_c))
        x = 3.0 * rng.standard_normal((n_x_pts, n_x))
        diffs = x[:, None, :] - prior.centers[None, :, :]
        old = prior.log_weights[None, :] - 0.5 * q.quadratic_form(diffs)
        tol = 1e-13 * max(1.0, q.quadratic_form(x).max(),
                          q.quadratic_form(prior.centers).max())
        np.testing.assert_allclose(prior._log_psi(x), old, rtol=0.0, atol=tol)

    def test_log_psi_overflow_is_minus_inf(self):
        # points near 1e200 are infinitely far from every center: log-psi
        # is -inf, with no NaN, and the evaluation raises no RuntimeWarning
        # (its log density is -inf exactly when every component is)
        rng = np.random.default_rng(6)
        prior = PriorMixture(rng.standard_normal((7, 3)), Covariance.isotropic(0.5, 3))
        x = 1e200 * rng.standard_normal((5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, log_density = prior.evaluate(x)
        assert np.all(log_density == -np.inf)
        with np.errstate(over="ignore", invalid="ignore"):  # evaluate's
            log_psi = prior._log_psi(x)
        assert np.all(log_psi == -np.inf)

    @pytest.mark.parametrize("n_x_pts,n_c", [(1, 1), (7, 5), (100, 100)])
    def test_evaluate_matches_logsumexp_and_softmax(self, monkeypatch, n_x_pts, n_c):
        # one shared exponential gives the bits of the two separate
        # evaluations, with rows spanning beyond exp's underflow and
        # zero-weight (-inf) components
        rng = np.random.default_rng(n_x_pts + n_c)
        log_psi = -rng.exponential(300.0, size=(n_x_pts, n_c))
        log_psi[rng.random(log_psi.shape) < 0.2] = -np.inf
        log_psi[:, rng.integers(n_c)] = -rng.exponential(3.0, size=n_x_pts)
        # evaluate writes into the fresh array _log_psi returns per call
        monkeypatch.setattr(PriorMixture, "_log_psi", lambda self, x: log_psi.copy())
        prior = PriorMixture(np.zeros((n_c, 1)), Covariance.diagonal([1.0]))
        resp, log_density = prior.evaluate(np.zeros((n_x_pts, 1)))
        np.testing.assert_array_equal(resp, softmax_responsibilities(log_psi))
        np.testing.assert_array_equal(log_density, logsumexp(log_psi, axis=1))

    def test_all_minus_inf_rows(self, monkeypatch):
        # a particle whose components are all -inf keeps log density -inf
        # and the gradient names the particle the softmax named
        rng = np.random.default_rng(7)
        log_psi = -rng.exponential(30.0, size=(8, 6))
        log_psi[[3, 5]] = -np.inf
        # evaluate writes into the fresh array _log_psi returns per call
        monkeypatch.setattr(PriorMixture, "_log_psi", lambda self, x: log_psi.copy())
        ssm = make_ssm(n_x=1)
        prior = PriorMixture(rng.standard_normal((6, 1)), ssm.q)
        x, y = rng.standard_normal((8, 1)), np.array([0.3])
        resp, log_density = prior.evaluate(x)
        np.testing.assert_array_equal(log_density, logsumexp(log_psi, axis=1))
        assert log_density[3] == log_density[5] == -np.inf
        ok = np.isfinite(log_density)
        np.testing.assert_array_equal(resp[ok], softmax_responsibilities(log_psi[ok]))
        with pytest.raises(NumericalDegeneracyError) as old:
            softmax_responsibilities(log_psi)
        for mixture in (None, (resp, log_density)):
            with pytest.raises(NumericalDegeneracyError) as new:
                log_posterior_grad(ssm, prior, x, y, mixture=mixture)
            assert str(new.value) == str(old.value)
        assert str(old.value).endswith("particle 3")

    @pytest.mark.parametrize("n_pts,n_x", [(5, 3), (20, 40), (100, 3)])
    def test_in_place_matches_allocating_form(self, n_pts, n_x):
        # centers whitened once and the softmax computed in place: the same
        # operations in the same order as the allocating form, so the same
        # bits, with rows near 1e200 (log-psi -inf) and zero-weight components
        rng = np.random.default_rng(n_pts + n_x)
        q = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        weights = rng.uniform(0.1, 1.0, size=n_pts)
        weights[rng.random(n_pts) < 0.3] = 0.0
        centers = 3.0 * rng.standard_normal((n_pts, n_x))
        prior = PriorMixture(centers, q, weights=weights)
        x = 3.0 * rng.standard_normal((n_pts, n_x))
        x[[1, 3]] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):  # evaluate's
            log_psi = prior._log_psi(x)
        np.testing.assert_array_equal(log_psi, mixture_log_psi(prior, x))
        resp, log_density = prior.evaluate(x)
        old_resp, old_log_density = mixture_evaluate(prior, x)
        np.testing.assert_array_equal(resp, old_resp)
        np.testing.assert_array_equal(log_density, old_log_density)
        assert log_density[1] == log_density[3] == -np.inf
        assert np.all(resp[:, weights == 0.0][np.isfinite(log_density)] == 0.0)

    def test_bad_weights(self):
        with pytest.raises(ContractViolation):
            PriorMixture(np.zeros((2, 1)), Covariance.diagonal([1.0]),
                         weights=np.array([-1.0, 2.0]))


class TestLogPosteriorGrad:
    def test_single_center_closed_form(self):
        ssm = make_ssm(n_x=2, q=2.0, r=0.5)
        center = np.array([0.5, -0.5])
        prior = PriorMixture(center[None], ssm.q)
        x = np.array([1.0, 1.0])
        y = np.array([2.0, 0.0])
        expect = (y - x) / 0.5 - (x - center) / 2.0
        np.testing.assert_allclose(log_posterior_grad(ssm, prior, x, y), expect,
                                   atol=1e-12)

    def test_symmetric_stationary_point(self):
        ssm = make_ssm(n_x=1, q=1.0, r=1.0)
        m, y = np.array([0.0]), np.array([2.0])
        prior = PriorMixture(m[None], ssm.q)
        x = (y + m) / 2.0
        np.testing.assert_allclose(log_posterior_grad(ssm, prior, x, y), [0.0],
                                   atol=1e-14)

    def test_kalman_mean_is_gradient_zero(self):
        # 1-D Gaussian: gradient root equals the Kalman analysis mean
        q, r = 2.0, 0.5
        m, y = 1.0, 3.0
        ssm = make_ssm(n_x=1, q=q, r=r)
        prior = PriorMixture(np.array([[m]]), ssm.q)
        kalman = (m / q + y / r) / (1.0 / q + 1.0 / r)
        np.testing.assert_allclose(
            log_posterior_grad(ssm, prior, np.array([kalman]), np.array([y])),
            [0.0], atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            n_x = int(rng.integers(1, 4))
            n_y = int(rng.integers(1, n_x + 1))
            ssm = make_ssm(n_x=n_x, n_y=n_y,
                           q=float(rng.uniform(0.5, 2.0)),
                           r=float(rng.uniform(0.5, 2.0)))
            n_p = int(rng.integers(1, 6))
            prior = PriorMixture(rng.standard_normal((n_p, n_x)), ssm.q)
            x = rng.standard_normal(n_x)
            y = rng.standard_normal(n_y)
            grad = log_posterior_grad(ssm, prior, x, y)
            fd = np.empty(n_x)
            for i in range(n_x):
                e = np.zeros(n_x)
                e[i] = h
                fd[i] = (log_posterior_unnormalized(ssm, prior, x + e, y)
                         - log_posterior_unnormalized(ssm, prior, x - e, y)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / scale < 1e-6

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(23)
        ssm = make_ssm(n_x=3, n_y=2)
        prior = PriorMixture(rng.standard_normal((5, 3)), ssm.q)
        xs = rng.standard_normal((7, 3))
        y = rng.standard_normal(2)
        batch = log_posterior_grad(ssm, prior, xs, y)
        for j in range(7):
            np.testing.assert_allclose(batch[j],
                                       log_posterior_grad(ssm, prior, xs[j], y),
                                       atol=1e-13)


class TestLogPosteriorUnnormalized:
    def test_zero_at_center_perfect_obs(self):
        ssm = make_ssm(n_x=2)
        c = np.array([1.0, -1.0])
        prior = PriorMixture(c[None], ssm.q)
        assert log_posterior_unnormalized(ssm, prior, c, ssm.observe(c)) == 0.0

    def test_weight_scaling_invariance(self):
        ssm = make_ssm(n_x=1)
        centers = np.array([[0.0], [1.0]])
        a = PriorMixture(centers, ssm.q, weights=np.array([0.3, 0.7]))
        b = PriorMixture(centers, ssm.q, weights=np.array([0.6, 1.4]))
        x, y = np.array([0.5]), np.array([0.2])
        assert log_posterior_unnormalized(ssm, a, x, y) == pytest.approx(
            log_posterior_unnormalized(ssm, b, x, y), rel=1e-14)
