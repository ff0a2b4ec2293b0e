"""Likelihood, mixture prior and log-posterior gradient tests, including the
finite-difference oracle for the gradient and the one mixture evaluation
against the separate log-sum-exp and softmax and the pairwise forms it
replaced, within a tolerance that scales with the whitened norms."""

import warnings

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance, FilterFailure
from mpfilter.models import Lorenz63
from mpfilter.ssm import (
    PriorMixture,
    StateSpaceModel,
    log_likelihood,
    log_posterior_grad,
)
from oracles import (
    difference_tensor_form,
    log_posterior_unnormalized,
    logsumexp,
    mixture_evaluate,
    mixture_log_psi,
    mixture_tolerance,
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


def assert_mixture_close(prior, x, oracle):
    """``prior.evaluate(x)`` against an oracle's (centers, log density):
    the same ``-inf`` log densities, and agreement within
    :func:`mixture_tolerance` elsewhere."""
    centers_bar, log_density = prior.evaluate(x)
    old_centers, old_log_density = oracle
    tol_log, tol_centers = mixture_tolerance(prior, x)
    np.testing.assert_array_equal(log_density == -np.inf, old_log_density == -np.inf)
    ok = np.isfinite(old_log_density)
    np.testing.assert_allclose(log_density[ok], old_log_density[ok], rtol=0.0, atol=tol_log)
    np.testing.assert_allclose(centers_bar[ok], old_centers[ok], rtol=0.0, atol=tol_centers)
    return centers_bar, log_density


class TestPriorMixture:
    def test_responsibilities_probability_vector(self):
        # the weighted centers are a convex combination of the centers
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((6, 3))
        prior = PriorMixture(centers, Covariance.isotropic(1.0, 3))
        x = rng.standard_normal((10, 3))
        centers_bar, _ = assert_mixture_close(prior, x, mixture_evaluate(prior, x))
        assert np.all(centers_bar >= centers.min(axis=0) - 1e-15)
        assert np.all(centers_bar <= centers.max(axis=0) + 1e-15)

    def test_log_density_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((4, 2))
        q = Covariance.diagonal([0.5, 2.0])
        prior = PriorMixture(centers, q)
        x = rng.standard_normal(2)
        direct = np.log(np.mean(
            [np.exp(-0.5 * q.quadratic_form(x - c)) for c in centers]))
        assert prior.evaluate(x[None])[1][0] == pytest.approx(direct, rel=1e-12)

    def test_high_dimension_no_underflow(self):
        # raw exponentials underflow at 40 dimensions; log-sum-exp must not
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((10, 40)) * 30.0
        prior = PriorMixture(centers, Covariance.isotropic(0.3, 40))
        centers_bar, log_density = prior.evaluate(centers + 0.1)
        assert np.all(np.isfinite(centers_bar)) and np.all(np.isfinite(log_density))

    @pytest.mark.parametrize("n_x_pts,n_c,n_x", [(1, 1, 1), (5, 7, 3), (100, 100, 40)])
    def test_log_psi_matches_difference_tensor(self, n_x_pts, n_c, n_x):
        # the mixture built its log-psi from an (N_x, N_c, n_x) difference
        # tensor before it took one matrix product of the scores, which
        # reorders the sums: they agree to rounding of the whitened norms
        rng = np.random.default_rng(n_x_pts + n_c + n_x)
        q = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        prior = PriorMixture(3.0 * rng.standard_normal((n_c, n_x)), q)
        x = 3.0 * rng.standard_normal((n_x_pts, n_x))
        assert_mixture_close(prior, x, mixture_evaluate(prior, x, difference_tensor_form))

    def test_log_psi_overflow_is_minus_inf(self):
        # points near 1e200 are infinitely far from every center: the
        # evaluation raises no RuntimeWarning, the log density is -inf (as
        # the oracle's every log-psi component is) and the gradient rejects
        # the particle
        rng = np.random.default_rng(6)
        ssm = make_ssm(n_x=3, q=0.5)
        prior = PriorMixture(rng.standard_normal((7, 3)), ssm.q)
        x = 1e200 * rng.standard_normal((5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, log_density = prior.evaluate(x)
        assert np.all(log_density == -np.inf)
        assert np.all(mixture_log_psi(prior, x) == -np.inf)
        with pytest.raises(FilterFailure, match="particle 0$"):
            log_posterior_grad(ssm, prior, x, np.zeros(3))

    @pytest.mark.parametrize("n_x_pts,n_c", [(1, 1), (7, 5), (100, 100)])
    def test_evaluate_matches_logsumexp_and_softmax(self, n_x_pts, n_c):
        # one shared exponential against the two separate evaluations, with
        # components spanning beyond exp's underflow (centers hundreds of
        # whitened units apart), which contribute nothing
        rng = np.random.default_rng(n_x_pts + n_c)
        q = Covariance.diagonal([0.05, 0.2])
        prior = PriorMixture(10.0 * rng.standard_normal((n_c, 2)), q)
        x = 10.0 * rng.standard_normal((n_x_pts, 2))
        log_psi = mixture_log_psi(prior, x)
        assert n_c == 1 or np.any(log_psi - log_psi.max(axis=1, keepdims=True) < -745.0)
        oracle = softmax_responsibilities(log_psi) @ prior.centers, logsumexp(log_psi, axis=1)
        assert_mixture_close(prior, x, oracle)

    def test_all_minus_inf_rows(self):
        # a particle whose components are all -inf keeps log density -inf
        # and the gradient names the particle the softmax named: particles
        # near 1e200, and a mixture whose centers all are
        rng = np.random.default_rng(7)
        ssm = make_ssm(n_x=1)
        prior = PriorMixture(rng.standard_normal((6, 1)), ssm.q)
        x, y = rng.standard_normal((8, 1)), np.array([0.3])
        x[[3, 5]] = 1e200
        log_psi = mixture_log_psi(prior, x)
        assert np.all(log_psi[[3, 5]] == -np.inf)
        ok = np.isfinite(log_psi).all(axis=1)
        oracle = np.full((8, 1), np.nan), logsumexp(log_psi, axis=1)
        oracle[0][ok] = softmax_responsibilities(log_psi[ok]) @ prior.centers
        centers_bar, log_density = assert_mixture_close(prior, x, oracle)
        assert log_density[3] == log_density[5] == -np.inf
        with pytest.raises(FilterFailure) as old:
            softmax_responsibilities(log_psi)
        with pytest.raises(FilterFailure) as new:
            log_posterior_grad(ssm, prior, x, y)
        assert str(new.value) == str(old.value)
        assert str(old.value).endswith("particle 3")
        assert (new.value.kind, new.value.particle) == ("mixture underflow", 3)
        far = PriorMixture(1e200 * rng.standard_normal((6, 1)), ssm.q)
        centers_bar, log_density = far.evaluate(x)
        assert np.all(log_density == -np.inf) and np.all(np.isnan(centers_bar))
        with pytest.raises(FilterFailure, match="particle 0$"):
            log_posterior_grad(ssm, far, x, y)

    @pytest.mark.parametrize("n_pts,n_x", [(5, 3), (20, 40), (100, 3)])
    def test_in_place_matches_allocating_form(self, n_pts, n_x):
        # the scores' product reorders the allocating form's sums: the two
        # agree to rounding of the whitened norms, with rows near 1e200
        # (log density -inf); a component whose exponent underflows
        # contributes nothing, so a mixture whose other centers all lie
        # 1000 units off in every coordinate gives exactly the near center
        rng = np.random.default_rng(n_pts + n_x)
        q = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        centers = 3.0 * rng.standard_normal((n_pts, n_x))
        prior = PriorMixture(centers, q)
        x = 3.0 * rng.standard_normal((n_pts, n_x))
        x[[1, 3]] *= 1e200
        _, log_density = assert_mixture_close(prior, x, mixture_evaluate(prior, x))
        assert log_density[1] == log_density[3] == -np.inf
        one = rng.integers(n_pts)
        far = centers + 1e3 * (np.arange(n_pts) != one)[:, None]
        centers_bar, log_density = PriorMixture(far, q).evaluate(x)
        ok = np.isfinite(log_density)
        assert ok.sum() == n_pts - 2
        np.testing.assert_array_equal(centers_bar[ok], np.broadcast_to(far[one], (ok.sum(), n_x)))


class TestLogPosteriorGrad:
    def test_single_center_closed_form(self):
        ssm = make_ssm(n_x=2, q=2.0, r=0.5)
        center = np.array([0.5, -0.5])
        prior = PriorMixture(center[None], ssm.q)
        x = np.array([1.0, 1.0])
        y = np.array([2.0, 0.0])
        expect = (y - x) / 0.5 - (x - center) / 2.0
        np.testing.assert_allclose(log_posterior_grad(ssm, prior, x[None], y)[0], expect,
                                   atol=1e-12)

    def test_symmetric_stationary_point(self):
        ssm = make_ssm(n_x=1, q=1.0, r=1.0)
        m, y = np.array([0.0]), np.array([2.0])
        prior = PriorMixture(m[None], ssm.q)
        x = (y + m) / 2.0
        np.testing.assert_allclose(log_posterior_grad(ssm, prior, x[None], y)[0], [0.0],
                                   atol=1e-14)

    def test_kalman_mean_is_gradient_zero(self):
        # 1-D Gaussian: gradient root equals the Kalman analysis mean
        q, r = 2.0, 0.5
        m, y = 1.0, 3.0
        ssm = make_ssm(n_x=1, q=q, r=r)
        prior = PriorMixture(np.array([[m]]), ssm.q)
        kalman = (m / q + y / r) / (1.0 / q + 1.0 / r)
        np.testing.assert_allclose(
            log_posterior_grad(ssm, prior, np.array([[kalman]]), np.array([y]))[0],
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
            grad = log_posterior_grad(ssm, prior, x[None], y)[0]
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
                                       log_posterior_grad(ssm, prior, xs[j][None], y)[0],
                                       atol=1e-13)


class TestLogPosteriorUnnormalized:
    def test_zero_at_center_perfect_obs(self):
        ssm = make_ssm(n_x=2)
        c = np.array([1.0, -1.0])
        prior = PriorMixture(c[None], ssm.q)
        assert log_posterior_unnormalized(ssm, prior, c, ssm.observe(c)) == 0.0
