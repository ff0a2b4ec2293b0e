"""Covariance and ensemble container tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpfilter.kernels as kernels
import mpfilter.ssm as ssm
from mpfilter.core import ContractViolation, Covariance, Ensemble
from mpfilter.kernels import GaussianKernel
from mpfilter.ssm import PriorMixture
from oracles import (allocating_form, bandwidth, difference_tensor_form, folded_form,
                     gemm_tolerance, gram_matrix, mixture_evaluate, mixture_tolerance)


class TestCovarianceConstruction:
    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            Covariance.diagonal([1.0, 0.0])
        with pytest.raises(ContractViolation):
            Covariance.diagonal([-1.0])

    def test_diagonal_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            Covariance.diagonal([np.inf])

    def test_scaled(self):
        q = Covariance.diagonal([2.0, 4.0])
        np.testing.assert_allclose(q.scaled(0.5).matrix(), np.diag([1.0, 2.0]))
        with pytest.raises(ContractViolation):
            q.scaled(0.0)


class TestQuadraticForm:
    def test_zero_vector(self):
        cov = Covariance.isotropic(1.0, 3)
        assert cov.quadratic_form(np.zeros(3)) == 0.0

    def test_hand_values(self):
        assert Covariance.diagonal([0.5, 0.5]).quadratic_form([1.0, 0.0]) == 2.0
        assert Covariance.diagonal([4.0]).quadratic_form([2.0]) == 1.0

    def test_sign_invariance(self):
        rng = np.random.default_rng(0)
        cov = Covariance.diagonal(rng.uniform(0.5, 2.0, size=4))
        v = rng.standard_normal(4)
        assert cov.quadratic_form(v) == cov.quadratic_form(-v)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            Covariance.isotropic(1.0, 3).quadratic_form(np.zeros(2))

    def test_batched(self):
        cov = Covariance.diagonal([2.0, 2.0])
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(cov.quadratic_form(v), [0.5, 2.0])

    def test_diagonal_matches_sum_form(self):
        # the diagonal form was np.sum(v * v * inv, -1); the contraction of
        # v with v * inv multiplies in another order and sums in another
        rng = np.random.default_rng(2)
        for n_x in (1, 3, 6, 40):
            variances = rng.uniform(0.2, 2.0, size=n_x)
            v = 3.0 * rng.standard_normal((50, n_x))
            old = np.sum(v * v * (1.0 / variances), axis=-1)
            new = Covariance.diagonal(variances).quadratic_form(v)
            np.testing.assert_allclose(new, old, rtol=1e-15, atol=0.0)


class TestPairwiseQuadraticForm:
    """The folded one-product distances (``oracles.folded_form``), against
    which the program's Gram matrix and mixture are checked, against the
    difference tensor and the allocating form."""

    @pytest.mark.parametrize("n_a,n_b,n_x", [(1, 1, 1), (5, 7, 3), (100, 100, 40)])
    def test_matches_difference_tensor(self, n_a, n_b, n_x):
        # the one matrix product reorders the sums of the difference tensor
        # form, so the two agree to rounding of the whitened norms
        rng = np.random.default_rng(n_a + n_b + n_x)
        cov = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        a = 3.0 * rng.standard_normal((n_a, n_x))
        b = 3.0 * rng.standard_normal((n_b, n_x))
        np.testing.assert_allclose(folded_form(cov, a, b),
                                   difference_tensor_form(cov, a, b),
                                   rtol=0.0, atol=gemm_tolerance(cov, a, b))

    @pytest.mark.parametrize("n_a,n_b,n_x", [(5, 7, 3), (20, 20, 40), (100, 100, 3)])
    def test_in_place_matches_allocating_form(self, n_a, n_b, n_x):
        # the fold halves the allocating form's terms (exact) and sums them
        # in the same order, so the same bits, overflowing rows included
        rng = np.random.default_rng(n_a + n_b + n_x)
        cov = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        a = 3.0 * rng.standard_normal((n_a, n_x))
        a[:2] *= 1e200
        b = 3.0 * rng.standard_normal((n_b, n_x))
        np.testing.assert_array_equal(folded_form(cov, a, b),
                                      allocating_form(cov, a, b))

    def test_hand_values(self):
        cov = Covariance.diagonal([2.0, 0.5])
        a = np.array([[0.0, 0.0], [2.0, 1.0]])
        b = np.array([[2.0, 0.0]])
        np.testing.assert_allclose(folded_form(cov, a, b), [[2.0], [2.0]],
                                   rtol=0.0, atol=gemm_tolerance(cov, a, b))

    @pytest.mark.parametrize("n_a,n_b,n_x", [(5, 7, 3), (100, 100, 40)])
    def test_translation_invariant(self, n_a, n_b, n_x):
        # states far from the origin, as Lorenz-96 states near 8 are: the
        # expansion |a|^2 + |b|^2 - 2 a.b cancels unless it is centered
        rng = np.random.default_rng(n_a * n_b + n_x)
        cov = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        a = 3.0 * rng.standard_normal((n_a, n_x)) + 1e6
        b = 3.0 * rng.standard_normal((n_b, n_x)) + 1e6
        np.testing.assert_allclose(folded_form(cov, a, b),
                                   difference_tensor_form(cov, a, b), rtol=0.0,
                                   atol=gemm_tolerance(cov, a - 1e6, b - 1e6))

    def test_nonnegative(self):
        # coincident and nearly coincident rows: the rounding of the
        # expansion must not leave a negative distance
        rng = np.random.default_rng(3)
        cov = Covariance.diagonal(rng.uniform(0.2, 2.0, size=6))
        x = 5.0 * rng.standard_normal((30, 6))
        x = np.concatenate([x, x, x + 1e-9])
        assert np.all(folded_form(cov, x, x) >= 0.0)

    def test_overflow_is_inf(self):
        # rows near 1e200 have squared distances beyond the float range:
        # they come back as inf, never NaN, and the public entries that run
        # the pass (the Gram matrix, the mixture) raise no RuntimeWarning
        rng = np.random.default_rng(4)
        cov = Covariance.diagonal(rng.uniform(0.2, 2.0, size=3))
        x = 1e200 * rng.standard_normal((5, 3))
        d = folded_form(cov, x, x)
        assert not np.any(np.isnan(d))
        off_diagonal = ~np.eye(5, dtype=bool)
        assert np.all(d[off_diagonal] == np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = GaussianKernel(cov, 1.0).interactions(x)
            _, log_density = PriorMixture(x, cov).evaluate(x)
        np.testing.assert_array_equal(gram, np.eye(5))
        assert np.all(log_density == -np.inf)


class TestSolve:
    def test_diagonal(self):
        cov = Covariance.diagonal([2.0, 4.0])
        np.testing.assert_allclose(cov.solve([2.0, 4.0]), [1.0, 1.0])


class TestSampling:
    def test_reproducible(self):
        cov = Covariance.isotropic(1.0, 3)
        a = cov.sample(np.random.default_rng(7), size=2)
        b = cov.sample(np.random.default_rng(7), size=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_variance_matches(self):
        cov = Covariance.diagonal([4.0])
        draws = cov.sample(np.random.default_rng(3), size=100_000)
        assert abs(np.var(draws) - 4.0) / 4.0 < 0.05

    def test_single_draw_shape(self):
        cov = Covariance.isotropic(1.0, 4)
        assert cov.sample(np.random.default_rng(0)).shape == (4,)


class TestEnsemble:
    def test_equal_weight_is_exact(self):
        ens = Ensemble.equal_weight(np.zeros((3, 2)))
        assert np.all(ens.weights == 1.0 / 3.0)

    def test_weight_validation(self):
        states = np.zeros((2, 1))
        with pytest.raises(ContractViolation):
            Ensemble(states, np.array([0.7, 0.7]))
        with pytest.raises(ContractViolation):
            Ensemble(states, np.array([1.5, -0.5]))
        with pytest.raises(ContractViolation):
            Ensemble(states, np.array([1.0]))

    def test_mean_and_spread_symmetric_pair(self):
        ens = Ensemble.equal_weight(np.array([[0.0], [2.0]]))
        mean, spread = ens.mean_and_spread()
        assert mean[0] == 1.0
        assert spread == 1.0

    def test_single_particle_spread_zero(self):
        mean, spread = Ensemble.equal_weight(np.array([[5.0, 1.0]])).mean_and_spread()
        assert spread == 0.0

    def test_point_mass_weights(self):
        ens = Ensemble(np.array([[0.0], [2.0]]), np.array([1.0, 0.0]))
        mean, spread = ens.mean_and_spread()
        assert mean[0] == 0.0
        assert spread == 0.0

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_default_weights_sum_to_one(self, n):
        ens = Ensemble.equal_weight(np.zeros((n, 2)))
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-15)


class _NanScanSpy:
    """``numpy`` as a module of the program sees it, counting the scans
    for overflowed terms."""

    def __init__(self):
        self.scans = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def nan_to_num(self, *args, **kwargs):
        self.scans += 1
        return np.nan_to_num(*args, **kwargs)


class TestFoldAgainstOracles:
    """The Gram matrix and the mixture fold their pairwise terms into one
    product each, which reorders the sums of the oracles
    (``tests/oracles.py``): they agree within a tolerance that scales with
    the whitened squared norms, on both sides of the overflow guard, which
    scans only when a whitened norm can overflow."""

    @pytest.mark.parametrize("n_p,n_x", [(5, 3), (20, 40), (100, 3)])
    @pytest.mark.parametrize("scale,scans", [(1.0, 0), (1e200, 2)])
    def test_gram_and_mixture_match_oracles(self, monkeypatch, n_p, n_x, scale, scans):
        # ordinary rows: every half norm is finite, so neither the Gram
        # matrix nor the mixture scans; rows near 1e200 overflow their
        # norms, so both scan, and the overflow is -inf, not NaN
        spy = _NanScanSpy()
        monkeypatch.setattr(kernels, "np", spy)
        monkeypatch.setattr(ssm, "np", spy)
        rng = np.random.default_rng(n_p * n_x)
        q = Covariance.diagonal(rng.uniform(0.2, 2.0, size=n_x))
        kernel = GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 20.0)))
        prior = PriorMixture(3.0 * rng.standard_normal((n_p, n_x)), q)
        states = 3.0 * rng.standard_normal((n_p, n_x))
        states[[1, 3]] *= scale
        gram = kernel.interactions(states)
        centers_bar, log_density = prior.evaluate(states)
        assert spy.scans == scans
        ok = np.abs(states).max(axis=1) < 1e100  # the rows that do not overflow
        np.testing.assert_allclose(
            gram, gram_matrix(bandwidth(kernel), states), rtol=0.0,
            atol=gemm_tolerance(bandwidth(kernel), states))
        old_centers, old_log_density = mixture_evaluate(prior, states)
        tol_log, tol_centers = mixture_tolerance(prior, states)
        np.testing.assert_allclose(log_density, old_log_density, rtol=0.0, atol=tol_log)
        np.testing.assert_allclose(centers_bar[ok], old_centers[ok], rtol=0.0,
                                   atol=tol_centers)
        assert not np.any(np.isnan(gram)) and not np.any(np.isnan(log_density))
        np.testing.assert_array_equal(np.diag(gram), 1.0)
        if scans:
            assert log_density[1] == log_density[3] == -np.inf
            assert np.all(gram[[1, 3]][:, ok] == 0.0)

    def test_fold_differs_only_at_the_ends_of_the_float_range(self):
        # the ends of the float range.  First a state 1e154 whitened units
        # from the mean, on a center: |z_x|^2 / 2 = 5e307 does not overflow,
        # so the log density keeps the scale-relative tolerance (1e-13 of
        # the squared norm 1e308) of the exact log 1/2, where the allocating
        # oracle, whose |z_a|^2 + |z_b|^2 overflows, reads -inf.  The Gram
        # matrix keeps the oracle's values, as exp of -1e308 and of -inf
        # are both 0.
        q = Covariance.diagonal([1.0])
        c = 1e154
        prior = PriorMixture(np.array([[-c], [c]]), q)
        x = np.array([[c]])
        assert mixture_evaluate(prior, x)[1][0] == -np.inf
        assert abs(prior.evaluate(x)[1][0] - np.log(0.5)) <= 1e-13 * c * c
        states = np.array([[-c], [c], [0.0]])
        np.testing.assert_array_equal(GaussianKernel(q, 1.0).interactions(states),
                                      gram_matrix(q, states))
        # Then subnormal squared norms, within about 1e-154 of the mean,
        # where halving rounds: on a center 4e-162 from the mean, between
        # two centers, the exact log density is log((1 + exp(-2 c^2)) / 2),
        # about -c^2 = -1.6e-323.  The oracle, whose exp(-2 c^2) rounds to
        # 1, reads 0, and so does the fold: the particle's -|z_x|^2 / 2 is a
        # term of the scores' product, lost beside log(1/2) in both scores
        c = 4e-162
        prior = PriorMixture(np.array([[c], [-c]]), q)
        x = np.array([[c]])
        assert mixture_evaluate(prior, x)[1][0] == 0.0
        assert prior.evaluate(x)[1][0] == 0.0
