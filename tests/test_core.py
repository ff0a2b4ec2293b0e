"""Covariance and ensemble container tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfilter.core import (
    ContractViolation,
    Covariance,
    CovarianceError,
    Ensemble,
)


class TestCovarianceConstruction:
    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(CovarianceError):
            Covariance.diagonal([1.0, 0.0])
        with pytest.raises(CovarianceError):
            Covariance.diagonal([-1.0])

    def test_diagonal_rejects_nonfinite(self):
        with pytest.raises(CovarianceError):
            Covariance.diagonal([np.inf])

    def test_dense_rejects_asymmetric(self):
        with pytest.raises(CovarianceError):
            Covariance.dense([[1.0, 0.5], [0.2, 1.0]])

    def test_dense_rejects_indefinite(self):
        with pytest.raises(CovarianceError):
            Covariance.dense([[1.0, 2.0], [2.0, 1.0]])

    def test_dense_rejects_nonsquare(self):
        with pytest.raises(CovarianceError):
            Covariance.dense(np.ones((2, 3)))

    def test_unknown_kind(self):
        with pytest.raises(CovarianceError):
            Covariance("sparse", np.ones(2))

    def test_scaled(self):
        q = Covariance.diagonal([2.0, 4.0])
        np.testing.assert_allclose(q.scaled(0.5).matrix(), np.diag([1.0, 2.0]))
        with pytest.raises(CovarianceError):
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

    def test_dense_matches_diagonal(self):
        diag = np.array([0.3, 1.7, 2.2])
        d = Covariance.diagonal(diag)
        f = Covariance.dense(np.diag(diag))
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(3)
            assert abs(d.quadratic_form(v) - f.quadratic_form(v)) < 1e-12

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


class TestSolve:
    def test_diagonal(self):
        cov = Covariance.diagonal([2.0, 4.0])
        np.testing.assert_allclose(cov.solve([2.0, 4.0]), [1.0, 1.0])

    def test_dense_matches_inverse(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        cov = Covariance.dense(m)
        v = np.array([1.0, -1.0])
        np.testing.assert_allclose(cov.solve(v), np.linalg.solve(m, v), atol=1e-12)


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

    def test_dense_covariance_converges(self):
        m = np.array([[2.0, 0.8], [0.8, 1.0]])
        cov = Covariance.dense(m)
        draws = cov.sample(np.random.default_rng(5), size=200_000)
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, m, rtol=0.05)

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
