"""Gaussian kernel values and derivatives against closed forms and finite
differences, and the Gram matrix against pairwise evaluation and the
solve-then-contract form it replaced."""

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance
from mpfilter.kernels import GaussianKernel


def kernel_1d(a=1.0, alpha=1.0):
    return GaussianKernel.from_model_error(Covariance.diagonal([a / alpha]), alpha)


def random_kernel(rng, dim):
    q = Covariance.diagonal(rng.uniform(0.5, 2.0, size=dim))
    return GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 3.0)))


class TestEval:
    def test_identity(self):
        k = kernel_1d()
        x = np.array([3.7])
        assert k(x, x) == 1.0

    def test_hand_value(self):
        k = kernel_1d()
        assert k([0.0], [1.0]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_monotone_decay(self):
        k = kernel_1d()
        vals = [k([0.0], [d]) for d in (0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        k = random_kernel(rng, 3)
        a, b = rng.standard_normal((2, 3))
        assert k(a, b) == pytest.approx(k(b, a), rel=1e-14)

    def test_bandwidth_is_alpha_times_q(self):
        q = Covariance.diagonal([2.0, 3.0])
        k = GaussianKernel.from_model_error(q, 4.0)
        np.testing.assert_allclose(k.bandwidth.matrix(), np.diag([8.0, 12.0]))

    def test_alpha_must_be_positive(self):
        with pytest.raises(ContractViolation):
            GaussianKernel.from_model_error(Covariance.diagonal([1.0]), 0.0)

    def test_alpha_increases_value(self):
        q = Covariance.diagonal([1.0, 1.0])
        x, xp = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        k1 = GaussianKernel.from_model_error(q, 1.0)(x, xp)
        k2 = GaussianKernel.from_model_error(q, 5.0)(x, xp)
        assert k2 > k1


class TestGradSource:
    def test_coincident_zero(self):
        k = kernel_1d()
        np.testing.assert_array_equal(k.grad_source([2.0], [2.0]), [0.0])

    def test_hand_value(self):
        # d/dx_l exp(-(x_l-x)^2/2) at (0, 1) = -(0-1) e^{-1/2} = +e^{-1/2}
        k = kernel_1d()
        g = k.grad_source([0.0], [1.0])
        assert g[0] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        k = random_kernel(rng, 3)
        a, b = rng.standard_normal((2, 3))
        np.testing.assert_allclose(k.grad_source(a, b), -k.grad_source(b, a),
                                   atol=1e-14)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            k = random_kernel(rng, dim)
            xl, x = rng.standard_normal((2, dim))
            grad = k.grad_source(xl, x)
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (k(xl + e, x) - k(xl - e, x)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / scale < 1e-5


class TestCrossHessian:
    def test_coincident_1d(self):
        k = kernel_1d()
        np.testing.assert_allclose(k.cross_hessian([0.0], [0.0]), [[1.0]])

    def test_hand_value_zero(self):
        # (1 - d^2) K vanishes at |d| = 1 for unit bandwidth
        k = kernel_1d()
        np.testing.assert_allclose(k.cross_hessian([0.0], [1.0]), [[0.0]],
                                   atol=1e-15)

    def test_finite_difference_oracle(self):
        # differentiate grad_source in its second argument
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            k = random_kernel(rng, dim)
            xl, xj = rng.standard_normal((2, dim))
            hess = k.cross_hessian(xl, xj)
            fd = np.empty((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[:, i] = (k.grad_source(xl, xj + e) - k.grad_source(xl, xj - e)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(hess - fd) / scale < 1e-5


class TestGram:
    def test_symmetric_unit_diagonal_psd(self):
        rng = np.random.default_rng(8)
        k = random_kernel(rng, 3)
        states = rng.standard_normal((12, 3))
        gram = k.interactions(states)
        np.testing.assert_allclose(gram, gram.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-14)
        assert np.linalg.eigvalsh(gram).min() > -1e-10

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(9)
        k = random_kernel(rng, 2)
        states = rng.standard_normal((5, 2))
        gram = k.interactions(states)
        for l in range(5):
            for j in range(5):
                assert gram[l, j] == pytest.approx(k(states[l], states[j]), rel=1e-12)

    @pytest.mark.parametrize("isotropic", [False, True])
    def test_matches_solve_then_contract(self, isotropic):
        # the Gram matrix was exp(-1/2 <d, A^{-1} d>) with A^{-1} d solved
        # into a stored (N_p, N_p, n_x) tensor first: the same products in
        # the same order, so bit for bit equal
        rng = np.random.default_rng(10)
        for n_p, n_x in [(1, 1), (2, 3), (5, 3), (20, 6), (100, 40)]:
            variances = rng.uniform(0.2, 2.0, size=n_x)
            q = (Covariance.isotropic(variances[0], n_x) if isotropic
                 else Covariance.diagonal(variances))
            k = GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 20.0)))
            states = 2.0 * rng.standard_normal((n_p, n_x))
            diffs = states[:, None, :] - states[None, :, :]
            sdiffs = k.bandwidth.solve(diffs)
            old = np.exp(-0.5 * np.einsum("ljk,ljk->lj", diffs, sdiffs))
            np.testing.assert_array_equal(k.interactions(states), old)

    def test_dimension_mismatch(self):
        k = kernel_1d()
        with pytest.raises(ContractViolation):
            k.interactions(np.zeros((3, 2)))
