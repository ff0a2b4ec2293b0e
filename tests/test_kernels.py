"""The pointwise kernel oracles (``tests/oracles.py``) against closed forms
and finite differences, and the Gram matrix against pairwise evaluation and
(to rounding) the solve-then-contract and one-product forms it replaced."""

import warnings

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance
from mpfilter.kernels import GaussianKernel
from oracles import (
    allocating_form,
    bandwidth,
    cross_hessian,
    folded_form,
    gemm_tolerance,
    grad_source,
    gram_matrix,
    kernel_value,
)


def kernel_1d(a=1.0, alpha=1.0):
    return GaussianKernel.from_model_error(Covariance.diagonal([a / alpha]), alpha)


def random_kernel(rng, dim):
    q = Covariance.diagonal(rng.uniform(0.5, 2.0, size=dim))
    return GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 3.0)))


class TestEval:
    def test_identity(self):
        bw = bandwidth(kernel_1d())
        x = np.array([3.7])
        assert kernel_value(bw, x, x) == 1.0

    def test_hand_value(self):
        bw = bandwidth(kernel_1d())
        assert kernel_value(bw, [0.0], [1.0]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_monotone_decay(self):
        bw = bandwidth(kernel_1d())
        vals = [kernel_value(bw, [0.0], [d]) for d in (0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        bw = bandwidth(random_kernel(rng, 3))
        a, b = rng.standard_normal((2, 3))
        assert kernel_value(bw, a, b) == pytest.approx(kernel_value(bw, b, a),
                                                       rel=1e-14)

    def test_bandwidth_is_alpha_times_q(self):
        # the kernel holds Q and alpha; its Gram matrix has bandwidth alpha Q
        q = Covariance.diagonal([2.0, 3.0])
        k = GaussianKernel.from_model_error(q, 4.0)
        states = np.array([[0.0, 0.0], [1.0, 2.0]])
        expected = kernel_value(Covariance.diagonal([8.0, 12.0]), states[0], states[1])
        assert k.interactions(states)[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ContractViolation):
            GaussianKernel.from_model_error(Covariance.diagonal([1.0]), 0.0)

    def test_alpha_increases_value(self):
        q = Covariance.diagonal([1.0, 1.0])
        x, xp = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        k1 = kernel_value(bandwidth(GaussianKernel.from_model_error(q, 1.0)), x, xp)
        k2 = kernel_value(bandwidth(GaussianKernel.from_model_error(q, 5.0)), x, xp)
        assert k2 > k1


class TestGradSource:
    def test_coincident_zero(self):
        bw = bandwidth(kernel_1d())
        np.testing.assert_array_equal(grad_source(bw, [2.0], [2.0]), [0.0])

    def test_hand_value(self):
        # d/dx_l exp(-(x_l-x)^2/2) at (0, 1) = -(0-1) e^{-1/2} = +e^{-1/2}
        bw = bandwidth(kernel_1d())
        g = grad_source(bw, [0.0], [1.0])
        assert g[0] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        bw = bandwidth(random_kernel(rng, 3))
        a, b = rng.standard_normal((2, 3))
        np.testing.assert_allclose(grad_source(bw, a, b), -grad_source(bw, b, a),
                                   atol=1e-14)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            bw = bandwidth(random_kernel(rng, dim))
            xl, x = rng.standard_normal((2, dim))
            grad = grad_source(bw, xl, x)
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (kernel_value(bw, xl + e, x)
                         - kernel_value(bw, xl - e, x)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / scale < 1e-5


class TestCrossHessian:
    def test_coincident_1d(self):
        bw = bandwidth(kernel_1d())
        np.testing.assert_allclose(cross_hessian(bw, [0.0], [0.0]), [[1.0]])

    def test_hand_value_zero(self):
        # (1 - d^2) K vanishes at |d| = 1 for unit bandwidth
        bw = bandwidth(kernel_1d())
        np.testing.assert_allclose(cross_hessian(bw, [0.0], [1.0]), [[0.0]],
                                   atol=1e-15)

    def test_finite_difference_oracle(self):
        # differentiate grad_source in its second argument
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            bw = bandwidth(random_kernel(rng, dim))
            xl, xj = rng.standard_normal((2, dim))
            hess = cross_hessian(bw, xl, xj)
            fd = np.empty((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[:, i] = (grad_source(bw, xl, xj + e)
                            - grad_source(bw, xl, xj - e)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(hess - fd) / scale < 1e-5


class TestGram:
    def test_symmetric_unit_diagonal_psd(self):
        rng = np.random.default_rng(8)
        k = random_kernel(rng, 3)
        states = rng.standard_normal((12, 3))
        gram = k.interactions(states)
        np.testing.assert_allclose(gram, gram.T, atol=1e-14)
        np.testing.assert_array_equal(np.diag(gram), 1.0)
        assert np.linalg.eigvalsh(gram).min() > -1e-10

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(9)
        k = random_kernel(rng, 2)
        states = rng.standard_normal((5, 2))
        gram = k.interactions(states)
        for l in range(5):
            for j in range(5):
                assert gram[l, j] == pytest.approx(
                    kernel_value(bandwidth(k), states[l], states[j]), rel=1e-12)

    @pytest.mark.parametrize("isotropic", [False, True])
    def test_matches_solve_then_contract(self, isotropic):
        # the Gram matrix was exp(-1/2 <d, A^{-1} d>) with A^{-1} d solved
        # into a stored (N_p, N_p, n_x) tensor first; the one matrix product
        # reorders those sums, so the two agree to rounding of the whitened
        # squared norms (K <= 1 scales the distance error by at most 1/2)
        rng = np.random.default_rng(10)
        for n_p, n_x in [(1, 1), (2, 3), (5, 3), (20, 6), (100, 40)]:
            variances = rng.uniform(0.2, 2.0, size=n_x)
            q = (Covariance.isotropic(variances[0], n_x) if isotropic
                 else Covariance.diagonal(variances))
            k = GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 20.0)))
            states = 2.0 * rng.standard_normal((n_p, n_x))
            diffs = states[:, None, :] - states[None, :, :]
            sdiffs = bandwidth(k).solve(diffs)
            old = np.exp(-0.5 * np.einsum("ljk,ljk->lj", diffs, sdiffs))
            tol = 1e-13 * max(1.0, bandwidth(k).quadratic_form(states).max())
            np.testing.assert_allclose(k.interactions(states), old, rtol=0.0, atol=tol)

    def test_unit_diagonal_far_from_origin(self):
        # the self-distances of the one-product form are rounding residues
        # of |z|^2 - 2 z.z + |z|^2; K(x, x) must still be exactly 1
        rng = np.random.default_rng(12)
        k = random_kernel(rng, 40)
        states = 8.0 + 3.0 * rng.standard_normal((20, 40))
        gram = k.interactions(states)
        np.testing.assert_array_equal(np.diag(gram), 1.0)
        assert np.all(gram <= 1.0)

    def test_overflow_gives_zero_off_diagonal(self):
        # rows near 1e200: every distance overflows, so the Gram matrix is
        # the identity, with no NaN and no RuntimeWarning
        rng = np.random.default_rng(13)
        k = random_kernel(rng, 3)
        states = 1e200 * rng.standard_normal((5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = k.interactions(states)
        np.testing.assert_array_equal(gram, np.eye(5))

    @pytest.mark.parametrize("n_p,n_x", [(5, 3), (20, 40), (100, 3)])
    @pytest.mark.parametrize("scale", [3.0, 1e200])
    def test_in_place_matches_allocating_form(self, n_p, n_x, scale):
        # one product [z, h, 1] @ [z, -1, -h]^T reorders the allocating
        # form's sums: the two agree to rounding of the whitened squared
        # norms, and overflowing distances give exactly 0 off the diagonal
        rng = np.random.default_rng(n_p + n_x)
        k = random_kernel(rng, n_x)
        states = scale * rng.standard_normal((n_p, n_x))
        gram = k.interactions(states)
        np.testing.assert_allclose(gram, gram_matrix(bandwidth(k), states),
                                   rtol=0.0, atol=gemm_tolerance(bandwidth(k), states))
        np.testing.assert_array_equal(np.diag(gram), 1.0)
        if scale > 1e100:
            np.testing.assert_array_equal(gram, np.eye(n_p))

    def test_general_product_of_two_copies(self):
        # the Gram matrix is a general product of two separate operands
        # (no BLAS symmetric path), so it is symmetric to rounding; it
        # matches the folded and the allocating one-product forms to the
        # rounding of the whitened squared norms
        rng = np.random.default_rng(14)
        k = random_kernel(rng, 3)
        states = 3.0 * rng.standard_normal((100, 3))
        gram = k.interactions(states)
        tol = gemm_tolerance(bandwidth(k), states)
        np.testing.assert_allclose(gram, gram.T, rtol=0.0, atol=tol)
        for form in (folded_form, allocating_form):
            np.testing.assert_allclose(gram, gram_matrix(bandwidth(k), states, form),
                                       rtol=0.0, atol=tol)

    def test_dimension_mismatch(self):
        k = kernel_1d()
        with pytest.raises(ContractViolation):
            k.interactions(np.zeros((3, 2)))
