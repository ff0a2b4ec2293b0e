"""Mapping engine tests: KL gradient field (and its matrix form against the
pairwise-tensor form it replaced), optimizers, convergence logic, full
mapping cycles on closed-form Gaussian targets, and the shared pairwise
pass against the unfused per-consumer form."""

import numpy as np
import pytest

from mpfilter.core import ContractViolation, Covariance, Ensemble
from mpfilter.diagnostics import KDE_MAX_DIM, importance_report, kde_log_proposal
from mpfilter.kernels import GaussianKernel
from mpfilter.models import Lorenz63
from mpfilter.mpf import (
    AdadeltaOptimizer,
    AdamOptimizer,
    MappingConfig,
    NonFiniteGradientError,
    SgdOptimizer,
    check_convergence,
    kl_gradient_field,
    make_optimizer,
    mapping_cycle,
)
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_posterior_grad


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


class TestKlGradientField:
    def test_single_particle_3dvar_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ssm = gaussian_ssm_1d(q=float(rng.uniform(0.5, 2.0)))
            kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
            prior = PriorMixture(rng.standard_normal((1, 1)), ssm.q)
            x = rng.standard_normal((1, 1))
            y = rng.standard_normal(1)
            g = log_posterior_grad(ssm, prior, x, y)
            field = kl_gradient_field(kernel, x, g)
            assert np.max(np.abs(field + g)) < 1e-14

    def test_repulsion_hand_value(self):
        # flat target, particles {0, 1}: the field at 1 pushes it upward
        field = kl_gradient_field(kernel_1d(), np.array([[0.0], [1.0]]),
                                  np.zeros((2, 1)))
        assert field[1, 0] == pytest.approx(-0.5 * np.exp(-0.5), rel=1e-12)
        assert field[0, 0] == pytest.approx(+0.5 * np.exp(-0.5), rel=1e-12)

    def test_coincident_flat_zero(self):
        field = kl_gradient_field(kernel_1d(), np.array([[1.0], [1.0]]),
                                  np.zeros((2, 1)))
        np.testing.assert_array_equal(field, np.zeros((2, 1)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        kernel = kernel_1d()
        states = rng.standard_normal((6, 1))
        grads = rng.standard_normal((6, 1))
        perm = rng.permutation(6)
        a = kl_gradient_field(kernel, states, grads)[perm]
        b = kl_gradient_field(kernel, states[perm], grads[perm])
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            kl_gradient_field(kernel_1d(), np.zeros((3, 1)), np.zeros((2, 1)))

    def test_flat_target_repulsion_increases_separation(self):
        # sgd descent on a flat target strictly grows min pairwise distance
        rng = np.random.default_rng(9)
        kernel = kernel_1d()
        states = rng.standard_normal((8, 1)) * 0.3
        def min_dist(s):
            d = np.abs(s[:, None, 0] - s[None, :, 0])
            return d[~np.eye(8, dtype=bool)].min()
        prev = min_dist(states)
        for _ in range(20):
            field = kl_gradient_field(kernel, states, np.zeros((8, 1)))
            states = states - 0.05 * field
            cur = min_dist(states)
            assert cur > prev
            prev = cur


def tensor_form_field(kernel, states, logp_grads):
    """The KL gradient as it was formed before the matrix form: the
    repulsion summed over the (N_p, N_p, n_x) tensor
    ``sdiffs[l, j] = A^{-1} (x_l - x_j)``."""
    diffs = states[:, None, :] - states[None, :, :]
    sdiffs = kernel.bandwidth.solve(diffs)
    gram = np.exp(-0.5 * np.einsum("ljk,ljk->lj", diffs, sdiffs))
    repulse = -np.einsum("lj,ljk->jk", gram, sdiffs)
    return -(gram.T @ logp_grads + repulse) / states.shape[0]


class TestMatrixFormRepulsion:
    @pytest.mark.parametrize("isotropic", [False, True])
    @pytest.mark.parametrize("n_x", [1, 3, 40])
    @pytest.mark.parametrize("n_p", [1, 2, 5, 100])
    def test_matches_tensor_form(self, n_p, n_x, isotropic):
        # the matrix form A^{-1} (G^T X - colsum(G) X) reorders the sums of
        # the tensor form; states sit away from the origin (as Lorenz-63's
        # z does) and every other particle coincides with its neighbour
        rng = np.random.default_rng(100 * n_p + n_x + isotropic)
        variances = rng.uniform(0.2, 2.0, size=n_x)
        q = (Covariance.isotropic(variances[0], n_x) if isotropic
             else Covariance.diagonal(variances))
        kernel = GaussianKernel.from_model_error(q, float(rng.uniform(0.5, 20.0)))
        states = 10.0 + 2.0 * rng.standard_normal((n_p, n_x))
        states[1::2] = states[0:n_p - 1:2]
        grads = rng.standard_normal((n_p, n_x))
        new = kl_gradient_field(kernel, states, grads)
        old = tensor_form_field(kernel, states, grads)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


class TestOptimizers:
    def test_sgd_hand_value(self):
        cfg = MappingConfig(optimizer="sgd", learning_rate=0.1)
        opt = SgdOptimizer(cfg, (1, 2))
        np.testing.assert_allclose(opt.step(np.array([[2.0, -4.0]])),
                                   [[-0.2, 0.4]])

    def test_zero_gradient_zero_delta(self):
        for name in ("sgd", "adadelta", "adam"):
            cfg = MappingConfig(optimizer=name)
            opt = make_optimizer(cfg, (3, 2))
            np.testing.assert_array_equal(opt.step(np.zeros((3, 2))),
                                          np.zeros((3, 2)))

    def test_adam_first_step_magnitude(self):
        cfg = MappingConfig(optimizer="adam", learning_rate=0.03)
        opt = AdamOptimizer(cfg, (1, 3))
        delta = opt.step(np.array([[5.0, -2.0, 0.7]]))
        np.testing.assert_allclose(np.abs(delta), 0.03, rtol=0.01)

    def test_adadelta_first_step_magnitude(self):
        # conditioning constant lr^2 puts the first step near lr for
        # moderate gradients
        cfg = MappingConfig(optimizer="adadelta", learning_rate=0.03)
        opt = AdadeltaOptimizer(cfg, (1, 1))
        delta = opt.step(np.array([[1.0]]))
        assert 0.02 < abs(delta[0, 0]) < 0.2

    def test_adadelta_step_decays_with_gradient(self):
        # near a fixed point shrinking gradients give shrinking steps
        cfg = MappingConfig(optimizer="adadelta", learning_rate=0.03)
        opt = AdadeltaOptimizer(cfg, (1, 1))
        steps = []
        for i in range(60):
            g = np.array([[1.0 * 0.7**i]])
            steps.append(abs(opt.step(g)[0, 0]))
        assert steps[-1] < steps[10] * 0.01

    def test_nonfinite_gradient_rejected(self):
        # observation precision ~1e308/40: particles 1 and 2 sit 40 from y,
        # so their posterior gradients are ~1e308 and their kernel-weighted
        # sum overflows; particle 0 sits on y, out of the kernel's reach
        ssm = StateSpaceModel(dynamics=Lorenz63(), obs_matrix=np.eye(1),
                              q=Covariance.diagonal([1.0]),
                              r=Covariance.diagonal([40.0 / 1e308]),
                              cycle_steps=1)
        states = np.array([[0.0], [40.0], [40.1]])
        prior = PriorMixture(states.copy(), ssm.q)
        cfg = MappingConfig(optimizer="sgd", criterion="max_iter")
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteGradientError) as err:
            mapping_cycle(ssm, prior, Ensemble.equal_weight(states),
                          np.array([0.0]), kernel_1d(), cfg, cycle=4)
        assert err.value.particle == 1
        assert err.value.iteration == 0
        assert err.value.cycle == 4

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ContractViolation):
            MappingConfig(optimizer="lbfgs")


class TestMappingConfig:
    def test_invalid_values(self):
        with pytest.raises(ContractViolation):
            MappingConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            MappingConfig(max_iterations=0)
        with pytest.raises(ContractViolation):
            MappingConfig(grad_ratio_threshold=1.5)
        with pytest.raises(ContractViolation):
            MappingConfig(criterion="entropy")

    def test_default_neff_threshold(self):
        cfg = MappingConfig()
        assert cfg.resolved_neff_threshold(20) == 18.0
        cfg2 = MappingConfig(neff_threshold=5.0)
        assert cfg2.resolved_neff_threshold(20) == 5.0
        with pytest.raises(ContractViolation):
            MappingConfig(neff_threshold=30.0).resolved_neff_threshold(20)


class TestCheckConvergence:
    def test_empty_trace_rejected(self):
        with pytest.raises(ContractViolation):
            check_convergence(MappingConfig(criterion="max_iter"), [])

    def test_max_iter(self):
        cfg = MappingConfig(criterion="max_iter", max_iterations=3)
        assert not check_convergence(cfg, [1.0, 1.0])
        assert check_convergence(cfg, [1.0, 1.0, 1.0])

    def test_grad_ratio_zero_initial(self):
        cfg = MappingConfig(criterion="grad_ratio")
        assert check_convergence(cfg, [0.0])

    def test_grad_ratio_geometric_decay(self):
        cfg = MappingConfig(criterion="grad_ratio", max_iterations=1000)
        trace = []
        stop_at = None
        for i in range(60):
            trace.append(0.9**i)
            if check_convergence(cfg, trace):
                stop_at = i
                break
        assert stop_at == 26  # 0.9^26 ~ 0.0646 < 0.07

    def test_neff_threshold(self):
        cfg = MappingConfig(criterion="neff")
        assert check_convergence(cfg, [1.0], neff_trace=[20.0], n_particles=20)
        assert not check_convergence(cfg, [1.0], neff_trace=[17.0], n_particles=20)
        with pytest.raises(ContractViolation):
            check_convergence(cfg, [1.0], neff_trace=None, n_particles=20)


class TestMappingCycle:
    def test_single_particle_converges_to_posterior_mode(self):
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        prior = PriorMixture(np.array([[0.0]]), ssm.q)
        forecast = Ensemble.equal_weight(np.array([[0.0]]))
        cfg = MappingConfig(optimizer="sgd", learning_rate=0.1,
                            max_iterations=200, criterion="max_iter")
        result = mapping_cycle(ssm, prior, forecast, np.array([2.0]), kernel, cfg)
        assert result.ensemble.states[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_ensemble_moments(self):
        # 50 particles on a 1-D Gaussian posterior: mean within 10%,
        # variance within 15% of the closed form
        rng = np.random.default_rng(3)
        ssm = gaussian_ssm_1d(q=1.0, r=1.0)
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        center, y = 0.0, 2.0
        prior = PriorMixture(np.full((50, 1), center), ssm.q)
        forecast = Ensemble.equal_weight(center + rng.standard_normal((50, 1)))
        cfg = MappingConfig(optimizer="adadelta", learning_rate=0.03,
                            max_iterations=200, criterion="max_iter")
        result = mapping_cycle(ssm, prior, forecast, np.array([y]), kernel, cfg)
        post_mean, post_var = 1.0, 0.5
        states = result.ensemble.states[:, 0]
        assert abs(states.mean() - post_mean) / post_mean < 0.10
        assert abs(states.var() - post_var) / post_var < 0.15

    def test_gradient_norm_drops_at_stationarity(self):
        rng = np.random.default_rng(4)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        prior = PriorMixture(np.zeros((30, 1)), ssm.q)
        forecast = Ensemble.equal_weight(rng.standard_normal((30, 1)))
        cfg = MappingConfig(optimizer="sgd", learning_rate=0.05,
                            max_iterations=500, criterion="max_iter")
        result = mapping_cycle(ssm, prior, forecast, np.array([2.0]), kernel, cfg)
        assert result.grad_norm_trace[-1] < 1e-3 * result.grad_norm_trace[0]

    def test_neff_criterion_stops_early(self):
        rng = np.random.default_rng(5)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        prior = PriorMixture(np.zeros((20, 1)), ssm.q)
        forecast = Ensemble.equal_weight(rng.standard_normal((20, 1)))
        cfg = MappingConfig(optimizer="adadelta", criterion="neff",
                            max_iterations=100)
        result = mapping_cycle(ssm, prior, forecast, np.array([0.5]), kernel, cfg)
        assert result.iterations < 100
        assert result.neff_trace[-1] >= 18.0

    def test_output_equal_weight(self):
        rng = np.random.default_rng(6)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        prior = PriorMixture(np.zeros((5, 1)), ssm.q)
        forecast = Ensemble.equal_weight(rng.standard_normal((5, 1)))
        result = mapping_cycle(ssm, prior, forecast, np.array([1.0]), kernel,
                               MappingConfig(criterion="max_iter",
                                             max_iterations=5))
        assert np.all(result.ensemble.weights == 1.0 / 5.0)


def lorenz_like_cycle(n_x, n_p=20, seed=11):
    """A mapping problem shaped like a fully observed twin-experiment cycle."""
    rng = np.random.default_rng(seed)
    q = Covariance.diagonal(rng.uniform(0.2, 0.6, size=n_x))
    ssm = StateSpaceModel(dynamics=Lorenz63(), obs_matrix=np.eye(n_x), q=q,
                          r=Covariance.isotropic(0.5, n_x), cycle_steps=1)
    truth = rng.standard_normal(n_x)
    centers = truth + rng.standard_normal((n_p, n_x))
    prior = PriorMixture(centers, q)
    forecast = Ensemble.equal_weight(centers + q.sample(rng, size=n_p))
    y = truth + rng.standard_normal(n_x) * np.sqrt(0.5)
    return ssm, prior, forecast, y, GaussianKernel.from_model_error(q, 1.0)


def unfused_mapping(ssm, prior, forecast, y, kernel, cfg):
    """The mapping loop with each consumer building its own pairwise pass:
    the gradient from ``log_posterior_grad`` and ``interactions``, then the
    neff rule and the closing report from ``kde_log_proposal`` and
    ``importance_report``."""
    states = forecast.states.copy()
    n_p, n_x = states.shape
    opt = make_optimizer(cfg, states.shape)
    grad_norms, neffs = [], []
    for _ in range(cfg.max_iterations):
        logp_grads = log_posterior_grad(ssm, prior, states, y)
        gram = kernel.interactions(states)
        field = kl_gradient_field(kernel, states, logp_grads, gram)
        grad_norms.append(float(np.mean(np.linalg.norm(field, axis=1))))
        states = states + opt.step(field)
        if cfg.criterion == "neff":
            log_q = kde_log_proposal(kernel, states)
            neffs.append(importance_report(ssm, prior, states, y, log_q,
                                           route="kde").n_eff)
        if cfg.criterion != "max_iter" and check_convergence(
                cfg, grad_norms, neffs or None, n_p):
            break
    report = None
    if n_x <= KDE_MAX_DIM:
        log_q = kde_log_proposal(kernel, states)
        report = importance_report(ssm, prior, states, y, log_q, route="kde")
    return states, grad_norms, neffs, report


class TestSharedPairwisePass:
    @pytest.mark.parametrize("optimizer", ["sgd", "adadelta", "adam"])
    @pytest.mark.parametrize("criterion", ["neff", "grad_ratio", "max_iter"])
    def test_matches_unfused_mapping(self, criterion, optimizer):
        ssm, prior, forecast, y, kernel = lorenz_like_cycle(3)
        # the neff rule fires for every optimizer, grad_ratio for adadelta
        cfg = MappingConfig(optimizer=optimizer, criterion=criterion,
                            learning_rate=0.2, neff_threshold=14.0,
                            max_iterations=40)
        result = mapping_cycle(ssm, prior, forecast, y, kernel, cfg)
        states, grad_norms, neffs, report = unfused_mapping(
            ssm, prior, forecast, y, kernel, cfg)
        assert result.iterations == len(grad_norms) >= 2
        np.testing.assert_array_equal(result.ensemble.states, states)
        np.testing.assert_array_equal(result.grad_norm_trace, grad_norms)
        np.testing.assert_array_equal(result.neff_trace, neffs)
        np.testing.assert_array_equal(result.report.weights, report.weights)
        assert result.report.n_eff == report.n_eff
        assert result.report.kl_from_weights == report.kl_from_weights

    def test_no_report_above_kde_limit(self):
        ssm, prior, forecast, y, kernel = lorenz_like_cycle(KDE_MAX_DIM + 2)
        cfg = MappingConfig(criterion="grad_ratio", max_iterations=10)
        result = mapping_cycle(ssm, prior, forecast, y, kernel, cfg)
        states, grad_norms, _, report = unfused_mapping(
            ssm, prior, forecast, y, kernel, cfg)
        np.testing.assert_array_equal(result.ensemble.states, states)
        np.testing.assert_array_equal(result.grad_norm_trace, grad_norms)
        assert result.report is None and report is None

    @pytest.mark.parametrize("criterion,n_x,closing_passes", [
        ("neff", 3, 1),
        ("grad_ratio", 3, 1),
        ("max_iter", 3, 1),
        ("grad_ratio", KDE_MAX_DIM + 2, 0),
        ("max_iter", KDE_MAX_DIM + 2, 0),
    ])
    def test_one_pass_per_set_of_positions(self, monkeypatch, criterion, n_x,
                                           closing_passes):
        # each iteration's gradient needs the pass at its positions; the
        # final positions need one more only for the report, and under the
        # neff rule that one is the last iteration's
        calls = {"interactions": 0, "log_psi": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, x):
                calls[name] += 1
                return original(self, x)
            monkeypatch.setattr(cls, name, wrapper)

        counted(GaussianKernel, "interactions")
        counted(PriorMixture, "log_psi")
        ssm, prior, forecast, y, kernel = lorenz_like_cycle(n_x)
        cfg = MappingConfig(criterion=criterion, learning_rate=0.2,
                            neff_threshold=14.0, max_iterations=40)
        result = mapping_cycle(ssm, prior, forecast, y, kernel, cfg)
        assert result.iterations >= 2
        expected = result.iterations + closing_passes
        assert calls == {"interactions": expected, "log_psi": expected}
