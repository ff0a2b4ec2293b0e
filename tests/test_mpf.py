"""Mapping engine tests: KL gradient field (and its matrix form against the
pairwise-tensor form it replaced), optimizers, convergence logic, full
mapping cycles on closed-form Gaussian targets, the component-first pass
against the unfused row-major form it replaced (on ordinary states and on
those that reach its overflow and NaN guards), and the stopping iterations
of a twin run against the difference-tensor pairwise form."""

import numpy as np
import pytest

from mpfilter.config import load_preset
from mpfilter.core import ContractViolation, Covariance, FilterFailure
from mpfilter.diagnostics import (
    KDE_MAX_DIM,
    effective_sample_size,
    kl_from_weights,
    weight_variance,
)
from mpfilter.experiment import run_twin_experiment
from mpfilter.kernels import GaussianKernel
from mpfilter.models import Lorenz63
from mpfilter.mpf import (
    ADADELTA_RHO,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdadeltaOptimizer,
    AdamOptimizer,
    MappingConfig,
    SgdOptimizer,
    check_convergence,
    kl_gradient_field,
    make_optimizer,
    mapping_cycle,
)
from mpfilter.ssm import (
    PriorMixture,
    StateSpaceModel,
    log_posterior_grad,
)
import mpfilter.kernels as kernels
import mpfilter.mpf as mpf
from oracles import (
    allocating_adadelta,
    allocating_adam,
    bandwidth,
    difference_tensor_form,
    grad_source,
    gram_matrix,
    mixture_evaluate,
    mixture_log_psi,
    row_major_field,
    row_major_grad,
    row_major_weights,
)


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
            field = kl_gradient_field(kernel, x, g, kernel.interactions(x))
            assert np.max(np.abs(field + g)) < 1e-14

    def test_repulsion_hand_value(self):
        # flat target, particles {0, 1}: the field at 1 pushes it upward
        kernel, states = kernel_1d(), np.array([[0.0], [1.0]])
        field = kl_gradient_field(kernel, states, np.zeros((2, 1)),
                                  kernel.interactions(states))
        assert field[1, 0] == pytest.approx(-0.5 * np.exp(-0.5), rel=1e-12)
        assert field[0, 0] == pytest.approx(+0.5 * np.exp(-0.5), rel=1e-12)

    def test_coincident_flat_zero(self):
        kernel, states = kernel_1d(), np.array([[1.0], [1.0]])
        field = kl_gradient_field(kernel, states, np.zeros((2, 1)),
                                  kernel.interactions(states))
        np.testing.assert_array_equal(field, np.zeros((2, 1)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        kernel = kernel_1d()
        states = rng.standard_normal((6, 1))
        grads = rng.standard_normal((6, 1))
        perm = rng.permutation(6)
        a = kl_gradient_field(kernel, states, grads, kernel.interactions(states))[perm]
        b = kl_gradient_field(kernel, states[perm], grads[perm],
                              kernel.interactions(states[perm]))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            kernel, states = kernel_1d(), np.zeros((3, 1))
            kl_gradient_field(kernel, states, np.zeros((2, 1)), kernel.interactions(states))

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
            field = kl_gradient_field(kernel, states, np.zeros((8, 1)),
                                      kernel.interactions(states))
            states = states - 0.05 * field
            cur = min_dist(states)
            assert cur > prev
            prev = cur


def tensor_form_field(kernel, states, logp_grads):
    """The KL gradient as it was formed before the matrix form: the
    repulsion summed over the (N_p, N_p, n_x) tensor
    ``sdiffs[l, j] = A^{-1} (x_l - x_j)``."""
    diffs = states[:, None, :] - states[None, :, :]
    sdiffs = bandwidth(kernel).solve(diffs)
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
        new = kl_gradient_field(kernel, states, grads, kernel.interactions(states))
        old = tensor_form_field(kernel, states, grads)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @pytest.mark.parametrize("n_x", [1, 3, 40])
    def test_repulsion_is_summed_kernel_gradient(self, n_x):
        # on a flat target the field is the repulsion alone, which must be
        # -(1/N_p) sum_l grad_source K(x_l, x_j), the oracle acceptance
        # criterion 7 checks by finite differences; the spread keeps the
        # whitened pair distances of order 1 at any n_x
        rng = np.random.default_rng(n_x)
        variances, alpha = rng.uniform(0.2, 2.0, size=n_x), float(rng.uniform(0.5, 20.0))
        kernel = GaussianKernel.from_model_error(Covariance.diagonal(variances), alpha)
        states = 5.0 + np.sqrt(alpha * variances / n_x) * rng.standard_normal((12, n_x))
        field = kl_gradient_field(kernel, states, np.zeros_like(states),
                                  kernel.interactions(states))
        oracle = np.array([
            -np.mean([grad_source(bandwidth(kernel), xl, xj) for xl in states], axis=0)
            for xj in states])
        assert np.max(np.abs(oracle)) > 1e-3
        np.testing.assert_allclose(field, oracle, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(oracle)))


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

    @pytest.mark.parametrize("name", ["adadelta", "adam"])
    def test_in_place_matches_allocating_form(self, name):
        # the same operations in the same order as the allocating form, so
        # the same bits, over gradients spanning six decades, a particle
        # whose gradient is always zero and one all-zero step
        rng = np.random.default_rng(31)
        grads = [rng.standard_normal((6, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (6, 1))
                 for _ in range(25)]
        for g in grads:
            g[2] = 0.0
        grads[10][:] = 0.0
        cfg = MappingConfig(optimizer=name, learning_rate=0.2)
        opt = make_optimizer(cfg, (6, 3))
        new = [opt.step(g) for g in grads]
        if name == "adadelta":
            old = allocating_adadelta(ADADELTA_RHO, cfg.learning_rate, grads)
        else:
            old = allocating_adam(cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, grads)
        assert [a.tobytes() for a in new] == [b.tobytes() for b in old]

    def test_nonfinite_gradient_rejected(self):
        # observation precision ~1e308/40: particles 1 and 2 sit 40 from y,
        # so their posterior gradients are ~1e308 and their kernel-weighted
        # sum overflows; particle 0 sits on y, out of the kernel's reach
        ssm = StateSpaceModel(dynamics=Lorenz63(), obs_matrix=np.eye(1),
                              q=Covariance.diagonal([1.0]),
                              r=Covariance.diagonal([40.0 / 1e308]),
                              cycle_steps=1)
        states = np.array([[0.0], [40.0], [40.1]])
        cfg = MappingConfig(optimizer="sgd", criterion="max_iter")
        with np.errstate(over="ignore"), pytest.raises(FilterFailure) as err:
            mapping_cycle(ssm, states, states, np.array([0.0]), kernel_1d(), cfg)
        assert err.value.kind == "non-finite gradient"
        assert (err.value.iteration, err.value.particle) == (0, 1)
        assert (err.value.cycle, err.value.step) == (None, None)
        assert str(err.value) == "non-finite KL gradient norm at iteration 0, particle 1"

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
    def test_grad_ratio_zero_initial(self):
        cfg = MappingConfig(criterion="grad_ratio")
        assert check_convergence(cfg, [0.0], [], 1)

    def test_grad_ratio_geometric_decay(self):
        cfg = MappingConfig(criterion="grad_ratio", max_iterations=1000)
        trace = []
        stop_at = None
        for i in range(60):
            trace.append(0.9**i)
            if check_convergence(cfg, trace, [], 1):
                stop_at = i
                break
        assert stop_at == 26  # 0.9^26 ~ 0.0646 < 0.07

    def test_neff_threshold(self):
        cfg = MappingConfig(criterion="neff")
        assert check_convergence(cfg, [1.0], neff_trace=[20.0], n_particles=20)
        assert not check_convergence(cfg, [1.0], neff_trace=[17.0], n_particles=20)


class TestMappingCycle:
    def test_single_particle_converges_to_posterior_mode(self):
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        cfg = MappingConfig(optimizer="sgd", learning_rate=0.1,
                            max_iterations=200, criterion="max_iter")
        analysis, _ = mapping_cycle(ssm, np.array([[0.0]]), np.array([[0.0]]),
                                    np.array([2.0]), kernel, cfg)
        assert analysis.states[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_ensemble_moments(self):
        # 50 particles on a 1-D Gaussian posterior: mean within 10%,
        # variance within 15% of the closed form
        rng = np.random.default_rng(3)
        ssm = gaussian_ssm_1d(q=1.0, r=1.0)
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        center, y = 0.0, 2.0
        forecast = center + rng.standard_normal((50, 1))
        cfg = MappingConfig(optimizer="adadelta", learning_rate=0.03,
                            max_iterations=200, criterion="max_iter")
        analysis, _ = mapping_cycle(ssm, np.full((50, 1), center), forecast,
                                    np.array([y]), kernel, cfg)
        post_mean, post_var = 1.0, 0.5
        states = analysis.states[:, 0]
        assert abs(states.mean() - post_mean) / post_mean < 0.10
        assert abs(states.var() - post_var) / post_var < 0.15

    def test_gradient_norm_drops_at_stationarity(self):
        rng = np.random.default_rng(4)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        forecast = rng.standard_normal((30, 1))
        cfg = MappingConfig(optimizer="sgd", learning_rate=0.05,
                            max_iterations=500, criterion="max_iter")
        _, diag = mapping_cycle(ssm, np.zeros((30, 1)), forecast, np.array([2.0]),
                                kernel, cfg)
        assert diag.grad_norm_final < 1e-3 * diag.grad_norm_initial

    def test_neff_criterion_stops_early(self):
        rng = np.random.default_rng(5)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        forecast = rng.standard_normal((20, 1))
        cfg = MappingConfig(optimizer="adadelta", criterion="neff",
                            max_iterations=100)
        trace = []
        _, diag = mapping_cycle(ssm, np.zeros((20, 1)), forecast, np.array([0.5]),
                                kernel, cfg, diag_sink=lambda *row: trace.append(row))
        assert diag.map_iterations == len(trace) < 100
        # the closing report is the last iteration's
        assert diag.neff == trace[-1][2] >= 18.0

    def test_output_equal_weight(self):
        rng = np.random.default_rng(6)
        ssm = gaussian_ssm_1d()
        kernel = GaussianKernel.from_model_error(ssm.q, 1.0)
        forecast = rng.standard_normal((5, 1))
        analysis, _ = mapping_cycle(ssm, np.zeros((5, 1)), forecast, np.array([1.0]),
                                    kernel, MappingConfig(criterion="max_iter",
                                                          max_iterations=5))
        assert np.all(analysis.weights == 1.0 / 5.0)


def lorenz_like_cycle(n_x, n_p=20, seed=11):
    """A mapping problem shaped like a fully observed twin-experiment cycle."""
    rng = np.random.default_rng(seed)
    q = Covariance.diagonal(rng.uniform(0.2, 0.6, size=n_x))
    ssm = StateSpaceModel(dynamics=Lorenz63(), obs_matrix=np.eye(n_x), q=q,
                          r=Covariance.isotropic(0.5, n_x), cycle_steps=1)
    truth = rng.standard_normal(n_x)
    centers = truth + rng.standard_normal((n_p, n_x))
    states = centers + q.sample(rng, size=n_p)
    y = truth + rng.standard_normal(n_x) * np.sqrt(0.5)
    return ssm, centers, states, y, GaussianKernel.from_model_error(q, 1.0)


def unfused_mapping(ssm, centers, states, y, kernel, cfg):
    """The mapping loop as it was formed on particles stored by row, each
    consumer building its own pairwise pass: the gradient, the Gram matrix
    and the KL field, then the neff rule and the closing report from the
    KDE weights (``tests/oracles.py``)."""
    prior = PriorMixture(centers, ssm.q)
    a = bandwidth(kernel)
    states = states.copy()
    n_p, n_x = states.shape
    opt = make_optimizer(cfg, states.shape)
    grad_norms, neffs = [], []
    for _ in range(cfg.max_iterations):
        logp_grads = row_major_grad(ssm, prior, states, y)
        field = row_major_field(a, states, logp_grads, gram_matrix(a, states))
        grad_norms.append(float(np.mean(np.linalg.norm(field, axis=1))))
        states = states + opt.step(field)
        if cfg.criterion == "neff":
            weights = row_major_weights(ssm, prior, states, y, gram_matrix(a, states))
            neffs.append(effective_sample_size(weights))
        if cfg.criterion != "max_iter" and check_convergence(cfg, grad_norms, neffs, n_p):
            break
    weights = None
    if n_x <= KDE_MAX_DIM:
        weights = row_major_weights(ssm, prior, states, y, gram_matrix(a, states))
    return states, grad_norms, neffs, weights


# the largest relative difference the component-first pass, which reorders
# the row-major form's sums, may show against it
RTOL = 1e-12


def assert_matches_unfused(ssm, centers, forecast, y, kernel, cfg):
    """Run the mapping and the row-major oracle on one problem: the same
    iteration count and trace rows, and the states, gradient norms, N_eff
    and closing report within ``RTOL``."""
    trace = []
    analysis, diag = mapping_cycle(ssm, centers, forecast, y, kernel, cfg,
                                   diag_sink=lambda *row: trace.append(row))
    states, grad_norms, neffs, weights = unfused_mapping(ssm, centers, forecast, y, kernel, cfg)
    assert diag.map_iterations == len(grad_norms)
    np.testing.assert_allclose(analysis.states, states, rtol=RTOL, atol=0.0)
    assert [row[0] for row in trace] == list(range(1, len(grad_norms) + 1))
    np.testing.assert_allclose([row[1] for row in trace], grad_norms, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose([diag.grad_norm_initial, diag.grad_norm_final],
                               [grad_norms[0], grad_norms[-1]], rtol=RTOL, atol=0.0)
    if cfg.criterion == "neff":
        np.testing.assert_allclose([row[2] for row in trace], neffs, rtol=RTOL, atol=0.0)
    else:
        assert neffs == [] and np.isnan([row[2] for row in trace]).all()
    if weights is None:
        assert np.isnan([diag.neff, diag.kl_from_weights, diag.weight_variance]).all()
    else:
        np.testing.assert_allclose(
            [diag.neff, diag.kl_from_weights, diag.weight_variance],
            [effective_sample_size(weights), kl_from_weights(weights),
             weight_variance(weights)], rtol=RTOL, atol=0.0)
    return diag


class TestSharedPairwisePass:
    @pytest.mark.parametrize("optimizer", ["sgd", "adadelta", "adam"])
    @pytest.mark.parametrize("criterion", ["neff", "grad_ratio", "max_iter"])
    def test_matches_unfused_mapping(self, criterion, optimizer):
        # the neff rule fires for every optimizer, grad_ratio for adadelta
        cfg = MappingConfig(optimizer=optimizer, criterion=criterion,
                            learning_rate=0.2, neff_threshold=14.0,
                            max_iterations=40)
        diag = assert_matches_unfused(*lorenz_like_cycle(3), cfg)
        assert diag.map_iterations >= 2

    def test_no_report_above_kde_limit(self):
        cfg = MappingConfig(criterion="grad_ratio", max_iterations=10)
        assert_matches_unfused(*lorenz_like_cycle(KDE_MAX_DIM + 2), cfg)

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
        # neff rule that one is the last iteration's.  Each pass whitens the
        # particles once, for the Gram matrix and the mixture both; the
        # centers are whitened once, when the mixture is built
        calls = {"whiten": 0, "gram": 0, "mix": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        counted(Covariance, "whiten")
        counted(GaussianKernel, "gram")
        counted(PriorMixture, "mix")
        ssm, centers, forecast, y, kernel = lorenz_like_cycle(n_x)
        cfg = MappingConfig(criterion=criterion, learning_rate=0.2,
                            neff_threshold=14.0, max_iterations=40)
        _, diag = mapping_cycle(ssm, centers, forecast, y, kernel, cfg)
        assert diag.map_iterations >= 2
        expected = diag.map_iterations + closing_passes
        assert calls == {"whiten": expected + 1, "gram": expected, "mix": expected}


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


class TestPassGuards:
    """The guards of the pass on states the row-major form met too: each
    ends as that form did, with the same results or the same error."""

    CFG = MappingConfig(criterion="max_iter", learning_rate=0.2, max_iterations=6)

    def test_particle_far_from_every_center(self):
        # 100 standard deviations from the forecast: every log-psi of the
        # particle is below exp's underflow, so only the max shift keeps
        # its mixture finite
        ssm, centers, forecast, y, kernel = lorenz_like_cycle(3)
        forecast[4] += 100.0 * ssm.q.std
        prior = PriorMixture(centers, ssm.q)
        assert np.all(mixture_log_psi(prior, forecast[4:5]) < -745.0)
        assert_matches_unfused(ssm, centers, forecast, y, kernel, self.CFG)

    def test_gram_bound_overflow(self, monkeypatch):
        # a bandwidth of 1e-290 Q and two particles 1e10 standard
        # deviations out on either side of the forecast: the Gram matrix's
        # bound, 8 h / alpha, overflows, so it scans its exponents (and
        # only it does), and every particle is alone in its kernel
        spy = _NanScanSpy()
        monkeypatch.setattr(kernels, "np", spy)
        ssm, centers, forecast, y, _ = lorenz_like_cycle(3)
        forecast[2, 0] += 1e10 * ssm.q.std[0]
        forecast[3, 0] -= 1e10 * ssm.q.std[0]
        kernel = GaussianKernel.from_model_error(ssm.q, 1e-290)
        assert_matches_unfused(ssm, centers, forecast, y, kernel, self.CFG)
        assert spy.scans == self.CFG.max_iterations + 1

    def test_half_norm_overflow(self, monkeypatch):
        # a particle near 1e200: its half norm overflows, the Gram matrix
        # scans its exponents, and the mixture rejects the particle
        spy = _NanScanSpy()
        monkeypatch.setattr(kernels, "np", spy)
        ssm, centers, forecast, y, kernel = lorenz_like_cycle(3)
        forecast[6] = 1e200
        with pytest.raises(FilterFailure) as err:
            mapping_cycle(ssm, centers, forecast, y, kernel, self.CFG)
        assert err.value.kind == "mixture underflow"
        assert (err.value.iteration, err.value.particle) == (0, 6)
        assert str(err.value) == ("mixture responsibilities underflowed at "
                                  "iteration 0, particle 6")
        assert spy.scans == 1

    def test_nan_state(self):
        # a NaN coordinate: its mixture log density is NaN, not -inf, so
        # the mapping stops at the KL field, which the Gram matrix's zero
        # weight on the NaN particle (0 times NaN) leaves NaN everywhere
        ssm, centers, forecast, y, kernel = lorenz_like_cycle(3)
        forecast[5, 1] = np.nan
        with pytest.raises(FilterFailure) as err:
            mapping_cycle(ssm, centers, forecast, y, kernel, self.CFG)
        assert err.value.kind == "non-finite gradient"
        assert (err.value.iteration, err.value.particle) == (0, 0)
        assert str(err.value) == "non-finite KL gradient norm at iteration 0, particle 0"


def tensor_gram(kernel, w):
    """``GaussianKernel.gram`` from the difference tensor of the whitened
    particles, in whose units the bandwidth is ``alpha I``."""
    z = w[:-2].T
    return gram_matrix(Covariance.isotropic(kernel.alpha, z.shape[1]), z,
                       difference_tensor_form)


def tensor_mix(prior, w):
    """``PriorMixture.mix`` from the difference tensor of the particles,
    mapped back to state units, against the centers."""
    x = prior.centers.mean(axis=0) + w[:-2].T * prior.q.std
    centers_bar, log_density = mixture_evaluate(prior, x, difference_tensor_form)
    return centers_bar.T, log_density


class TestPairwiseFormStoppingIterations:
    def test_fully_observed_run_stops_alike(self, monkeypatch):
        # the one-product pairwise form reorders sums; on a fully observed
        # preset the rounding must not move any cycle's stopping iteration
        def run():
            cfg = load_preset("lorenz63-full-20p")
            cfg.cycles = 30
            return run_twin_experiment(cfg).records

        gemm = run()
        # both consumers of the whitened particles: the Gram matrix and the
        # mixture
        monkeypatch.setattr(GaussianKernel, "gram", tensor_gram)
        monkeypatch.setattr(PriorMixture, "mix", tensor_mix)
        tensor = run()
        assert [r.map_iterations for r in gemm] == [r.map_iterations for r in tensor]
        np.testing.assert_allclose([r.rmse for r in gemm], [r.rmse for r in tensor],
                                   rtol=1e-9, atol=0.0)


def test_abort_keeps_the_error(monkeypatch):
    # a FilterFailure raised inside the loop comes out as itself, with the
    # iteration set and the fields it had kept; any other error passes
    # through untouched
    failure = FilterFailure("mixture underflow", "mixture responsibilities underflowed",
                            particle=3)
    foreign = KeyError("not a run failure")
    for error in (failure, foreign):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(mpf, "whitened_log_posterior_grad", fail)
        ssm, centers, forecast, y, kernel = lorenz_like_cycle(3)
        with pytest.raises(type(error)) as err:
            mapping_cycle(ssm, centers, forecast, y, kernel, MappingConfig())
        assert err.value is error
    assert (failure.iteration, failure.particle, failure.cycle) == (0, 3, None)
    assert str(failure) == "mixture responsibilities underflowed at iteration 0, particle 3"
    assert foreign.args == ("not a run failure",)
