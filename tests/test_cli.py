"""CLI and twin-experiment harness tests: CSV schema, determinism, the
resolved-config echo and the command surface."""

import fnmatch
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import mpfilter.cli as cli
import mpfilter.config as config
import mpfilter.experiment as experiment
import mpfilter.models as models
from mpfilter.cli import main
from mpfilter.config import ConfigError, default_cholera_params_path, load_preset, loads
from mpfilter.experiment import (
    CSV_HEADER,
    build_model,
    build_setup,
    resolve_mapping_config,
    resolve_q_diagonal,
    run_twin_experiment,
)
from mpfilter.core import Covariance, FilterFailure
from mpfilter.diagnostics import importance_weights
from mpfilter.models import (
    R_VARIANCE_FLOOR,
    CholeraModel,
    Lorenz63,
    Lorenz96,
    PiecewiseSeries,
    advance_window,
    climatological_variance,
)
from mpfilter.rng import RandomStream
from mpfilter.ssm import PriorMixture, StateSpaceModel, log_posterior_grad
from oracles import observation_matrix, setup_start

ROOT = Path(__file__).resolve().parents[1]
START_STATES = resources.files("mpfilter") / "data" / "start_states.npz"

SMALL = """
model = lorenz63
seed = 3
n_particles = 5
cycles = 4
spinup_steps = 200
q_spec = diag:0.2
"""


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


class TestObservationOperators:
    def test_shapes(self):
        cfg = loads(SMALL)
        model = build_model(cfg)
        window = cfg.cycle_steps * cfg.dt
        assert model.observation_matrix("full", window).shape == (3, 3)
        np.testing.assert_array_equal(model.observation_matrix("xonly", window),
                                      [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(model.observation_matrix("zonly", window),
                                      [[0.0, 0.0, 1.0]])

    def test_every2_lorenz96(self):
        cfg = loads("model = lorenz96\nseed = 1\nobs_operator = every2\n")
        h = build_model(cfg).observation_matrix("every2", cfg.cycle_steps * cfg.dt)
        assert h.shape == (20, 40)
        assert np.all(h[np.arange(20), np.arange(0, 40, 2)] == 1.0)

    def test_mortality_operator(self):
        cfg = loads("model = cholera\nseed = 1\n")
        model = build_model(cfg)
        window = cfg.cycle_steps * cfg.dt
        h = model.observation_matrix("mortality", window)
        assert h.shape == (1, 6)
        assert h[0, 1] == pytest.approx(model.params.m_c * window)


class TestQResolution:
    def test_diag_broadcast(self):
        cfg = loads(SMALL)
        np.testing.assert_allclose(resolve_q_diagonal(cfg, build_model(cfg)),
                                   [0.2, 0.2, 0.2])

    def test_diag_wrong_length(self):
        cfg = loads(SMALL.replace("diag:0.2", "diag:0.2,0.3"))
        with pytest.raises(ConfigError, match="q_spec diag needs 1 or 3 values"):
            resolve_q_diagonal(cfg, build_model(cfg))

    def test_climatological_scaled_by_window(self):
        cfg = loads("model = lorenz63\nseed = 1\n")
        q = resolve_q_diagonal(cfg, build_model(cfg))
        # 30% of O(60-80) climatological variances over a 0.01 window
        assert q.shape == (3,)
        assert np.all(q > 0.05) and np.all(q < 0.5)

    def test_climatological_rejected_for_cholera(self):
        # rejected before the model is asked for a climatology it lacks
        cfg = loads("model = cholera\nseed = 1\nq_spec = climatological:0.3\n")
        with pytest.raises(ConfigError, match="q_spec climatological"):
            resolve_q_diagonal(cfg, build_model(cfg))


def shipped_tables() -> dict:
    with START_STATES.open("rb") as f, np.load(f, allow_pickle=False) as table:
        return {key: table[key] for key in table.files}


@pytest.fixture(scope="module")
def recomputed_tables() -> dict:
    """Every member of data/start_states.npz, recomputed through the path a
    table miss takes."""
    tables = {models._table_key(model, "spinup:20000"): model._integrate_start(20_000)
              for model in (Lorenz63(), Lorenz96())}
    tables[models._table_key(Lorenz63(), "climatology")] = (
        climatological_variance(Lorenz63()))
    return tables


class TestClimatologyTable:
    def test_shipped_entry_matches_recomputation(self, recomputed_tables):
        key = models._table_key(Lorenz63(), "climatology")
        assert np.array_equal(shipped_tables()[key], recomputed_tables[key])

    @pytest.fixture
    def counted_climatology(self, monkeypatch):
        calls = []

        def stub(model):
            calls.append(model)
            return np.ones(model.n_x)

        monkeypatch.setattr(models, "climatological_variance", stub)
        return calls

    def test_table_miss_integrates_once(self, counted_climatology):
        cfg = loads("model = lorenz63\nseed = 1\ndt = 0.002\n")
        model = build_model(cfg)
        assert models._table_key(model, "climatology") not in shipped_tables()
        q = resolve_q_diagonal(cfg, model)
        assert counted_climatology == [model]
        assert np.array_equal(q, 0.3 * np.ones(3) * cfg.cycle_steps * cfg.dt)

    def test_table_hit_skips_integration(self, counted_climatology):
        # the preset runs the default Lorenz-63 (dt = 0.001)
        cfg = load_preset("lorenz63-full-100p")
        assert cfg.q_spec == "climatological:0.3"
        model = build_model(cfg)
        assert model == Lorenz63()
        window = cfg.cycle_steps * cfg.dt
        climatology = shipped_tables()[models._table_key(model, "climatology")]
        assert np.array_equal(resolve_q_diagonal(cfg, model), 0.3 * climatology * window)
        assert counted_climatology == []


class TestStartStateTable:
    def test_shipped_states_match_recomputation(self, recomputed_tables, tmp_path):
        # Guards data/start_states.npz: the recomputed file is written to
        # tmp_path, so a mismatch is mended by copying it over the shipped one.
        recomputed = recomputed_tables
        path = tmp_path / "start_states.npz"
        np.savez(path, **recomputed)
        hint = f"copy {path} over src/mpfilter/data/start_states.npz"
        shipped = shipped_tables()
        assert sorted(shipped) == sorted(recomputed), hint
        for key, states in recomputed.items():
            assert np.array_equal(shipped[key], states), f"{key}: {hint}"

    @pytest.fixture
    def integrations(self, monkeypatch):
        # build_setup's integrator calls, stubbed to return their start
        calls = []

        def advance_window(model, x, steps):
            calls.append(("advance_window", model, steps, np.array(x)))
            return np.array(x, dtype=float)

        def free_run(model, x0, steps, sample_every=1):
            calls.append(("free_run", model, steps, sample_every))
            return np.tile(x0, (steps // sample_every, 1))

        monkeypatch.setattr(models, "advance_window", advance_window)
        monkeypatch.setattr(models, "free_run", free_run)
        return calls

    @pytest.mark.parametrize("preset", ["lorenz63-full-100p", "lorenz96-full-20p"])
    def test_table_hit_skips_integration(self, integrations, preset):
        cfg = load_preset(preset)
        setup = build_setup(cfg)
        assert integrations == []
        states = shipped_tables()[
            models._table_key(setup.model, f"spinup:{cfg.spinup_steps}")]
        if cfg.model == "lorenz63":
            assert np.array_equal(setup.truth0, states)
        else:
            assert np.array_equal(setup.truth0, states[-1])
            members = setup.ensemble0.states
            assert (members[:, None, :] == states[None, :-1, :]).all(-1).any(-1).all()

    def test_lorenz63_miss_integrates_the_spinup(self, integrations):
        # the benchmark's own test config (SMALL in
        # perfbench/tests/test_perfbench.py): its traced setup must keep
        # counting the 200 spin-up steps
        cfg = loads("model = lorenz63\nseed = 3\nn_particles = 6\ncycles = 4\n"
                    "spinup_steps = 200\nq_spec = diag:0.1\n")
        setup = build_setup(cfg)
        [(name, model, steps, x0)] = integrations
        assert (name, model, steps) == ("advance_window", Lorenz63(), 200)
        assert np.array_equal(x0, [1.0, 1.0, 1.001])
        assert np.array_equal(setup.truth0, x0)

    def test_lorenz96_miss_integrates_spinup_and_bank(self, integrations):
        cfg = replace(load_preset("lorenz96-full-20p"), dt=0.002)
        setup = build_setup(cfg)
        model = Lorenz96(dt=0.002)
        [spinup, bank] = integrations
        assert spinup[:3] == ("advance_window", model, 20_000)
        x0 = np.full(40, 8.0)
        x0[0] += 0.01
        assert np.array_equal(spinup[3], x0)
        assert bank == ("free_run", model, 20_000, 20)
        assert np.array_equal(setup.truth0, x0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSetupAgainstOracle:
    # build_setup's truth, members and H against the per-model branches the
    # models' start, initial_ensemble and observation_matrix replaced
    @pytest.mark.parametrize("spinup_steps", [20_000, 200], ids=["shipped", "miss"])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("model,obs_operator", [
        ("lorenz63", "full"), ("lorenz63", "xonly"), ("lorenz63", "zonly"),
        ("lorenz96", "full"), ("lorenz96", "every2"), ("cholera", "mortality"),
    ])
    def test_same_bits(self, model, obs_operator, seed, spinup_steps):
        cfg = loads(f"model = {model}\nseed = {seed}\nn_particles = 7\n"
                    f"obs_operator = {obs_operator}\nspinup_steps = {spinup_steps}\n")
        setup = build_setup(cfg)
        built = build_model(cfg)
        q = Covariance.diagonal(resolve_q_diagonal(cfg, built))
        init_rng = RandomStream(cfg.seed).substream("init")
        truth0, ens0 = setup_start(cfg, built, q, init_rng)
        assert same_bits(setup.truth0, truth0)
        assert same_bits(setup.ensemble0.states, ens0.states)
        assert same_bits(setup.ssm.obs_matrix, observation_matrix(cfg, built))


class TestPackageData:
    def test_every_data_file_matches_a_package_data_glob(self):
        # a file no glob names is silently left out of a wheel
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        globs = pyproject["tool"]["setuptools"]["package-data"]["mpfilter"]
        package = ROOT / "src" / "mpfilter"
        files = [p.relative_to(package).as_posix() for p in package.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".py"]
        assert "data/start_states.npz" in files
        assert [f for f in files
                if not any(fnmatch.fnmatchcase(f, g) for g in globs)] == []


class TestMappingResolution:
    def test_auto_criterion_by_dimension(self):
        cfg = loads(SMALL)
        assert resolve_mapping_config(cfg, 3).criterion == "neff"
        assert resolve_mapping_config(cfg, 40).criterion == "grad_ratio"

    def test_neff_threshold_scaled(self):
        cfg = loads(SMALL)
        mc = resolve_mapping_config(cfg, 3)
        assert mc.resolved_neff_threshold(cfg.n_particles) == pytest.approx(4.5)


class TestRunTwinExperiment:
    def test_zero_cycles_header_only(self, tmp_path):
        cfg = loads(SMALL.replace("cycles = 4", "cycles = 0"))
        result = run_twin_experiment(cfg, out_dir=tmp_path, name="empty")
        header, rows = read_rows(result.csv_path)
        assert header == CSV_HEADER
        assert rows == []

    def test_csv_schema_and_length(self, tmp_path):
        cfg = loads(SMALL)
        result = run_twin_experiment(cfg, out_dir=tmp_path, name="small")
        header, rows = read_rows(result.csv_path)
        assert header == CSV_HEADER
        assert len(rows) == 4
        first = rows[0].split(",")
        assert len(first) == len(CSV_HEADER.split(","))
        assert first[0] == "0"

    def test_determinism_excluding_wallclock(self, tmp_path):
        # wallclock_ms is the one timing column; all numerics must be
        # byte-identical across reruns of the same (config, seed)
        cfg = loads(SMALL)
        r1 = run_twin_experiment(cfg, out_dir=tmp_path / "a", name="run")
        r2 = run_twin_experiment(cfg, out_dir=tmp_path / "b", name="run")
        _, rows1 = read_rows(r1.csv_path)
        _, rows2 = read_rows(r2.csv_path)
        strip = lambda row: row.rsplit(",", 1)[0]
        assert [strip(r) for r in rows1] == [strip(r) for r in rows2]

    def test_seed_changes_output(self, tmp_path):
        cfg = loads(SMALL)
        r1 = run_twin_experiment(cfg)
        cfg.seed = 4
        r2 = run_twin_experiment(cfg)
        assert r1.records[0].rmse != r2.records[0].rmse

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = loads("model = lorenz63\nseed = 1\ncycles = 1\n"
                    "n_particles = 3\nspinup_steps = 100\n")
        result = run_twin_experiment(cfg, out_dir=tmp_path, name="echo")
        echoed = loads(result.resolved_config_path.read_text())
        assert echoed.q_spec.startswith("diag:")
        np.testing.assert_allclose(
            [float(v) for v in echoed.q_spec[len("diag:"):].split(",")],
            result.q_diagonal)
        # re-resolving the echoed spec reproduces the same values
        assert loads(result.resolved_config_path.read_text()) == echoed

    def test_filters_share_truth(self):
        # same seed: the three filters see the same observations
        obs = {}
        for filt in ("mpf", "sir", "enkf"):
            cfg = loads(SMALL)
            cfg.filter = filt
            res = run_twin_experiment(cfg)
            obs[filt] = np.array([r.observation for r in res.records])
        np.testing.assert_array_equal(obs["mpf"], obs["sir"])
        np.testing.assert_array_equal(obs["mpf"], obs["enkf"])

    def test_trace_file(self, tmp_path):
        cfg = loads(SMALL + "trace = true\n")
        result = run_twin_experiment(cfg, out_dir=tmp_path, name="traced")
        header, rows = read_rows(result.trace_path)
        assert header == "cycle,iteration,mean_grad_norm,neff"
        assert len(rows) >= 4  # at least one mapping iteration per cycle

    def test_neff_column_bounded(self):
        cfg = loads(SMALL)
        res = run_twin_experiment(cfg)
        for r in res.records:
            assert 1.0 <= r.neff <= cfg.n_particles + 1e-9

    def test_sir_resampling_flags_reach_records(self):
        cfg = loads(SMALL.replace("cycles = 4", "cycles = 8") + "filter = sir\n")
        records = run_twin_experiment(cfg).records
        threshold = cfg.sir_resample_threshold * cfg.n_particles
        assert any(r.resampled for r in records)
        assert [r.resampled for r in records] == [r.neff <= threshold for r in records]
        assert not any(r.degenerate for r in records)

    def test_enkf_records_read_equal_weights(self):
        cfg = loads(SMALL + "filter = enkf\n")
        for r in run_twin_experiment(cfg).records:
            assert (r.neff, r.kl_from_weights, r.weight_variance) == (
                cfg.n_particles, 0.0, 0.0)
            assert r.map_iterations == 0 and not r.resampled


def reference_window(setup, truth, t0, truth_rng, obs_rng):
    """The harness's truth-and-observation code before the models owned it:
    ``(truth, true_obs, y, R of the cycle)``."""
    model, ssm = setup.model, setup.ssm
    if model.name == "cholera":
        truth, delta_c = model.advance(truth, t0, ssm.cycle_steps, truth_rng)
        tau = model.params.tau
        y = delta_c
        if (tau * delta_c) ** 2 > 0.0:
            y = delta_c + tau * delta_c * float(obs_rng.standard_normal())
        r = Covariance.diagonal([max((tau * y) ** 2, 1e-8)])
        return truth, np.array([delta_c]), np.array([y]), r
    truth = advance_window(model, truth, ssm.cycle_steps)
    truth = truth + ssm.q.sample(truth_rng)
    y = ssm.observe(truth) + ssm.r.sample(obs_rng)
    return truth, ssm.observe(truth), y, ssm.r


class TestTwinWindow:
    @staticmethod
    def assert_windows_match(setup, truth0, windows=5):
        window = setup.ssm.cycle_steps * setup.model.dt
        ref_streams, new_streams = RandomStream(7), RandomStream(7)
        ref = new = truth0
        for cycle in range(windows):
            t0 = cycle * window
            ref, ref_obs, ref_y, ref_r = reference_window(
                setup, ref, t0, ref_streams.substream("truth-noise"),
                ref_streams.substream("obs-noise"))
            new, true_obs, y, ssm = setup.model.twin_window(
                setup.ssm, new, t0, new_streams.substream("truth-noise"),
                new_streams.substream("obs-noise"))
            np.testing.assert_array_equal(new, ref)
            np.testing.assert_array_equal(true_obs, ref_obs)
            np.testing.assert_array_equal(y, ref_y)
            np.testing.assert_array_equal(ssm.r.matrix(), ref_r.matrix())
            np.testing.assert_array_equal(ssm.obs_matrix, setup.ssm.obs_matrix)
        return y, ssm

    @pytest.mark.parametrize("text", [
        SMALL,
        "model = lorenz96\nseed = 2\nn_particles = 4\n",
        "model = cholera\nseed = 4\nn_particles = 4\n",
    ], ids=["lorenz63", "lorenz96", "cholera"])
    def test_matches_the_inline_form(self, text):
        setup = build_setup(loads(text))
        _, ssm = self.assert_windows_match(setup, setup.truth0)
        if setup.model.name != "cholera":
            assert ssm is setup.ssm

    def test_cholera_zero_mortality_takes_the_floor(self):
        # no infected and no transmission: the window's mortality and its
        # observation are exactly 0, so R falls to R_VARIANCE_FLOOR
        setup = build_setup(loads("model = cholera\nseed = 4\nn_particles = 4\n"))
        no_transmission = PiecewiseSeries(np.array([0.0]), np.array([0.0]))
        model = CholeraModel(replace(setup.model.params, transmission=no_transmission))
        truth0 = setup.truth0.copy()
        truth0[1] = 0.0
        y, ssm = self.assert_windows_match(replace(setup, model=model), truth0)
        assert y[0] == 0.0
        assert ssm.r.matrix()[0, 0] == R_VARIANCE_FLOOR == 1e-8


class TestCliCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.split()
        assert "lorenz63-full-100p" in out
        assert "lorenz96-full-20p-enkf" in out

    @pytest.mark.parametrize("argv", [["list-presets"], ["check", "any.cfg"]])
    def test_unknown_log_level_exits_cleanly(self, monkeypatch, capsys, argv):
        # every command reads MPFILTER_LOG first: an unknown level is one
        # line naming the variable, not a traceback from logging
        monkeypatch.setenv("MPFILTER_LOG", "verbose")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: MPFILTER_LOG = 'verbose' is not a log level"]

    def test_check_valid(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SMALL)
        assert main(["check", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = lorenz63\n")
        assert main(["check", str(cfg)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_check_cholera_params_under_equals_directory(self, tmp_path, capsys):
        # cholera.params is always a path, even one whose directory name
        # contains "=" like a line of parameter text
        folder = tmp_path / "a=b"
        folder.mkdir()
        with open(default_cholera_params_path(), encoding="utf-8") as f:
            (folder / "params.cfg").write_text(f.read())
        cfg = folder / "cholera.cfg"
        cfg.write_text(f"model = cholera\nseed = 1\ncholera.params = {folder / 'params.cfg'}\n")
        assert main(["check", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_run_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        csv = tmp_path / "run.csv"
        assert csv.exists()
        assert str(csv) in capsys.readouterr().out

    def test_run_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL)
        assert main(["run", str(cfg), "--out", str(tmp_path),
                     "--seed", "9", "--filter", "enkf"]) == 0
        resolved = (tmp_path / "run_resolved.cfg").read_text()
        assert "seed = 9" in resolved
        assert "filter = enkf" in resolved

    def test_run_divergence_exits_cleanly(self, tmp_path, capsys):
        # sgd with a huge step drives the particles off the mixture: the
        # mixture density underflows for every particle, so under the neff
        # rule the weight report after iteration 17 of cycle 0 has no
        # finite log weight, and under the gradient ratio, which reports
        # no weights inside the loop, the next iteration's gradient finds
        # the mixture underflowed
        for criterion, line in (
                ("neff", "importance log weights degenerate (max -inf) at cycle 0, iteration 17"),
                ("grad_ratio", "mixture responsibilities underflowed at cycle 0, "
                               "iteration 18, particle 0")):
            cfg = tmp_path / "diverge.cfg"
            cfg.write_text("model = lorenz63\nseed = 1\nn_particles = 5\n"
                           "cycles = 5\nspinup_steps = 200\nq_spec = diag:0.3\n"
                           "mpf.optimizer = sgd\nmpf.learning_rate = 1e9\n"
                           f"mpf.criterion = {criterion}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.strip().splitlines() == [f"error: {line}"]
            assert (tmp_path / "diverge.csv").read_text() == CSV_HEADER + "\n"

    def test_run_integration_blowup_exits_cleanly(self, tmp_path, capsys):
        # dt = 0.2 is far beyond RK4's stability limit for Lorenz-96: the
        # spin-up overflows at step 8, which is reported without numpy's
        # overflow warnings
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text("model = lorenz96\nseed = 1\nn_particles = 5\n"
                       "cycles = 5\ndt = 0.2\nspinup_steps = 2000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: integration of lorenz96 blew up at step 8"]

    def test_run_overflowing_gradient_norm_exits_cleanly(self, tmp_path, capsys):
        # an R of 1e-300 passes every rule, but the first KL gradients are
        # so large that their squared norms overflow: run stops at once,
        # naming the cycle, the iteration and the first particle
        cfg = tmp_path / "tiny_r.cfg"
        cfg.write_text(SMALL.replace("cycles = 4", "cycles = 2") + "r_variance = 1e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == 0
            assert capsys.readouterr().out.strip() == "ok"
            assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite KL gradient norm at cycle 0, iteration 0, particle 0"]

    @pytest.mark.parametrize("filter_name", ["mpf", "sir", "enkf"])
    def test_run_forecast_blowup_names_cycle_and_particle(self, tmp_path, capsys,
                                                          filter_name):
        # a Q of 1e150 passes every rule, and the initial ensemble, one Q
        # draw around the truth, overflows in the first forecast step
        cfg = tmp_path / "big_q.cfg"
        cfg.write_text(SMALL.replace("diag:0.2", "diag:1e150"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == 0
            assert capsys.readouterr().out.strip() == "ok"
            assert main(["run", str(cfg), "--out", str(tmp_path),
                         "--filter", filter_name]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: integration of lorenz63 blew up at cycle 0, particle 0, step 1"]
        assert (tmp_path / "big_q.csv").read_text() == CSV_HEADER + "\n"

    @pytest.mark.parametrize("text,key", [
        pytest.param(SMALL + "mpf.optimizer = foo\n", "mpf.optimizer", id="optimizer"),
        pytest.param(SMALL + "mpf.learning_rate = -1\n", "mpf.learning_rate", id="lr"),
        pytest.param(SMALL + "mpf.learning_rate = 1e300\n", "mpf.learning_rate",
                     id="lr-square-overflows"),
        pytest.param(SMALL + "mpf.max_iterations = 0\n", "mpf.max_iterations",
                     id="max_iterations"),
        pytest.param(SMALL + "mpf.grad_ratio_threshold = 2\n",
                     "mpf.grad_ratio_threshold", id="grad_ratio"),
        pytest.param(SMALL + "sir.resampler = foo\n", "sir.resampler", id="resampler"),
        pytest.param(SMALL + "mpf.optimizer = adam\nmpf.adam_beta1 = 1.0\n",
                     "mpf.adam_beta1", id="adam_beta1"),
        pytest.param(SMALL + "mpf.optimizer = adam\nmpf.adam_beta2 = 1.0\n",
                     "mpf.adam_beta2", id="adam_beta2"),
        pytest.param(SMALL + "mpf.adadelta_rho = 1.5\n", "mpf.adadelta_rho",
                     id="adadelta_rho-above-1"),
        pytest.param(SMALL + "mpf.adadelta_rho = -3\n", "mpf.adadelta_rho",
                     id="adadelta_rho-negative"),
        pytest.param(SMALL + "output = x\n", "output", id="output"),
        pytest.param(SMALL + "sir.resample_threshold = 0\n", "sir.resample_threshold",
                     id="resample_threshold"),
        pytest.param("model = lorenz96\nseed = 1\nlorenz96.n_vars = 3\n",
                     "lorenz96.n_vars", id="n_vars"),
        pytest.param(SMALL.replace("n_particles = 5", "n_particles = 1")
                     + "filter = enkf\n", "n_particles", id="enkf-one-member"),
        pytest.param("model = cholera\nseed = 1\nq_spec = climatological:0.3\n",
                     "q_spec", id="cholera-climatological"),
        pytest.param("model = cholera\nseed = 1\ncholera.params = missing.cfg\n",
                     "cholera.params", id="cholera-missing-file"),
        pytest.param("model = cholera\nseed = 1\ncholera.params = params.cfg\n",
                     "cholera.params", id="cholera-unknown-key"),
        pytest.param(SMALL + "r_variance = inf\n", "r_variance", id="nonfinite"),
        pytest.param(SMALL.replace("seed = 3", "seed = -1"), "seed", id="seed"),
        pytest.param(SMALL.replace("spinup_steps = 200", "spinup_steps = 0"),
                     "spinup_steps", id="spinup"),
        pytest.param(SMALL.replace("diag:0.2", "diag:0.2,0.3"), "q_spec",
                     id="diag-length"),
        pytest.param("model = cholera\nseed = 1\ndt = 0.1\n", "dt", id="cholera-dt"),
        pytest.param(SMALL + "filter = ukf\n", "filter", id="filter"),
        pytest.param(SMALL + "obs_operator = every2\n", "obs_operator", id="obs-operator"),
        pytest.param(SMALL.replace("n_particles = 5", "n_particles = 0"), "n_particles",
                     id="n_particles"),
        pytest.param(SMALL.replace("cycles = 4", "cycles = -1"), "cycles", id="cycles"),
        pytest.param(SMALL + "mpf.neff_threshold = 1.5\n", "mpf.neff_threshold",
                     id="neff_threshold"),
        pytest.param(SMALL + "kernel.alpha = 0\n", "kernel.alpha", id="kernel-alpha"),
        pytest.param(SMALL + "r_variance = 1e-320\n", "r_variance", id="r-variance-tiny"),
        pytest.param(SMALL.replace("diag:0.2", "diag:1e-320"), "q_spec", id="q-spec-tiny"),
        pytest.param(SMALL + "kernel.alpha = 1e-320\n", "kernel.alpha",
                     id="kernel-alpha-tiny"),
        pytest.param(SMALL.replace("diag:0.2", "diag:1e10") + "kernel.alpha = 1e300\n",
                     "kernel.alpha", id="kernel-alpha-overflow"),
        pytest.param("model = lorenz96\nseed = 1\nmpf.criterion = neff\n",
                     "limited to 10 state dimensions (got 40)", id="kde-limit"),
        pytest.param("model = lorenz96\nseed = 1\ndt = 0.2\nspinup_steps = 2000\n",
                     "blew up at step 8", id="spinup-blowup"),
    ])
    def test_check_rejects_what_run_rejects(self, tmp_path, capsys, text, key):
        # every config run would refuse before its first cycle is refused
        # by check, which builds the same setup, with no warning, and run
        # refuses it with one line, not a traceback
        with open(default_cholera_params_path(), encoding="utf-8") as f:
            (tmp_path / "params.cfg").write_text(f.read() + "foo = 1\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid: ") and key in err[0]
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    @pytest.mark.parametrize("text", [
        "model = lorenz96\nseed = 1\nobs_operator = every2\n",
        "model = lorenz96\nseed = 1\nmpf.criterion = neff\nlorenz96.n_vars = 8\n"
        "spinup_steps = 200\n",
        SMALL + "mpf.criterion = neff\n",
    ], ids=["lorenz96-every2", "lorenz96-8-neff", "lorenz63-neff"])
    def test_check_accepts_what_the_rules_allow(self, tmp_path, capsys, text):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_cholera_params_read_once(self, tmp_path, monkeypatch):
        # build_setup is the one place the model is built: run reads the
        # parameter file once, with or without --seed / --filter, and so
        # does check
        reads = []
        real_load, real_run = config.load_cholera_params, cli.run_twin_experiment
        monkeypatch.setattr(config, "load_cholera_params",
                            lambda path: reads.append(path) or real_load(path))
        monkeypatch.setattr(cli, "run_twin_experiment",
                            lambda cfg, **kw: real_run(replace(cfg, cycles=2), **kw))
        cfg, out = tmp_path / "cholera.cfg", str(tmp_path)
        cfg.write_text("model = cholera\nseed = 1\n")
        for argv in (["run", "--preset", "cholera-20p", "--out", out],
                     ["run", "--preset", "cholera-20p-sir", "--out", out],
                     ["run", "--preset", "cholera-20p", "--seed", "3", "--out", out],
                     ["run", "--preset", "cholera-20p", "--filter", "enkf", "--out", out],
                     ["check", str(cfg)]):
            reads.clear()
            assert main(argv) == 0
            assert len(reads) == 1, argv

    def test_run_bad_seed_override_exits_cleanly(self, tmp_path, capsys):
        assert main(["run", "--preset", "lorenz63-full-5p", "--seed", "-1",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]

    def test_run_unknown_preset(self, capsys):
        assert main(["run", "--preset", "does-not-exist"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_run_config_beside_preset_rejected(self, tmp_path, capsys):
        # --preset would silently replace the config: run refuses the pair
        assert main(["run", str(tmp_path / "missing.cfg"), "--preset", "lorenz63-full-5p",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: run takes a config path or --preset NAME, not both"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["small.cfg", "small.cfg/sub"],
                             ids=["a-file", "under-a-file"])
    def test_run_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL)
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {tmp_path / out}: ")
        assert cfg.read_text() == SMALL


def fail_in_cycle_2(monkeypatch):
    """Start the mapping of cycle 2 from a NaN in particle 1: its KL field,
    which the Gram matrix's zero weight on that particle (0 times NaN)
    leaves NaN everywhere, stops the mapping at iteration 0, naming
    particle 0."""
    real = experiment.mapping_cycle
    calls = []

    def mapping(ssm, centers, states, *args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            states = states.copy()
            states[1, 0] = np.nan
        return real(ssm, centers, states, *args, **kwargs)

    monkeypatch.setattr(experiment, "mapping_cycle", mapping)


class TestFilterFailure:
    """The one run-failure type: each kind with the fields its raise site
    knows, the iteration the mapping adds, the cycle the harness adds, and
    the one line the CLI prints."""

    def test_integration_blowup(self):
        # a batch names its first particle that is not finite; one state,
        # the truth, names none
        model = build_model(loads("model = cholera\nseed = 1\n"))
        states = np.tile(model.start(1), (4, 1))
        states[[2, 3], 1] = np.inf
        with pytest.raises(FilterFailure) as batch:
            model.forecast(states, 0.0, 5, RandomStream(1).particle_streams(4))
        with pytest.raises(FilterFailure) as truth:
            model.advance(states[2], 0.0, 5, None)
        for err in (batch.value, truth.value):
            assert err.kind == "integration blow-up"
            assert (err.cycle, err.iteration, err.step) == (None, None, 1)
        assert (batch.value.particle, truth.value.particle) == (2, None)
        assert str(batch.value) == "integration of cholera blew up at particle 2, step 1"
        assert str(truth.value) == "integration of cholera blew up at step 1"

    def test_mixture_underflow(self):
        q = Covariance.diagonal([1.0, 1.0, 1.0])
        ssm = StateSpaceModel(dynamics=Lorenz63(), obs_matrix=np.eye(3), q=q, r=q,
                              cycle_steps=1)
        x = np.zeros((4, 3))
        x[[1, 3]] = 1e200
        with pytest.raises(FilterFailure) as err:
            log_posterior_grad(ssm, PriorMixture(np.zeros((2, 3)), q), x, np.zeros(3))
        assert err.value.kind == "mixture underflow"
        assert (err.value.cycle, err.value.iteration, err.value.particle,
                err.value.step) == (None, None, 1, None)
        assert str(err.value) == "mixture responsibilities underflowed at particle 1"

    def test_degenerate_weights(self):
        with pytest.raises(FilterFailure) as err:
            importance_weights(np.full(3, -np.inf), np.zeros(3), np.zeros(3), "kde")
        assert err.value.kind == "degenerate weights"
        assert [getattr(err.value, name) for name in FilterFailure.WHERE] == [None] * 4
        assert str(err.value) == "importance log weights degenerate (max -inf)"

    def test_nonfinite_gradient(self):
        # an R of 1e-300: the first KL gradients' squared norms overflow
        with pytest.raises(FilterFailure) as err:
            run_twin_experiment(loads(SMALL + "r_variance = 1e-300\n"))
        assert err.value.kind == "non-finite gradient"
        assert (err.value.cycle, err.value.iteration, err.value.particle,
                err.value.step) == (0, 0, 0, None)

    def test_harness_sets_the_cycle(self, tmp_path, monkeypatch):
        fail_in_cycle_2(monkeypatch)
        with pytest.raises(FilterFailure) as err:
            run_twin_experiment(loads(SMALL), out_dir=tmp_path, name="fails")
        assert err.value.kind == "non-finite gradient"
        assert (err.value.cycle, err.value.iteration, err.value.particle) == (2, 0, 0)
        header, rows = read_rows(tmp_path / "fails.csv")
        assert header == CSV_HEADER
        assert [row.split(",")[0] for row in rows] == ["0", "1"]

    def test_cli_names_the_cycle(self, tmp_path, capsys, monkeypatch):
        fail_in_cycle_2(monkeypatch)
        cfg = tmp_path / "fails.cfg"
        cfg.write_text(SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite KL gradient norm at cycle 2, iteration 0, particle 0"]
        assert len(read_rows(tmp_path / "fails.csv")[1]) == 2
