"""CLI and twin-experiment harness tests: CSV schema, determinism, the
resolved-config echo and the command surface."""

import warnings

import numpy as np
import pytest

import mpfilter.experiment as experiment
from mpfilter.cli import main
from mpfilter.config import ConfigError, default_cholera_params_path, load_preset, loads
from mpfilter.experiment import (
    CSV_HEADER,
    build_model,
    climatology_key,
    observation_matrix,
    resolve_mapping_config,
    resolve_q_diagonal,
    run_twin_experiment,
    shipped_climatology,
)
from mpfilter.models import Lorenz63, climatological_variance

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
        assert observation_matrix(cfg, model).shape == (3, 3)
        cfg.obs_operator = "xonly"
        np.testing.assert_array_equal(observation_matrix(cfg, model),
                                      [[1.0, 0.0, 0.0]])
        cfg.obs_operator = "zonly"
        np.testing.assert_array_equal(observation_matrix(cfg, model),
                                      [[0.0, 0.0, 1.0]])

    def test_every2_lorenz96(self):
        cfg = loads("model = lorenz96\nseed = 1\nobs_operator = every2\n")
        h = observation_matrix(cfg, build_model(cfg))
        assert h.shape == (20, 40)
        assert np.all(h[np.arange(20), np.arange(0, 40, 2)] == 1.0)

    def test_mortality_operator(self):
        cfg = loads("model = cholera\nseed = 1\n")
        model = build_model(cfg)
        h = observation_matrix(cfg, model)
        window = cfg.cycle_steps * cfg.dt
        assert h.shape == (1, 6)
        assert h[0, 1] == pytest.approx(model.params.m_c * window)


class TestQResolution:
    def test_diag_broadcast(self):
        cfg = loads(SMALL)
        np.testing.assert_allclose(resolve_q_diagonal(cfg, build_model(cfg)),
                                   [0.2, 0.2, 0.2])

    def test_diag_wrong_length(self):
        # rejected when the config is read, before any run needs Q
        with pytest.raises(ConfigError, match="q_spec diag needs 1 or 3 values"):
            loads(SMALL.replace("diag:0.2", "diag:0.2,0.3"))

    def test_climatological_scaled_by_window(self):
        cfg = loads("model = lorenz63\nseed = 1\n")
        q = resolve_q_diagonal(cfg, build_model(cfg))
        # 30% of O(60-80) climatological variances over a 0.01 window
        assert q.shape == (3,)
        assert np.all(q > 0.05) and np.all(q < 0.5)

    def test_climatological_rejected_for_cholera(self):
        # rejected when the config is read, before any run needs Q
        with pytest.raises(ConfigError, match="q_spec climatological"):
            loads("model = cholera\nseed = 1\nq_spec = climatological:0.3\n")


class TestClimatologyTable:
    def test_shipped_entry_matches_recomputation(self):
        # Guards data/climatology.cfg: on a mismatch the message is the
        # recomputed line, ready to paste into the table.
        model = Lorenz63()
        recomputed = climatological_variance(model)
        line = (f"{climatology_key(model)} = "
                + ", ".join(repr(float(v)) for v in recomputed))
        assert np.array_equal(shipped_climatology(model), recomputed), line

    @pytest.fixture
    def counted_climatology(self, monkeypatch):
        calls = []

        def stub(model):
            calls.append(model)
            return np.ones(model.n_x)

        monkeypatch.setattr(experiment, "climatological_variance", stub)
        return calls

    def test_table_miss_integrates_once(self, counted_climatology):
        cfg = loads("model = lorenz63\nseed = 1\ndt = 0.002\n")
        model = build_model(cfg)
        assert shipped_climatology(model) is None
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
        assert np.array_equal(resolve_q_diagonal(cfg, model),
                              0.3 * shipped_climatology(model) * window)
        assert counted_climatology == []


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
        base = SMALL + "output = x\n"
        obs = {}
        for filt in ("mpf", "sir", "enkf"):
            cfg = loads(base)
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

    def test_carry_weights(self):
        # the mapping's report weights become the next cycle's mixture
        # weights: cycle 0 starts from equal weights either way
        cfg = loads(SMALL.replace("cycles = 4", "cycles = 2"))
        off = [r.rmse for r in run_twin_experiment(cfg).records]
        cfg.mpf_carry_weights = True
        on = [r.rmse for r in run_twin_experiment(cfg).records]
        assert on == [r.rmse for r in run_twin_experiment(cfg).records]
        assert on[0] == off[0]
        assert on[1] != off[1]

    def test_neff_column_bounded(self):
        cfg = loads(SMALL)
        res = run_twin_experiment(cfg)
        for r in res.records:
            assert 1.0 <= r.neff <= cfg.n_particles + 1e-9


class TestCliCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.split()
        assert "lorenz63-full-100p" in out
        assert "lorenz96-full-20p-enkf" in out

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
        # mixture density underflows for every particle, so the weight
        # report after iteration 17 of cycle 0 has no finite log weight
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("model = lorenz63\nseed = 1\nn_particles = 5\n"
                       "cycles = 5\nspinup_steps = 200\nq_spec = diag:0.3\n"
                       "mpf.optimizer = sgd\nmpf.learning_rate = 1e9\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "cycle 0" in err[0]
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

    @pytest.mark.parametrize("text,key", [
        pytest.param(SMALL + "mpf.optimizer = foo\n", "mpf.optimizer", id="optimizer"),
        pytest.param(SMALL + "mpf.learning_rate = -1\n", "mpf.learning_rate", id="lr"),
        pytest.param(SMALL + "mpf.max_iterations = 0\n", "mpf.max_iterations",
                     id="max_iterations"),
        pytest.param(SMALL + "mpf.grad_ratio_threshold = 2\n",
                     "mpf.grad_ratio_threshold", id="grad_ratio"),
        pytest.param(SMALL + "sir.resampler = foo\n", "sir.resampler", id="resampler"),
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
    ])
    def test_check_rejects_what_run_rejects(self, tmp_path, capsys, text, key):
        # every config run would refuse is refused by check first, and run
        # refuses it with one line, not a traceback
        with open(default_cholera_params_path(), encoding="utf-8") as f:
            (tmp_path / "params.cfg").write_text(f.read() + "foo = 1\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid: ") and key in err[0]
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    def test_run_unknown_preset(self, capsys):
        assert main(["run", "--preset", "does-not-exist"]) == 1
        assert "unknown preset" in capsys.readouterr().err
