"""CLI and twin-experiment harness tests: CSV schema, determinism, the
resolved-config echo and the command surface."""

import numpy as np
import pytest

from mpfilter.cli import main
from mpfilter.config import load_preset, loads
from mpfilter.experiment import (
    CSV_HEADER,
    build_model,
    observation_matrix,
    resolve_mapping_config,
    resolve_q_diagonal,
    run_twin_experiment,
)

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
        from mpfilter.config import ConfigError
        cfg = loads(SMALL.replace("diag:0.2", "diag:0.2,0.3"))
        with pytest.raises(ConfigError):
            resolve_q_diagonal(cfg, build_model(cfg))

    def test_climatological_scaled_by_window(self):
        cfg = loads("model = lorenz63\nseed = 1\n")
        q = resolve_q_diagonal(cfg, build_model(cfg))
        # 30% of O(60-80) climatological variances over a 0.01 window
        assert q.shape == (3,)
        assert np.all(q > 0.05) and np.all(q < 0.5)

    def test_climatological_rejected_for_cholera(self):
        from mpfilter.config import ConfigError
        cfg = loads("model = cholera\nseed = 1\nq_spec = climatological:0.3\n")
        with pytest.raises(ConfigError):
            resolve_q_diagonal(cfg, build_model(cfg))


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

    def test_run_unknown_preset(self, capsys):
        assert main(["run", "--preset", "does-not-exist"]) == 1
        assert "unknown preset" in capsys.readouterr().err
