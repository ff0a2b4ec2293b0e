"""Config parsing, presets and the canonical dump round-trip.  The rules on
the values are applied by ``build_setup``; ``test_cli.py`` tests each one
through ``mpfilter check`` and ``mpfilter run``."""

from dataclasses import fields

import pytest

from mpfilter.config import (
    _MODEL_DEFAULTS,
    MODELS,
    ConfigError,
    dump_config,
    load_config,
    load_preset,
    loads,
    parse_flat,
    parse_q_spec,
    preset_names,
)
from mpfilter.experiment import build_setup

MINIMAL = "model = lorenz63\nseed = 1\n"


class TestParseFlat:
    def test_comments_and_blanks(self):
        raw = parse_flat("# top\n\nmodel = lorenz63  # inline\nseed = 1\n")
        assert raw["model"] == ("lorenz63", 3)
        assert raw["seed"] == ("1", 4)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_flat("model lorenz63\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError):
            parse_flat("model =\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat("seed = 1\nseed = 2\n")


class TestLoads:
    def test_minimal_defaults(self):
        cfg = loads(MINIMAL)
        assert cfg.filter == "mpf"
        assert cfg.n_particles == 20
        assert cfg.cycles == 100
        assert cfg.cycle_steps == 10
        assert cfg.dt == 0.001
        assert cfg.obs_operator == "full"
        assert cfg.r_variance == 0.5
        assert cfg.q_spec == "climatological:0.3"
        assert cfg.mpf_optimizer == "adadelta"
        assert cfg.mpf_learning_rate == 0.03
        assert cfg.mpf_max_iterations == 50
        assert cfg.kernel_alpha == 1.0

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="seed"):
            loads("model = lorenz63\n")
        with pytest.raises(ConfigError, match="model"):
            loads("seed = 1\n")

    def test_unknown_key_with_hint(self):
        with pytest.raises(ConfigError, match="kernel.alpha"):
            loads(MINIMAL + "alpha_bandwith = 2\n")
        # a key the program no longer reads is unknown too
        with pytest.raises(ConfigError, match="unknown key 'mpf.carry_weights'"):
            loads(MINIMAL + "mpf.carry_weights = true\n")

    @pytest.mark.parametrize("key", ["mpf.carry_weights", "mpf.adadelta_rho", "mpf.adam_beta1",
                                     "mpf.adam_beta2", "sir.resampler", "output"])
    def test_removed_key_named_as_removed(self, key):
        # a key the program read once is rejected as removed, with no hint
        # toward a key of another meaning
        with pytest.raises(ConfigError) as err:
            loads(MINIMAL + f"{key} = 0.9\n")
        assert str(err.value).endswith(f"unknown key {key!r}: the key was removed")
        assert "did you mean" not in str(err.value)

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="not a valid int"):
            loads("model = lorenz63\nseed = soon\n")

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            loads("model = lorenz42\nseed = 1\n")

    def test_bool_values(self):
        assert loads(MINIMAL + "trace = yes\n").trace is True
        assert loads(MINIMAL + "trace = false\n").trace is False
        with pytest.raises(ConfigError):
            loads(MINIMAL + "trace = maybe\n")


class TestQSpec:
    def test_diag(self):
        assert parse_q_spec("diag:0.3") == ("diag", [0.3])
        assert parse_q_spec("diag:1e-6,2e-6") == ("diag", [1e-6, 2e-6])

    def test_climatological(self):
        assert parse_q_spec("climatological:0.3") == ("climatological", [0.3])
        with pytest.raises(ConfigError):
            parse_q_spec("climatological:0.3,0.4")

    def test_rejects_garbage(self):
        for bad in ("diag", "foo:1", "diag:zero", "diag:-1"):
            with pytest.raises(ConfigError):
                parse_q_spec(bad)


class TestPresets:
    def test_all_presets_load(self):
        # building the setup applies every rule run applies to the preset
        for name in preset_names():
            cfg = load_preset(name)
            assert cfg.model in ("lorenz63", "lorenz96", "cholera")
            build_setup(cfg)

    def test_lorenz96_preset_documented_values(self):
        cfg = load_preset("lorenz96-full-20p")
        assert cfg.lorenz96_n_vars == 40
        assert cfg.lorenz96_forcing == 8.0
        assert cfg.cycle_steps * cfg.dt == pytest.approx(0.05)
        assert cfg.r_variance == 0.5
        assert cfg.q_spec == "diag:0.3"
        assert cfg.kernel_alpha == 20.0

    def test_suffix_twins(self):
        assert load_preset("lorenz63-full-20p").filter == "mpf"
        assert load_preset("lorenz63-full-20p-sir").filter == "sir"
        assert load_preset("lorenz63-full-20p-enkf").filter == "enkf"

    def test_unknown_preset_hint(self):
        with pytest.raises(ConfigError, match="did you mean"):
            load_preset("lorenz63-ful-20p")


class TestRoundTrip:
    def test_dump_reloads_identically(self):
        cfg = load_preset("lorenz63-full-20p")
        assert loads(dump_config(cfg)) == cfg

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + "n_particles = 7\n")
        cfg = load_config(path)
        assert cfg.n_particles == 7

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_relative_cholera_params_resolved(self, tmp_path):
        params = tmp_path / "params.cfg"
        params.write_text("gamma = 1\nr = 1\nk = 1\nm = 0\nm_c = 0\n"
                          "eps = 0\ntau = 0\n")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("model = cholera\nseed = 1\n"
                            "cholera.params = params.cfg\n")
        cfg = load_config(cfg_file)
        assert cfg.cholera_params == str(params.resolve())


class TestDerivedSchema:
    # every key, each set away from its default (and from the Lorenz-63
    # model defaults of MINIMAL)
    EVERY_KEY = """
model = lorenz96
filter = sir
seed = 7
n_particles = 11
cycles = 3
cycle_steps = 4
dt = 0.002
obs_operator = every2
r_variance = 0.25
q_spec = diag:0.1
spinup_steps = 30
trace = true
kernel.alpha = 2.5
mpf.optimizer = adam
mpf.learning_rate = 0.01
mpf.max_iterations = 7
mpf.criterion = max_iter
mpf.neff_threshold = 0.5
mpf.grad_ratio_threshold = 0.2
sir.resample_threshold = 0.3
lorenz96.n_vars = 12
lorenz96.forcing = 6.5
cholera.params = params.cfg
"""

    def test_every_key_round_trips(self):
        cfg = loads(self.EVERY_KEY)
        default = loads(MINIMAL)
        for f in fields(cfg):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        text = dump_config(cfg)
        assert text.split() == self.EVERY_KEY.split()
        assert loads(text) == cfg

    def test_model_defaults_are_config_keys(self):
        for model, defaults in _MODEL_DEFAULTS.items():
            base = f"model = {model}\nseed = 1\n"
            for key, value in defaults.items():
                assert loads(base + f"{key} = {value}\n") == loads(base), key

    def test_every_model_loads_from_defaults(self):
        for model in MODELS:
            cfg = loads(f"model = {model}\nseed = 1\n")
            assert cfg.model == model
            build_setup(cfg)
