"""Experiment configuration: flat ``key = value`` files with dotted keys.

Lines are ``key = value``; ``#`` starts a comment; unknown keys are
rejected fail-fast with the nearest valid key named.  Presets shipped with
the package reproduce the standard experiments; ``-sir`` / ``-enkf``
suffixes give the baseline twins of any preset.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from mpfilter.baselines import ENKF_MIN_MEMBERS, SirConfig
from mpfilter.core import ContractViolation
from mpfilter.diagnostics import KDE_MAX_DIM
from mpfilter.models import CholeraModel, Lorenz63, Lorenz96, load_cholera_params
from mpfilter.mpf import MappingConfig

MODELS = ("lorenz63", "lorenz96", "cholera")
FILTERS = ("mpf", "sir", "enkf")
OBS_OPERATORS = {
    "lorenz63": ("full", "xonly", "zonly"),
    "lorenz96": ("full", "every2"),
    "cholera": ("mortality",),
}
CRITERIA = ("auto", "neff", "grad_ratio", "max_iter")


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


# key -> (type tag, default); None default means "required" or model-dependent
_SCHEMA: dict[str, tuple[str, object]] = {
    "model": ("str", None),
    "filter": ("str", "mpf"),
    "seed": ("int", None),
    "n_particles": ("int", 20),
    "cycles": ("int", 100),
    "cycle_steps": ("int", None),
    "dt": ("float", None),
    "obs_operator": ("str", None),
    "r_variance": ("float", 0.5),
    "q_spec": ("str", None),
    "spinup_steps": ("int", 20000),
    "output": ("str", ""),
    "trace": ("bool", False),
    "kernel.alpha": ("float", 1.0),
    "mpf.optimizer": ("str", "adadelta"),
    "mpf.learning_rate": ("float", 0.03),
    "mpf.max_iterations": ("int", 50),
    "mpf.criterion": ("str", "auto"),
    "mpf.neff_threshold": ("float", 0.9),
    "mpf.grad_ratio_threshold": ("float", 0.07),
    "mpf.adadelta_rho": ("float", 0.95),
    "mpf.adam_beta1": ("float", 0.9),
    "mpf.adam_beta2": ("float", 0.999),
    "mpf.carry_weights": ("bool", False),
    "sir.resample_threshold": ("float", 0.5),
    "sir.resampler": ("str", "systematic"),
    "lorenz96.n_vars": ("int", 40),
    "lorenz96.forcing": ("float", 8.0),
    "cholera.params": ("str", ""),
}

_MODEL_DEFAULTS: dict[str, dict[str, object]] = {
    "lorenz63": {
        "cycle_steps": 10,
        "dt": 0.001,
        "obs_operator": "full",
        "q_spec": "climatological:0.3",
    },
    "lorenz96": {
        "cycle_steps": 50,
        "dt": 0.001,
        "obs_operator": "full",
        "q_spec": "diag:0.3",
    },
    "cholera": {
        "cycle_steps": 20,
        "dt": 0.05,
        "obs_operator": "mortality",
        "q_spec": "diag:4e-4,4e-4,4e-4,4e-4,4e-4,1.0",
    },
}


@dataclass
class ExperimentConfig:
    model: str
    filter: str
    seed: int
    n_particles: int
    cycles: int
    cycle_steps: int
    dt: float
    obs_operator: str
    r_variance: float
    q_spec: str
    spinup_steps: int
    output: str
    trace: bool
    kernel_alpha: float
    mpf_optimizer: str
    mpf_learning_rate: float
    mpf_max_iterations: int
    mpf_criterion: str
    mpf_neff_threshold: float
    mpf_grad_ratio_threshold: float
    mpf_adadelta_rho: float
    mpf_adam_beta1: float
    mpf_adam_beta2: float
    mpf_carry_weights: bool
    sir_resample_threshold: float
    sir_resampler: str
    lorenz96_n_vars: int
    lorenz96_forcing: float
    cholera_params: str


def _field_name(key: str) -> str:
    return key.replace(".", "_")


def _coerce(key: str, raw: str, line_no: int):
    kind = _SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: value {raw!r} for key {key!r} is not a valid {kind}"
        ) from None


def _nearest_key_hint(key: str) -> str:
    """Suggestion text for an unknown key, matching dotted keys by their
    tail as well as in full (so ``alpha_bandwith`` points at
    ``kernel.alpha``)."""
    candidates: dict[str, str] = {k: k for k in _SCHEMA}
    for full in _SCHEMA:
        tail = full.rpartition(".")[2]
        candidates.setdefault(tail, full)
    close = difflib.get_close_matches(key, candidates.keys(), n=1, cutoff=0.5)
    if not close:
        return ""
    return f"; did you mean {candidates[close[0]]!r}?"


def parse_flat(text: str) -> dict[str, tuple[str, int]]:
    """Raw ``key -> (value, line number)`` mapping; syntax errors raise."""
    out: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = (value, line_no)
    return out


def loads(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse and validate; a relative cholera.params is read from base_dir."""
    raw = parse_flat(text)
    values: dict[str, object] = {}
    for key, (value, line_no) in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(
                f"line {line_no}: unknown key {key!r}{_nearest_key_hint(key)}"
            )
        values[key] = _coerce(key, value, line_no)

    if "model" not in values:
        raise ConfigError("missing required key 'model'")
    model = values["model"]
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {MODELS}")

    merged: dict[str, object] = {}
    model_defaults = _MODEL_DEFAULTS[model]
    for key, (_, default) in _SCHEMA.items():
        if key in values:
            merged[_field_name(key)] = values[key]
        elif key in model_defaults:
            merged[_field_name(key)] = model_defaults[key]
        elif default is not None:
            merged[_field_name(key)] = default
        else:
            raise ConfigError(f"missing required key {key!r}")

    cfg = ExperimentConfig(**merged)
    if base_dir is not None and cfg.cholera_params and not Path(
            cfg.cholera_params).is_absolute():
        cfg.cholera_params = str((base_dir / cfg.cholera_params).resolve())
    validate(cfg)
    return cfg


def _check_section(section: str, build) -> None:
    """Run a constructor that checks its own bounds; its ContractViolation
    opens with the field name, so ``section.`` makes that the config key."""
    try:
        build()
    except ContractViolation as exc:
        raise ConfigError(f"{section}.{exc}") from None


def validate(cfg: ExperimentConfig) -> None:
    """Every rule ``run`` would apply to ``cfg`` before its first cycle."""
    if cfg.filter not in FILTERS:
        raise ConfigError(f"unknown filter {cfg.filter!r}; choose from {FILTERS}")
    if cfg.obs_operator not in OBS_OPERATORS[cfg.model]:
        raise ConfigError(
            f"obs_operator {cfg.obs_operator!r} invalid for {cfg.model}; "
            f"choose from {OBS_OPERATORS[cfg.model]}"
        )
    if cfg.mpf_criterion not in CRITERIA:
        raise ConfigError(f"unknown mpf.criterion {cfg.mpf_criterion!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.n_particles < 1:
        raise ConfigError("n_particles must be >= 1")
    if cfg.filter == "enkf" and cfg.n_particles < ENKF_MIN_MEMBERS:
        raise ConfigError(f"n_particles must be >= {ENKF_MIN_MEMBERS} for filter = enkf")
    if cfg.cycles < 0:
        raise ConfigError("cycles must be >= 0")
    if cfg.cycle_steps < 1 or cfg.spinup_steps < 1:
        raise ConfigError("cycle_steps and spinup_steps must be >= 1")
    if cfg.dt <= 0.0 or cfg.r_variance <= 0.0 or cfg.kernel_alpha <= 0.0:
        raise ConfigError("dt, r_variance and kernel.alpha must be > 0")
    if not 0.0 < cfg.mpf_neff_threshold <= 1.0:
        raise ConfigError("mpf.neff_threshold is a fraction of N_p in (0, 1]")
    if cfg.model == "lorenz96":
        _check_section("lorenz96", lambda: Lorenz96(
            n_vars=cfg.lorenz96_n_vars, forcing=cfg.lorenz96_forcing, dt=cfg.dt))
    if cfg.model == "cholera":
        path = cfg.cholera_params or default_cholera_params_path()
        try:
            params = load_cholera_params(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cholera.params {path}: {exc}") from None
        if abs(params.dt - cfg.dt) > 1e-15:
            raise ConfigError("dt must match the cholera parameter file (1/20 month)")
    n_x = {"lorenz63": Lorenz63.n_x, "cholera": CholeraModel.n_x}.get(
        cfg.model, cfg.lorenz96_n_vars)
    if cfg.mpf_criterion == "neff" and n_x > KDE_MAX_DIM:
        raise ConfigError(
            f"mpf.criterion = neff needs KDE weights, which are limited to "
            f"{KDE_MAX_DIM} state dimensions (got {n_x}); use grad_ratio or max_iter"
        )
    _check_section("mpf", lambda: resolve_mapping_config(cfg, n_x))
    _check_section("sir", lambda: SirConfig(cfg.sir_resample_threshold, cfg.sir_resampler))
    kind, vals = parse_q_spec(cfg.q_spec)
    if kind == "climatological" and cfg.model == "cholera":
        raise ConfigError("q_spec climatological is not defined for cholera; use diag:...")
    if kind == "diag" and len(vals) not in (1, n_x):
        raise ConfigError(f"q_spec diag needs 1 or {n_x} values, got {len(vals)}")


def default_cholera_params_path() -> str:
    return str(resources.files("mpfilter") / "data" / "cholera-default.cfg")


def resolve_mapping_config(cfg: ExperimentConfig, n_x: int) -> MappingConfig:
    criterion = cfg.mpf_criterion
    if criterion == "auto":
        criterion = "neff" if n_x <= 3 else "grad_ratio"
    return MappingConfig(
        optimizer=cfg.mpf_optimizer,
        learning_rate=cfg.mpf_learning_rate,
        max_iterations=cfg.mpf_max_iterations,
        criterion=criterion,
        neff_threshold=cfg.mpf_neff_threshold * cfg.n_particles,
        grad_ratio_threshold=cfg.mpf_grad_ratio_threshold,
        adadelta_rho=cfg.mpf_adadelta_rho,
        adam_beta1=cfg.mpf_adam_beta1,
        adam_beta2=cfg.mpf_adam_beta2,
    )


def parse_q_spec(spec: str) -> tuple[str, list[float]]:
    """Parse ``diag:v[,v...]`` or ``climatological:fraction``."""
    kind, _, rest = spec.partition(":")
    if kind not in ("diag", "climatological") or not rest:
        raise ConfigError(f"bad q_spec {spec!r}; use diag:... or climatological:frac")
    try:
        vals = [float(v) for v in rest.split(",")]
    except ValueError:
        raise ConfigError(f"bad q_spec values in {spec!r}") from None
    if not all(math.isfinite(v) and v > 0.0 for v in vals):
        raise ConfigError("q_spec values must be finite and > 0")
    if kind == "climatological" and len(vals) != 1:
        raise ConfigError("climatological q_spec takes a single fraction")
    return kind, vals


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return loads(text, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical flat-text rendering; re-loading it yields an equal config."""
    lines = []
    for key in _SCHEMA:
        value = getattr(cfg, _field_name(key))
        if isinstance(value, bool):
            value = "true" if value else "false"
        if value == "" or value is None:
            continue
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _preset_dir():
    return resources.files("mpfilter") / "presets"


def preset_names() -> list[str]:
    base = sorted(p.name[: -len(".cfg")] for p in _preset_dir().iterdir()
                  if p.name.endswith(".cfg"))
    out = []
    for name in base:
        out.extend([name, f"{name}-sir", f"{name}-enkf"])
    return out


def load_preset(name: str) -> ExperimentConfig:
    override = None
    base = name
    for suffix, filt in (("-sir", "sir"), ("-enkf", "enkf")):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            override = filt
    path = _preset_dir() / f"{base}.cfg"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, FileNotFoundError):
        close = difflib.get_close_matches(name, preset_names(), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"unknown preset {name!r}{hint}") from None
    cfg = loads(text)
    if override is not None:
        cfg.filter = override
        validate(cfg)
    return cfg
