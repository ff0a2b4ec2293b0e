"""Experiment configuration: flat ``key = value`` files with dotted keys.

The keys are the fields of ``ExperimentConfig``; a field whose name opens
with one of ``SECTIONS`` is written ``section.name`` (``mpf_learning_rate``
is ``mpf.learning_rate``).  A field's annotation is the type its value is
parsed as and its default is the config default; a field without one is
required unless ``_MODEL_DEFAULTS`` gives the model's value.  Lines are
``key = value``; ``#`` starts a comment; unknown keys are rejected
fail-fast with the nearest valid key named, or, for a key the program
no longer reads, as removed.  Presets shipped with the
package reproduce the standard experiments; ``-sir`` / ``-enkf`` suffixes
give the baseline twins of any preset.

Loading a config only parses it.  The rules on the values (bounds, the
filter, the obs operator and q_spec a model accepts) are applied by
``experiment.build_setup``, which builds the run from them, so a config is
checked by building it.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from mpfilter import mpf
from mpfilter.core import ContractViolation
from mpfilter.models import CholeraModel, Lorenz63, Lorenz96, load_cholera_params

SECTIONS = ("kernel", "mpf", "sir", "lorenz96", "cholera")
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
MODELS = tuple(_MODEL_DEFAULTS)
# keys the program read once: a config that still sets one is told so
_REMOVED_KEYS = ("mpf.carry_weights", "mpf.adadelta_rho", "mpf.adam_beta1",
                 "mpf.adam_beta2", "sir.resampler", "output")
FILTERS = ("mpf", "sir", "enkf")  # FILTERS[1:], the baselines, name the preset twins


class ConfigError(ValueError):
    """A config that could not be parsed, or that breaks a rule of its run."""


@dataclass(kw_only=True)
class ExperimentConfig:
    model: str
    filter: str = "mpf"
    seed: int
    n_particles: int = 20
    cycles: int = 100
    cycle_steps: int
    dt: float
    obs_operator: str
    r_variance: float = 0.5
    q_spec: str
    spinup_steps: int = 20000
    trace: bool = False
    kernel_alpha: float = 1.0
    mpf_optimizer: str = "adadelta"
    mpf_learning_rate: float = 0.03
    mpf_max_iterations: int = 50
    mpf_criterion: str = "auto"
    mpf_neff_threshold: float = 0.9
    mpf_grad_ratio_threshold: float = 0.07
    sir_resample_threshold: float = 0.5
    lorenz96_n_vars: int = 40
    lorenz96_forcing: float = 8.0
    cholera_params: str = ""


def _key(name: str) -> str:
    section, _, rest = name.partition("_")
    return f"{section}.{rest}" if section in SECTIONS else name


# config key -> ExperimentConfig field, in field order
_FIELDS = {_key(f.name): f for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str, line_no: int):
    kind = _FIELDS[key].type  # the annotation as written: int, float, bool or str
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
    candidates: dict[str, str] = {k: k for k in _FIELDS}
    for full in _FIELDS:
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
    """Parse: key syntax, types, defaults and the model name; a relative
    cholera.params is read from base_dir."""
    raw = parse_flat(text)
    values: dict[str, object] = {}
    for key, (value, line_no) in raw.items():
        if key in _REMOVED_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}: the key was removed")
        if key not in _FIELDS:
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
    for key, f in _FIELDS.items():
        if key in values:
            merged[f.name] = values[key]
        elif key in model_defaults:
            merged[f.name] = model_defaults[key]
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {key!r}")

    cfg = ExperimentConfig(**merged)
    if base_dir is not None and cfg.cholera_params and not Path(
            cfg.cholera_params).is_absolute():
        cfg.cholera_params = str((base_dir / cfg.cholera_params).resolve())
    return cfg


def check_section(section: str, build):
    """Run a constructor that checks its own bounds; its ContractViolation
    opens with the field name, so ``section.`` makes that the config key."""
    try:
        return build()
    except ContractViolation as exc:
        raise ConfigError(f"{section}.{exc}") from None


def build_model(cfg: ExperimentConfig):
    """The model ``cfg`` runs; a Lorenz-96 bound, an unreadable cholera
    parameter file or a ``dt`` that file does not share raises ConfigError."""
    if cfg.model == "lorenz63":
        return Lorenz63(dt=cfg.dt)
    if cfg.model == "lorenz96":
        return check_section("lorenz96", lambda: Lorenz96(
            n_vars=cfg.lorenz96_n_vars, forcing=cfg.lorenz96_forcing, dt=cfg.dt))
    path = cfg.cholera_params or default_cholera_params_path()
    try:
        params = load_cholera_params(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cholera.params {path}: {exc}") from None
    if abs(params.dt - cfg.dt) > 1e-15:
        raise ConfigError("dt must match the cholera parameter file (1/20 month)")
    return CholeraModel(params)


def default_cholera_params_path() -> str:
    return str(resources.files("mpfilter") / "data" / "cholera-default.cfg")


def resolve_mapping_config(cfg: ExperimentConfig, n_x: int) -> mpf.MappingConfig:
    criterion = cfg.mpf_criterion
    if criterion == "auto":
        criterion = "neff" if n_x <= 3 else "grad_ratio"
    return mpf.MappingConfig(
        optimizer=cfg.mpf_optimizer,
        learning_rate=cfg.mpf_learning_rate,
        max_iterations=cfg.mpf_max_iterations,
        criterion=criterion,
        neff_threshold=cfg.mpf_neff_threshold * cfg.n_particles,
        grad_ratio_threshold=cfg.mpf_grad_ratio_threshold,
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
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
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
        out.extend([name] + [f"{name}-{filt}" for filt in FILTERS[1:]])
    return out


def load_preset(name: str) -> ExperimentConfig:
    base, override = name, None
    for filt in FILTERS[1:]:
        if name.endswith(f"-{filt}"):
            base, override = name[: -len(filt) - 1], filt
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
    return cfg
