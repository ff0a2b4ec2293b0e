"""Twin-experiment harness: truth generation, filtering, CSV emission.

A twin experiment generates a stochastic truth trajectory and synthetic
observations with the same model and statistics the filter uses (the
model's ``twin_window``), runs the chosen filter (MPF, SIR or EnKF) as one
``step(ssm, ensemble, y, t0, cycle) -> (Ensemble, CycleDiag)`` per cycle and
writes one CSV row per assimilation cycle.  Setup names no model either:
the model gives its start, initial ensemble, observation operator and
climatology.  ``build_setup`` is also where a config is checked: it applies
every rule on the config's values while it builds the run, so ``mpfilter
check`` and ``mpfilter run`` reject the same configs.  A
``core.FilterFailure`` raised in a cycle gains that cycle's number on its
way out, and the rows of the cycles before it stay in the CSV.  Identical
(config, seed) pairs give identical numerical output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mpfilter.baselines import ENKF_MIN_MEMBERS, SirConfig, enkf_cycle, sir_cycle
from mpfilter.config import (
    FILTERS,
    ConfigError,
    ExperimentConfig,
    build_model,
    check_section,
    default_cholera_params_path,  # noqa: F401  re-exported for the benchmark
    dump_config,
    parse_q_spec,
    resolve_mapping_config,
)
from mpfilter.core import Covariance, Ensemble, FilterFailure
from mpfilter.diagnostics import KDE_MAX_DIM, CycleDiag, score_cycle
from mpfilter.kernels import GaussianKernel
from mpfilter.mpf import MappingConfig, mapping_cycle
from mpfilter.rng import RandomStream
from mpfilter.ssm import StateSpaceModel

CSV_HEADER = (
    "cycle,time,rmse,spread,neff,kl_from_weights,weight_variance,"
    "map_iterations,grad_norm_initial,grad_norm_final,wallclock_ms"
)
TRACE_HEADER = "cycle,iteration,mean_grad_norm,neff"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(kw_only=True)
class CycleRecord(CycleDiag):
    """One cycle's row: the filter's ``CycleDiag`` plus the scores, and the
    truth, analysis mean and observations (noisy and noise-free)."""

    cycle: int
    time: float
    rmse: float
    spread: float
    wallclock_ms: float
    truth: np.ndarray = field(repr=False)
    analysis_mean: np.ndarray = field(repr=False)
    observation: np.ndarray = field(repr=False)
    true_observation: np.ndarray = field(repr=False)

    def csv_row(self) -> str:
        """The ``CSV_HEADER`` columns: integers as such, floats round-trip."""
        cells = [getattr(self, column) for column in CSV_HEADER.split(",")]
        return ",".join(str(c) if isinstance(c, int) else _fmt(c) for c in cells)


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[CycleRecord]
    q_diagonal: np.ndarray
    csv_path: Path | None = None
    trace_path: Path | None = None
    resolved_config_path: Path | None = None

    def time_mean_rmse(self, skip: int = 0) -> float:
        return float(np.mean([r.rmse for r in self.records[skip:]]))


def resolve_q_diagonal(cfg: ExperimentConfig, model) -> np.ndarray:
    """Model error variances from the q_spec string.

    ``climatological:frac`` sets each variance to ``frac`` times the
    climatological variance of that component, scaled by the assimilation
    window length (the fraction acts as an error growth rate per unit
    model time).  The resolved values are frozen into the config echo.  A
    kind ``model`` does not define, or a ``diag`` list that is neither one
    value nor one per state component, raises ConfigError.
    """
    kind, vals = parse_q_spec(cfg.q_spec)
    if kind not in model.q_kinds:
        raise ConfigError(f"q_spec {kind} is not defined for {cfg.model}; use diag:...")
    if kind == "diag":
        if len(vals) not in (1, model.n_x):
            raise ConfigError(f"q_spec diag needs 1 or {model.n_x} values, got {len(vals)}")
        return np.full(model.n_x, vals[0]) if len(vals) == 1 else np.asarray(vals)
    window = cfg.cycle_steps * cfg.dt
    return vals[0] * model.climatology() * window


@dataclass
class TwinSetup:
    """Everything a run needs: model, operators, initial states, streams."""

    model: object
    ssm: StateSpaceModel
    kernel: GaussianKernel
    mapping: MappingConfig
    sir: SirConfig
    truth0: np.ndarray
    ensemble0: Ensemble
    streams: RandomStream
    q_diagonal: np.ndarray


def build_setup(cfg: ExperimentConfig) -> TwinSetup:
    """Model, operators, streams and initial states of one run.

    A value ``cfg`` may not take raises ConfigError naming its key, before
    any integration: the constructors of the model, the ``MappingConfig``
    and the ``SirConfig`` check their own bounds, and the rules here cover
    the rest.  The model's start does not depend on the seed (the Lorenz
    presets read theirs from ``data/start_states.npz``); only the draws
    from the ``init`` stream do.
    """
    if cfg.filter not in FILTERS:
        raise ConfigError(f"unknown filter {cfg.filter!r}; choose from {FILTERS}")
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
    model = build_model(cfg)
    if cfg.obs_operator not in model.obs_operators:
        raise ConfigError(
            f"obs_operator {cfg.obs_operator!r} invalid for {cfg.model}; "
            f"choose from {tuple(model.obs_operators)}"
        )
    if cfg.mpf_criterion == "neff" and model.n_x > KDE_MAX_DIM:
        raise ConfigError(
            f"mpf.criterion = neff needs KDE weights, which are limited to "
            f"{KDE_MAX_DIM} state dimensions (got {model.n_x}); use grad_ratio or max_iter"
        )
    mapping = check_section("mpf", lambda: resolve_mapping_config(cfg, model.n_x))
    sir = check_section("sir", lambda: SirConfig(cfg.sir_resample_threshold))
    q_diag = resolve_q_diagonal(cfg, model)
    tiny = np.finfo(float).tiny  # below it a variance's inverse can overflow
    with np.errstate(over="ignore"):  # a bandwidth that overflows is inf
        bandwidth = cfg.kernel_alpha * q_diag
    for key, variances in (("r_variance", cfg.r_variance), ("q_spec", q_diag),
                           ("kernel.alpha times Q", bandwidth)):
        if not (np.min(variances) >= tiny and np.max(variances) < np.inf):
            raise ConfigError(f"{key} must be finite and >= {tiny:g}, the smallest normal float")
    q = Covariance.diagonal(q_diag)
    window = cfg.cycle_steps * cfg.dt
    h = model.observation_matrix(cfg.obs_operator, window)
    r = Covariance.isotropic(cfg.r_variance, h.shape[0])
    ssm = StateSpaceModel(dynamics=model, obs_matrix=h, q=q, r=r, cycle_steps=cfg.cycle_steps)
    kernel = GaussianKernel.from_model_error(q, cfg.kernel_alpha)
    streams = RandomStream(cfg.seed)
    truth0, states = model.initial_ensemble(
        model.start(cfg.spinup_steps), q, streams.substream("init"), cfg.n_particles)

    return TwinSetup(
        model=model,
        ssm=ssm,
        kernel=kernel,
        mapping=mapping,
        sir=sir,
        truth0=truth0,
        ensemble0=Ensemble.equal_weight(states),
        streams=streams,
        q_diagonal=q_diag,
    )


def resolved_config_text(cfg: ExperimentConfig, q_diag: np.ndarray) -> str:
    resolved = replace(
        cfg, q_spec="diag:" + ",".join(repr(float(v)) for v in q_diag)
    )
    return dump_config(resolved)


def _filter_step(cfg: ExperimentConfig, setup: TwinSetup, trace_file):
    """The configured filter as one cycle ``step(ssm, ensemble, y, t0,
    cycle) -> (Ensemble, CycleDiag)``: forecast from ``t0`` and analysis
    of ``y``.  The MPF step writes its per-iteration trace to
    ``trace_file``, when given."""
    particle_rngs = setup.streams.particle_streams(cfg.n_particles)
    resample_rng = setup.streams.substream("resampling")
    if cfg.filter == "sir":
        return lambda ssm, ens, y, t0, cycle: sir_cycle(
            ssm, ens, y, setup.sir, particle_rngs, resample_rng, t0)
    if cfg.filter == "enkf":
        return lambda ssm, ens, y, t0, cycle: enkf_cycle(
            ssm, ens, y, particle_rngs, resample_rng, t0)

    def mpf_step(ssm, ens, y, t0, cycle):
        centers, states = ssm.forecast(ens.states, particle_rngs, t0)
        sink = None
        if trace_file is not None:
            def sink(i, gnorm, n_eff):
                trace_file.write(f"{cycle},{i},{_fmt(gnorm)},{_fmt(n_eff)}\n")
        return mapping_cycle(ssm, centers, states, y, setup.kernel, setup.mapping,
                             diag_sink=sink)

    return mpf_step


def run_twin_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    name: str | None = None,
) -> RunResult:
    """Run one twin experiment end to end.

    When ``out_dir`` is given, and only then, the per-cycle CSV, the
    resolved-config echo and, when enabled, the per-iteration trace CSV
    are written there under ``name`` (default ``{model}-{filter}``);
    partial CSV output is flushed even when an error aborts the run.  A
    ``FilterFailure`` in a cycle is re-raised with its ``cycle`` set.
    """
    setup = build_setup(cfg)
    window = cfg.cycle_steps * cfg.dt
    name = name or f"{cfg.model}-{cfg.filter}"
    csv_path = trace_path = resolved_path = None
    csv_file = trace_file = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{name}.csv"
        resolved_path = out / f"{name}_resolved.cfg"
        resolved_path.write_text(
            resolved_config_text(cfg, setup.q_diagonal), encoding="utf-8"
        )
        csv_file = open(csv_path, "w", encoding="utf-8", newline="\n")
        csv_file.write(CSV_HEADER + "\n")
        if cfg.trace:
            trace_path = out / f"{name}_trace.csv"
            trace_file = open(trace_path, "w", encoding="utf-8", newline="\n")
            trace_file.write(TRACE_HEADER + "\n")

    truth = setup.truth0.copy()
    ensemble = setup.ensemble0
    truth_rng = setup.streams.substream("truth-noise")
    obs_rng = setup.streams.substream("obs-noise")
    step = _filter_step(cfg, setup, trace_file)
    records: list[CycleRecord] = []

    try:
        for cycle in range(cfg.cycles):
            t0 = cycle * window
            started = time.perf_counter()
            truth, true_obs, y, ssm = setup.model.twin_window(
                setup.ssm, truth, t0, truth_rng, obs_rng
            )
            ensemble, diag = step(ssm, ensemble, y, t0, cycle)
            rmse, spread = score_cycle(truth, ensemble)
            mean, _ = ensemble.mean_and_spread()
            record = CycleRecord(
                **vars(diag),
                cycle=cycle,
                time=(cycle + 1) * window,
                rmse=rmse,
                spread=spread,
                wallclock_ms=(time.perf_counter() - started) * 1e3,
                truth=truth,
                analysis_mean=mean,
                observation=y,
                true_observation=true_obs,
            )
            records.append(record)
            if csv_file is not None:
                csv_file.write(record.csv_row() + "\n")
    except FilterFailure as exc:
        exc.cycle = cycle
        raise
    finally:
        if csv_file is not None:
            csv_file.close()
        if trace_file is not None:
            trace_file.close()

    return RunResult(
        config=cfg,
        records=records,
        q_diagonal=setup.q_diagonal,
        csv_path=csv_path,
        trace_path=trace_path,
        resolved_config_path=resolved_path,
    )
