"""Twin-experiment harness: truth generation, filtering, CSV emission.

A twin experiment generates a stochastic truth trajectory and synthetic
observations with the same model and statistics the filter uses, runs the
chosen filter (MPF, SIR or EnKF) and writes one CSV row per assimilation
cycle.  Identical (config, seed) pairs give identical numerical output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from mpfilter.baselines import SirConfig, enkf_cycle, sir_cycle
from mpfilter.config import (
    ConfigError,
    ExperimentConfig,
    default_cholera_params_path,
    dump_config,
    parse_flat,
    parse_q_spec,
    resolve_mapping_config,
)
from mpfilter.core import Covariance, Ensemble
from mpfilter.diagnostics import score_cycle, weight_variance
from mpfilter.kernels import GaussianKernel
from mpfilter.models import (
    CholeraModel,
    Lorenz63,
    Lorenz96,
    advance_window,
    cholera_observe,
    climatological_variance,
    free_run,
    load_cholera_params,
)
from mpfilter.mpf import MappingConfig, mapping_cycle
from mpfilter.rng import RandomStream
from mpfilter.ssm import PriorMixture, StateSpaceModel

CSV_HEADER = (
    "cycle,time,rmse,spread,neff,kl_from_weights,weight_variance,"
    "map_iterations,grad_norm_initial,grad_norm_final,wallclock_ms"
)
TRACE_HEADER = "cycle,iteration,mean_grad_norm,neff"
R_VARIANCE_FLOOR = 1e-8


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class CycleRecord:
    cycle: int
    time: float
    rmse: float
    spread: float
    neff: float
    kl_from_weights: float
    weight_variance: float
    map_iterations: int
    grad_norm_initial: float
    grad_norm_final: float
    wallclock_ms: float
    truth: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    analysis_mean: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    observation: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    extras: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        """The ``CSV_HEADER`` columns: integers as such, floats round-trip."""
        cells = [getattr(self, column) for column in CSV_HEADER.split(",")]
        return ",".join(str(c) if isinstance(c, int) else _fmt(c) for c in cells)


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[CycleRecord]
    final_ensemble: Ensemble
    q_diagonal: np.ndarray
    csv_path: Path | None = None
    trace_path: Path | None = None
    resolved_config_path: Path | None = None

    def time_mean_rmse(self, skip: int = 0) -> float:
        return float(np.mean([r.rmse for r in self.records[skip:]]))


def build_model(cfg: ExperimentConfig):
    if cfg.model == "lorenz63":
        return Lorenz63(dt=cfg.dt)
    if cfg.model == "lorenz96":
        return Lorenz96(n_vars=cfg.lorenz96_n_vars, forcing=cfg.lorenz96_forcing, dt=cfg.dt)
    return CholeraModel(load_cholera_params(cfg.cholera_params or default_cholera_params_path()))


def climatology_key(model) -> str:
    """Key of an ODE model in the shipped climatology table: its name and
    every dataclass field as ``field:repr(value)``."""
    return " ".join(
        [model.name] + [f"{f.name}:{getattr(model, f.name)!r}" for f in fields(model)]
    )


def shipped_climatology(model) -> np.ndarray | None:
    """The model's climatological variance from ``data/climatology.cfg``,
    or None when the table has no entry for it."""
    text = (resources.files("mpfilter") / "data" / "climatology.cfg").read_text(
        encoding="utf-8"
    )
    entry = parse_flat(text).get(climatology_key(model))
    if entry is None:
        return None
    return np.array([float(v) for v in entry[0].split(",")])


def observation_matrix(cfg: ExperimentConfig, model) -> np.ndarray:
    n_x = model.n_x
    window = cfg.cycle_steps * cfg.dt
    if cfg.obs_operator == "full":
        return np.eye(n_x)
    if cfg.obs_operator == "xonly":
        return np.eye(n_x)[:1]
    if cfg.obs_operator == "zonly":
        return np.eye(n_x)[2:3]
    if cfg.obs_operator == "every2":
        return np.eye(n_x)[::2]
    if cfg.obs_operator == "mortality":
        h = np.zeros((1, n_x))
        h[0, 1] = model.params.m_c * window  # mortality rate of the infected pool
        return h
    raise ConfigError(f"unknown obs_operator {cfg.obs_operator!r}")


def resolve_q_diagonal(cfg: ExperimentConfig, model) -> np.ndarray:
    """Model error variances from the q_spec string.

    ``climatological:frac`` sets each variance to ``frac`` times the
    climatological variance of that component, scaled by the assimilation
    window length (the fraction acts as an error growth rate per unit
    model time).  The resolved values are frozen into the config echo.
    """
    kind, vals = parse_q_spec(cfg.q_spec)
    if kind == "diag":
        return np.full(model.n_x, vals[0]) if len(vals) == 1 else np.asarray(vals)
    climatology = shipped_climatology(model)
    if climatology is None:
        climatology = climatological_variance(model)
    window = cfg.cycle_steps * cfg.dt
    return vals[0] * climatology * window


@dataclass
class TwinSetup:
    """Everything a run needs: model, operators, initial states, streams."""

    model: object
    ssm: StateSpaceModel
    kernel: GaussianKernel
    mapping: MappingConfig
    truth0: np.ndarray
    ensemble0: Ensemble
    streams: RandomStream
    q_diagonal: np.ndarray


def build_setup(cfg: ExperimentConfig) -> TwinSetup:
    model = build_model(cfg)
    q_diag = resolve_q_diagonal(cfg, model)
    q = Covariance.diagonal(q_diag)
    h = observation_matrix(cfg, model)
    r = Covariance.isotropic(cfg.r_variance, h.shape[0])
    ssm = StateSpaceModel(dynamics=model, obs_matrix=h, q=q, r=r, cycle_steps=cfg.cycle_steps)
    kernel = GaussianKernel.from_model_error(q, cfg.kernel_alpha)
    mapping = resolve_mapping_config(cfg, model.n_x)
    streams = RandomStream(cfg.seed)
    init_rng = streams.substream("init")

    if cfg.model == "lorenz63":
        x0 = np.array([1.0, 1.0, 1.001])
        truth0 = advance_window(model, x0, cfg.spinup_steps)
        ens0 = Ensemble.equal_weight(truth0 + q.sample(init_rng, size=cfg.n_particles))
    elif cfg.model == "lorenz96":
        x0 = np.full(model.n_x, model.forcing)
        x0[0] += 0.01
        spun = advance_window(model, x0, cfg.spinup_steps)
        bank = free_run(model, spun, 20_000, sample_every=20)
        truth0 = bank[-1]
        idx = init_rng.integers(0, bank.shape[0] - 1, size=cfg.n_particles)
        ens0 = Ensemble.equal_weight(bank[idx])
    else:
        truth0 = model.params.initial_state()
        start = truth0.copy()
        start[0] *= 0.8  # filter underestimates the susceptibles by 20%
        states = start + q.sample(init_rng, size=cfg.n_particles)
        states[:, :5] = np.maximum(states[:, :5], 0.0)
        ens0 = Ensemble.equal_weight(states)

    return TwinSetup(
        model=model,
        ssm=ssm,
        kernel=kernel,
        mapping=mapping,
        truth0=truth0,
        ensemble0=ens0,
        streams=streams,
        q_diagonal=q_diag,
    )


def resolved_config_text(cfg: ExperimentConfig, q_diag: np.ndarray) -> str:
    resolved = replace(
        cfg, q_spec="diag:" + ",".join(repr(float(v)) for v in q_diag)
    )
    return dump_config(resolved)


def run_twin_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    name: str | None = None,
    write_csv: bool | None = None,
) -> RunResult:
    """Run one twin experiment end to end.

    When ``out_dir`` is given (or the config carries an ``output`` stem)
    the per-cycle CSV, the resolved-config echo and, when enabled, the
    per-iteration trace CSV are written there; partial CSV output is
    flushed even when a filter error aborts the run.
    """
    setup = build_setup(cfg)
    window = cfg.cycle_steps * cfg.dt
    if write_csv is None:
        write_csv = out_dir is not None
    name = name or cfg.output or f"{cfg.model}-{cfg.filter}"
    csv_path = trace_path = resolved_path = None
    csv_file = trace_file = None
    if write_csv:
        out = Path(out_dir if out_dir is not None else ".")
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
    prior_weights: np.ndarray | None = None
    truth_rng = setup.streams.substream("truth-noise")
    obs_rng = setup.streams.substream("obs-noise")
    resample_rng = setup.streams.substream("resampling")
    particle_rngs = setup.streams.particle_streams(cfg.n_particles)
    sir_cfg = SirConfig(cfg.sir_resample_threshold, cfg.sir_resampler)
    cholera = cfg.model == "cholera"
    records: list[CycleRecord] = []

    try:
        for cycle in range(cfg.cycles):
            t0 = cycle * window
            started = time.perf_counter()

            # --- truth and synthetic observation -------------------------
            if cholera:
                truth, delta_c = setup.model.advance(
                    truth, t0, cfg.cycle_steps, truth_rng
                )
                tau = setup.model.params.tau
                y_scalar, obs_var = cholera_observe(delta_c, tau, obs_rng)
                y = np.array([y_scalar])
                r_cycle = Covariance.diagonal(
                    [max((tau * y_scalar) ** 2, R_VARIANCE_FLOOR)]
                )
                ssm = replace(setup.ssm, r=r_cycle)
            else:
                truth = advance_window(setup.model, truth, cfg.cycle_steps)
                truth = truth + setup.ssm.q.sample(truth_rng)
                y = setup.ssm.observe(truth) + setup.ssm.r.sample(obs_rng)
                ssm = setup.ssm

            # --- filter ---------------------------------------------------
            extras: dict = {}
            neff = kl_w = w_var = float("nan")
            iters = 0
            g0 = g1 = float("nan")
            if cfg.filter == "mpf":
                centers, states = ssm.forecast(ensemble.states, particle_rngs, t0)
                forecast = Ensemble.equal_weight(states)
                prior = PriorMixture(centers, ssm.q, weights=prior_weights)
                sink = None
                if trace_file is not None:
                    def sink(i, gnorm, n_eff, _c=cycle):  # noqa: E731
                        trace_file.write(
                            f"{_c},{i},{_fmt(gnorm)},{_fmt(n_eff)}\n"
                        )
                result = mapping_cycle(
                    ssm, prior, forecast, y, setup.kernel, setup.mapping,
                    cycle=cycle, diag_sink=sink,
                )
                ensemble = result.ensemble
                iters = result.iterations
                g0 = result.grad_norm_trace[0]
                g1 = result.grad_norm_trace[-1]
                report = result.report
                if report is not None:
                    neff = report.n_eff
                    kl_w = report.kl_from_weights
                    w_var = weight_variance(report.weights)
                    if cfg.mpf_carry_weights:
                        prior_weights = report.weights
            elif cfg.filter == "sir":
                ensemble, diag = sir_cycle(
                    ssm, ensemble, y, sir_cfg, particle_rngs, resample_rng, t0
                )
                neff = diag.n_eff
                w_var = weight_variance(ensemble.weights)
                extras["resampled"] = diag.resampled
                extras["degenerate"] = diag.degenerate
            else:
                ensemble = enkf_cycle(
                    ssm, ensemble, y, particle_rngs, resample_rng, t0
                )
                neff = float(cfg.n_particles)
                kl_w = 0.0
                w_var = 0.0

            rmse, spread = score_cycle(truth, ensemble)
            mean, _ = ensemble.mean_and_spread()
            if cholera:
                extras["true_mortality"] = delta_c
                extras["predicted_mortality"] = float(ssm.observe(mean)[0])
            record = CycleRecord(
                cycle=cycle,
                time=(cycle + 1) * window,
                rmse=rmse,
                spread=spread,
                neff=neff,
                kl_from_weights=kl_w,
                weight_variance=w_var,
                map_iterations=iters,
                grad_norm_initial=g0,
                grad_norm_final=g1,
                wallclock_ms=(time.perf_counter() - started) * 1e3,
                truth=truth.copy(),
                analysis_mean=mean,
                observation=np.asarray(y, dtype=float).copy(),
                extras=extras,
            )
            records.append(record)
            if csv_file is not None:
                csv_file.write(record.csv_row() + "\n")
    finally:
        if csv_file is not None:
            csv_file.close()
        if trace_file is not None:
            trace_file.close()

    return RunResult(
        config=cfg,
        records=records,
        final_ensemble=ensemble,
        q_diagonal=setup.q_diagonal,
        csv_path=csv_path,
        trace_path=trace_path,
        resolved_config_path=resolved_path,
    )
