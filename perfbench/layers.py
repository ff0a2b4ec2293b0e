"""Outside-in layer tracing for the benchmark.

A :class:`Tracer` replaces public entry points of the ``mpfilter`` modules
with wrappers that record one span per call (name, start, end, parent span,
work size, outcome) and count the exceptions that pass through.  Nothing
inside the program changes: each wrapper calls the original with the same
arguments and returns its result object unchanged.  Spans stay in memory
until the run ends, then :func:`layer_metrics` turns them into per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("experiment", "models", "ssm", "kernels", "mpf", "diagnostics", "baselines")


def _model_work(state_arg: str, steps_arg: str):
    """Work size of a model advance: particles x integration steps."""

    def size(sig: inspect.Signature, args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs).arguments
        shape = np.shape(bound[state_arg])
        return (shape[0] if len(shape) > 1 else 1) * int(bound[steps_arg])

    return size


# (span name, module, attribute path, work-size function or None).  The
# untraced run wraps only TIMING_TARGETS: they give the end-to-end setup and
# per-cycle timing points.
TIMING_TARGETS = (
    ("experiment.build_setup", "mpfilter.experiment", "build_setup", None),
    ("diagnostics.score_cycle", "mpfilter.diagnostics", "score_cycle", None),
)
LAYER_TARGETS = TIMING_TARGETS + (
    ("models.climatological_variance", "mpfilter.models", "climatological_variance", None),
    ("models.advance_window", "mpfilter.models", "advance_window", _model_work("x", "steps")),
    ("models.free_run", "mpfilter.models", "free_run", _model_work("x0", "steps")),
    ("ssm.log_posterior_grad", "mpfilter.ssm", "log_posterior_grad", None),
    ("kernels.GaussianKernel.interactions", "mpfilter.kernels",
     "GaussianKernel.interactions", None),
    ("mpf.mapping_cycle", "mpfilter.mpf", "mapping_cycle", None),
    ("mpf.kl_gradient_field", "mpfilter.mpf", "kl_gradient_field", None),
    ("mpf.check_convergence", "mpfilter.mpf", "check_convergence", None),
    ("diagnostics.kde_log_proposal", "mpfilter.diagnostics", "kde_log_proposal", None),
    ("diagnostics.importance_report", "mpfilter.diagnostics", "importance_report", None),
    ("baselines.enkf_cycle", "mpfilter.baselines", "enkf_cycle", None),
)
MODEL_LEAVES = ("models.advance_window", "models.free_run")
KDE_SPANS = ("diagnostics.kde_log_proposal", "diagnostics.importance_report")
# Spans whose outcome is kept: whether the mapping's stopping criterion fired.
OUTCOME_SPANS = ("mpf.check_convergence",)


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent, size,
    outcome]`` where ``parent`` is the index of the enclosing span, or -1,
    and ``outcome`` is the truth value of the result for ``OUTCOME_SPANS``
    and None otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """Wrapper that records a span around each call of ``fn``."""
        layer = name.partition(".")[0]
        sig = inspect.signature(fn) if size is not None else None
        keep_outcome = name in OUTCOME_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = size(sig, args, kwargs) if size is not None else 0
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, work, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_outcome:
                    span[5] = bool(result)
                return result
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._open.pop()

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block.

        A function target is replaced in every loaded ``mpfilter`` module
        that holds it, so ``from x import f`` call sites are traced too.  A
        target the program no longer has is skipped.
        """
        undo = []
        try:
            for name, module, path, size in targets:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, size)
                holders = [owner] if outer else [
                    m for key, m in list(sys.modules.items())
                    if key.partition(".")[0] == "mpfilter"
                    and getattr(m, attr, None) is original
                ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def first(self, name: str):
        return next((s for s in self.spans if s[0] == name), None)

    def ends(self, name: str) -> list[float]:
        return [s[2] for s in self.spans if s[0] == name]


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(tracer: Tracer, iterations: list[int]) -> dict:
    """Per-layer metrics from one traced run.

    ``iterations`` is the CSV's ``map_iterations`` column.  A mapping cycle
    counts as converged when a stopping check inside it returned True.  Spans
    under ``build_setup`` are setup; a cycle ends at each ``score_cycle`` return.
    In each cycle the first model advance outside any other model advance
    and outside a filter is the truth; every other one is the forecast.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    cycles = sum(1 for s in spans if s[0] == "diagnostics.score_cycle")
    total_iters = sum(iterations)
    acc = Counter()
    truth_seen = False
    for i, (name, _, _, parent, work, outcome) in enumerate(spans):
        up = set(ancestors(i))
        if name == "models.climatological_variance":
            acc["climatology_s"] += dur[i]
        if "experiment.build_setup" in up:
            if name in MODEL_LEAVES:
                acc["setup_steps"] += work
            if parent >= 0 and spans[parent][0] == "experiment.build_setup":
                if name == "models.advance_window":
                    acc["spinup_s"] += dur[i]
                elif name == "models.free_run":
                    acc["free_run_s"] += dur[i]
            continue
        acc[name + ".calls"] += 1
        acc[name + ".time"] += dur[i]
        acc[name + ".self"] += dur[i] - child[i]
        if name == "diagnostics.score_cycle":
            truth_seen = False
        elif outcome:
            acc["converged_cycles"] += 1
        elif name in MODEL_LEAVES and not up.intersection(MODEL_LEAVES):
            if parent < 0 and not truth_seen:
                truth_seen = True
                acc["truth_s"] += dur[i]
            else:
                acc["forecast_s"] += dur[i]
                acc["forecast_steps"] += work
        elif name in KDE_SPANS and not up.intersection(KDE_SPANS):
            key = "neff_rule_s" if "mpf.mapping_cycle" in up else "report_s"
            acc[key] += dur[i]

    setup = tracer.first("experiment.build_setup")
    return {
        "experiment.build_setup.s": setup[2] - setup[1] if setup else 0.0,
        "models.climatological_variance.s": acc["climatology_s"],
        "models.spinup.s": acc["spinup_s"],
        "models.free_run.s": acc["free_run_s"],
        "models.setup_steps": acc["setup_steps"],
        "models.truth.ms_per_cycle": _per(acc["truth_s"] * 1e3, cycles),
        "models.forecast.ms_per_cycle": _per(acc["forecast_s"] * 1e3, cycles),
        "models.forecast.particle_steps_per_cycle": _per(acc["forecast_steps"], cycles),
        "models.forecast.us_per_particle_step":
            _per(acc["forecast_s"] * 1e6, acc["forecast_steps"]),
        "ssm.log_posterior_grad.calls_per_cycle":
            _per(acc["ssm.log_posterior_grad.calls"], cycles),
        "ssm.log_posterior_grad.us_per_call":
            _per(acc["ssm.log_posterior_grad.time"] * 1e6, acc["ssm.log_posterior_grad.calls"]),
        "kernels.interactions.calls_per_iteration":
            _per(acc["kernels.GaussianKernel.interactions.calls"], total_iters),
        "kernels.interactions.us_per_call":
            _per(acc["kernels.GaussianKernel.interactions.time"] * 1e6,
                 acc["kernels.GaussianKernel.interactions.calls"]),
        "mpf.mapping_cycle.ms_per_cycle": _per(acc["mpf.mapping_cycle.time"] * 1e3, cycles),
        "mpf.mapping_cycle.self_ms_per_cycle":
            _per(acc["mpf.mapping_cycle.self"] * 1e3, cycles),
        "mpf.kl_gradient_field.us_per_call":
            _per(acc["mpf.kl_gradient_field.time"] * 1e6, acc["mpf.kl_gradient_field.calls"]),
        "mpf.iterations_per_cycle": _per(total_iters, len(iterations)),
        "mpf.converged_ratio":
            _per(acc["converged_cycles"], acc["mpf.mapping_cycle.calls"]),
        "diagnostics.neff_rule.ms_per_cycle": _per(acc["neff_rule_s"] * 1e3, cycles),
        "diagnostics.report.ms_per_cycle": _per(acc["report_s"] * 1e3, cycles),
        "baselines.enkf_cycle.ms_per_cycle":
            _per(acc["baselines.enkf_cycle.time"] * 1e3, cycles),
        "baselines.enkf.analysis_ms_per_cycle":
            _per(acc["baselines.enkf_cycle.self"] * 1e3, cycles),
        **{f"{layer}.errors": tracer.errors[layer] for layer in LAYERS},
    }
