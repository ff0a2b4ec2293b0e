"""Tests of the benchmark itself: tracing neutrality, metric names, the p90
sample rule, the output checks and the shared truth of the Lorenz-96 twins."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import micro  # noqa: E402
import run  # noqa: E402
from checks import check_csv, read_csv, untimed  # noqa: E402
from layers import LAYER_TARGETS, Tracer, layer_metrics  # noqa: E402
from worker import workload_config  # noqa: E402
from workloads import MIN_RUNS, WORKLOADS, beyond_p90  # noqa: E402

from mpfilter import experiment  # noqa: E402
from mpfilter.config import loads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = ("model = lorenz63\nseed = 3\nn_particles = 6\ncycles = 4\n"
         "spinup_steps = 200\nq_spec = diag:0.1\n")


def test_wrapper_passes_results_and_errors_through():
    tracer = Tracer()
    result = object()

    def inner(a, b=0):
        return result if a else 1 / b

    def outer(a):
        return traced_inner(a)

    traced_inner = tracer.wrap("models.inner", inner)
    traced_outer = tracer.wrap("mpf.outer", outer)
    assert traced_outer(True) is result
    with pytest.raises(ZeroDivisionError):
        traced_outer(False)
    assert tracer.errors == {"models": 1, "mpf": 1}
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["mpf.outer", "models.inner"] * 2
    assert parents == [-1, 0, -1, 2]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_converged_ratio_counts_cycles_whose_stopping_check_fired():
    tracer = Tracer()
    check = tracer.wrap("mpf.check_convergence", lambda fired: np.bool_(fired))
    # The check fires on the last allowed iteration of the first cycle; the
    # second cycle runs out of iterations.
    mapping = tracer.wrap("mpf.mapping_cycle", lambda outcomes: [check(o) for o in outcomes])
    assert mapping([False, True]) == [False, True]
    mapping([False, False])
    assert [s[5] for s in tracer.spans if s[0] == "mpf.check_convergence"] == [
        False, True, False, False]
    assert layer_metrics(tracer, [2, 2])["mpf.converged_ratio"] == 0.5


def test_tracing_leaves_outputs_unchanged_and_is_removed(tmp_path):
    cfg = loads(SMALL)
    plain = experiment.run_twin_experiment(cfg, out_dir=tmp_path / "a", name="r")
    originals = {"score": experiment.score_cycle, "setup": experiment.build_setup}
    tracer = Tracer()
    with tracer.installed(LAYER_TARGETS):
        assert experiment.score_cycle is not originals["score"]
        traced = experiment.run_twin_experiment(cfg, out_dir=tmp_path / "b", name="r")
    assert experiment.score_cycle is originals["score"]
    assert experiment.build_setup is originals["setup"]
    assert untimed(*read_csv(plain.csv_path)) == untimed(*read_csv(traced.csv_path))
    iterations = [r.map_iterations for r in traced.records]
    layers = layer_metrics(tracer, iterations)
    assert layers["models.setup_steps"] == 200
    assert layers["models.forecast.particle_steps_per_cycle"] == 6 * cfg.cycle_steps
    assert layers["mpf.iterations_per_cycle"] == np.mean(iterations)


def _fake_run(cycles):
    return {"rc": 0, "run_s": 2.0, "setup_s": 1.0, "cycle_ms": [10.0] * cycles,
            "peak_rss_mb": 50.0, "rmse_mean": 0.4, "problems": []}


def test_metric_names_match_benchmark_json():
    name = "l63-mpf-100p"
    e2e = run.end_to_end(name, [_fake_run(WORKLOADS[name].cycles)] * 2)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    traced = {"run_s": 2.1, "layers": layer_metrics(Tracer(), [])}
    layers = run.per_layer([_fake_run(1), traced],
                           {"micro": dict.fromkeys(micro.metric_names(), 1.0)}, 30.0)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_p90_has_ten_cycles_beyond_it(name):
    assert beyond_p90(MIN_RUNS * WORKLOADS[name].cycles) >= 10


def test_check_csv_flags_bad_output(tmp_path):
    spec = WORKLOADS["l63-mpf-100p"]
    header = "cycle,rmse,spread,neff,wallclock_ms"
    good = [f"{i},0.45,0.1,95.5,{i}.5" for i in range(spec.cycles)]
    path = tmp_path / "run.csv"
    path.write_text("\n".join([header, *good]) + "\n")
    problems, rmse_mean, _ = check_csv(spec, path)
    assert problems == [] and rmse_mean == pytest.approx(0.45)
    path.write_text("\n".join([header, *good[:-1], "99,0.45,0.1,nan,1"]) + "\n")
    assert check_csv(spec, path)[0] == ["non-finite neff"]
    path.write_text("\n".join([header, *good[:-1]]) + "\n")
    assert check_csv(spec, path)[0] == [f"{spec.cycles - 1} CSV rows for {spec.cycles} cycles"]


def test_l96_enkf_and_mpf_twins_share_truth_and_observations():
    enkf_cfg = workload_config("l96-enkf-20p", seed=5)
    enkf_cfg.cycles = 3
    mpf, enkf = (experiment.run_twin_experiment(cfg).records
                 for cfg in (replace(enkf_cfg, filter="mpf"), enkf_cfg))
    for a, b in zip(mpf, enkf, strict=True):
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.observation, b.observation)
