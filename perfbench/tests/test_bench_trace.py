"""The tracer sees every public call, leaves the program as it found it,
and counts the same calls for the same seed."""

import json

import curvsol
import pytest
from curvsol import cli, profiles, speeds

import env
import run
import workloads
from tracer import Tracer


def _traced_pass(jobs):
    tracer = Tracer()
    with tracer:
        outcomes, _, _ = run.run_pass(jobs)
    assert all(job.check(o).ok for job, o in zip(jobs, outcomes))
    return tracer.table()


def test_install_and_uninstall():
    original = speeds.eval_speed
    tracer = Tracer()
    with tracer:
        assert speeds.eval_speed is not original
        assert curvsol.eval_speed is speeds.eval_speed      # package re-export
        assert cli.check_properties is speeds.check_properties  # from-import in cli
    assert speeds.eval_speed is original and curvsol.eval_speed is original
    assert cli.check_properties.__module__ == "curvsol.speeds"


def test_closure_calls_and_result_counters():
    tracer = Tracer()
    with tracer:
        p = profiles.integrate_profile(speeds.sigma_k_root(2, 2), r_max=0.5)
    table = tracer.table()
    # the rhs closure in integrate_profile looks sigma_rhs up at call time
    assert table.call_count("profiles.sigma_rhs") > p.samples.shape[0]
    assert table.counters["profiles.integrate_profile.nodes"] == p.samples.shape[0]
    assert table.nested[("profiles.startup_slope", "profiles.integrate_profile")] == 1
    assert table.self_time("profiles.integrate_profile") > 0.0


@pytest.mark.parametrize("workload, keep", [
    ("fixed-point", lambda name: True),
    ("speed-suite", lambda name: name in ("props harmonic --n 4", "pinching sigma_2 n=4")),
])
def test_counts_repeat_for_the_same_seed(tmp_path, workload, keep):
    first, second = (
        _traced_pass([job for job in workloads.build(workload, 11, tmp_path / str(i)).jobs
                      if keep(job.name)])
        for i in range(2))
    assert first.names == second.names
    assert first.calls.tolist() == second.calls.tolist()
    assert first.counters == second.counters
    assert first.nested == second.nested
    assert sum(first.calls) > 1000


def test_metric_names_match_benchmark_json(tmp_path):
    bench = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    jobs = [job for job in workloads.build("fixed-point", 1, tmp_path).jobs
            if "grid=2048" in job.name]
    metrics = run.layer_metrics(_traced_pass(jobs), 1, 1, 0.1)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["picard.operator_T.calls"] > 0
    assert metrics["speeds.eval_speed.calls"] == 0
