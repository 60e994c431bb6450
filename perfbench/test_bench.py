"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py

Runs every workload's traced run at the default seed (about 30 s):
the traced pass must reproduce the untraced pass's result digests and
the committed ones, and the wrappers must leave the baseline machine on
its batched path.
"""

import pytest

import bench_jobs
import run
from bench_trace import LAYERS


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload, build in bench_jobs.WORKLOADS.items():
        expected = run.load_expected(workload, bench_jobs.DEFAULT_SEED)
        runs[workload] = run.run_traced(build(bench_jobs.DEFAULT_SEED),
                                        expected)
    return runs


@pytest.mark.parametrize("workload", sorted(bench_jobs.WORKLOADS))
def test_traced_run_gives_untraced_digests(traced_runs, workload):
    (traced, untraced), __, __ = traced_runs[workload]
    assert traced.problems == [] and untraced.problems == []
    assert traced.failed == untraced.failed == 0
    assert traced.digests == untraced.digests
    assert traced.op_cycles == untraced.op_cycles
    assert set(traced.digests) == set(
        run.load_expected(workload, bench_jobs.DEFAULT_SEED))


def test_baseline_machine_keeps_batched_path(traced_runs):
    __, metrics, detail = traced_runs["table4-bare"]
    assert detail["function_calls"]["Pipeline.step"] == 0
    assert metrics["pipeline.run_calls"] > 0
    assert metrics["rse.calls"] == 0


@pytest.mark.parametrize("workload", sorted(bench_jobs.WORKLOADS))
def test_self_times_and_other_sum_to_traced_wall(traced_runs, workload):
    __, metrics, __ = traced_runs[workload]
    total = sum(metrics["%s.self_s" % layer] for layer in LAYERS)
    total += metrics["other.self_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["other.self_s"] >= 0
    assert metrics["trace.overhead_ratio"] > 1


def test_layers_run_where_the_workload_puts_them(traced_runs):
    calls = {workload: result[1] for workload, result in traced_runs.items()}
    assert calls["table4-icm"]["rse.icm.calls"] > 0
    assert calls["ddt-server"]["rse.ddt.calls"] > 0
    assert calls["ddt-server"]["kernel.checkpoints.saves_total"] > 0
    assert calls["protected-campaign"]["checkpoint.calls"] > 0
    assert calls["protected-campaign"]["campaign.calls"] > 0
    for workload in ("table4-bare", "table4-icm"):
        assert calls[workload]["rse.ddt.calls"] == 0
        assert calls[workload]["campaign.calls"] == 0


def test_inputs_are_a_function_of_the_seed():
    def sources(seed):
        return [job.source for job in bench_jobs.table4_jobs(seed, False)]
    assert sources(7) == sources(7)
    assert sources(7) != sources(8)
    assert bench_jobs.pick_route(7) == bench_jobs.pick_route(7)
