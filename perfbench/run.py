"""Benchmark of the RSE-protected machine: one workload, one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table4-icm --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats passes over the workload's jobs (each job set up
and run afresh) for ``--seconds``, then prints the end-to-end metrics.  ``--trace 1`` runs one pass with per-layer timing
wrappers installed and one pass without, and prints the per-layer
metrics.  Every job's simulated result is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with provenance, is
written to ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Fewest passes an untraced run makes, whatever ``--seconds`` says, so
#: every operation is timed at least three times.
MIN_PASSES = 3

#: The contract: workload names, metric names, units and directions.
SPEC_PATH = ROOT / "BENCHMARK.json"


class Measurement:
    """Everything the passes of one run observed."""

    def __init__(self, expected, keep_snapshots=False):
        self.expected = expected          # job name -> committed digest
        self.digests = {}                 # job name -> first digest seen
        self.setup_times = {}             # job name -> [seconds per pass]
        self.op_times = {}                # op key -> [seconds per pass]
        self.op_cycles = {}               # op key -> simulated cycles
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # Machine snapshots feed the traced run's counters; an untraced
        # run drops them so its memory does not grow with its passes.
        self.snapshots = [] if keep_snapshots else None

    def run_pass(self, jobs):
        """Set up and execute every job once; returns the pass wall time."""
        clock = time.perf_counter
        pass_start = clock()
        for job in jobs:
            try:
                start = clock()
                state = job.setup()
                setup_s = clock() - start
                outcome = job.execute(state)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.attempted += job.op_count
                self.failed += job.op_count
                self.problems.append("%s raised" % job.name)
                continue
            self.setup_times.setdefault(job.name, []).append(setup_s)
            if self.snapshots is not None:
                self.snapshots.extend(outcome.snapshots)
            self._record(job, outcome)
            # Machines hold reference cycles; collect them between jobs
            # so peak memory is one job's, not the collector's timing.
            del state, outcome
            gc.collect()
        return clock() - pass_start

    def _record(self, job, outcome):
        """Check *outcome* against earlier runs and expected.json."""
        mismatches = []
        reference = self.digests.setdefault(job.name, outcome.digest)
        if outcome.digest != reference:
            mismatches.append("%s result differs from its first run"
                              % job.name)
        expected = self.expected.get(job.name)
        if expected is not None and outcome.digest != expected:
            mismatches.append("%s result differs from expected.json"
                              % job.name)
        for key, seconds, cycles in outcome.ops:
            self.op_times.setdefault(key, []).append(seconds)
            first = self.op_cycles.setdefault(key, cycles)
            if cycles != first:
                mismatches.append("%s simulated %d cycles, first run %d"
                                  % (key, cycles, first))
        self.attempted += len(outcome.ops)
        self.failed += len(outcome.ops) if mismatches else outcome.failed
        self.problems.extend(outcome.problems + mismatches)

    @property
    def correct(self):
        return not self.failed and not self.problems

    def end_to_end(self):
        """The five end-to-end metrics.

        Each operation's host time is its fastest pass; each job's
        set-up time is its median pass.

        Interference from other tenants only ever adds time, and it
        comes often: on a shared 2-CPU VM, ten processes summing
        per-operation medians spread 0.20 (IQR/median) on table4-bare,
        summing per-operation minima 0.05.
        """
        busy_s = sum(min(times) for times in self.op_times.values())
        cycles = sum(self.op_cycles.values())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "sim_cycles_per_s": cycles / busy_s,
            "jobs_per_s": len(self.op_times) / busy_s,
            # Jobs differ in set-up cost: average each job's median.
            "setup_s": statistics.fmean(statistics.median(times) for times
                                        in self.setup_times.values()),
            "peak_rss_mb": peak_kb / 1024.0,
            "sim_cycles": cycles,
        }


# ------------------------------------------------------------------ traced run

def _sum(docs, *path):
    total = 0
    for doc in docs:
        for key in path:
            doc = doc[key] if doc is not None else None
        total += doc or 0
    return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _percentile_ms(samples, fraction):
    """Nearest-rank percentile of *samples* (seconds), in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return 1000.0 * ordered[index]


def layer_metrics(tracer, traced, untraced, traced_wall, untraced_wall,
                  campaign_ops):
    """The per-layer metrics of one traced pass (see README.md)."""
    metrics = {}
    for layer, row in tracer.layer_report(traced_wall).items():
        for field, value in row.items():
            metrics["%s.%s" % (layer, field)] = value
    docs = traced.snapshots
    cycles = sum(traced.op_cycles.values())
    rse_docs = [doc["rse"] for doc in docs if doc["rse"] is not None]
    modules = [doc["modules"] for doc in rse_docs]
    icm_hits = _sum([m.get("ICM") for m in modules], "cache_hits")
    icm_misses = _sum([m.get("ICM") for m in modules], "cache_misses")
    restore_s = tracer.durations["checkpoint.restore"]
    injection_s = [seconds for key in campaign_ops
                   for seconds in untraced.op_times[key]]
    metrics.update({
        "rse.step_calls_per_cycle": _ratio(tracer.fn_calls["RSE.step"],
                                           cycles),
        "memory.calls_per_cycle": _ratio(tracer.calls["memory"], cycles),
        "pipeline.run_calls": tracer.fn_calls["Pipeline.run"],
        "pipeline.ipc": _ratio(_sum(docs, "pipeline", "instret"),
                               _sum(docs, "pipeline", "cycles")),
        "memory.bus.mau_wait_cycles": _sum(docs, "memory", "bus",
                                           "mau_wait_cycles"),
        "rse.queues.pushed": sum(queue["pushed"] for doc in rse_docs
                                 for queue in doc["queues"].values()),
        "rse.icm.cache_hit_rate": _ratio(icm_hits, icm_hits + icm_misses),
        "rse.ddt.dependencies_logged": _sum([m.get("DDT") for m in modules],
                                            "dependencies_logged"),
        "kernel.checkpoints.saves_total": _sum(docs, "kernel",
                                               "checkpoints", "saves_total"),
        "kernel.context_switches": _sum(docs, "kernel", "context_switches"),
        "kernel.syscalls": _sum(docs, "kernel", "syscalls"),
        "campaign.injection_ms_p50": _percentile_ms(injection_s, 0.5),
        "campaign.injection_ms_p90": _percentile_ms(injection_s, 0.9),
        "checkpoint.restore_ms_p50": _percentile_ms(restore_s, 0.5),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.wall_s": traced_wall,
    })
    for cache in ("il1", "dl1", "dl2"):
        metrics["memory.%s.miss_rate" % cache] = _ratio(
            _sum(docs, "memory", cache, "misses"),
            _sum(docs, "memory", cache, "accesses"))
    return metrics


def run_traced(jobs, expected):
    """One traced pass, then one untraced pass of the same jobs."""
    from bench_trace import LayerTracer

    traced = Measurement(expected, keep_snapshots=True)
    # Campaign machines live inside the runner: read their counters
    # where the runner classifies each injection.
    tracer = LayerTracer(observers={
        "runner.classify": lambda machine, *rest:
            traced.snapshots.append(machine.snapshot())})
    tracer.install()
    try:
        traced_wall = traced.run_pass(jobs)
    finally:
        tracer.uninstall()
    untraced = Measurement(traced.digests)
    untraced_wall = untraced.run_pass(jobs)
    # Injections are keyed (campaign, id); whole-program runs by name.
    campaign_ops = [key for key in untraced.op_times
                    if isinstance(key, tuple)]
    metrics = layer_metrics(tracer, traced, untraced, traced_wall,
                            untraced_wall, campaign_ops)
    detail = {"function_calls": tracer.fn_calls,
              "digests": traced.digests}
    return [traced, untraced], metrics, detail


# ------------------------------------------------------------------ provenance

def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          capture_output=True, text=True, check=True,
                          timeout=30).stdout.strip()


def provenance(seed, traced):
    """Where and how the numbers were produced."""
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {"commit": commit, "dirty": dirty,
            "source_sha256": tree.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "seed": seed, "traced": bool(traced)}


# ------------------------------------------------------------------------ main

def load_expected(workload, seed):
    """Committed result digests of *workload*'s jobs, if *seed* has them."""
    import bench_jobs

    if seed != bench_jobs.DEFAULT_SEED:
        return {}
    return json.loads(EXPECTED_PATH.read_text())["digests"][workload]


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of BENCHMARK.json's workloads, or "
                             "table4-bare (see README.md)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the one whose "
                             "digests expected.json records)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: %s holds no simulator source; run from the root "
              "of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_jobs

    if args.workload not in bench_jobs.WORKLOADS:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(sorted(bench_jobs.WORKLOADS))),
              file=sys.stderr)
        return 2
    seed = bench_jobs.DEFAULT_SEED if args.seed is None else args.seed
    expected = load_expected(args.workload, seed)
    jobs = bench_jobs.WORKLOADS[args.workload](seed)

    if args.trace:
        measurements, metrics, detail = run_traced(jobs, expected)
    else:
        measurement = Measurement(expected)
        deadline = time.perf_counter() + args.seconds
        passes, pass_s = 0, 0.0
        # Start a pass only if one as long as the last ends in time, so
        # a run lasts --seconds however long its passes are.
        while (passes < MIN_PASSES
               or time.perf_counter() + pass_s <= deadline):
            pass_s = measurement.run_pass(jobs)
            passes += 1
        measurements = [measurement]
        metrics = measurement.end_to_end()
        detail = {"passes": passes, "digests": measurement.digests,
                  "op_cycles": {str(key): cycles for key, cycles
                                in measurement.op_cycles.items()}}

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        raise SystemExit("perfbench: computed metrics %s do not match "
                         "BENCHMARK.json" % sorted(set(units) ^ set(metrics)))
    result = {
        "correct": all(m.correct for m in measurements),
        "attempted": sum(m.attempted for m in measurements),
        "failed": sum(m.failed for m in measurements),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    problems = [p for m in measurements for p in m.problems]
    record = dict(result, workload=args.workload,
                  provenance=provenance(seed, args.trace),
                  problems=problems, detail=detail)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("%s-seed%d-trace%d.json"
                          % (args.workload, seed, args.trace))
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in problems:
        print("FAILED: %s" % problem, file=sys.stderr)
    for name, metric in sorted(result["metrics"].items()):
        print("%-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
