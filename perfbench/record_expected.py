"""Write ``expected.json``: every job's result digest at the default seed.

    python3 perfbench/record_expected.py

Re-run it only when a change is meant to alter simulated results, and
say so in the change.  Machine jobs run once through the benchmark's own
set-up.  Campaigns run through the public ``run_campaign`` entry point,
not the benchmark's injection-by-injection loop, so the benchmark checks
that its loop reproduces the runner's records.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench_jobs  # noqa: E402
from repro.campaign import ExecutionOptions, run_campaign  # noqa: E402


def job_digest(job):
    if isinstance(job, bench_jobs.CampaignJob):
        run = run_campaign(job.spec, options=ExecutionOptions(
            workers=1, fork=job.fork))
        return bench_jobs.records_digest(run.records)
    outcome = job.execute(job.setup())
    if outcome.problems:
        raise SystemExit("%s: %s" % (job.name, "; ".join(outcome.problems)))
    return outcome.digest


def main():
    seed = bench_jobs.DEFAULT_SEED
    digests = {}
    for workload, build in bench_jobs.WORKLOADS.items():
        digests[workload] = {job.name: job_digest(job) for job in build(seed)}
        print("%s: %d jobs" % (workload, len(digests[workload])))
    path = BENCH_DIR / "expected.json"
    path.write_text(json.dumps({"seed": seed, "digests": digests},
                               indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
