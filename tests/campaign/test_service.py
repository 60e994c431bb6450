"""Sharded campaign service: planning, work stealing, crash recovery."""

import os
import time

import pytest

from repro.campaign import (CampaignSpec, DEMO_WORKLOAD, ExecutionOptions,
                            ResultStore, StoreMismatch, run_campaign)
from repro.campaign import runner, service
from repro.campaign.runner import CampaignContext
from repro.campaign.service import (ImageEngine, ServiceError,
                                    build_campaign_image, merge_shards,
                                    plan_shards, run_service,
                                    shard_store_path)
from repro.campaign.space import sample_injections


def spec_for(**kwargs):
    kwargs.setdefault("model", "reg-flip")
    kwargs.setdefault("injections", 10)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("max_cycles", 30_000)
    return CampaignSpec(DEMO_WORKLOAD, **kwargs)


# ------------------------------------------------------------------ planning

def test_plan_shards_covers_range_exactly():
    plan = plan_shards(10, 3)
    assert plan == [(0, 0, 4), (1, 4, 7), (2, 7, 10)]
    covered = [index for __, start, stop in plan
               for index in range(start, stop)]
    assert covered == list(range(10))


def test_plan_shards_edges():
    assert plan_shards(0, 4) == []
    assert plan_shards(3, 8) == [(0, 0, 1), (1, 1, 2), (2, 2, 3)]  # clamped
    assert plan_shards(5, 1) == [(0, 0, 5)]
    assert plan_shards(5, 0) == [(0, 0, 5)]          # at least one shard


def test_shard_store_path_layout():
    assert shard_store_path("/tmp/camp.jsonl", 2) == "/tmp/camp.shard002.jsonl"
    assert shard_store_path("camp", 0) == "camp.shard000.jsonl"


# ------------------------------------------------------ sharded == serial

def test_sharded_records_match_serial_byte_identical(tmp_path):
    spec = spec_for()
    serial_path = str(tmp_path / "serial.jsonl")
    serial = run_campaign(spec, options=ExecutionOptions(store=serial_path))

    sharded_path = str(tmp_path / "sharded.jsonl")
    sharded = run_campaign(spec, options=ExecutionOptions(
        workers=2, shards=3, store=sharded_path))
    assert sharded.records == serial.records
    # The merged store is byte-identical to the single-process store.
    assert open(sharded_path, "rb").read() == \
        open(serial_path, "rb").read()
    # Shard stores exist beside it and are individually verifiable.
    for shard_id in range(3):
        path = shard_store_path(sharded_path, shard_id)
        header, records = ResultStore(path).verify(spec.fingerprint())
        shard = header["shard"]
        assert shard["id"] == shard_id
        assert all(shard["start"] <= record["id"] < shard["stop"]
                   for record in records)


def test_workers_alone_shard_one_per_worker(tmp_path):
    """--workers N with no --shards runs the service N ways."""
    spec = spec_for(injections=6)
    serial = run_campaign(spec)
    store = str(tmp_path / "camp.jsonl")
    run = run_campaign(spec, options=ExecutionOptions(workers=2,
                                                      store=store))
    assert run.records == serial.records
    assert run.options.shards == 2
    for shard_id in range(2):
        header, __ = ResultStore(shard_store_path(store, shard_id)).verify(
            spec.fingerprint())
        assert header["shard"]["id"] == shard_id
    assert not os.path.exists(shard_store_path(store, 2))


def test_fork_holds_on_the_service(tmp_path, monkeypatch):
    """fork=True reaches the service: strikes go through ForkEngine, and
    the merged store is byte-identical to a serial cold one."""
    spec = spec_for()
    serial_path = str(tmp_path / "serial.jsonl")
    run_campaign(spec, options=ExecutionOptions(fork=False,
                                                store=serial_path))

    strikes = []
    real_strike = runner.ForkEngine.strike

    def spy(engine, injection, trigger):
        strikes.append(injection.id)
        return real_strike(engine, injection, trigger)

    # No worker rounds: the in-parent completion path runs every shard,
    # so the spy sees each strike.
    monkeypatch.setattr(service, "WORKER_ROUNDS", 0)
    monkeypatch.setattr(runner.ForkEngine, "strike", spy)
    sharded_path = str(tmp_path / "sharded.jsonl")
    run_campaign(spec, options=ExecutionOptions(shards=2, fork=True,
                                                store=sharded_path))
    assert strikes
    assert open(sharded_path, "rb").read() == \
        open(serial_path, "rb").read()


def test_drained_workers_exit_on_stop_marker(monkeypatch):
    """Workers return on their stop marker instead of waiting out
    STEAL_TIMEOUT on the drained queue."""
    spec = spec_for(injections=4)
    serial = run_campaign(spec)
    monkeypatch.setattr(service, "STEAL_TIMEOUT", 30.0)
    start = time.monotonic()
    run = run_campaign(spec, options=ExecutionOptions(workers=2, shards=2))
    assert time.monotonic() - start < 15.0
    assert run.records == serial.records


def test_sharded_without_store_uses_tempdir(tmp_path):
    spec = spec_for(injections=6)
    serial = run_campaign(spec)
    sharded = run_campaign(spec, options=ExecutionOptions(shards=2))
    assert sharded.records == serial.records


# ----------------------------------------------------------- crash recovery

def test_service_survives_sigkilled_worker(tmp_path, monkeypatch):
    """Acceptance: SIGKILL a worker mid-flight; the service still
    converges to the exact single-process record set and consumes the
    kill flag (proving a worker really died)."""
    spec = spec_for(injections=12)
    serial = run_campaign(spec)

    flag = tmp_path / "kill.flag"
    flag.touch()
    monkeypatch.setenv("REPRO_CAMPAIGN_KILL_FILE", str(flag))
    monkeypatch.setenv("REPRO_CAMPAIGN_KILL_AFTER", "2")
    store = str(tmp_path / "camp.jsonl")
    sharded = run_campaign(spec, options=ExecutionOptions(
        workers=2, shards=4, store=store))
    assert not flag.exists(), "kill flag not consumed - no worker died"
    assert sharded.records == serial.records


def test_resume_from_truncated_shard_store(tmp_path):
    """Torn shard stores (worker killed mid-write) resume to the full
    record set."""
    spec = spec_for(injections=8)
    store = str(tmp_path / "camp.jsonl")
    full = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                       store=store))
    # Damage shard 0: drop its last record and leave a torn tail; remove
    # the merged store so the service has to re-merge.
    shard0 = shard_store_path(store, 0)
    lines = open(shard0).readlines()
    with open(shard0, "w") as handle:
        handle.writelines(lines[:-1])
        handle.write('{"kind": "run", "id": 3, "torn')
    os.remove(store)

    resumed = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                          store=store))
    assert resumed.records == full.records
    assert ResultStore(store).verify(spec.fingerprint())


def test_resume_with_different_worker_count(tmp_path):
    """A sharded run interrupted under --workers 2 resumes under
    --workers 3: shard stores are re-planned, records stay identical."""
    spec = spec_for(injections=9)
    serial_path = str(tmp_path / "serial.jsonl")
    run_campaign(spec, options=ExecutionOptions(store=serial_path))
    store = str(tmp_path / "camp.jsonl")
    run_campaign(spec, options=ExecutionOptions(workers=2, store=store))
    # Interrupt: drop shard 1's last two records, lose the merged store.
    shard1 = shard_store_path(store, 1)
    lines = open(shard1).readlines()
    with open(shard1, "w") as handle:
        handle.writelines(lines[:-2])
    os.remove(store)

    progress = []
    resumed = run_campaign(spec, options=ExecutionOptions(workers=3,
                                                          store=store),
                           progress=lambda done, total: progress.append(
                               (done, total)))
    assert open(store, "rb").read() == open(serial_path, "rb").read()
    assert resumed.records == ResultStore(serial_path).load()[1]
    assert progress[-1] == (9, 9)
    for shard_id, start, stop in plan_shards(9, 3):
        header, records = ResultStore(
            shard_store_path(store, shard_id)).verify(spec.fingerprint())
        assert header["shard"] == {"id": shard_id, "start": start,
                                   "stop": stop}
        assert sorted(record["id"] for record in records) == \
            list(range(start, stop))


def test_fully_covered_merged_store_short_circuits(tmp_path):
    spec = spec_for(injections=6)
    store = str(tmp_path / "camp.jsonl")
    full = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                       store=store))
    # Remove the shard stores: a covered merged store must be enough.
    for shard_id in range(2):
        os.remove(shard_store_path(store, shard_id))
    seen = []
    again = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                        store=store),
                         progress=lambda done, total: seen.append(done))
    assert again.records == full.records
    assert seen == [6]


# -------------------------------------------------------------- image engine

def test_image_engine_records_match_fresh_machines():
    spec = spec_for(injections=5)
    ctx = CampaignContext(spec)
    image = build_campaign_image(spec)
    engine = ImageEngine(ctx, image)
    injections = sample_injections(ctx.model, ctx, spec.injections,
                                   spec.seed)
    fresh = run_campaign(spec)
    assert [engine.run(injection) for injection in injections] == \
        fresh.records


def test_image_engine_rejects_foreign_image():
    from repro.checkpoint import CheckpointError

    spec = spec_for(injections=4)
    other = spec_for(injections=4, seed=8)
    ctx = CampaignContext(spec)
    with pytest.raises(CheckpointError):
        ImageEngine(ctx, build_campaign_image(other))


# -------------------------------------------------------------------- merge

def test_merge_rejects_foreign_shard(tmp_path):
    spec = spec_for(injections=6)
    other = spec_for(injections=6, seed=8)
    store = str(tmp_path / "camp.jsonl")
    run_campaign(spec, options=ExecutionOptions(shards=2, store=store))
    foreign = str(tmp_path / "foreign.jsonl")
    run_campaign(other, options=ExecutionOptions(store=foreign))
    with pytest.raises(StoreMismatch):
        merge_shards(spec, [shard_store_path(store, 0), foreign])


def test_merge_detects_missing_coverage(tmp_path):
    spec = spec_for(injections=6)
    store = str(tmp_path / "camp.jsonl")
    run_campaign(spec, options=ExecutionOptions(shards=2, store=store))
    with pytest.raises(ServiceError, match="missing"):
        merge_shards(spec, [shard_store_path(store, 0)])
    with pytest.raises(ServiceError, match="missing|store"):
        merge_shards(spec, [shard_store_path(store, 0),
                            str(tmp_path / "nope.jsonl")])


def test_run_service_requires_shards_option(tmp_path):
    spec = spec_for(injections=4)
    run = run_service(spec, ExecutionOptions(shards=1))
    assert len(run.records) == 4
    assert run.options.shards == 1
