"""Sharded campaign service: warmed images, work stealing, merge.

This is the campaign's one parallel engine: :func:`~repro.campaign
.runner.run_campaign` routes here whenever ``workers > 1`` or
``shards > 0``, and the shard count defaults to the worker count.  It
scales the deterministic campaign along one axis — **shards**:

* the injection space ``[0, spec.injections)`` splits into contiguous
  **seed-range shards**.  Because every injection derives from
  ``(campaign_seed, id)`` alone (:func:`repro.campaign.space
  .injection_at`), a shard materialises exactly its own injections with
  no shared RNG stream and no coordination;
* the parent simulates the campaign's warmup exactly once — assembly,
  golden run, machine build — and ships the result to every worker as a
  :class:`~repro.checkpoint.CampaignImage` (serialized machine
  checkpoint + golden results + spec fingerprint), so workers
  restore-and-strike instead of rebuilding and re-running the golden
  workload;
* workers **steal shards** from a shared queue: a fast worker that
  drains its shard immediately pulls the next one, so stragglers never
  gate the campaign, and a worker exits the moment it takes one of the
  stop markers queued behind the shards.  Each shard appends to its
  **own JSONL store** (``<store>.shardNNN.jsonl``) whose header records
  the shard identity and id range — a shard store is self-describing
  and individually resumable, so SIGKILLing any worker loses at most
  one in-flight record.  The parent tails those stores while workers
  run and reports progress from them;
* with ``fork`` on and a pure-arm model, each process runs a shard's
  injections as one ascending trigger sweep through a
  :class:`~repro.campaign.runner.ForkEngine`; otherwise every strike
  restores the warmed image;
* after the workers drain the queue the parent re-plans: shards left
  incomplete by dead workers are re-queued for another worker round,
  and whatever still remains after :data:`WORKER_ROUNDS` rounds is
  finished in-parent — the service always completes;
* :func:`merge_shards` folds the shard stores into one merged store,
  verifying every shard's fingerprint and deduplicating by injection
  id.  Records are deterministic, so the merged store is byte-identical
  (modulo order, and the merge sorts) to a single-process run's store.

Fault-injected testing rides on two environment hooks: when
``REPRO_CAMPAIGN_KILL_FILE`` names an existing file, the first worker
to append ``REPRO_CAMPAIGN_KILL_AFTER`` records (default 3) atomically
claims the file by deleting it and SIGKILLs itself — at most one kill
per flag file, injected without patching any production code path.
"""

import multiprocessing
import os
import queue as queue_mod
import shutil
import signal
import tempfile

from repro.campaign.aggregate import StoreTail
from repro.campaign.runner import (CampaignContext, CampaignRun,
                                   CampaignSpec, ForkEngine, _fork_order,
                                   _full_coverage, build_campaign_machine,
                                   execute_injection, forked_injection,
                                   strike_injection)
from repro.campaign.space import injection_at
from repro.campaign.store import ResultStore
from repro.checkpoint import CampaignImage

#: Worker rounds before the parent finishes remaining shards itself.
WORKER_ROUNDS = 2

#: Recovery bound when a SIGKILLed worker dies holding the shard
#: queue's reader lock: ``Queue.get`` applies the timeout to the lock
#: acquisition, so surviving workers see ``Empty`` and return to the
#: parent instead of deadlocking.  Workers otherwise exit on their stop
#: marker without waiting.
STEAL_TIMEOUT = 0.5

#: How often the parent polls the shard stores for progress while
#: workers run.
PROGRESS_INTERVAL = 0.1

KILL_FILE_ENV = "REPRO_CAMPAIGN_KILL_FILE"
KILL_AFTER_ENV = "REPRO_CAMPAIGN_KILL_AFTER"


class ServiceError(RuntimeError):
    """The sharded service cannot produce a complete, verified campaign."""


# ------------------------------------------------------------------ planning

def plan_shards(total, shards):
    """Split ``[0, total)`` into ``(shard_id, start, stop)`` ranges.

    Contiguous, non-empty, covering: the shard count clamps to *total*
    so no shard is empty, and the remainder spreads one extra injection
    over the leading shards.
    """
    if total <= 0:
        return []
    shards = max(1, min(int(shards), total))
    base, extra = divmod(total, shards)
    plan = []
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        plan.append((shard_id, start, start + size))
        start += size
    return plan


def shard_store_path(store_path, shard_id):
    """Per-shard store path derived from the merged store path."""
    root, ext = os.path.splitext(store_path)
    return "%s.shard%03d%s" % (root, shard_id, ext or ".jsonl")


# ---------------------------------------------------------------- kill switch

class _KillSwitch:
    """Deterministic worker-death injection for crash-recovery tests.

    Armed purely through the environment so production code paths stay
    untouched.  The flag file is the claim token: deleting it is atomic,
    so exactly one worker dies per armed file no matter how many race.
    """

    def __init__(self):
        self.path = os.environ.get(KILL_FILE_ENV)
        self.after = int(os.environ.get(KILL_AFTER_ENV, "3"))
        self.appended = 0

    def tick(self):
        """Called after each append; may not return."""
        if not self.path:
            return
        self.appended += 1
        if self.appended < self.after:
            return
        try:
            os.remove(self.path)        # atomic claim; losers keep running
        except OSError:
            self.path = None
            return
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------- warmed image

def build_campaign_image(spec, batch=True):
    """Warm a machine for *spec* and bundle it as a CampaignImage.

    Runs the campaign's one-time work — assembly, the golden run, the
    protected machine build — and captures the pristine cycle-0 machine.
    The bundle carries the golden results in ``meta`` so receiving
    workers skip the golden run too, and the spec fingerprint so a
    worker can refuse an image warmed for a different campaign.
    """
    ctx = CampaignContext(spec, batch=batch)
    if getattr(ctx.model, "owns_execution", False):
        # Generative models build a fresh guest program per injection:
        # there is no shared machine to warm, so the image is just the
        # fingerprint + golden stub that lets workers skip the context's
        # golden run (which the context already skipped here too).
        return CampaignImage(spec.fingerprint(), b"",
                             {"cycle": 0,
                              "golden": {"regs": {},
                                         "cycles": ctx.golden_cycles}})
    machine, __ = build_campaign_machine(ctx.asm, spec.protected, batch=batch)
    checkpoint = machine.checkpoint()
    meta = {"cycle": checkpoint.cycle,
            "golden": {"regs": {str(reg): value
                                for reg, value in ctx.golden_regs.items()},
                       "cycles": ctx.golden_cycles}}
    return CampaignImage(spec.fingerprint(), checkpoint.to_bytes(), meta)


class ImageEngine:
    """Restore-and-strike execution from a deserialized campaign image.

    Keeps one machine of the campaign's shape and rewinds it to the
    image's pristine state before every strike.  Restore is cycle-exact,
    so records are identical to fresh-machine execution — the engine is
    purely a way to skip the per-injection machine build.
    """

    def __init__(self, ctx, image):
        image.verify(ctx.spec.fingerprint())
        self.ctx = ctx
        self.checkpoint = image.checkpoint()
        self.machine, __ = build_campaign_machine(ctx.asm, ctx.spec.protected,
                                                  batch=ctx.batch)
        # Restore immediately: a shape mismatch (image warmed protected,
        # worker built bare) must surface here, not mid-shard.
        self.machine.restore(self.checkpoint)

    def run(self, injection):
        try:
            self.machine.restore(self.checkpoint)
            return strike_injection(self.ctx, self.machine, injection)
        except Exception:
            # Cold-path fallback produces the identical record (and owns
            # crash isolation); the shared machine may be mid-strike, so
            # never reuse it for the failed injection.
            return execute_injection(self.ctx, injection)


def _build_engine(ctx, image, fork=False):
    """``(order, run)`` for one process.

    *order* sequences a shard's pending injections and *run* maps one
    injection to its record.  With *fork* and a pure-arm model, a
    :class:`ForkEngine` runs each shard as one ascending trigger sweep;
    otherwise every strike restores the warmed *image*.  Monitored
    campaigns (``spec.assertions``) take the cold path: the invariant
    monitor hangs state off the machine that a restore does not rewind,
    so reusing one machine would leak one strike's violations into the
    next run's classification.
    """
    def cold(injection):
        return execute_injection(ctx, injection)

    def in_id_order(injections):
        return injections

    if ctx.spec.assertions or getattr(ctx.model, "owns_execution", False):
        return in_id_order, cold
    try:
        if fork and ctx.model.arm_is_pure:
            engine = ForkEngine(ctx)
            return (lambda injections: _fork_order(ctx, injections),
                    lambda injection: forked_injection(ctx, engine,
                                                       injection))
        return in_id_order, ImageEngine(ctx, image).run
    except Exception:
        return in_id_order, cold      # the cold path gives the same records


# ------------------------------------------------------------ shard execution

def _shard_identity(shard):
    """The ``shard`` header field of *shard*'s store."""
    shard_id, start, stop = shard
    return {"id": shard_id, "start": start, "stop": stop}


def _process_shard(ctx, engine, shard, path, kill=None):
    """Run (or resume) one shard against its own store."""
    __, start, stop = shard
    spec = ctx.spec
    identity = _shard_identity(shard)
    store = ResultStore(path)
    kept = []
    planned = False
    if store.exists():
        header, prior = store.verify(spec.fingerprint())
        kept = [record for record in prior
                if start <= record["id"] < stop]
        planned = header.get("shard") == identity
    if not planned:
        # A new store, or one written under another shard count (the
        # campaign resumed with a different --workers): rewrite it for
        # this range, keeping the records that already fall inside it.
        store.write_header(spec.fingerprint(), spec.to_dict(),
                           extra={"shard": identity})
        for record in kept:
            store.append(record)
    done = {record["id"] for record in kept}
    space = ctx.model.build_space(ctx)
    pending = [injection_at(ctx.model, space, index, spec.seed)
               for index in range(start, stop) if index not in done]
    order, run = engine
    try:
        for injection in order(pending):
            store.append(run(injection))
            if kill is not None:
                kill.tick()
    finally:
        store.close()


def _service_worker(spec_dict, image_bytes, task_queue, store_root, batch,
                    fork):
    """Worker loop: steal shards until taking a stop marker (None)."""
    spec = CampaignSpec.from_dict(spec_dict)
    image = CampaignImage.from_bytes(image_bytes)
    ctx = CampaignContext(spec, batch=batch, golden=image.meta["golden"])
    engine = _build_engine(ctx, image, fork=fork)
    kill = _KillSwitch()
    while True:
        try:
            shard = task_queue.get(timeout=STEAL_TIMEOUT)
        except queue_mod.Empty:
            return          # a killed peer holds the reader lock
        if shard is None:
            return
        _process_shard(ctx, engine, shard, shard_store_path(store_root,
                                                            shard[0]),
                       kill=kill)


def _run_worker_round(spec, options, todo, image_bytes, store_root, poll):
    """One worker round over the *todo* shards; survives worker death.

    Calls *poll* every :data:`PROGRESS_INTERVAL` while workers run.
    """
    mp = multiprocessing.get_context()
    task_queue = mp.Queue()
    count = max(1, min(options.workers, len(todo)))
    for shard in todo:
        task_queue.put(shard)
    for __ in range(count):
        task_queue.put(None)
    workers = [mp.Process(target=_service_worker,
                          args=(spec.to_dict(), image_bytes, task_queue,
                                store_root, options.batch, options.fork),
                          daemon=True)
               for __ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        while worker.is_alive():
            worker.join(PROGRESS_INTERVAL)
            poll()
    # Shards may remain enqueued (all workers died early); the parent
    # re-plans from the stores, so just detach from the queue cleanly.
    task_queue.cancel_join_thread()
    task_queue.close()


def _shard_done_ids(spec, shard, path):
    """Ids in ``[start, stop)`` that *path* already holds records for.

    A store written under another shard plan counts as holding none, so
    :func:`_process_shard` rewrites it for this plan.
    """
    __, start, stop = shard
    store = ResultStore(path)
    if not store.exists():
        return set()
    header, records = store.verify(spec.fingerprint())
    if header.get("shard") != _shard_identity(shard):
        return set()
    return {record["id"] for record in records if start <= record["id"] < stop}


def _incomplete_shards(spec, shards, store_root):
    """The shards whose stores do not yet cover their full id range."""
    todo = []
    for shard in shards:
        __, start, stop = shard
        done = _shard_done_ids(spec, shard, shard_store_path(store_root,
                                                             shard[0]))
        if not set(range(start, stop)) <= done:
            todo.append(shard)
    return todo


def _store_progress(progress, total, paths):
    """A ``poll()`` that reports *progress* from the shard stores.

    Each poll reads only the bytes appended since the last one
    (:class:`~repro.campaign.aggregate.StoreTail`), counts distinct run
    ids, and reports the count only when it changed.
    """
    if progress is None:
        return lambda: None
    tails = [StoreTail(path) for path in paths]
    done = set()
    reported = None

    def poll():
        nonlocal reported
        for tail in tails:
            done.update(payload["id"] for payload in tail.poll()
                        if payload.get("kind") == "run")
        if len(done) != reported:
            reported = len(done)
            progress(reported, total)
    return poll


# -------------------------------------------------------------------- merging

def merge_shards(spec, shard_paths, merged_path=None):
    """Fold shard stores into one verified, deduplicated record list.

    Every shard store's fingerprint is checked against *spec* (a foreign
    shard raises :class:`~repro.campaign.store.StoreMismatch`), records
    are deduplicated by injection id (first wins; records are
    deterministic so duplicates are identical), and missing coverage is
    a loud :class:`ServiceError`.  With *merged_path* the result is also
    written as a normal campaign store, indistinguishable from one a
    single-process run would have produced.
    """
    fingerprint = spec.fingerprint()
    records = []
    seen = set()
    for path in shard_paths:
        store = ResultStore(path)
        if not store.exists():
            raise ServiceError("shard store %s is missing" % path)
        __, shard_records = store.verify(fingerprint)
        for record in shard_records:
            if record["id"] in seen:
                continue
            seen.add(record["id"])
            records.append(record)
    missing = set(range(spec.injections)) - seen
    if missing:
        raise ServiceError("shard stores cover %d/%d injections "
                           "(first missing id: %d)"
                           % (len(seen), spec.injections, min(missing)))
    records.sort(key=lambda record: record["id"])
    if merged_path:
        merged = ResultStore(merged_path)
        merged.write_header(fingerprint, spec.to_dict())
        for record in records:
            merged.append(record)
        merged.close()
    return records


# ------------------------------------------------------------------- service

def run_service(spec, options, progress=None):
    """Execute *spec* as a sharded campaign; returns a CampaignRun.

    The orchestration loop: plan shards, warm one image, run worker
    rounds (re-queueing shards that dead workers left incomplete),
    finish any remainder in-parent, merge.  Reached via
    ``run_campaign(spec, options=ExecutionOptions(workers=N, ...))``;
    ``options.shards`` defaults to ``options.workers``.
    """
    options = options.replace(shards=options.shards or options.workers)
    total = spec.injections
    tempdir = None
    if options.store:
        store_root = options.store
        merged = ResultStore(store_root)
        if merged.exists():
            __, prior = merged.verify(spec.fingerprint())
            if _full_coverage(spec, prior):
                if progress is not None:
                    progress(total, total)
                return CampaignRun(spec, prior, options)
    else:
        tempdir = tempfile.mkdtemp(prefix="repro-campaign-")
        store_root = os.path.join(tempdir, "campaign.jsonl")
    shards = plan_shards(total, options.shards)
    paths = [shard_store_path(store_root, shard[0]) for shard in shards]
    poll = _store_progress(progress, total, paths)
    try:
        image = build_campaign_image(spec, batch=options.batch)
        image_bytes = image.to_bytes()
        rounds = 0
        while True:
            todo = _incomplete_shards(spec, shards, store_root)
            if not todo:
                break
            if rounds >= WORKER_ROUNDS:
                # Completion guarantee: whatever worker rounds could not
                # finish (repeated kills, a broken pool host) runs here,
                # in-process, where nothing can be stolen out from under
                # it.
                ctx = CampaignContext(spec, batch=options.batch,
                                      golden=image.meta["golden"])
                engine = _build_engine(ctx, image, fork=options.fork)
                for shard in todo:
                    _process_shard(ctx, engine, shard,
                                   shard_store_path(store_root, shard[0]))
                    poll()
                break
            rounds += 1
            _run_worker_round(spec, options, todo, image_bytes, store_root,
                              poll)

        records = merge_shards(spec, paths, merged_path=options.store)
        poll()
        return CampaignRun(spec, records, options)
    finally:
        if tempdir is not None:
            shutil.rmtree(tempdir, ignore_errors=True)
