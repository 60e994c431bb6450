"""Execution options: *how* a campaign runs, never *what* it computes.

A campaign's records are fully determined by its
:class:`~repro.campaign.runner.CampaignSpec`; everything about worker
processes, chunking, sharding, checkpoint forking, the batch fast-path
and result storage is an execution detail that must never leak into the
spec fingerprint — the same spec run serially, sharded across workers,
or resumed from a half-written store produces identical records.

Those details used to accrete one keyword argument at a time on
:func:`~repro.campaign.runner.run_campaign` (``workers``,
``chunk_size``, ``store_path``, ``fork``, ``batch``); this module
consolidates them into one frozen dataclass so the canonical signature
is ``run_campaign(spec, options=ExecutionOptions(...))`` and the CLI,
the service and the benchmarks all build the same object in one place.
"""

import dataclasses

__all__ = ["ExecutionOptions"]


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a campaign (not part of the spec fingerprint).

    Attributes:
        workers: >1 fans injections out over a process pool (unsharded
            mode) or caps the shard worker pool (sharded mode).
        chunk_size: injections handed to a pool worker per dispatch
            (unsharded mode only; shards are the dispatch unit when
            sharding).
        fork: share trigger prefixes via machine checkpoints instead of
            re-simulating the warmup per injection (pure-arm models).
        batch: False forces the pipeline's one-step()-per-cycle
            reference loop (``--no-jit``).
        shards: >0 routes execution through the sharded campaign
            service (:mod:`repro.campaign.service`): the injection
            space splits into that many seed-range shards with
            work-stealing workers and per-shard resumable stores.
        store: JSONL result store path; an existing store resumes the
            campaign.  In sharded mode this is the merged store and the
            per-shard stores live beside it.
    """

    workers: int = 1
    chunk_size: int = 16
    fork: bool = False
    batch: bool = True
    shards: int = 0
    store: str = None

    def replace(self, **changes):
        """A copy with *changes* applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in names})
