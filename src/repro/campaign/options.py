"""Execution options: *how* a campaign runs, never *what* it computes.

A campaign's records are fully determined by its
:class:`~repro.campaign.runner.CampaignSpec`; everything about worker
processes, sharding, checkpoint forking, the batch fast-path and result
storage is an execution detail that must never leak into the
spec fingerprint — the same spec run serially, sharded across workers,
or resumed from a half-written store produces identical records.

This module holds them in one frozen dataclass, so the canonical
signature is ``run_campaign(spec, options=ExecutionOptions(...))`` and
the CLI, the service and the benchmarks all build the same object.
Option dicts stored with keys an older version knew (``chunk_size``)
still load: :meth:`ExecutionOptions.from_dict` drops unknown keys.
"""

import dataclasses

__all__ = ["ExecutionOptions"]


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a campaign (not part of the spec fingerprint).

    Attributes:
        workers: >1 runs the campaign on the sharded service
            (:mod:`repro.campaign.service`) with that many worker
            processes; 1 runs it in-process.
        fork: share trigger prefixes via machine checkpoints instead of
            re-simulating the warmup per injection (pure-arm models),
            in-process and in every service worker alike.
        batch: False forces the pipeline's one-step()-per-cycle
            reference loop (``--no-jit``).
        shards: seed-range shards the service splits the injection
            space into (work-stealing workers, per-shard resumable
            stores); 0 means one shard per worker.  >0 routes even a
            one-worker campaign through the service.
        store: JSONL result store path; an existing store resumes the
            campaign.  On the service this is the merged store and the
            per-shard stores live beside it.
    """

    workers: int = 1
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
