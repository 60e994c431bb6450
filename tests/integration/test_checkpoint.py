"""Checkpoint/restore determinism over a difftest-generated corpus.

For every generated program three pipeline executions must be
indistinguishable, judged by the difftest oracle's own comparator
(retired-pc stream, stop state, registers, instret, dirtied pages):

* **cold** — one uninterrupted run;
* **segmented** — run K cycles, take a checkpoint, keep running;
* **restored** — rewind the segmented machine to the checkpoint and run
  the tail again.

The segmented run proves taking a checkpoint perturbs nothing; the
restored run proves a checkpoint replays the exact timeline, which is
what the campaign fork engine stakes correctness on.
"""

import pytest

from repro.difftest import generate
from repro.difftest.oracle import EngineRun, _compare
from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.system import build_machine

STACK_TOP = 0x7FFF0000
BUDGET = 200_000
SEEDS = (2, 11, 23, 38, 47)


def build_recorded_machine(asm):
    machine = build_machine(with_rse=False)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP
    stream = []
    machine.pipeline.ports.subscribe(
        "commit", lambda uop, cycle: stream.append(uop.pc))
    return machine, stream


def engine_run(label, machine, stream, event):
    kind = event.kind
    stop = {EventKind.HALT: "halt", EventKind.FAULT: "fault",
            EventKind.MAX_CYCLES: "limit"}.get(kind, kind.value)
    fault_pc = event.pc if stop == "fault" else None
    cause = event.cause if stop == "fault" else None
    return EngineRun(label, list(stream), list(machine.pipeline.regs),
                     machine.pipeline.stats.instret, stop, fault_pc,
                     cause, machine.memory)


def assert_identical(asm, ref, other):
    divergence = _compare(asm, ref, other)
    assert divergence is None, divergence.report()


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_replays_generated_program_exactly(seed):
    program = generate(seed)
    asm = assemble(program.source)

    # Cold reference run.
    cold_machine, cold_stream = build_recorded_machine(asm)
    cold_event = cold_machine.pipeline.run(max_cycles=BUDGET)
    cold = engine_run("cold", cold_machine, cold_stream, cold_event)
    total = cold_machine.pipeline.cycle
    if total < 40:
        pytest.skip("program too short to segment (%d cycles)" % total)

    # Segmented run: checkpoint mid-flight, then continue to the end.
    machine, stream = build_recorded_machine(asm)
    split = total // 2
    event = machine.pipeline.run(max_cycles=split)
    assert event.kind is EventKind.MAX_CYCLES
    assert machine.pipeline.cycle == split
    checkpoint = machine.checkpoint()
    prefix = len(stream)

    event = machine.pipeline.run(max_cycles=BUDGET - split)
    segmented = engine_run("segmented", machine, stream, event)
    assert_identical(asm, cold, segmented)

    # Restore and replay the tail — twice, since one checkpoint must
    # support any number of restores (the fork engine restores per
    # injection).  The commit subscription is wiring, not machine
    # state: it survives the restore and records the replayed tail.
    for attempt in ("restored", "restored-again"):
        machine.restore(checkpoint)
        assert machine.pipeline.cycle == split
        del stream[prefix:]
        event = machine.pipeline.run(max_cycles=BUDGET - split)
        replayed = engine_run(attempt, machine, stream, event)
        assert_identical(asm, cold, replayed)
