"""Batch fast-path vs reference loop: cycle-exact equivalence.

``PipelineConfig(batch=True)`` lets :meth:`Pipeline.run` execute a
fused copy of the cycle loop and jump over provably-dead stall cycles.
The contract is *identity*: events, cycle counts, architectural state
and every stats counter must equal the one-``step()``-per-cycle
reference loop.  These tests compare complete fingerprints across the
Table 4 quick workloads and every edge that interacts with the fast
path: the timer, ``mem_check`` faults, self-modifying code, and an
attached RSE with the ICM check injector.
"""

from repro.campaign.runner import build_campaign_machine
from repro.experiments import table4
from repro.isa.assembler import assemble
from repro.pipeline import PipelineConfig
from repro.pipeline.core import EventKind

from helpers import load_assembly, make_pipeline


def fingerprint(pipeline, event):
    doc = {"kind": event.kind.value, "pc": event.pc,
           "cycle": pipeline.cycle, "regs": list(pipeline.regs)}
    doc.update(vars(pipeline.stats))
    return doc


def run_pair(source, max_cycles=2_000_000, prep=None, constants=None):
    """Run *source* under batch and step configs; return both prints."""
    prints = {}
    for batch in (False, True):
        asm, mem = load_assembly(source, constants=constants)
        pipeline = make_pipeline(mem, asm.entry,
                                 config=PipelineConfig(batch=batch))
        if prep is not None:
            prep(pipeline)
        event = pipeline.run(max_cycles=max_cycles)
        prints[batch] = fingerprint(pipeline, event)
    return prints


def assert_identical(prints):
    assert prints[True] == prints[False], {
        key: (prints[False][key], prints[True][key])
        for key in prints[False]
        if prints[False][key] != prints[True][key]}


def test_table4_workloads_cycle_exact():
    for name, source in table4.workload_sources(quick=True).items():
        prints = run_pair(source, max_cycles=50_000_000)
        assert prints[True]["kind"] == "halt", name
        assert_identical(prints)


def test_timer_fires_at_identical_cycle():
    source = """
main:
    li $t0, 0
loop:
    addi $t0, $t0, 1
    j loop
"""

    def arm(pipeline):
        pipeline.timer_deadline = 137

    prints = run_pair(source, max_cycles=10_000, prep=arm)
    assert prints[True]["kind"] == "timer"
    assert_identical(prints)


def test_mem_check_fault_is_identical():
    source = """
    .data
x:  .word 0
    .text
main:
    la $t0, x
    li $t1, 1
    sw $t1, 0($t0)
    halt
"""

    def deny(pipeline):
        pipeline.mem_check = (lambda addr, size, kind:
                              "write denied" if kind == "w"
                              and addr >= 0x10000000 else None)

    prints = run_pair(source, max_cycles=10_000, prep=deny)
    assert prints[True]["kind"] == "fault"
    assert_identical(prints)


def test_self_modifying_code_is_identical():
    from repro.isa.encoding import encode
    from repro.isa.instructions import SPEC_BY_NAME

    patched = encode(SPEC_BY_NAME["addi"], rs=16, rt=16, imm=5)
    source = """
main:
    li $t1, PATCH
    la $t0, target
    sw $t1, 0($t0)
target:
    addi $s0, $s0, 0
    addi $s0, $s0, 0
    halt
"""
    prints = run_pair(source, max_cycles=10_000,
                      constants={"PATCH": patched})
    assert prints[True]["kind"] == "halt"
    # The store really rewrote straight-line code the pipeline had
    # already fetched: both engines must refetch and see +5.
    assert prints[True]["regs"][16] == 5
    assert_identical(prints)


def test_rse_and_check_injector_are_identical():
    # The protected campaign machine carries the RSE, the ICM, and the
    # CHECK injector — the full set of external agents the fast loop
    # must disengage for.  Batch on/off must agree cycle for cycle.
    source = table4.workload_sources(quick=True)["kmeans"]
    asm = assemble(source)
    prints = {}
    for batch in (False, True):
        machine, __ = build_campaign_machine(asm, protected=True,
                                             batch=batch)
        event = machine.pipeline.run(max_cycles=50_000_000)
        prints[batch] = fingerprint(machine.pipeline, event)
    assert prints[True]["kind"] == "halt"
    assert_identical(prints)


def test_batch_false_forces_step_loop():
    source = "main:\n li $t0, 3\n halt\n"
    asm, mem = load_assembly(source)
    pipeline = make_pipeline(mem, asm.entry,
                             config=PipelineConfig(batch=False))
    event = pipeline.run(max_cycles=1_000)
    assert event.kind is EventKind.HALT


def test_shadowed_step_deopts_to_reference_loop():
    # Anything that monkeypatches step() (adapters, tests) must win:
    # run() may not take the fused path around it.
    source = "main:\n li $t0, 3\n halt\n"
    asm, mem = load_assembly(source)
    pipeline = make_pipeline(mem, asm.entry,
                             config=PipelineConfig(batch=True))
    seen = []
    original = pipeline.step

    def spy():
        seen.append(pipeline.cycle)
        return original()

    pipeline.step = spy
    event = pipeline.run(max_cycles=1_000)
    assert event.kind is EventKind.HALT
    assert len(seen) == pipeline.cycle    # every cycle went through spy


def test_cycle_limit_is_exact_when_a_skip_reaches_it():
    """A dead-cycle skip that lands on the limit must stop there, as the
    step loop does — on a framework machine (quiescent RSE) and on a
    bare one whose ports have a subscriber (both skip outside the fused
    loop)."""
    from repro.campaign import DEMO_WORKLOAD
    from repro.system import build_machine

    asm = assemble(DEMO_WORKLOAD)
    for with_rse in (True, False):
        for limit in range(20, 200, 7):
            machine = build_machine(with_rse=with_rse)
            machine.memory.store_bytes(asm.text_base, asm.text)
            machine.memory.store_bytes(asm.data_base, asm.data)
            machine.pipeline.reset_at(asm.entry)
            machine.pipeline.ports.subscribe("commit", lambda uop, cycle: None)
            event = machine.pipeline.run(max_cycles=limit)
            assert event.kind is EventKind.MAX_CYCLES
            assert machine.pipeline.cycle == limit, (with_rse, limit)
