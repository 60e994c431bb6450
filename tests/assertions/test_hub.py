"""``Machine.assertions``: attach/detach lifecycle, snapshot, metrics."""

import pytest

from repro.campaign import DEMO_WORKLOAD
from repro.program.layout import MemoryLayout
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image


def build_loaded(with_rse=False, source=DEMO_WORKLOAD):
    machine = build_machine(with_rse=with_rse,
                            modules=("icm",) if with_rse else ())
    image, asm = build_workload_image(source, MemoryLayout())
    machine.kernel.load_process(image)
    return machine, asm


def test_clean_run_bare_machine_no_violations():
    machine, __ = build_loaded()
    machine.assertions.attach()
    result = machine.kernel.run(max_cycles=2_000_000)
    assert result.reason == "halt"
    machine.assertions.detach()
    assert machine.assertions.violation_count() == 0


def test_clean_run_rse_machine_no_violations():
    machine, __ = build_loaded(with_rse=True)
    machine.assertions.attach()
    result = machine.kernel.run(max_cycles=2_000_000)
    assert result.reason == "halt"
    machine.assertions.detach()
    assert machine.assertions.violation_count() == 0


def test_monitoring_is_architecturally_invisible():
    baseline, __ = build_loaded(with_rse=True)
    result_a = baseline.kernel.run(max_cycles=2_000_000)
    monitored, __ = build_loaded(with_rse=True)
    monitored.assertions.attach()
    result_b = monitored.kernel.run(max_cycles=2_000_000)
    assert result_a.reason == result_b.reason
    assert result_a.cycles == result_b.cycles
    assert (baseline.pipeline.stats.instret ==
            monitored.pipeline.stats.instret)
    assert list(baseline.pipeline.regs) == list(monitored.pipeline.regs)


def test_double_attach_raises_and_detach_is_idempotent():
    machine, __ = build_loaded()
    machine.assertions.attach()
    with pytest.raises(RuntimeError):
        machine.assertions.attach()
    machine.assertions.detach()
    machine.assertions.detach()          # second detach is a no-op
    machine.assertions.attach()          # re-attach after detach works
    machine.assertions.detach()


def test_detach_leaves_no_shadows_behind():
    machine, __ = build_loaded(with_rse=True)
    pipeline_dict_before = set(machine.pipeline.__dict__)
    rse_dict_before = set(machine.rse.__dict__)
    ports = machine.pipeline.ports
    ports_before = {event: list(getattr(ports, event))
                    for event in ports.EVENTS}
    machine.assertions.attach()
    machine.assertions.detach()
    assert {event: list(getattr(ports, event))
            for event in ports.EVENTS} == ports_before
    assert set(machine.pipeline.__dict__) == pipeline_dict_before
    assert set(machine.rse.__dict__) == rse_dict_before
    assert "checkpoint" not in machine.__dict__
    assert "restore" not in machine.__dict__


def test_snapshot_section_schema():
    machine, __ = build_loaded()
    doc = machine.snapshot()
    section = doc["assertions"]
    assert section == {"attached": False, "properties": [],
                       "counts": {}, "violations": []}
    machine.assertions.attach()
    machine.kernel.run(max_cycles=2_000_000)
    section = machine.snapshot()["assertions"]
    assert section["attached"] is True
    assert len(section["properties"]) >= 8
    assert section["violations"] == []
    machine.assertions.detach()
    # Results survive detach for post-mortem reads.
    section = machine.snapshot()["assertions"]
    assert section["attached"] is False
    assert len(section["properties"]) >= 8


def test_violations_mirror_into_metrics_registry():
    machine, __ = build_loaded()
    machine.assertions.attach()
    machine.assertions.monitor.violation("retire-alignment", "synthetic",
                                         pc=0x1001)
    counter = machine.obs.metrics.counter("assertions.retire-alignment")
    assert counter.value == 1
    assert machine.assertions.violation_count() == 1
    snap = machine.snapshot()["assertions"]
    assert snap["counts"] == {"retire-alignment": 1}
    assert snap["violations"][0]["detail"] == "synthetic"


def test_property_subset_attach():
    machine, __ = build_loaded()
    monitor = machine.assertions.attach(
        properties=["store-reaches-memory", "retire-alignment"])
    assert monitor.property_ids == ["store-reaches-memory",
                                    "retire-alignment"]
    result = machine.kernel.run(max_cycles=2_000_000)
    assert result.reason == "halt"
    assert machine.assertions.violation_count() == 0
