"""``Machine.assertions`` — the per-machine assertion hub.

Mirrors ``Machine.obs``: strictly opt-in, zero residual cost when never
attached.  Attaching subscribes a pipeline-engine
:class:`~repro.assertions.monitor.AssertionMonitor` to the pipeline's
event ports, mirrors per-property counters into the obs metrics
registry (``assertions.<id>``), and contributes an ``assertions``
section to ``Machine.snapshot()`` carrying the violation records.

Checkpoint interplay: the port table is wiring, not machine state, so
a capture taken while monitoring equals a bare machine's.  The hub
shadows ``machine.checkpoint``/``machine.restore`` only to emit the
``checkpoint``/``restore`` events the MAU-quiesce and page-version
properties consume.
"""

from repro.assertions.adapters import PipelineAdapter
from repro.assertions.monitor import AssertionMonitor
from repro.checkpoint import CheckpointError, _pending_requests


def _pending_callbacks(rse):
    """Does the MAU hold requests that only a Python callback can finish?"""
    if rse is None:
        return False
    return any(request.callback is not None
               for request in _pending_requests(rse.mau))


class AssertionHub:
    """Attach/detach assertion monitoring on one :class:`Machine`."""

    def __init__(self, machine):
        self.machine = machine
        self.monitor = None          # survives detach: snapshot keeps results
        self._adapter = None

    # -------------------------------------------------------------- attach

    def is_attached(self):
        return self._adapter is not None

    def attach(self, properties=None):
        """Start monitoring; returns the :class:`AssertionMonitor`."""
        if self._adapter is not None:
            raise RuntimeError("assertions already attached; detach() first")
        machine = self.machine
        monitor = AssertionMonitor("pipeline", properties,
                                   metrics=machine.obs.metrics)
        adapter = PipelineAdapter(machine.pipeline, monitor)
        adapter.attach()
        checkpoint_handlers = monitor.handlers("checkpoint")
        restore_handlers = monitor.handlers("restore")
        redirect_handlers = monitor.handlers("redirect")

        orig_checkpoint = machine.checkpoint
        orig_restore = machine.restore

        def checkpoint():
            pending = _pending_callbacks(machine.rse)
            try:
                captured = orig_checkpoint()
            except CheckpointError:
                for handler in checkpoint_handlers:
                    handler(False, pending)
                raise
            for handler in checkpoint_handlers:
                handler(True, pending)
            return captured

        def restore(captured):
            pre_versions = dict(machine.memory.write_versions)
            result = orig_restore(captured)
            for handler in restore_handlers:
                handler(machine.memory, captured, pre_versions)
            for handler in redirect_handlers:
                handler(machine.pipeline.fetch_pc)
            return result

        machine.checkpoint = checkpoint
        machine.restore = restore

        self.monitor = monitor
        self._adapter = adapter
        return monitor

    def detach(self):
        """Stop monitoring (runs the final sweeps); results stay readable."""
        if self._adapter is None:
            return
        del self.machine.checkpoint
        del self.machine.restore
        adapter, self._adapter = self._adapter, None
        adapter.detach()

    # ------------------------------------------------------------- results

    def violation_count(self):
        return 0 if self.monitor is None else self.monitor.violation_count()

    def violations(self):
        return [] if self.monitor is None else list(self.monitor.violations)

    def snapshot(self):
        """The hub's section of the machine snapshot document."""
        doc = {"attached": self.is_attached()}
        if self.monitor is None:
            doc.update(properties=[], counts={}, violations=[])
        else:
            sub = self.monitor.snapshot()
            doc.update(properties=sub["properties"], counts=sub["counts"],
                       violations=sub["violations"])
        return doc
