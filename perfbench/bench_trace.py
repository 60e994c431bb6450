"""Per-layer host-time tracing from outside the simulator.

:class:`LayerTracer` replaces the public entry points of each layer
(:data:`LAYER_TARGETS`) with timing wrappers.  Wrappers go on the class
or the module, never on an instance: an instance attribute shadowing a
method would materialise CPython's per-instance dict, and a shadowed
``Pipeline.step`` would push ``Pipeline.run`` off its batched path.
Install before any machine is built and uninstall afterwards.

Each wrapped call is one span.  A span's *self time* is its duration
minus the time covered by the spans it directly contains, so summing
self time over every layer gives the time spent inside any traced call;
what is left of the traced wall time is reported as ``other``.
"""

import functools
import sys
import time

from repro import checkpoint, system
from repro.campaign import runner as campaign_runner
from repro.campaign import space as campaign_space
from repro.isa import assembler, encoding
from repro.kernel.checkpoints import CheckpointStore
from repro.kernel.kernel import Kernel
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Pipeline
from repro.program import image as program_image
from repro.program.loader import Loader
from repro.rse.engine import RSE
from repro.rse.modules.ddt import DDT
from repro.rse.modules.icm import ICM

#: layer -> (owner, attribute names).  Owners are classes (wrapped in
#: the class dict) or modules (wrapped wherever a loaded module holds a
#: reference to the function).  Only attributes an owner defines itself
#: are listed: wrapping an inherited ``RSEModule.step`` on a subclass
#: would change what ``RSE.quiescent`` sees.
LAYER_TARGETS = {
    "isa": [(assembler, ("assemble",)), (encoding, ("decode",))],
    "program": [(program_image, ("build_image",)), (Loader, ("load",))],
    "system": [(system, ("build_machine",))],
    "pipeline": [(Pipeline, ("run", "step"))],
    "memory": [(MemoryHierarchy,
                ("ifetch", "dload", "dstore", "mau_access"))],
    "rse": [(RSE, ("step", "on_dispatch", "on_operands", "on_execute",
                   "on_mem_load", "on_commit", "on_squash",
                   "pre_commit_store", "check_blocks_loads", "ioq_gate",
                   "quiescent", "drain"))],
    "rse.icm": [(ICM, ("configure", "on_check", "on_fetch",
                       "on_mau_complete", "step", "on_squash"))],
    "rse.ddt": [(DDT, ("on_commit", "pre_commit_store", "on_check",
                       "on_mau_complete", "register_thread",
                       "forget_thread", "reset_tracking"))],
    "kernel": [(Kernel, ("run", "load_process", "set_request_source",
                         "spawn_thread", "terminate_thread",
                         "checkpoint_page")),
               (CheckpointStore, ("save_from", "garbage_collect"))],
    "checkpoint": [(checkpoint, ("capture", "restore", "warm"))],
    "campaign": [(campaign_runner.CampaignContext, ("__init__",)),
                 (campaign_runner.ForkEngine, ("__init__", "strike")),
                 (campaign_space, ("sample_injections",)),
                 (campaign_runner, ("execute_injection", "forked_injection",
                                    "strike_injection", "classify"))],
}

LAYERS = tuple(LAYER_TARGETS)

#: Functions whose per-call durations are kept (for percentiles).
KEEP_DURATIONS = {"checkpoint.restore"}


class LayerTracer:
    """Times calls into each layer; accumulates calls and self time."""

    def __init__(self, observers=None):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.fn_calls = {}
        self.durations = {name: [] for name in KEEP_DURATIONS}
        #: qualified name -> callback(*args) run after the call, outside
        #: every span (the benchmark uses it to read campaign machines).
        self.observers = dict(observers or {})
        self._stack = []
        self._patched = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer, qualname, fn):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        fn_calls = self.fn_calls
        fn_calls[qualname] = 0
        durations = self.durations.get(qualname)
        observer = self.observers.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[layer] += 1
                self_s[layer] += elapsed - frame[0]
                fn_calls[qualname] += 1
                if durations is not None:
                    durations.append(elapsed)
                if observer is not None:
                    pause = clock()
                    observer(*args)
                    if stack:
                        # The observer is the benchmark's own work:
                        # keep it out of the enclosing span.
                        stack[-1][0] += clock() - pause

        return traced

    def install(self):
        """Wrap every target; must run before any machine is built."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYER_TARGETS.items():
            for owner, names in targets:
                for name in names:
                    self._install_one(layer, owner, name)

    def _install_one(self, layer, owner, name):
        # "Pipeline.step", "checkpoint.restore", "runner.classify", ...
        qualname = "%s.%s" % (owner.__name__.rsplit(".", 1)[-1], name)
        if isinstance(owner, type):
            original = owner.__dict__[name]
            setattr(owner, name, self._wrap(layer, qualname, original))
            self._patched.append((owner, name, original))
            return
        original = getattr(owner, name)
        wrapper = self._wrap(layer, qualname, original)
        # A module-level function is also bound by name in every module
        # that did ``from owner import name``: rebind all of them.
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is original:
                setattr(module, name, wrapper)
                self._patched.append((module, name, original))

    def uninstall(self):
        """Put every original back (class dicts and module globals)."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def layer_report(self, wall_s):
        """``{layer: {calls, self_s, self_share}}`` plus ``other``."""
        report = {}
        traced_total = 0.0
        for layer in LAYERS:
            traced_total += self.self_s[layer]
            report[layer] = {
                "calls": self.calls[layer],
                "self_s": self.self_s[layer],
                "self_share": self.self_s[layer] / wall_s,
            }
        other = wall_s - traced_total
        report["other"] = {"self_s": other, "self_share": other / wall_s}
        return report
