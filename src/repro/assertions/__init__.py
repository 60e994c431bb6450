"""repro.assertions — portable microarchitectural invariants.

One declarative property catalog (:mod:`repro.assertions.properties`),
written against engine-neutral events, compiled by per-engine adapters
(:mod:`repro.assertions.adapters`) onto each engine's observation
points — the pipeline's event ports, the interpreter's predeclared
``step``/``run``/``trace_mem`` — so the identical assertion runs on the
reference interpreter, the predecode engine and the out-of-order
pipeline.  Entry points:

* ``Machine.assertions`` — the per-machine hub
  (:class:`~repro.assertions.hub.AssertionHub`);
* :func:`attach_funcsim` / :func:`attach_pipeline` — bare-engine
  attachment (the difftest oracle uses these);
* :func:`catalog` — ``(id, description, engines)`` for the CLI.
"""

from repro.assertions.adapters import attach_funcsim, attach_pipeline
from repro.assertions.hub import AssertionHub
from repro.assertions.monitor import AssertionMonitor, Violation
from repro.assertions.properties import (PROPERTIES, catalog,
                                         shared_properties)

__all__ = [
    "PROPERTIES", "AssertionHub", "AssertionMonitor", "Violation",
    "attach_funcsim", "attach_pipeline", "catalog", "shared_properties",
]
