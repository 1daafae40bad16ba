"""Process-role flag: is this interpreter a pool worker?

The observability (``PROBE``) and fault-injection (``FAULTS``) seams are
*process-local by design*: the coordinator process owns the only live
tracer, metrics registry and fault ledger, and pool workers run pure
compute (row-split array forwards, env group kernels) with both seams disabled.
A worker that activated either seam would accumulate spans or fault
events in a process that nobody ever drains — silent data loss dressed
up as telemetry.  ``Probe.activate`` and ``FaultSeam.activate`` call
:func:`in_worker` and fail loudly instead.

This module must stay import-free (stdlib only, no numpy, no repro
imports): it is imported by ``repro.obs.probes`` and
``repro.faults.injector``, which sit below everything else.
"""

from __future__ import annotations

__all__ = ["mark_worker", "in_worker"]

_IN_WORKER = False


def mark_worker() -> None:
    """Flag this process as a pool worker (called once in worker main)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True iff this interpreter is a ``repro.parallel`` pool worker."""
    return _IN_WORKER
