"""Process-parallel execution + cost-oracle memoisation.

Turns the cycle model's *modelled* K× sharding speedups into *measured*
wall-clock ones:

* :mod:`repro.parallel.pool` — a persistent spawn-worker pool with
  shared-memory NumPy transport (``--workers N|auto``; ``workers=1`` is
  the untouched serial path).
* :mod:`repro.parallel.dispatch` — executors that run
  ``ShardedBackend`` row-split forwards and vec-env world-group kernels on
  that pool, shipping weights/geometry once and deltas on publish.
* :mod:`repro.parallel.memo` — memoisation for the closed-form cost
  oracles with hit/miss counters exported via ``repro.obs``.
* :mod:`repro.parallel.procstate` — the worker-process flag that keeps
  the ``PROBE``/``FAULTS`` seams coordinator-only.
"""

from repro.parallel.memo import (
    MemoCache,
    cache,
    clear_memo_caches,
    memo_disabled,
    memo_stats,
    memoised,
    publish_memo_metrics,
    set_memo_enabled,
)
from repro.parallel.pool import (
    WorkerError,
    WorkerPool,
    cpu_count,
    get_pool,
    resolve_workers,
    shutdown_pool,
)
from repro.parallel.procstate import in_worker, mark_worker

__all__ = [
    "MemoCache",
    "cache",
    "clear_memo_caches",
    "memo_disabled",
    "memo_stats",
    "memoised",
    "publish_memo_metrics",
    "set_memo_enabled",
    "WorkerError",
    "WorkerPool",
    "cpu_count",
    "get_pool",
    "resolve_workers",
    "shutdown_pool",
    "in_worker",
    "mark_worker",
]
