"""Executor seams: shard forwards and env group kernels on the pool.

Two callers, one pattern.  Each executor owns a set of *named states*
living in the workers (a sharded backend's array datapath, a world
group's static geometry), ships them once, and afterwards sends only
the per-call batch.  The worker functions below are **pure**: they run
with the ``PROBE``/``FAULTS`` seams disabled (fresh spawn processes never
activate them — :mod:`repro.parallel.procstate`), so a chunk forwarded
in a worker computes exactly what the same chunk computes inline.  All
observability replay (span re-emission) and all fault decisions stay in
the coordinator, which is what keeps parallel runs bitwise identical to
serial ones at any worker count.
"""

from __future__ import annotations

import time

from repro.parallel.pool import get_pool

__all__ = ["ShardExecutor", "GroupExecutor"]


# ------------------------- worker functions ---------------------------
# Module-level so they pickle by reference; imports of heavier repro
# modules happen lazily inside, keeping this module importable from the
# bottom of the stack.


def _w_forward(array, rows):
    """Forward a row slice through the array; ``(q_values, wall_ns)``.

    The wall time is measured in the worker so the coordinator can
    re-emit a faithful ``shard.forward`` span without timing the IPC.
    """
    start = time.perf_counter_ns()
    q_values, _cost = array.forward_batch(rows)
    return q_values, time.perf_counter_ns() - start


def _w_refresh(array, raw, value):
    """Apply a weight delta to a resident array datapath.

    The systolic forward reads only the quantized raw codes and the
    dequantized values (plus static layer specs), so replacing these two
    dicts is a complete weight refresh.
    """
    array._raw = raw
    array._value = value


def _w_render_group(group, origins, dirs, rows):
    from repro.fleet.vec_env import group_horizontal

    return group_horizontal(group, origins, dirs, rows)


# Helpers for the spawn-safety regression test: workers must not be able
# to activate the coordinator-only seams.
def _w_activate_probe():
    from repro.obs.probes import PROBE

    PROBE.activate()


def _w_activate_faults():
    from repro.faults.injector import FAULTS
    from repro.faults.plan import FaultPlan

    FAULTS.activate(FaultPlan(seed=1))


def _w_in_worker():
    from repro.parallel.procstate import in_worker

    return in_worker()


# --------------------------- executors --------------------------------


class ShardExecutor:
    """Runs a sharded backend's row-split forwards on the process pool.

    The backend's one array datapath (network, quantized weight codes,
    layer specs) ships to each worker once; afterwards only weight-dict
    deltas travel, and only when the owner bumps its
    ``_weights_version`` (``WeightBus`` publish, chaos weight
    corruption, buffer restore).  Costs are priced in the coordinator,
    so workers return only Q values and their wall time.
    """

    def __init__(self, backend, workers: int):
        self.backend = backend
        self.workers = int(workers)
        self._key = f"shard-array-{id(backend)}"
        self._shipped: dict[int, int] = {}  # worker index -> weights version

    def _ensure(self, width: int) -> None:
        version = self.backend._weights_version
        array = self.backend.array
        pool = get_pool(self.workers)
        for w in range(width):
            if self._shipped.get(w) == version:
                continue
            if w in self._shipped:
                pool.send_call(
                    w, self._key, _w_refresh, (dict(array._raw), dict(array._value))
                )
                pool.recv(w)
            else:
                pool.set_state(w, self._key, array)
            self._shipped[w] = version

    def forward_chunks(self, chunks: list) -> list:
        """Forward each row chunk; ``[(q, wall_ns, worker)]`` in order."""
        pool = get_pool(self.workers)
        width = pool.plan_workers(len(chunks), self.workers)
        self._ensure(width)
        results = pool.map(
            [(self._key, _w_forward, (chunk,)) for chunk in chunks],
            limit=self.workers,
        )
        return [
            (q_values, wall_ns, i % width)
            for i, (q_values, wall_ns) in enumerate(results)
        ]


class GroupExecutor:
    """Runs world-group ray-intersection kernels on the process pool.

    Group geometry is static for the life of a vec-env, so each group
    ships to its assigned worker once; per call only poses travel.
    """

    def __init__(self, groups, workers: int):
        self.groups = list(groups)
        self.workers = int(workers)
        self._prefix = f"world-group-{id(self)}"
        self._shipped: set = set()  # (worker index, group id) pairs

    def render(self, tasks: list) -> list:
        """``tasks`` = ``[(gid, origins, dirs, rows)]`` → horizontals."""
        pool = get_pool(self.workers)
        width = pool.plan_workers(len(tasks), self.workers)
        calls = []
        for i, (gid, origins, dirs, rows) in enumerate(tasks):
            w = i % width
            key = f"{self._prefix}-{gid}"
            if (w, gid) not in self._shipped:
                pool.set_state(w, key, self.groups[gid])
                self._shipped.add((w, gid))
            calls.append((key, _w_render_group, (origins, dirs, rows)))
        return pool.map(calls, limit=self.workers)
