"""Persistent spawn-based worker pool with shared-memory array transport.

The executor seams (``repro.parallel.dispatch``) need to ship NumPy
batches to long-lived worker processes thousands of times per run, so
the transport avoids the two classic process-pool taxes:

* **Fork/teardown per call** — workers are spawned once (``spawn``
  context: no inherited locks, no copy-on-write surprises) and hold
  named *state* objects (a sharded backend's array datapath, a world
  group's geometry) shipped once and refreshed only when the owner bumps its
  version, not per call.
* **Pickling bulk arrays** — each worker owns one host-allocated
  shared-memory block per direction; :func:`_pack` parks large
  contiguous ndarrays there and sends tiny :class:`ShmRef` markers over
  the pipe instead.  Arrays that don't fit fall back to the pipe pickle
  transparently, and the host grows a too-small inbound block in place
  (workers ack the re-attach before the next task uses it).

The protocol is strictly one outstanding request per worker (the pipe
is FIFO), which keeps scheduling deterministic: ``map`` round-robins
tasks over the first ``W`` workers, so task *i* always lands on worker
``i % W`` regardless of timing.  Determinism of the *work* is the
callers' job — worker functions must be pure (see
:mod:`repro.parallel.procstate` for why the ``PROBE``/``FAULTS`` seams
stay coordinator-only).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.procstate import mark_worker

__all__ = [
    "WorkerPool",
    "WorkerError",
    "ShmRef",
    "get_pool",
    "shutdown_pool",
    "resolve_workers",
    "cpu_count",
]

#: Arrays smaller than this ride the pipe pickle; the shm round-trip
#: (alignment + copy bookkeeping) only pays off for real batches.
_SHM_MIN_BYTES = 2048
_SHM_ALIGN = 64
_DEFAULT_SHM_BYTES = 1 << 22  # 4 MiB per direction per worker


def cpu_count() -> int:
    """CPUs this process may use (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(spec, tasks: int | None = None) -> int:
    """Turn a ``--workers`` value (``'auto'``, ``'N'``, int) into a size.

    ``'auto'`` means one worker per available CPU; an explicit count is
    honoured as given.  When ``tasks`` is known the result is capped at
    it — more workers than tasks would only sit idle.  ``1`` means the
    serial path (no pool at all).
    """
    if isinstance(spec, str):
        text = spec.strip().lower()
        n = cpu_count() if text == "auto" else int(text)
    else:
        n = int(spec)
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {spec!r}")
    if tasks is not None:
        n = min(n, max(int(tasks), 1))
    return n


class WorkerError(RuntimeError):
    """A task raised inside a pool worker; carries the remote traceback."""


class ShmRef:
    """Marker standing in for an ndarray parked in shared memory."""

    __slots__ = ("offset", "shape", "dtype")

    def __init__(self, offset: int, shape: tuple, dtype: str):
        self.offset = offset
        self.shape = shape
        self.dtype = dtype

    def __reduce__(self):
        return (ShmRef, (self.offset, self.shape, self.dtype))


def _aligned(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN


def _pack(obj, buf, used: list):
    """Copy large ndarrays in ``obj`` into ``buf``, returning markers.

    Recurses through tuples/lists/dicts only — other objects (cost
    dataclasses, scalars) stay inline in the pipe pickle.  ``used`` is a
    one-element running-offset cell.  Overflow falls back to inline.
    """
    if isinstance(obj, np.ndarray):
        if buf is None or obj.nbytes < _SHM_MIN_BYTES:
            return obj
        flat = np.ascontiguousarray(obj)
        offset = _aligned(used[0])
        if offset + flat.nbytes > len(buf):
            return obj
        view = np.ndarray(flat.shape, dtype=flat.dtype, buffer=buf, offset=offset)
        view[...] = flat
        used[0] = offset + flat.nbytes
        return ShmRef(offset, flat.shape, flat.dtype.str)
    if isinstance(obj, tuple):
        return tuple(_pack(item, buf, used) for item in obj)
    if isinstance(obj, list):
        return [_pack(item, buf, used) for item in obj]
    if isinstance(obj, dict):
        return {key: _pack(item, buf, used) for key, item in obj.items()}
    return obj


def _unpack(obj, buf):
    """Inverse of :func:`_pack`; copies marker payloads out of ``buf``."""
    if isinstance(obj, ShmRef):
        view = np.ndarray(
            obj.shape, dtype=np.dtype(obj.dtype), buffer=buf, offset=obj.offset
        )
        return view.copy()
    if isinstance(obj, tuple):
        return tuple(_unpack(item, buf) for item in obj)
    if isinstance(obj, list):
        return [_unpack(item, buf) for item in obj]
    if isinstance(obj, dict):
        return {key: _unpack(item, buf) for key, item in obj.items()}
    return obj


def _payload_bytes(obj) -> int:
    """Upper bound on the shm bytes :func:`_pack` would park for ``obj``."""
    if isinstance(obj, np.ndarray):
        return _aligned(obj.nbytes) + _SHM_ALIGN if obj.nbytes >= _SHM_MIN_BYTES else 0
    if isinstance(obj, (tuple, list)):
        return sum(_payload_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(item) for item in obj.values())
    return 0


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a host-owned block; the host unlinks it at shutdown.

    Spawn workers share the host's resource-tracker process, so the
    attach-side registration is a duplicate set-add there and the
    host's single unlink/unregister at shutdown settles the books —
    no per-worker unregister, which would steal the host's entry.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_main(conn, in_name: str, out_name: str) -> None:
    """Worker loop: hold named states, answer set/call/shm/stop messages."""
    mark_worker()
    in_shm = _attach(in_name)
    out_shm = _attach(out_name)
    states: dict = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        try:
            if kind == "shm":
                _, which, name = msg
                if which == "in":
                    in_shm.close()
                    in_shm = _attach(name)
                else:
                    out_shm.close()
                    out_shm = _attach(name)
                result = None
            elif kind == "set":
                _, key, payload = msg
                states[key] = _unpack(payload, in_shm.buf)
                result = None
            else:  # "call"
                _, key, fn, packed = msg
                args = _unpack(packed, in_shm.buf)
                result = fn(*args) if key is None else fn(states[key], *args)
            used = [0]
            conn.send(("ok", _pack(result, out_shm.buf, used)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class _Worker:
    __slots__ = ("proc", "conn", "in_shm", "out_shm")

    def __init__(self, proc, conn, in_shm, out_shm):
        self.proc = proc
        self.conn = conn
        self.in_shm = in_shm
        self.out_shm = out_shm


class WorkerPool:
    """A fixed set of spawn workers, one outstanding request each."""

    def __init__(self, workers: int = 1, shm_bytes: int = _DEFAULT_SHM_BYTES):
        self._ctx = mp.get_context("spawn")
        self._shm_bytes = int(shm_bytes)
        self._workers: list[_Worker] = []
        self.grow(workers)

    @property
    def size(self) -> int:
        return len(self._workers)

    def grow(self, workers: int) -> None:
        """Ensure at least ``workers`` live workers (never shrinks)."""
        while len(self._workers) < workers:
            self._workers.append(self._spawn(len(self._workers)))

    def _spawn(self, index: int) -> _Worker:
        in_shm = shared_memory.SharedMemory(create=True, size=self._shm_bytes)
        out_shm = shared_memory.SharedMemory(create=True, size=self._shm_bytes)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, in_shm.name, out_shm.name),
            name=f"repro-pool-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn, in_shm, out_shm)

    # ------------------------------------------------------------------
    def _reserve(self, worker: _Worker, payload) -> None:
        """Grow the worker's inbound block when ``payload`` won't fit.

        Only called while the worker has no outstanding request, so the
        re-attach ack cannot interleave with a task reply.
        """
        need = _payload_bytes(payload)
        if need <= worker.in_shm.size:
            return
        new = shared_memory.SharedMemory(
            create=True, size=max(need, 2 * worker.in_shm.size)
        )
        worker.conn.send(("shm", "in", new.name))
        old = worker.in_shm
        worker.in_shm = new
        status, _ = worker.conn.recv()  # ack: worker attached before unlink
        if status != "ok":
            raise WorkerError("worker failed to re-attach grown shm block")
        old.close()
        old.unlink()

    def send_call(self, w: int, key, fn, args: tuple = ()) -> None:
        """Dispatch ``fn(states[key], *args)`` (``fn(*args)`` if no key)."""
        worker = self._workers[w]
        self._reserve(worker, args)
        used = [0]
        worker.conn.send(("call", key, fn, _pack(args, worker.in_shm.buf, used)))

    def recv(self, w: int):
        """Block for worker ``w``'s reply; re-raise remote failures."""
        worker = self._workers[w]
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(f"pool worker {w} died mid-task") from exc
        if status == "err":
            raise WorkerError(f"pool worker {w} raised:\n{payload}")
        return _unpack(payload, worker.out_shm.buf)

    def set_state(self, w: int, key, payload) -> None:
        """Ship (or replace) the state registered under ``key`` on ``w``."""
        worker = self._workers[w]
        self._reserve(worker, payload)
        used = [0]
        worker.conn.send(("set", key, _pack(payload, worker.in_shm.buf, used)))
        self.recv(w)

    def plan_workers(self, tasks: int, limit: int | None = None) -> int:
        """How many workers ``map`` will actually use for ``tasks``."""
        width = self.size if limit is None else min(limit, self.size)
        return max(1, min(width, tasks))

    def map(self, calls: list, limit: int | None = None) -> list:
        """Run ``(key, fn, args)`` triples; results in call order.

        Deterministic round-robin: call *i* runs on worker ``i % W``
        with ``W = plan_workers(len(calls), limit)``.
        """
        n = len(calls)
        if n == 0:
            return []
        width = self.plan_workers(n, limit)
        results: list = [None] * n
        pending: dict[int, int] = {}
        for i, (key, fn, args) in enumerate(calls):
            w = i % width
            if w in pending:
                results[pending.pop(w)] = self.recv(w)
            self.send_call(w, key, fn, args)
            pending[w] = i
        for w, i in pending.items():
            results[i] = self.recv(w)
        return results

    def run(self, fn, *args):
        """One stateless call on worker 0 (tests, health checks)."""
        self.send_call(0, None, fn, args)
        return self.recv(0)

    def shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=5)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1)
            worker.conn.close()
            for shm in (worker.in_shm, worker.out_shm):
                try:
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:
                    pass
        self._workers = []


# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide pool, grown on demand to at least ``workers``.

    One pool serves every executor (shards and env groups share
    workers); spawn cost is paid once per process, not per seam.
    """
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool(workers)
        atexit.register(shutdown_pool)
    elif _POOL.size < workers:
        _POOL.grow(workers)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
