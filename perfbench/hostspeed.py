"""Host-speed calibration, so timings from a shared host compare.

The 2-core virtual hosts this benchmark runs on change speed in modes:
the same fixed NumPy loop runs up to ~1.9x slower for stretches of a
second to minutes (a busy sibling core, a lower clock), with no steal
time to show for it.  A 30 s run then lands in different modes from one
run to the next, and medians alone cannot steady it.

So timed work is cut into segments (a set-up, a scheduler round, one
phase of a transfer experiment), each bracketed by a fixed calibration
kernel, and the host time of a segment is scaled by
``REFERENCE_S / calibration``: it reads as time on a host that runs the
kernel in ``REFERENCE_S``.  The kernel imports nothing from the program,
so a change to the program moves the reported times in full; only the
host's own speed is divided out.  It mixes what the workloads spend
host time on: small-array NumPy calls, an im2col-shaped gather, BLAS
products and an interpreted loop.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time at the reference host speed (about this host's fast mode).
REFERENCE_S = 0.020

_X = np.linspace(0.0, 1.0, 16 * 256).reshape(16, 1, 16, 16)
_W = np.linspace(-1.0, 1.0, 72).reshape(8, 9)
_M = np.linspace(-1.0, 1.0, 128 * 64).reshape(128, 64)


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(80):
        padded = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(16, 9, 256)
        out = np.maximum(np.matmul(_W, cols), 0.0)
        total += float((_M @ _M.T)[0, 0])
        for value in out[:, 0, :8].ravel():
            total += float(value)
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return time.perf_counter() - start


class HostClock:
    """Host and reference-scaled time summed over calibrated segments.

    Consecutive segments share the calibration between them;
    :meth:`restart` forgets it after untimed work (checks) ran.
    ``on_segment(scale)`` is called after every segment, so callers can
    scale the latency samples it produced.
    """

    def __init__(self, on_segment=None):
        self.on_segment = on_segment
        self.host_s = 0.0
        self.scaled_s = 0.0
        self.scales: list[float] = []
        self._last: float | None = None

    def restart(self) -> None:
        self.host_s = self.scaled_s = 0.0
        self._last = None

    def segment(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed as one segment."""
        before = calibrate() if self._last is None else self._last
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        host = time.perf_counter() - start
        self._last = calibrate()
        scale = REFERENCE_S / ((before + self._last) / 2.0)
        self.host_s += host
        self.scaled_s += host * scale
        self.scales.append(scale)
        if self.on_segment is not None:
            self.on_segment(scale)
        return result
