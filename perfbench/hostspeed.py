"""Host-speed reference, to take the host's own speed swings out of timings.

On a shared host the speed of a vCPU swings by up to 2x in phases of a few
seconds to a minute, for a pure-Python loop and numpy alike, and in CPU
time as much as in wall time (other tenants share the cores). A 30-second
run cannot average that out: its medians moved by 20-30% from one run to
the next. So every timed operation is bracketed by a short fixed kernel,
unrelated to the package, run on the same pinned vCPU, and the operation's
host time is scaled by ``NOMINAL_S / kernel time`` (the mean of the two
kernels around it). The result is the time the operation would take on
the host at the speed where the kernel takes ``NOMINAL_S``; in a 100-second
test this cut the window-to-window swing of run_trials calls from +-20% to
+-4%, and of oracle calls from +-27% to +-8%. The raw host times are still
reported, as information.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Kernel time on the reference host (Intel Xeon, 2 vCPUs) in its quiet
# phases: about the 5th percentile of 3000 runs.
NOMINAL_S = 1.8e-3

_BATCH = np.random.default_rng(0).standard_normal((256, 2, 2)) + 0j


def kernel_seconds() -> float:
    """Time one pass of the reference kernel: an interpreter loop plus a
    small batched QR, the two kinds of work the package's operations do."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    np.linalg.qr(_BATCH)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one vCPU, so that the kernel
    and the operations it scales run on the same one. The highest-numbered
    vCPU is taken: device interrupts and most other processes land on vCPU 0."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Scaler:
    """Brackets operations with kernel runs; consecutive operations share
    the kernel run between them."""

    def __init__(self) -> None:
        self._before = kernel_seconds()

    def scale(self, host_seconds: float) -> float:
        after = kernel_seconds()
        factor = NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        return host_seconds * factor
