"""Machine-speed calibration for a shared, noisy host.

On the 2-core benchmark machine the speed of one core drifts by up to 2x
in phases of 5 to 20 seconds (other tenants), and CPU time drifts with
wall time, so neither removes it. A fixed kernel, run between operations,
measures the current speed; each operation's time is scaled by
``REFERENCE_S / kernel time`` around it. The kernel mixes what the
workloads spend time on: per-row string formatting, a numpy sort and a
memory-bound comparison scan. It allocates nothing while timed, so the
program's memory state cannot change its result.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an idle core of the benchmark machine (its fastest
# observed phase); scaled times read as seconds at that speed.
REFERENCE_S = 0.04


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._base = rng.random(200_000)
        self._buf = np.empty_like(self._base)
        self._labels = rng.integers(0, 64, 1_000_000, dtype=np.int32)
        self._mask = np.empty(self._labels.size, dtype=bool)

    def measure(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        width = 0
        for i in range(40_000):
            width += len(f"{i}\t{i * 0.7071067811865476:.17g}")
        np.copyto(self._buf, self._base)
        self._buf.sort()
        for label in range(16):
            np.equal(self._labels, label, out=self._mask)
        return time.perf_counter() - t0


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """Scale ``times[k]`` by the kernel runs just before and after it
    (``kernel`` has one more entry than ``times``)."""
    return [t * 2.0 * REFERENCE_S / (kernel[k] + kernel[k + 1]) for k, t in enumerate(times)]
