"""Host-speed calibration: wall seconds to reference seconds.

The benchmark shares a small virtual machine with other tenants, whose
speed drifts by up to 2x within tens of seconds; successive jobs of one
run are strongly correlated, so a longer run does not average the drift
away and the median job of a run moves with the host.  Every timed
interval is therefore bracketed by a fixed calibration kernel that uses
no ``repro`` code, and its wall time is scaled by how much slower than
usual the host ran the kernel around it::

    reference_s = wall_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the geometric mean over the kernel's three parts
(interpreter loop, small numpy calls, batched numpy solves — the mix
the simulator's engines run) of their mean time before and after the
interval.  A reference second is thus a second on a host that runs the
kernel in ``REFERENCE_S``.  The kernel is independent of the program,
so a change to the program moves reference seconds exactly as it moves
wall seconds on a steady host.
"""

import time

import numpy as np

#: Geometric-mean kernel time on the reference host, a 2-vCPU Intel
#: Xeon VM under CPython 3.11 and numpy 2.4 (median of 200 kernels).
REFERENCE_S = 0.0223

_SMALL = np.random.default_rng(0).standard_normal((8, 8))
_BATCH = np.random.default_rng(1).standard_normal((256, 6, 6)) + 6.0 * np.eye(6)


def _interpreter(n: int = 100_000) -> float:
    total = 0.0
    for i in range(n):
        total += (i * 0.5) % 7.0
    return total


def _small_numpy(n: int = 4_000) -> np.ndarray:
    x = np.ones(8)
    for _ in range(n):
        x = _SMALL @ x
        x = x / np.abs(x).max()
    return x


def _batched_numpy(n: int = 150) -> np.ndarray:
    v = np.ones((256, 6, 1))
    for _ in range(n):
        v = np.linalg.solve(_BATCH, v)
        v = np.tanh(v) + 0.5 * v
    return v


KERNELS = (_interpreter, _small_numpy, _batched_numpy)


def kernel_seconds() -> np.ndarray:
    """Wall seconds of each calibration kernel, run once now."""
    times = []
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return np.array(times)


def to_reference(wall: float, before: np.ndarray, after: np.ndarray) -> float:
    """Reference seconds of an interval of ``wall`` seconds bracketed by
    the kernel times ``before`` and ``after``."""
    kernel_s = float(np.exp(np.log((before + after) / 2.0).mean()))
    return wall * REFERENCE_S / kernel_s


class HostClock:
    """Converts the wall time of back-to-back intervals to reference
    seconds.

    Construction calibrates just before the first interval starts;
    :meth:`to_reference` calibrates just after an interval ends, and
    that calibration also opens the next interval, so consecutive jobs
    share calibrations.  ``first`` keeps the opening calibration.
    """

    def __init__(self):
        self.first = self._last = kernel_seconds()

    def to_reference(self, wall: float) -> float:
        before, self._last = self._last, kernel_seconds()
        return to_reference(wall, before, self._last)
