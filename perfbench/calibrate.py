"""Machine-speed calibration for the benchmark's timings.

A shared machine drifts in speed: on the shared 2-core Intel Xeon where the
reference times were set, by up to 40% over seconds to minutes, because
neighbours share its cores and its cache.  A
fixed kernel that calls no library code is timed just before and after each
timed call, and the call's time is scaled by the kernel's reference time
over the mean of those two measurements.  Reported times are therefore
those of a machine on which the kernel takes exactly its reference time,
and they follow the program rather than the machine's current speed.

There are two kernels, one per kind of work the library does, because the
two kinds slow down differently when the machine is busy:

- ``interpreter``: objects, attributes, dicts and method calls, plus small
  numpy calls, like the turn loops and the harness;
- ``arrays``: a permutation and a random gather over arrays larger than the
  per-core cache, like market construction on million-edge streams.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = {"interpreter": 0.0015, "arrays": 0.0014}


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def pick(self, x):
        return self.a + x if x & 1 else self.b


def _interpreter_kernel(costs) -> None:
    table: dict = {}
    out = []
    for i in range(1500):
        probe = _Probe(i, i + 1)
        table[i & 255] = probe.pick(i)
        out.append((i, table.get(i & 127, 0)))
    for i in range(300):
        lo = (i * 7) % 4000
        int(np.argmax(costs[lo:lo + 64] <= 0.5))


def _arrays_kernel(ranks) -> None:
    perm = np.random.Generator(np.random.PCG64(7)).permutation(100_000)
    int(ranks[perm].sum())


class Calibration:
    """One kind of kernel, with its input built once."""

    def __init__(self, kind: str):
        if kind not in REF_S:
            raise ValueError(f"unknown calibration kind {kind!r}; known: {sorted(REF_S)}")
        self.kind = kind
        self.ref_s = REF_S[kind]
        rng = np.random.Generator(np.random.PCG64(12345))
        if kind == "interpreter":
            self._kernel, self._input = _interpreter_kernel, rng.random(4096)
        else:
            self._kernel = _arrays_kernel
            self._input = rng.integers(0, 1 << 30, 2 << 20).astype(np.int32)  # 8 MiB
        self.measure()  # the first run in a process is cold

    def measure(self) -> float:
        """Seconds for one kernel run (median of three)."""
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel(self._input)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, given the kernel times
        measured just before and after."""
        return seconds * 2.0 * self.ref_s / (before + after)
