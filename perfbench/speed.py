"""Machine-speed reference that makes timings comparable on a shared host.

On a host shared with other tenants the speed of one core drifts by up to
2x over seconds to minutes (busy SMT siblings, shared caches and memory
bandwidth, clock frequency), and the drift moves every timing of a run
together. On a 2-vCPU Xeon VM, ten runs of one workload made a few
seconds apart had raw wall-time spreads (interquartile range over median)
of 10% to 44%, and a longer run did not help, because the drift is slower
than a run.

So the benchmark times a fixed reference kernel that never calls
tiebreak, between operations and at most about twice a second, and
scales each pass's times by the kernel's nominal time over its median
measured time before, during and after that pass: a scaled time reads
as seconds on a machine where the kernel takes its nominal time. The
kernel is built from parts that resemble each workload (see
Workload.speed_parts). The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Fixed forever: the kernel parts' nominal times define the unit of
# every scaled time.
NOMINAL_S = {"bulk": 0.008, "small": 0.004, "stream": 0.009}
INTERVAL_S = 0.5
BURST = 3  # kernel runs per sampling point: one run is noisier than the drift


def _bulk(reps: int) -> float:
    acc = 0.0
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(key=[7, rep]))
        u = rng.random(4000)
        e = rng.standard_normal(4000)
        f = np.column_stack([np.ones(4000), u])
        acc += float((f.T @ (e[:, None] * f))[0, 1])
        for k in range(150):
            acc += k * 0.5
    return acc


def _small(reps: int) -> float:
    acc = 0.0
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(key=[8, rep]))
        u = rng.random(400)
        z = np.where(u < 0.5, 1.0, -1.0)
        f = np.column_stack([np.ones(400), u])
        zf = z[:, None] * f
        a = 2.0 * np.eye(4) + 1e-3 * (f.T @ zf)[0, 1]
        b = np.concatenate([f.T @ rng.standard_normal(400), zf.T @ u])
        for col in range(4):
            piv = col + int(np.argmax(np.abs(a[col:, col])))
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
            factors = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= factors[:, None] * a[col, col:]
            b[col + 1:] -= factors * b[col]
        acc += float(b[-1])
    return acc


def _stream(reps: int) -> float:
    acc = 0.0
    for rep in range(reps):
        f = np.ones((100_000, 4))
        f[:, 1] = rep
        w = np.where(f[:, 1] >= 1.0, 1.0, -1.0)
        acc += float((f.T @ (w[:, None] * f))[0, 1])
    return acc


PARTS = {"bulk": (_bulk, 30), "small": (_small, 25), "stream": (_stream, 1)}


def kernel_seconds(parts=("bulk", "small")) -> float:
    """Time one run of the reference kernel made of the named parts: bulk
    draws and a thin Gram product on 4000 rows; many small-array calls with
    a 4x4 elimination in the interpreter, as in one replicate; a weighted
    Gram streamed over 100 000 rows. A short untimed warm-up first refills
    the caches whatever ran before."""
    for name in parts:
        part, _ = PARTS[name]
        part(1)
    start = time.perf_counter()
    for name in parts:
        part, reps = PARTS[name]
        part(reps)
    return time.perf_counter() - start


def speed_factor(samples, parts=("bulk", "small")) -> float:
    """Nominal kernel time over the median measured one for a stretch of
    the run: a scaled time is a raw time multiplied by this."""
    return sum(NOMINAL_S[name] for name in parts) / statistics.median(samples)


class SpeedProbe:
    """Kernel samples taken through a run, only between operations.

    The kernel runs in the main thread while no package call is in
    progress, so neither a package call nor a thread the package starts
    overlaps a sample, and no sample falls inside a timed operation;
    nothing is subtracted from any timing.
    """

    def __init__(self, parts=("bulk", "small")):
        self.parts = parts
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples += [kernel_seconds(self.parts) for _ in range(BURST)]
        self._last = time.perf_counter()

    def between(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one.
        Called between two operations."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, first: int = 0) -> float:
        """The speed factor of the samples from index `first` on."""
        return speed_factor(self.samples[first:], self.parts)
