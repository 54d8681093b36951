"""Host speed, sampled while an operation runs, and timings in reference seconds.

On a shared virtual machine the speed of the host drifts by up to a
factor of two, in phases that last from seconds to minutes, and a fixed
CPU kernel slows down together with landau's own layers.  Medians over a
run cannot remove a phase that outlasts the run.  So the benchmark times
a short fixed kernel (a Python loop and a small numpy FFT, which track
the interpreter-bound and the numpy-bound parts of landau) while each
operation runs, and reports the operation in reference seconds: the time
it would take on a host on which the kernel takes `REFERENCE_S`.

The kernel runs once just before and once just after the operation, and
from a timer signal every `INTERVAL_S` seconds while it runs.  The
signal handler runs between two bytecodes of the main thread, so it
never runs inside a numpy call and never alongside the program.  Its
time is subtracted from the operation's wall time.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# Seconds between two samples while an operation runs.
INTERVAL_S = 0.5
# The kernel's duration on the baseline host (README.md) in its fast phases.
REFERENCE_S = 0.004
_FFT_INPUT = np.random.default_rng(0).standard_normal((32, 32, 32))


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i
    for _ in range(3):
        np.fft.irfftn(np.fft.rfftn(_FFT_INPUT))
    return time.perf_counter() - start


def reference_seconds(wall: float, kernel: list[float]) -> float:
    """`wall` seconds at the host speed the kernel samples show, in reference seconds.

    The samples are spread evenly over the interval, so the mean of the
    speeds they show is the interval's mean speed.
    """
    return wall * REFERENCE_S * sum(1.0 / d for d in kernel) / len(kernel)


@dataclass
class Timing:
    wall: float = 0.0  # wall seconds of the operation, the sampler's own time left out
    reference: float = 0.0  # the same at reference host speed
    samples: int = 0


class Sampler:
    """Times one operation in a `with` block and fills in its Timing."""

    def __init__(self) -> None:
        self.kernel: list[float] = []
        self.timing = Timing()
        self._running = False
        self._inside = 0.0

    def _sample(self, *_signal) -> None:
        seconds = kernel_seconds()
        self.kernel.append(seconds)
        if self._running:
            self._inside += seconds

    def __enter__(self) -> Timing:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True
        self._start = time.perf_counter()
        return self.timing

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.timing.wall = end - self._start - self._inside
        self.timing.reference = reference_seconds(self.timing.wall, self.kernel)
        self.timing.samples = len(self.kernel)
