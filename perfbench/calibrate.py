"""The benchmark's clock: CPU time, scaled by a host-speed calibration kernel.

The 2-core hosts this benchmark runs on change speed all the time.  Each core
flips, every fraction of a second and independently of the other, between a
fast state and one in which the same code takes about 1.7 times as long (a
neighbour on the shared physical core), in wall time and in CPU time alike.
The hypervisor also takes the core away now and then (steal time), which
wall time counts and CPU time does not.

So an op is timed in CPU time (``cpu_seconds``), and a fixed kernel, timed
in the CPU time of the calling thread, tells how fast the core runs at that
moment.  The kernel runs before and after every op, and, during an op,
every ``SAMPLE_INTERVAL_S`` from a timer signal in the op's own thread, so
on the op's own core.  ``run.py`` scales each op's CPU time, less the time
spent in those samples, by the op's mean speed ``REFERENCE_S / kernel time``
to read it as seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel does what triseries spends its time on: interpreted float
arithmetic in Python, and short numpy vector steps in a loop, as the Sturm
count and the series evaluation do.  It calls nothing in triseries, so no
change to the program changes it.
"""

from __future__ import annotations

import resource
import signal
import time

import numpy as np

# Kernel CPU seconds on the fast state of the reference host (2-core Intel
# Xeon, Python 3.11.7, numpy 2.4).
REFERENCE_S = 0.95e-3
SAMPLE_INTERVAL_S = 0.1

_D = np.linspace(1.0, 2.0, 64)
_OFF = np.linspace(0.1, 0.2, 64)
_X = np.linspace(0.0, 1.0, 64)


def cpu_seconds() -> float:
    """CPU seconds used so far by this process, all its threads, and the
    child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _kernel() -> float:
    s = 0.0
    for i in range(7000):
        s += (i % 7) * 0.5
    d = _D - _X
    for _ in range(100):
        d = _D - _X - _OFF / d
        d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    return s + float(d[0])


def kernel_seconds() -> float:
    """CPU seconds of one kernel pass in the calling thread."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def speed() -> float:
    """The current speed of this core relative to the reference host: the
    median of three kernel passes."""
    ks = sorted(kernel_seconds() for _ in range(3))
    return REFERENCE_S / ks[1]


class SpeedSampler:
    """Samples the speed of the calling thread's core while an op runs.

    Between ``start()`` and ``stop()`` a timer signal runs one kernel pass
    every ``SAMPLE_INTERVAL_S`` of wall time in the main thread.  ``samples``
    holds the speeds seen, ``spent`` the CPU seconds the passes took, which
    the caller takes out of the op's time.  A signal is handled between
    bytecodes, so a pass waits for a running native call to return.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        c0 = cpu_seconds()
        self.samples.append(REFERENCE_S / kernel_seconds())
        self.spent += cpu_seconds() - c0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
