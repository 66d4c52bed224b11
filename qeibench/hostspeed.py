"""Host speed, sampled while the benchmark times the program.

On a shared host the speed of one core swings by 20-40% from second to
second and from minute to minute, as neighbours load the caches and the
sibling hyperthread; no steal time shows, so CPU time swings alike.  Raw
host times of the same code therefore spread wider between runs than any
useful regression bound.

:class:`HostSpeed` measures that swing while it happens: every
``INTERVAL_S`` seconds a ``SIGALRM`` handler runs :func:`kernel`, a fixed
pure-Python loop, and records how long it took.  The handler runs between
the program's bytecodes, so each sample sees the host as the program sees
it at that moment.  :meth:`HostSpeed.rescale` divides a call's host time,
less the samples taken inside it, by the mean kernel CPU time during the
call and multiplies by ``REFERENCE_S``: the result is the call's time on a
host that runs the kernel in ``REFERENCE_S`` CPU seconds.  A change to the
program moves it in proportion; a neighbour's load moves the program and
the kernel together and cancels.  The kernel is part of the benchmark, not
of the program, so no change to the program can speed it up.

The kernel's CPU time, not its wall time, sets the speed: the rare moments
the process is off its core land in a 0.1 ms sample at full length and
would swing the mean, while the program's own such moments stay in its
wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List, Tuple

#: Seconds between samples.  A sample costs about 0.1 ms, 0.5% of a call.
INTERVAL_S = 0.02

#: Kernel CPU time of the reference host that rescaled times are quoted on.
REFERENCE_S = 1e-4

#: Fewest samples a call's rescaling uses; a shorter call borrows the
#: samples nearest to it in time.
MIN_SAMPLES = 3


def kernel() -> int:
    """A fixed loop of dict stores and lookups on small ints, about 0.1 ms."""
    table = {}
    acc = 0
    for i in range(400):
        key = (i * 2654435761) & 0xFFF
        table[key] = i
        acc += table.get(key ^ 1, i)
    return acc


class HostSpeed:
    """Kernel samples taken on a timer while :meth:`start` is in effect."""

    def __init__(self) -> None:
        #: perf_counter() at the end of each sample, in time order.
        self.ends: List[float] = []
        #: (wall, cpu) seconds of each sample.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def sample(self) -> None:
        """Run the kernel once and record its wall and CPU time."""
        # A collection of the program's heap must not land in a sample.
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        cpu, end = time.process_time() - cpu, time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.samples.append((end - wall, cpu))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_cpu(self) -> float:
        """Mean kernel CPU seconds over every sample, taking one if none."""
        if not self.samples:
            self.sample()
        return sum(cpu for _, cpu in self.samples) / len(self.samples)

    def rescale(self, start: float, end: float, cpu: float) -> Tuple[float, float]:
        """(wall, cpu) seconds of a call at the reference host speed.

        ``start`` and ``end`` are the call's perf_counter() bounds and
        ``cpu`` its CPU seconds, samples included.
        """
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        inside = self.samples[lo:hi]
        wall = end - start - sum(s[0] for s in inside)
        cpu -= sum(s[1] for s in inside)
        used = inside
        if len(used) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(range(len(self.ends)), key=lambda i: abs(self.ends[i] - middle))
            used = [self.samples[i] for i in nearest[:MIN_SAMPLES]]
        if not used:
            raise RuntimeError("no host-speed samples were taken")
        scale = REFERENCE_S * len(used) / sum(s[1] for s in used)
        return wall * scale, cpu * scale
