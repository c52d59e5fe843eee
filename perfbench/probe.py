"""Host-speed normalisation of timed regions.

On a shared host the same single-threaded work can take anywhere from one
to two times its uncontended duration, and the slow phases last from
seconds to minutes, so a run's raw wall time measures the neighbours as
much as the program.  ``SpeedProbe`` times a fixed pure-Python reference
computation just before a timed region, every ``PERIOD_S`` seconds inside
it (from a SIGALRM handler, on the same thread and core) and just after
it.  The region's own time (wall time minus the reference calls inside
it) is rescaled by ``REF_NOMINAL_S`` over the mean reference duration,
giving approximately the time the region would take on the host at its
uncontended speed.

This module imports only the standard library, so it can time
``import conecf`` without importing anything conecf needs first.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# Duration of ``reference()`` at the uncontended speed of the host the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11).  It only sets
# the scale: comparisons between commits hold it fixed.
REF_NOMINAL_S = 0.0007
REF_LOOPS = 2000


def _mix(x: float, y: float) -> float:
    return (x * 1.000001 + y) * 0.5


def reference() -> float:
    """A fixed mix of calls, float arithmetic and dict and list traffic."""
    acc = 0.0
    table: dict[int, float] = {}
    items: list[float] = []
    for i in range(REF_LOOPS):
        x = _mix(acc, (i % 17) * 0.25)
        table[i & 31] = x
        items.append(table.get((i * 7) & 31, 0.0))
        acc = _mix(x, items[i // 2])
    return acc


class SpeedProbe:
    """Context manager that times its body and the host speed around it."""

    def __enter__(self) -> "SpeedProbe":
        self.ref_s = 0.0
        self.ref_n = 0
        self.inside_s = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.ref_s += dt
        self.ref_n += 1
        return dt

    @property
    def work_s(self) -> float:
        """Wall time of the body, less the reference calls made inside it."""
        return self.wall_s - self.inside_s

    @property
    def normalized_s(self) -> float:
        """``work_s`` rescaled to the host's uncontended speed."""
        return self.work_s * REF_NOMINAL_S / (self.ref_s / self.ref_n)
