"""Machine-speed yardstick: wall times on a shared, drifting core.

On the 2-core sandbox these figures come from, the speed of a core drifts
by up to 2x within a minute (a fixed Python loop timed every 2 s took
between 1.0x and 1.55x its fastest time over two minutes; one fold map
repeated 80 times had a coefficient of variation of 0.21).  Process CPU
time drifts the same way, so it is no cure.  A yardstick therefore runs a
fixed reference computation from a SIGALRM timer, every PERIOD seconds,
inside the measured process; a measured interval is reported as

    (wall time - time spent in the yardstick) * nominal / mean(samples)

where the samples are the reference times taken during the interval.  The
result is in seconds at the speed at which the reference takes ``nominal``
seconds.  Over the same fold map the normalized coefficient of variation
fell to 0.065 per map and 0.045 over ten maps.

Two references: ``radau_reference`` (scipy's Radau on a stiff van der Pol
oscillator, the same kind of work as the program's hot paths) for the
timed phase, and ``python_reference`` (a plain loop, importing nothing) for
set-up, which must not import scipy before it is timed.
"""

from __future__ import annotations

import signal
import statistics
import time


def python_reference() -> int:
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


_solve_ivp = None


def _vdp(t, z):
    return [z[1], 5.0 * (1.0 - z[0] * z[0]) * z[1] - z[0]]


def radau_reference():
    # bound here, so the tracer's wrapper of solve_ivp never sees these calls
    global _solve_ivp
    if _solve_ivp is None:
        from scipy.integrate import solve_ivp

        _solve_ivp = solve_ivp
    return _solve_ivp(_vdp, (0.0, 0.04), [2.0, 0.0], method="Radau", rtol=1e-6, atol=1e-9)


# median reference times on this sandbox; they only fix the unit
NOMINAL = {python_reference: 1.13e-3, radau_reference: 3.2e-3}
MIN_SAMPLES = 5  # fewest samples that stand for one interval


class Yardstick:
    """Samples the reference computation every ``period`` seconds."""

    def __init__(self, reference, period: float):
        self.reference = reference
        self.nominal = NOMINAL[reference]
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.reference()  # warm: the first call pays lazy imports
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mark(self) -> tuple[float, float]:
        """A point in time and the yardstick time spent so far."""
        return time.perf_counter(), self.spent

    def normalized(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two marks, at nominal speed."""
        (t0, s0), (t1, s1) = start, end
        inside = [s for ts, s in self.samples if t0 <= ts <= t1]
        if len(inside) < MIN_SAMPLES:
            # short interval: the nearest samples in time stand for it
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda x: abs(x[0] - mid))[:MIN_SAMPLES]
            inside = [s for _, s in nearest]
        if not inside:
            raise RuntimeError("the yardstick took no sample")
        return ((t1 - t0) - (s1 - s0)) * self.nominal / statistics.fmean(inside)
