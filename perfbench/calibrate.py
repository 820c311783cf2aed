"""Machine-speed calibration: a short loop shaped like the level kernel,
timed on a wall-clock timer while the benchmark runs.

The machine the README figures come from changes speed on its own, for
seconds to minutes at a time: the same ``compress`` call takes 1.3 ms in
one stretch and 2.4 ms in the next, with no change in code. A wall-clock
time alone cannot tell that from a change in the program.

``loop`` is the benchmark's own code, not the program's, so no change to
the program moves it. It has the shape of the level scans (a ``product``
over coefficient vectors, ``zip`` dot products, a keyword-argument call
and floor division per vector), because the machine's slow stretches slow
different code by different factors (1.5x for a bare arithmetic loop, 2x
for ``compress``). Timed after each ``compress`` call, in two-second
windows, the ratio of the call's median time to this loop's stayed within
1.95-2.11 while the call's own median moved between 1.3 and 2.6 ms; the
ratio to a bare arithmetic loop moved from 7.7 to 10.0.

``Calibration`` times ``loop`` from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall-clock time (a signal, not a thread: the handler
runs in the main thread between bytecodes), so a slow stretch that starts
or ends inside an operation is seen there. ``timed`` turns a wall-clock
interval into reference seconds: the interval minus the time spent in the
handler, multiplied by ``REFERENCE_S`` times the mean of
``1 / loop time`` over the samples taken inside it (at least the last
``MIN_SAMPLES``). ``REFERENCE_S`` is the
loop's median time on the README's machine in its fast stretches, so a
reference second is close to a wall-clock second there.
"""

from __future__ import annotations

import signal
from itertools import product
from statistics import fmean
from time import perf_counter

RADIUS = 2  # coefficients in [-2, 2]: 5**3 = 125 vectors per loop
INTERVAL_S = 0.02
# an interval with fewer samples inside it also uses the ones just before it
MIN_SAMPLES = 5

# median ``loop`` time, seconds, by witness magnitude (``Workload.digits``)
REFERENCE_S = {None: 0.00011, 1000: 0.00032}


def _head(s: int, t: int, y_head: int, cap: int, *, upper: bool) -> int | None:
    if y_head > 0:
        hi = min(cap, t // y_head)
        if hi < 1:
            return None
    else:
        hi = cap
    return hi if s > 0 and upper else 1


def loop(ys: tuple, xs: tuple, y_head: int) -> tuple:
    """Best (s, c, tau) over every tail vector, as a level scan picks it."""
    best = None
    for tau in product(range(-RADIUS, RADIUS + 1), repeat=len(ys)):
        t = s = 0
        for ci, yi, xi in zip(tau, ys, xs):
            t -= ci * yi
            s -= ci * xi
        c = _head(s, t, y_head, 2 * RADIUS + 1, upper=True)
        if c is not None and (best is None or s * best[1] < best[0] * c):
            best = (s, c, tau)
    return best


class Calibration:
    """Samples ``loop`` with entries of the workload's witness magnitude.

    Use as a context manager around everything that is timed; ``mark``
    starts an interval and ``timed`` ends it.
    """

    def __init__(self, digits: int | None) -> None:
        scale = 10**digits if digits else 1
        self.reference_s = REFERENCE_S[digits]
        self.args = (
            (7 * scale + 1, 5 * scale + 3, 3 * scale + 7),
            (2 * scale, -scale - 5, 4 * scale + 1),
            11 * scale,
        )
        self.samples: list[float] = []
        self.handler_s = 0.0

    def sample(self, signum=None, frame=None) -> None:
        """Time ``loop`` once, after one untimed run that warms it up."""
        start = perf_counter()
        loop(*self.args)
        middle = perf_counter()
        loop(*self.args)
        end = perf_counter()
        self.samples.append(end - middle)
        self.handler_s += end - start

    def __enter__(self) -> Calibration:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.handler_s, perf_counter()

    def timed(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(wall-clock seconds, reference seconds) since ``mark``, both
        without the time spent taking samples. The speed is taken from the
        samples inside the interval, or from the last ``MIN_SAMPLES`` when
        fewer fell inside: a single sample varies by more than the speed
        of a short operation does."""
        end = perf_counter()
        first, handler_s, start = mark
        wall = end - start - (self.handler_s - handler_s)
        used = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)) :]
        return wall, wall * self.reference_s * fmean(1 / s for s in used)
