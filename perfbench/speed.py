"""Host-speed sampling, so that times from a slow and a fast phase of a
shared host can be compared.

A small machine shares its cores with other machines, and the speed it gets
drifts by up to 2x over seconds to minutes, with nothing of its own running.
The benchmark therefore keeps clocks of known cost running beside the
program: every INTERVAL_S of wall time a SIGALRM handler runs one of
CALIBRATIONS in turn (a fixed Fraction elimination with 60-90-bit entries,
the arithmetic of solvco's inner loops, and a fixed text split into sorted
records, the work of its parsers and CLI) and records how long it took.
A job's time is then its wall time, less what the handler took during it,
scaled by REFERENCE_S / (the geometric mean over the calibrations of the
median time of the samples taken during the job, or of the MIN_SAMPLES
nearest to it): the job's time on a host on which that mean is
REFERENCE_S.  A change to solvco moves that figure as it moves the wall
time; a change of host speed moves both the job and the calibrations and
cancels.  The host's speed also moves within a second, so the samples
nearest the job track it best; and code of different kinds slows
differently, so two kinds of clock track more of it than one.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

perf = time.perf_counter

INTERVAL_S = 0.02
MIN_SAMPLES = 5
BURST = 3  # samples of each calibration before and after a child process
REFERENCE_S = 0.0005

_rng = random.Random(20261017)
_MATRIX = [[Fraction(_rng.getrandbits(90) + 1, _rng.getrandbits(60) + 1) for _ in range(5)]
           for _ in range(5)]
_TEXT = "\n".join(f"[e{i},e{j}] = {i * j % 7 - 3}/{i + 1} e{(i + j) % 9 + 1} + {j} e{i}"
                   for i in range(1, 18) for j in range(i + 1, 18))


def elimination():
    """Forward elimination of a fixed 5x5 rational matrix."""
    rows = [row[:] for row in _MATRIX]
    for i in range(5):
        pivot = rows[i][i]
        for r in range(i + 1, 5):
            f = rows[r][i] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return rows


class _Term:
    __slots__ = ("coeff", "name", "length")

    def __init__(self, coeff, name, length):
        self.coeff, self.name, self.length = coeff, name, length


def parsing():
    """Splits a fixed bracket table into sorted term records."""
    out = {}
    for line in _TEXT.splitlines():
        lhs, rhs = line.split("=")
        i, j = lhs.strip()[1:-1].split(",")
        terms = []
        for term in rhs.split("+"):
            coeff, name = term.split()
            terms.append(_Term(coeff, name, len(name)))
        out[(i, j)] = sorted(terms, key=lambda t: t.name)
    return out


CALIBRATIONS = (elimination, parsing)


class Sampler:
    """Runs the calibrations in turn from a SIGALRM handler while started.
    `busy` is the total time spent in the handler, for subtracting it from
    a job that ran in this process."""

    def __init__(self):
        self.running = False
        self.previous = None
        self.tick = 0
        self.times = [[] for _ in CALIBRATIONS]     # when each sample started
        self.seconds = [[] for _ in CALIBRATIONS]   # how long it took
        self.busy = 0.0

    def _run(self, k):
        start = perf()
        CALIBRATIONS[k]()
        end = perf()
        self.times[k].append(start)
        self.seconds[k].append(end - start)
        return start

    def _sample(self, signum, frame):
        k = self.tick % len(CALIBRATIONS)
        self.tick += 1
        start = self._run(k)
        self.busy += perf() - start

    def start(self):
        for calibration in CALIBRATIONS:
            calibration()  # the first call pays for the allocations
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous or signal.SIG_DFL)
        self.running = False

    @contextmanager
    def around_child(self):
        """For a job that runs in child processes: while it runs the timer
        is off, and BURST samples of each calibration are taken just before
        and just after it, here.  Sampled from this process while the child
        ran on the other core, the speed tracked the child's poorly."""
        if not self.running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._burst()
        try:
            yield
        finally:
            self._burst()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _burst(self):
        for _ in range(BURST):
            for k in range(len(CALIBRATIONS)):
                self._run(k)

    def _median(self, k, start, end):
        times = self.times[k]
        if len(times) < MIN_SAMPLES:
            raise RuntimeError("too few speed samples; was the sampler started?")
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        return statistics.median(self.seconds[k][lo:hi])

    def scale(self, start, end):
        """REFERENCE_S over the geometric mean, across calibrations, of the
        median time of each one's samples in [start, end], widened on both
        sides to at least MIN_SAMPLES."""
        return REFERENCE_S / statistics.geometric_mean(
            self._median(k, start, end) for k in range(len(CALIBRATIONS)))

    def median_s(self):
        """The geometric mean of each calibration's median over the run."""
        if not all(self.seconds):
            return float("nan")
        return statistics.geometric_mean(statistics.median(s) for s in self.seconds)
