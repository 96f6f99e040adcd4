"""Host-speed adjustment of the wall times measured in a benchmark child.

On a host shared with other machines the speed at which Python code runs
drifts by up to ±25% over phases of a few seconds, so raw wall times of
the same code spread wider than any useful bound. A child therefore runs
a fixed probe, a short pure-Python integer loop, every 10 ms of its CPU
time (on SIGPROF, so the child's SIGALRM budget stays free), and records
when each probe started and how long it took. `adjusted` then scales each
stretch of the child's own work between two probes by `REF_PROBE_S` over
the probe time around it (the running median of `WINDOW` probes on each
side): the result is the time the work would have taken at the speed at
which the probe takes `REF_PROBE_S`, with the probes' own time left out.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
# about the probe's time on the 2-vCPU host the benchmark was built on,
# so that adjusted times read close to its wall times
REF_PROBE_S = 60e-6
WINDOW = 5


def _probe_unit():
    x = 1
    for i in range(400):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


class Probe:
    """Runs the probe on SIGPROF; `starts` and `times` are its samples."""

    def __init__(self):
        self.starts, self.times = [], []

    def _tick(self, signum, frame):
        start = time.monotonic()
        _probe_unit()
        self.starts.append(start)
        self.times.append(time.monotonic() - start)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def smooth(times):
    """Running median of the probe times over WINDOW samples on each side."""
    return [statistics.median(times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(times))]


def adjusted(begin, end, starts, times, smoothed):
    """Seconds of work from `begin` to `end` at the reference speed.

    `starts`, `times` are a child's probe samples in CLOCK_MONOTONIC time and
    `smoothed` is `smooth(times)`. Without a probe in the interval, the raw
    interval is returned.
    """
    total, last, factor = 0.0, begin, None
    for start, took, ref in zip(starts, times, smoothed):
        if start < begin:
            continue
        if start >= end:
            break
        factor = REF_PROBE_S / ref
        total += (start - last) * factor
        last = start + took
    if factor is None:
        return end - begin
    return total + max(0.0, end - last) * factor
