"""Host-speed sampling, so that timings follow the code, not the host.

The reference machine is a VM on a shared host whose speed swings up to 2x
over seconds to minutes as other tenants load it.  ``Sampler`` measures that
speed while a timed block runs: every ``INTERVAL_S`` a SIGALRM handler times
``PROBE_LOOPS`` iterations of a fixed pure-Python loop.  The block is then
cut into windows of about ``WINDOW`` samples, and each window's wall time,
less the time spent in the probe, is rescaled to the host speed at which the
probe takes ``REF_PROBE_S``:

    scaled = sum over windows of (wall - probe time) * REF_PROBE_S / median(probe times)

The probe runs no package code, so a change to the package moves the scaled
time as it would move the wall time on a host of fixed speed.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 20_000
INTERVAL_S = 0.05
WINDOW = 10
# About the probe's median on the reference machine (Xeon, 2 vCPUs) when its
# host is quiet; it only sets the scale of the scaled times.
REF_PROBE_S = 8.0e-4


class Sampler:
    """Context manager that samples the host's speed while it is open.

    After each block, ``wall_s`` is its wall time less the probe's time and
    ``scaled_s`` that time at the reference speed; ``samples`` gathers the
    probe times of every block run under this sampler.
    """

    def __init__(self):
        self.samples = []
        self.wall_s = self.scaled_s = 0.0
        self._block = []        # (start, seconds) of each probe in the open block
        self._busy = False
        # Installed for good: a SIGALRM still pending when a block closes
        # then runs a harmless probe instead of the default action.
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame):
        if self._busy:          # a signal that arrives inside the probe is dropped
            return
        self._busy = True
        t = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        self._block.append((t, time.perf_counter() - t))
        self._busy = False

    def __enter__(self):
        self._block = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        block, self._block = self._block, []
        self.wall_s = t1 - self._t0 - sum(d for _, d in block)
        self.scaled_s = scaled(self._t0, t1, block, self.samples)
        self.samples.extend(d for _, d in block)
        return False


def scaled(t0, t1, block, earlier):
    """Time of the block [t0, t1] at the reference speed.  Window k starts
    at the k-th WINDOW-th probe, the last one takes the remainder; a block
    too short to hold a probe uses the median of the ``earlier`` samples
    (the reference itself when there are none)."""
    if not block:
        return (t1 - t0) * REF_PROBE_S / (statistics.median(earlier) if earlier else REF_PROBE_S)
    n = max(1, round(len(block) / WINDOW))
    starts = [t0] + [block[k * WINDOW][0] for k in range(1, n)] + [t1]
    total = 0.0
    for k in range(n):
        probes = [d for _, d in block[k * WINDOW:(k + 1) * WINDOW if k < n - 1 else None]]
        total += (starts[k + 1] - starts[k] - sum(probes)) * REF_PROBE_S / statistics.median(probes)
    return total
