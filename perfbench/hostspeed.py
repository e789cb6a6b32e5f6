"""Host-speed correction for timings taken on a shared host.

The benchmark's host gives each process a share of a physical core whose
speed changes with what other tenants run: the same command takes 3.4 s
in one minute and 7 s in the next, with CPU time equal to wall time and
no steal time.  No run length averages that out.  So while a timing is
taken, a SIGALRM timer runs a fixed pure-Python probe in the same thread
every PERIOD_S seconds (deferred while the program is inside a long C
call), and a timed interval is rescaled by how fast the probes ran in it:

    ref seconds = (wall seconds - probe seconds) * NOMINAL_PROBE_S / mean probe seconds

NOMINAL_PROBE_S is the probe's median time in the host's fast state on
the 2-core Intel Xeon (2.0 GHz, Python 3.11) host the benchmark was
written on, so on that host a ref second is a wall second while no other
tenant slows the core.  The constant is the same for every commit, so
two commits compare on any host.  The probe adds about 0.4 % to the
wall time and is subtracted from it.
"""

import signal
import statistics
import time

PROBE_ITERS = 5000
NOMINAL_PROBE_S = 0.00037
PERIOD_S = 0.1


def _probe_work():
    s = 0
    for i in range(PROBE_ITERS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples (start, duration) of the probe while started."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _probe_work()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, t0, t1):
        """(net wall s, ref s, slowdown) of [t0, t1] in perf_counter time.

        net is the wall time less the probes run inside the interval;
        slowdown is their mean time over NOMINAL_PROBE_S.
        """
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if not inside:
            raise RuntimeError(f"no speed probe ran in an interval of {t1 - t0:.3f} s")
        net = (t1 - t0) - sum(inside)
        slowdown = statistics.fmean(inside) / NOMINAL_PROBE_S
        return net, net / slowdown, slowdown
