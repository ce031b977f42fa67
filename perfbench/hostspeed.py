"""Host-speed probe: how fast the shared host ran while the CLI jobs ran.

The benchmark's host is a share of a machine whose other tenants slow it by
up to 60 %, switching within a second and drifting over minutes, so raw wall
times of identical runs spread by 10-30 %. While a worker runs its jobs, a
timer signal interrupts it every PROBE_EVERY_S seconds and times one pass of
a fixed loop that does the simulator's kind of work (a heap of small objects,
dict lookups, float arithmetic). The loop is the benchmark's own code, so a
change to the program never changes it. ``calibrated`` rescales a job's
time, with the probes' own time taken out, to a host on which one pass takes
PROBE_NOMINAL_S.
"""

from __future__ import annotations

import heapq
import signal
import time

PROBE_EVERY_S = 0.05
PROBE_ITEMS = 700          # one pass takes about 1-2 ms on a 2-vCPU VM
PROBE_NOMINAL_S = 0.001    # the host speed calibrated times are scaled to
WARM_PASSES = 5


class _Item:
    __slots__ = ("t", "n", "size")

    def __init__(self, t: float, n: int, size: int):
        self.t, self.n, self.size = t, n, size

    def __lt__(self, other: "_Item") -> bool:
        return self.t < other.t


def probe_loop(items: int = PROBE_ITEMS) -> int:
    """A fixed amount of heap, dict and small-object work."""
    heap: list[_Item] = []
    bins: dict[int, list[_Item]] = {}
    x, t, done = 0.5, 0.0, 0
    for i in range(items):
        x = 3.9 * x * (1.0 - x)
        t += x
        heapq.heappush(heap, _Item(t + 10.0 * x, i, int(x * 128)))
        if len(heap) > 64:
            item = heapq.heappop(heap)
            group = bins.setdefault(item.size >> 3, [])
            group.append(item)
            if len(group) >= 4:
                done += int(sum(e.t for e in group) / len(group) > 0.0)
                group.clear()
    return done


class HostSpeed:
    """Times ``probe_loop`` on a SIGALRM timer; one instance per worker."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        for _ in range(WARM_PASSES):  # so that every repeat has samples, however short its jobs
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrated(seconds: float, probes: list[float], fallback: list[float]) -> float:
    """``seconds`` of job time, holding ``probes``, at the nominal host speed.

    A job too short to hold a probe is scaled by ``fallback``, the probes of
    the whole repeat.
    """
    ref = probes or fallback
    return (seconds - sum(probes)) * PROBE_NOMINAL_S * len(ref) / sum(ref)

