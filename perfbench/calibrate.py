"""Host speed probe and the nominal clock built on it.

The benchmark runs on shared hosts whose speed swings by up to 1.8x, in
spells that last from a fraction of a second to minutes (a fixed piece
of work takes 11 ms in a fast spell and 20 ms in a slow one, with
nothing else running in the guest).  That is far more than the changes
the benchmark is meant to catch, and a 30-second run does not average
it out.

So every untraced pass (``one_pass.py``) samples the host's speed while
it runs: a wall-clock interval timer interrupts the pass every
:data:`INTERVAL_S` and times a fixed probe, a small discrete-event loop
over the same interpreter operations the simulator spends its time on
(heap push/pop of event tuples, dict and list updates, attribute access
on small objects, float arithmetic, struct packing).  The probe imports
nothing from ``repro`` and does the same work every time, so no change
to the program can move it directly.  :class:`NominalClock` turns the
samples into a clock that runs at ``1 / slowdown`` of the wall clock
and stands still while a probe runs; every end-to-end time the
benchmark reports is read from it.

A nominal second is a second on a host where the probe takes
:data:`NOMINAL_PROBE_NS`, its time on the reference host in a fast
spell when run on its own.  Inside a pass the probe finds the caches
filled with the program's data and runs some 10-25% slower, so nominal
times read that much below the wall times of a fast spell; the share
depends a little on the program's memory footprint, the one way a
change to the program reaches the probe.  On the reference host the
clock brings the run-to-run spread of a pass's time from 0.12-0.22 of
the median (wall clock) down to 0.01-0.06.
"""
# Host wall-clock is what this benchmark measures.
# decolint: disable-file=DL001

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import struct
import time

#: Seconds between two probes (wall clock).
INTERVAL_S = 0.025

#: Events of one probe run.
PROBE_EVENTS = 400

#: Wall of one probe on the reference host, a 2-vCPU x86 Xeon, in a
#: fast spell (nanoseconds).
NOMINAL_PROBE_NS = 360_000

_PACK = struct.Struct("<qdd").pack


class _Node:
    __slots__ = ("count", "total", "low", "outbox")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.low = float("inf")
        self.outbox: list[bytes] = []


def workload(n_events: int = PROBE_EVENTS) -> float:
    """One fixed discrete-event run; returns a checksum."""
    nodes = [_Node() for _ in range(16)]
    seen: dict[int, float] = {}
    heap: list[tuple[float, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for rank in range(64):
        push(heap, (rank * 0.5, rank, rank & 15))
    for seq in range(n_events):
        t, rank, dest = pop(heap)
        node = nodes[dest]
        node.count += 1
        node.total += t
        if t < node.low:
            node.low = t
        key = (rank * 2654435761 + seq) & 0xFFFF
        seen[key] = seen.get(key, 0.0) + t
        if node.count % 32 == 0:
            node.outbox.append(_PACK(rank, node.total, node.low))
            del node.outbox[:-8]
        push(heap, (t + 1.0 + (rank * 7919 + seq) % 13 * 0.125,
                    rank, (dest + seq) & 15))
    return sum(n.total for n in nodes) + len(seen)


class NominalClock:
    """Samples the host's speed during a pass; converts the pass's
    ``time.perf_counter_ns`` stamps to seconds at nominal speed.

    Between two probes the clock runs at ``1 / slowdown``, the slowdown
    being the mean of the two probes' walls over
    :data:`NOMINAL_PROBE_NS`; before the first and after the last probe
    it keeps that probe's rate; during a probe it stands still.  The
    garbage collector is held off while a probe runs, so a collection
    of the program's heap never lands in one.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[int, int]] = []
        self._knots: list[int] = []
        self._at: list[float] = []
        self._rate: list[float] = []

    def probe(self, *_: object) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        workload()
        end = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.probes.append((start, end))

    def start(self) -> None:
        """Probe now, then every :data:`INTERVAL_S` until :meth:`stop`."""
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer, probe once more and build the clock."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        self.build()

    def build(self) -> None:
        """Build the clock from :attr:`probes` (start and end stamps,
        in time order)."""
        slowdown = [(end - start) / NOMINAL_PROBE_NS
                    for start, end in self.probes]
        self._knots, self._at, self._rate = [], [], []
        at = 0.0
        for i, (start, end) in enumerate(self.probes):
            if i:
                at += (start - self._knots[-1]) * self._rate[-1]
            self._knots += [start, end]
            self._at += [at, at]
            following = slowdown[i + 1] if i + 1 < len(slowdown) \
                else slowdown[i]
            self._rate += [0.0, 2.0 / (slowdown[i] + following)]
        # Before the first probe, the first probe's rate.
        self._rate[0] = 1.0 / slowdown[0]

    def _nominal_ns(self, t_ns: int) -> float:
        i = bisect.bisect_right(self._knots, t_ns) - 1
        if i < 0:
            return self._at[0] - (self._knots[0] - t_ns) * self._rate[0]
        return self._at[i] + (t_ns - self._knots[i]) * self._rate[i]

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Nominal seconds between two stamps of this process's
        ``time.perf_counter_ns``."""
        return (self._nominal_ns(end_ns) - self._nominal_ns(start_ns)) / 1e9

    def probe_s(self) -> float:
        """Wall seconds spent in probes."""
        return sum(end - start for start, end in self.probes) / 1e9

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Mean slowdown over an interval, probes excluded."""
        inside = sum(max(0, min(end, end_ns) - max(start, start_ns))
                     for start, end in self.probes)
        nominal = self.seconds(start_ns, end_ns)
        return (end_ns - start_ns - inside) / 1e9 / nominal \
            if nominal > 0 else 1.0


if __name__ == "__main__":
    clock = NominalClock()
    t0 = time.perf_counter_ns()
    clock.start()
    for _ in range(40):
        begin = time.perf_counter_ns()
        workload(12_000)
        finish = time.perf_counter_ns()
        print(f"wall {(finish - begin) / 1e6:6.1f} ms")
    clock.stop()
    t1 = time.perf_counter_ns()
    print(f"pass wall {(t1 - t0) / 1e9:.3f} s, nominal "
          f"{clock.seconds(t0, t1):.3f} s, slowdown "
          f"{clock.slowdown(t0, t1):.3f}, probes {len(clock.probes)}")
