"""Machine-speed normalisation of measured durations.

The shared machines this benchmark runs on change speed by up to 2x within
seconds, and CPU time tracks wall time, so the change is in the machine, not
in scheduling. A median over more work does not remove that. So the benchmark
times a fixed pure-Python reference loop (its own code, which no change to
gridarena can speed up) between timed operations, never inside them, and
divides each measured duration by the slowdown at that moment: the loop's
measured time over ``NOMINAL_S``, interpolated between the neighbouring
samples. Reported times are "nominal seconds": seconds on a machine where the
loop takes ``NOMINAL_S``. The raw figures are printed next to them.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

# Median time of ``reference()`` on the 2-core machine the baseline was taken
# on; it only sets the scale of the reported numbers.
NOMINAL_S = 0.0021
# Least time between two samples taken by ``maybe_sample``, in seconds.
INTERVAL_S = 0.1


class _Agent:
    def __init__(self, i: int):
        self.id = i
        self.pos = (i % 24, (i * 7) % 24)
        self.food = 60 + i % 9
        self.alive = i % 11 != 0


_AGENTS = [_Agent(i) for i in range(150)]


def reference() -> int:
    """Fixed interpreter work shaped like the engine's: scan a roster for
    neighbours by Chebyshev distance, quantize, build an event dict and
    serialize it."""
    lines = []
    total = 0
    for me in _AGENTS[:40]:
        near = []
        for other in _AGENTS:
            if other.id == me.id or not other.alive:
                continue
            if max(abs(me.pos[0] - other.pos[0]), abs(me.pos[1] - other.pos[1])) > 2:
                continue
            near.append((other.id, other.pos, (other.food + 2) // 4 * 4))
        event = {"type": "action", "agent_id": me.id, "near": len(near),
                 "delta": [["agent", me.id, "food", me.food, me.food - 1]]}
        lines.append(json.dumps(event, separators=(",", ":")))
        total += len(near)
    return total + len(lines)


class Speed:
    """Slowdown samples over time. ``nominal`` converts a measured
    (start, seconds) interval into nominal seconds, leaving out the time of
    any sample taken inside it."""

    def __init__(self) -> None:
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []       # midpoints, for interpolation
        self.slowdowns: list[float] = []

    def sample(self) -> None:
        """Time the reference loop three times and record the median. The
        garbage collector is paused meanwhile: a collection it triggered
        would scan the workload's heap and time that instead."""
        begin = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(3):
                started = time.perf_counter()
                reference()
                runs.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.begins.append(begin)
        self.ends.append(end)
        self.times.append((begin + end) / 2)
        self.slowdowns.append(statistics.median(runs) / NOMINAL_S)

    def maybe_sample(self) -> None:
        """Sample when the last sample is older than ``INTERVAL_S``."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def at(self, when: float) -> float:
        """Slowdown at ``when``, linear between the neighbouring samples."""
        i = bisect.bisect_left(self.times, when)
        if i == 0:
            return self.slowdowns[0]
        if i == len(self.times):
            return self.slowdowns[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        s0, s1 = self.slowdowns[i - 1], self.slowdowns[i]
        return s0 + (s1 - s0) * (when - t0) / (t1 - t0)

    def work_seconds(self, start: float, seconds: float) -> float:
        """``seconds`` less the time spent sampling inside the interval."""
        end = start + seconds
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.begins, end)
        return seconds - sum(min(self.ends[k], end) - max(self.begins[k], start)
                             for k in range(first, last))

    def nominal(self, start: float, seconds: float) -> float:
        """Integrate 1 / slowdown over the interval's working time: each
        stretch between samples is divided by the mean of the slowdowns at
        its two ends."""
        end = start + seconds
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.begins, end)
        total = 0.0
        cursor, slow = start, self.at(start)
        for k in range(first, last):
            stop = max(self.begins[k], start)
            total += (stop - cursor) / ((slow + self.slowdowns[k]) / 2)
            cursor, slow = min(self.ends[k], end), self.slowdowns[k]
        return total + (end - cursor) / ((slow + self.at(end)) / 2)
