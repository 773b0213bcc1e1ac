"""How fast the host runs, measured alongside the workload.

The shared VM this benchmark was built on changes speed in spells from
a fraction of a second to a minute: identical iterations of one run
took from 1x to 1.8x the time of the fastest, and every iteration of
one run could be 1.5x slower than every iteration of the next.  CPU
time tracked wall time, so the lost time is contention for the
hardware, not the program's work, and no statistic over the workload's
own timings can tell it from a slower program.

So a :class:`HostMonitor` interleaves a fixed probe with the workload:
at the workload's own call boundaries (a batch post, a scan cycle, a
room query, a WAL record read), once every :data:`INTERVAL_S`, it times
a short burst of a computation that calls none of the program's code.
A timed phase's *host scale* is its mean burst time over
:data:`REFERENCE_BURST_S`, and the phase's wall time (less the bursts
run inside it) divided by that scale is the time it would have taken
on a host that runs the probe in the reference time.  A change to the
program moves that figure and not the probe; a slow spell moves both.

The probe mixes the kinds of work the pipeline does: a small RBF
kernel in numpy (classify), a JSON round trip of a batch body (the
REST front door and the WAL), and dict and list bookkeeping over the
decoded reports (the BMS tables).
"""

from __future__ import annotations

import contextlib
import json
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List

import numpy as np

#: Workload time between two bursts.
INTERVAL_S = 0.05

#: Probe laps per burst (about 1.1 ms on the build VM at its fastest).
BURST_LAPS = 3

#: A burst's time on the build VM (2-vCPU x86_64, Python 3.11, numpy
#: 2.4) at its fastest; only a unit for the reported times.
REFERENCE_BURST_S = 0.0011

_RNG = np.random.default_rng(12345)
_SUPPORT = _RNG.random((60, 5))
_BATCH = _RNG.random((16, 5))
_BODY = [
    {
        "device_id": f"dev-{i:04d}",
        "time": 2.0 * i,
        "beacons": {f"beacon-{j}": 1.5 * j + i for j in range(5)},
    }
    for i in range(16)
]


def _lap() -> float:
    total = 0.0
    for _ in range(4):
        distances = ((_BATCH[:, None, :] - _SUPPORT[None, :, :]) ** 2).sum(-1)
        total += float(np.exp(-0.5 * distances).sum())
    body = json.loads(json.dumps({"sightings": _BODY}))
    table: dict = {}
    for sighting in body["sightings"] * 8:
        nearest = max(sighting["beacons"].items(), key=lambda item: item[1])[0]
        table.setdefault(sighting["device_id"], []).append((sighting["time"], nearest))
    return total + sum(len(rows) for rows in sorted(table.values(), key=len))


@dataclass
class PhaseTime:
    """One timed phase: its wall time less the bursts run inside it, and
    its host scale (1.0 when the monitor is off)."""

    wall_s: float = 0.0
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s / self.scale


class HostMonitor:
    """Interleaves probe bursts with a workload; see the module docstring.

    A disabled monitor runs no bursts and reports a scale of 1.0, so
    traced iterations keep their layer budget free of probe time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.bursts_s: List[float] = []
        self.spent_s = 0.0
        self._due = 0.0

    def tick(self) -> None:
        """Called at a workload call boundary: burst if one is due."""
        if self.enabled and perf_counter() >= self._due:
            self.burst()

    def burst(self) -> None:
        if not self.enabled:
            return
        start = perf_counter()
        for _ in range(BURST_LAPS):
            _lap()
        end = perf_counter()
        self.bursts_s.append(end - start)
        self.spent_s += end - start
        self._due = end + INTERVAL_S

    @contextlib.contextmanager
    def phase(self) -> Iterator[PhaseTime]:
        """Time a phase; a burst opens and closes it, so every phase has
        at least two, and the phase's scale averages all of them."""
        timed = PhaseTime()
        self.burst()
        first, spent = len(self.bursts_s) - 1, self.spent_s
        start = perf_counter()
        yield timed
        end = perf_counter()
        timed.wall_s = end - start - (self.spent_s - spent)
        self.burst()
        if self.enabled:
            timed.scale = statistics.fmean(self.bursts_s[first:]) / REFERENCE_BURST_S
