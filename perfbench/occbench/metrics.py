"""Metric catalogue and the arithmetic every workload shares.

One table names every metric the benchmark reports, with its unit and
direction, so the runner, the doc and ``BENCHMARK.json`` cannot drift
apart.  The helpers below turn raw per-iteration samples into the
reported values: percentiles, the median/quartile summary, and the
accuracy decomposition (settled points and handover lag) computed from
``(time, truth, estimate)`` evaluation points.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: name -> (unit, better).  Reported by every workload with tracing off.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "sightings_per_s": ("1/s", "higher"),
    "ingest_p50_ms": ("ms", "lower"),
    "ingest_p99_ms": ("ms", "lower"),
    "replay_s_per_sim_h": ("s/sim-h", "lower"),
    "wal_bytes_per_sighting": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("ratio", "higher"),
    "settled_accuracy": ("ratio", "higher"),
    "handover_lag_p50_s": ("sim-s", "lower"),
    "handover_lag_p95_s": ("sim-s", "lower"),
}

#: The per-layer budget rows: every ``*.self_s`` plus ``unattributed_s``
#: adds up to the timed wall time of a traced iteration.
BUDGET_ROWS: Tuple[str, ...] = (
    "radio.self_s",
    "mobility.self_s",
    "phone.self_s",
    "filters.self_s",
    "sim.self_s",
    "columnar.self_s",
    "uplink.self_s",
    "rest.self_s",
    "bms.ingest.self_s",
    "bms.query.self_s",
    "bms.history.self_s",
    "ml.predict.self_s",
    "ml.fit.self_s",
    "wal.append.self_s",
    "wal.read.self_s",
    "replay.self_s",
    "unattributed_s",
)

#: name -> unit.  Reported by every workload with tracing on.  Each is a
#: cost (work done, time spent, bytes, failures), so lower is better.
PER_LAYER: Dict[str, str] = {
    "radio.calls": "count",
    "radio.samples": "count",
    "radio.self_s": "s",
    "mobility.calls": "count",
    "mobility.self_s": "s",
    "phone.cycles": "count",
    "phone.reports": "count",
    "phone.self_s": "s",
    "filters.calls": "count",
    "filters.self_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "columnar.ticks": "count",
    "columnar.self_s": "s",
    "uplink.calls": "count",
    "uplink.bytes": "B",
    "uplink.retries": "count",
    "uplink.dropped": "count",
    "uplink.self_s": "s",
    "rest.requests": "count",
    "rest.errors": "count",
    "rest.self_s": "s",
    "bms.ingest.sightings": "count",
    "bms.ingest.self_s": "s",
    "bms.query.calls": "count",
    "bms.query.self_s": "s",
    "bms.history.self_s": "s",
    "bms.rows": "count",
    "bms.devices": "count",
    "ml.predict.calls": "count",
    "ml.predict.rows": "count",
    "ml.predict.self_s": "s",
    "ml.fit.self_s": "s",
    "wal.append.calls": "count",
    "wal.append.self_s": "s",
    "wal.bytes": "B",
    "wal.read.records": "count",
    "wal.read.self_s": "s",
    "replay.records": "count",
    "replay.self_s": "s",
    "setup.calibrate_s": "s",
    "setup.train_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}

#: Evaluation points at least this long after a device's last true
#: room change count as settled (ROADMAP item 4's split).
SETTLE_S = 10.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100].

    Raises:
        ValueError: no values.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of raw samples (a single sample is its own
    quartiles)."""
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "n": len(values),
    }


@dataclass(frozen=True)
class Handovers:
    """Handover lag samples and how many handovers never resolved."""

    lags_s: List[float]
    censored: int


Prediction = Tuple[float, str, str]


ChangeTime = Callable[[str, float, float, str], float]


def midpoint(device: str, before: float, after: float, truth: str) -> float:
    """Default change instant: the middle of the interval it lies in."""
    return (before + after) / 2.0


def settled_points(
    predictions: Mapping[str, Sequence[Prediction]],
    change_time: ChangeTime = midpoint,
    settle_s: float = SETTLE_S,
) -> Tuple[int, int]:
    """Points ``settle_s`` or more after the device's last true room
    change (see :func:`handover_lags` for ``change_time``); the start
    of the run counts as a change, so warm-up points are never settled.

    Returns:
        ``(correct, total)`` settled points.
    """
    hits = total = 0
    for device, points in predictions.items():
        last_change = 0.0
        for i, (time, truth, estimate) in enumerate(points):
            if i and truth != points[i - 1][1]:
                last_change = change_time(device, points[i - 1][0], time, truth)
            if time - last_change >= settle_s:
                total += 1
                hits += truth == estimate
    return hits, total


def handover_lags(
    predictions: Mapping[str, Sequence[Prediction]],
    change_time: ChangeTime = midpoint,
) -> Handovers:
    """Lag from each true room change to the first agreeing estimate.

    Evaluation points come once per scan period, so the predictions
    only place a change between the last point in the old room and the
    first point in the new one.  ``change_time(device, before, after,
    new_truth)`` resolves the instant inside that interval — from the
    ground-truth trajectory when the workload has it, else the
    midpoint.  The lag runs from that instant to the first point whose
    estimate equals the new truth.  A handover is censored when the
    truth changes again (or the run ends) before any estimate agrees.
    """
    lags: List[float] = []
    censored = 0
    for device, points in predictions.items():
        for i in range(1, len(points)):
            before, after = points[i - 1], points[i]
            if after[1] == before[1]:
                continue
            truth = after[1]
            change_at = change_time(device, before[0], after[0], truth)
            for time, now_truth, estimate in points[i:]:
                if now_truth != truth:
                    censored += 1
                    break
                if estimate == truth:
                    lags.append(time - change_at)
                    break
            else:
                censored += 1
    return Handovers(lags, censored)


def detection_metrics(
    predictions: Mapping[str, Sequence[Prediction]],
    change_time: ChangeTime = midpoint,
) -> Dict[str, float]:
    """The four deterministic detection metrics plus the counts behind them.

    Raises:
        ValueError: no settled points or no resolved handover.
    """
    settled_hits, settled_total = settled_points(predictions, change_time)
    handovers = handover_lags(predictions, change_time)
    if not settled_total or not handovers.lags_s:
        raise ValueError("no settled points or resolved handovers; the workload is too small")
    points = sum(len(p) for p in predictions.values())
    hits = sum(truth == estimate for p in predictions.values() for _, truth, estimate in p)
    return {
        "accuracy": hits / points,
        "settled_accuracy": settled_hits / settled_total,
        "handover_lag_p50_s": percentile(handovers.lags_s, 50.0),
        "handover_lag_p95_s": percentile(handovers.lags_s, 95.0),
        "eval_points": points,
        "settled_points": settled_total,
        "handovers": len(handovers.lags_s),
        "handovers_censored": handovers.censored,
    }


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent
    and never overlap each other; the children's summed durations are
    the covered part.

    Raises:
        ValueError: a child ends after its parent, or starts before it.
    """
    child_time = [0.0] * len(parents)
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        if ends[i] > ends[parent] or starts[i] < starts[parent]:
            raise ValueError(
                f"span {i} [{starts[i]}, {ends[i]}] escapes its parent "
                f"{parent} [{starts[parent]}, {ends[parent]}]"
            )
        child_time[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child_time[i] for i in range(len(parents))]
