"""Layer tracing from outside the program: wrap entry points, record spans.

The program under test carries no benchmark instrumentation.  For a
traced iteration :func:`install` replaces each layer's public entry
points (listed in :data:`ENTRY_POINTS`) with thin wrappers that record
one span per call — name, parent, start, end — into a
:class:`SpanRecorder` held in memory, plus the call counts the per-layer
metrics need.  :func:`install` returns the function that puts every
original back, so untraced iterations run the program exactly as
shipped.

A span's self time is its duration minus its direct children's; the
self times of every span under the timed roots, grouped by budget row,
plus the roots' own self time (``unattributed_s``) add up to the timed
wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import BUDGET_ROWS, self_times

#: Span names of the benchmark's own phase roots.
SETUP_ROOT = "bench.setup"
TIMED_ROOTS = ("bench.drive", "bench.ingest", "bench.replay")

Counter = Callable[[tuple, dict, Any], float]


def _len_arg(index: int, name: str) -> Counter:
    def count(args: tuple, kwargs: dict, result: Any) -> float:
        value = args[index] if len(args) > index else kwargs[name]
        return float(len(value))

    return count


def _one(args: tuple, kwargs: dict, result: Any) -> float:
    return 1.0


def _not_none(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result is not None)


def _http_error(args: tuple, kwargs: dict, result: Any) -> float:
    return float(not 200 <= result.status < 300)


def _sim_events(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[0].events_processed)


def _columnar_ticks(args: tuple, kwargs: dict, result: Any) -> float:
    drive, duration = args[0], (args[1] if len(args) > 1 else kwargs["duration_s"])
    return float(int(duration / drive.system.config.scan_period_s))


def _replay_records(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result.records)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable.

    Attributes:
        module: module defining ``owner`` (or the function itself).
        owner: class name, or ``""`` for a module-level function.
        attr: attribute wrapped on ``owner`` (or in ``module``).
        row: budget row the span's self time is charged to.
        counts: per-layer metric -> ``f(args, kwargs, result)`` summed
            over calls; every entry point also counts its calls under
            ``calls``.
        generator: the callable returns an iterator; each ``next`` is
            timed as one span (the work happens there, not in the call).
    """

    module: str
    owner: str
    attr: str
    row: str
    calls: Optional[str] = None
    counts: Tuple[Tuple[str, Counter], ...] = ()
    generator: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


_SERVER = "repro.server.bms"
_WAL = "repro.traces.wal"

#: Public entry points per layer (see the README for the layer table).
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.radio.channel", "ChannelModel", "link_budget_many", "radio.self_s",
               "radio.calls"),
    EntryPoint("repro.radio.channel", "ChannelModel", "link_budget", "radio.self_s",
               "radio.calls", (("radio.samples", _one),)),
    EntryPoint("repro.radio.shadowing", "ShadowingField", "sample_many", "radio.self_s",
               "radio.calls", (("radio.samples", _len_arg(1, "xs")),)),
    EntryPoint("repro.building.mobility", "RandomWaypoint", "position_at",
               "mobility.self_s", "mobility.calls"),
    EntryPoint("repro.building.mobility", "RandomWaypoint", "positions_at",
               "mobility.self_s", "mobility.calls"),
    EntryPoint("repro.phone.device", "Smartphone", "run_cycle", "phone.self_s",
               "phone.cycles", (("phone.reports", _not_none),)),
    EntryPoint("repro.phone.scanner", "Scanner", "scan_cycle", "phone.self_s"),
    EntryPoint("repro.ble.air", "AirInterface", "observe", "phone.self_s"),
    EntryPoint("repro.filters.tracker", "BeaconTracker", "update", "filters.self_s",
               "filters.calls"),
    EntryPoint("repro.sim.engine", "Simulator", "run", "sim.self_s", None,
               (("sim.events", _sim_events),)),
    EntryPoint("repro.fleet.columnar", "ColumnarFleetDrive", "run", "columnar.self_s",
               None, (("columnar.ticks", _columnar_ticks),)),
    EntryPoint("repro.comms.uplink", "Uplink", "queue_report", "uplink.self_s",
               "uplink.calls"),
    EntryPoint("repro.comms.uplink", "Uplink", "send_batch", "uplink.self_s",
               "uplink.calls"),
    EntryPoint("repro.comms.uplink", "Uplink", "flush", "uplink.self_s", "uplink.calls"),
    EntryPoint("repro.server.rest", "Router", "dispatch", "rest.self_s", "rest.requests",
               (("rest.errors", _http_error),)),
    EntryPoint(_SERVER, "BuildingManagementServer", "ingest_batch", "bms.ingest.self_s",
               None, (("bms.ingest.sightings", _len_arg(1, "sightings")),)),
    EntryPoint(_SERVER, "BuildingManagementServer", "ingest_sighting",
               "bms.ingest.self_s", None, (("bms.ingest.sightings", _one),)),
    EntryPoint(_SERVER, "BuildingManagementServer", "snapshot", "bms.query.self_s",
               "bms.query.calls"),
    EntryPoint(_SERVER, "BuildingManagementServer", "device_room_at", "bms.query.self_s",
               "bms.query.calls"),
    EntryPoint(_SERVER, "BuildingManagementServer", "record_history",
               "bms.history.self_s"),
    EntryPoint(_SERVER, "BuildingManagementServer", "classify_batch",
               "ml.predict.self_s"),
    EntryPoint("repro.ml.svm", "SupportVectorClassifier", "predict", "ml.predict.self_s",
               "ml.predict.calls", (("ml.predict.rows", _len_arg(1, "X")),)),
    EntryPoint("repro.ml.svm", "SupportVectorClassifier", "fit", "ml.fit.self_s"),
    EntryPoint(_WAL, "SightingWal", "append_batch", "wal.append.self_s",
               "wal.append.calls"),
    EntryPoint(_WAL, "SightingWal", "append_sighting", "wal.append.self_s",
               "wal.append.calls"),
    EntryPoint(_WAL, "SightingWal", "append_history_mark", "wal.append.self_s",
               "wal.append.calls"),
    EntryPoint(_WAL, "SightingWal", "flush", "wal.append.self_s"),
    EntryPoint(_WAL, "SightingWal", "close", "wal.append.self_s"),
    # The replay module looks both functions up in its own namespace.
    EntryPoint("repro.server.replay", "", "read_wal_records", "wal.read.self_s",
               "wal.read.records", generator=True),
    EntryPoint("repro.server.replay", "", "replay_wal", "replay.self_s", None,
               (("replay.records", _replay_records),)),
    EntryPoint("repro.server.replay", "", "server_from_manifest", "replay.self_s"),
    EntryPoint("repro.core.system", "OccupancyDetectionSystem", "calibrate",
               "setup.calibrate_s"),
    EntryPoint("repro.core.system", "OccupancyDetectionSystem", "train", "setup.train_s"),
    EntryPoint("repro.core.system", "OccupancyDetectionSystem", "add_occupant",
               "setup.add_occupant"),
)


class SpanRecorder:
    """In-memory span store for one thread: compact parallel arrays.

    Spans are appended at open; a stack of open span indices gives each
    new span its parent.  Counts accumulate per metric name.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        #: Counts made by the wrappers inside the timed roots only.
        self.counts: Dict[str, float] = {}
        self._counting = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def phase(self, name: str) -> "_Phase":
        """Context manager for a benchmark root span: set-up or timed."""
        if name != SETUP_ROOT and name not in TIMED_ROOTS:
            raise ValueError(f"unknown benchmark phase {name!r}")
        return _Phase(self, self.name_id(name), counting=name in TIMED_ROOTS)

    def add(self, metric: str, value: float) -> None:
        if self._counting:
            self.counts[metric] = self.counts.get(metric, 0.0) + value

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [self.names[self.name_of[i]], self.parent_of[i],
                         self.start[i], self.end[i]]
                    )
                )
                fh.write("\n")


class _Phase:
    def __init__(self, recorder: SpanRecorder, name_id: int, counting: bool) -> None:
        self.recorder = recorder
        self.name_id = name_id
        self.counting = counting
        self.index = -1

    def __enter__(self) -> "_Phase":
        self.recorder._counting = self.counting
        self.index = self.recorder.open(self.name_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.close(self.index)
        self.recorder._counting = False


def _wrap(recorder: SpanRecorder, entry: EntryPoint, fn: Callable) -> Callable:
    name_id = recorder.name_id(entry.span_name)
    open_, close, add = recorder.open, recorder.close, recorder.add
    calls, counts = entry.calls, entry.counts

    if entry.generator:

        @functools.wraps(fn)
        def traced_iter(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = open_(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(index)
                if calls:
                    add(calls, 1.0)
                yield item

        return traced_iter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        if calls:
            add(calls, 1.0)
        for metric, count in counts:
            add(metric, count(args, kwargs, result))
        return result

    return traced


def install(
    recorder: SpanRecorder, entries: Sequence[EntryPoint] = ENTRY_POINTS
) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for entry in entries:
            module = importlib.import_module(entry.module)
            target = getattr(module, entry.owner) if entry.owner else module
            original = vars(target)[entry.attr]
            setattr(target, entry.attr, _wrap(recorder, entry, original))
            restore.append((target, entry.attr, original))
    except BaseException:
        _restore(restore)
        raise
    return lambda: _restore(restore)


def _restore(restore: List[Tuple[Any, str, Any]]) -> None:
    for target, attr, original in reversed(restore):
        setattr(target, attr, original)
    restore.clear()


_ROW_OF_SPAN = {entry.span_name: entry.row for entry in ENTRY_POINTS}
_SETUP_WALLS = {
    "OccupancyDetectionSystem.calibrate": "setup.calibrate_s",
    "OccupancyDetectionSystem.train": "setup.train_s",
}


def budget(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer self-time rows over the timed roots, plus set-up walls.

    Returns:
        Every :data:`~.metrics.BUDGET_ROWS` row (zero when the layer was
        not exercised), ``timed_wall_s`` (the summed duration of the
        timed roots), and ``setup.calibrate_s`` / ``setup.train_s``
        (wall time of those calls under the set-up root).

    Spans outside every benchmark root (untimed bookkeeping between
    phases, such as sealing the log) are left out.

    Raises:
        ValueError: a span escapes its parent.
    """
    parents, starts, ends = recorder.parent_of, recorder.start, recorder.end
    own = self_times(parents, starts, ends)
    names = [recorder.names[i] for i in recorder.name_of]
    # Each span's root: parents precede children, so one forward pass.
    root_of = [0] * len(names)
    for i, parent in enumerate(parents):
        root_of[i] = i if parent < 0 else root_of[parent]
    rows = {row: 0.0 for row in BUDGET_ROWS}
    rows["timed_wall_s"] = 0.0
    rows["setup.calibrate_s"] = rows["setup.train_s"] = 0.0
    for i, name in enumerate(names):
        root_name = names[root_of[i]]
        if root_name == SETUP_ROOT:
            if name in _SETUP_WALLS:
                rows[_SETUP_WALLS[name]] += ends[i] - starts[i]
            continue
        if root_name not in TIMED_ROOTS:
            continue
        if i == root_of[i]:
            rows["timed_wall_s"] += ends[i] - starts[i]
            rows["unattributed_s"] += own[i]
        else:
            rows[_ROW_OF_SPAN[name]] += own[i]
    return rows
