"""The three seeded workloads, driven through the program's public API.

Each workload is a function ``iterate(params, seed, workdir, recorder)``
that performs one complete, freshly set-up instance of the workload
and returns an :class:`Iteration`: set-up time, the timed phases' wall
times, per-batch post latencies, the detection metrics, and the
correctness failures found off the clock.  The runner repeats
iterations on identical inputs for the measured span.

The building is fixed: the paper's test house, commissioned with
:data:`BUILDING_SEED` (channel, calibration walk, classifier).  The
workload seed draws what arrives at it: the occupants' walks, and for
``bms-wal`` the delivery faults added to the traffic those walks make.

Only mechanisms the ROADMAP keeps are used: one single-store
``BuildingManagementServer``, one in-process fleet (no shards, no
workers, no sharded front door), a ``SightingWal`` with the default
flush policy (``fsync=False``) and no compaction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.building.floorplan import OUTSIDE
from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import test_house
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.fleet.columnar import run_columnar
from repro.fleet.loadgen import FleetLoadGenerator
from repro.phone.device import Smartphone
from repro.phone.scanner import Scanner
from repro.server import replay
from repro.server.bms import BuildingManagementServer
from repro.server.client import BmsClient
from repro.server.persistence import save_calibration
from repro.sim.rng import derive_seed
from repro.traces.wal import SightingWal

from .hostprobe import HostMonitor, PhaseTime
from .metrics import Prediction, detection_metrics
from .stream import device_name, occupants, record_in_subprocess
from .stream import load as load_stream
from .tracer import SETUP_ROOT, SpanRecorder

#: WAL flush policy of every workload, stated in each result.
WAL_FSYNC = False

#: Seed of the building under test: its radio channel, calibration
#: walk and classifier.  Fixed, so workload seeds vary only the inputs.
BUILDING_SEED = 0


@dataclass(frozen=True)
class FleetParams:
    """A simulated fleet: M phones walking the paper's test house."""

    devices: int
    duration_s: float
    columnar: bool
    replays: int = 1
    calibration_s: float = 300.0
    batch_size: int = 16
    batch_delay_s: float = 10.0
    uplink: str = "wifi"


@dataclass(frozen=True)
class StreamParams:
    """A fleet's recorded uplink traffic, posted straight into the BMS.

    ``batch_delay_s`` is long enough that every batch but a device's
    last fills to ``batch_size`` reports.  The two shares are choices of
    the benchmark, not measurements: a ``late_share`` of the reports
    arrives one post late, and a ``duplicate_share`` of the posts is
    delivered twice.
    """

    devices: int
    duration_s: float
    replays: int = 1
    calibration_s: float = 300.0
    batch_size: int = 16
    batch_delay_s: float = 30.0
    duplicate_share: float = 0.01
    late_share: float = 0.01


@dataclass
class Iteration:
    """One workload instance's raw measurements.

    Set-up, the timed phase (the drive, or the ingest loop) and each
    rebuild are timed as a :class:`~occbench.hostprobe.PhaseTime`: wall
    time less the host probe's bursts, and the phase's host scale.
    Post latencies are raw; they share the timed phase's scale.
    """

    setup: PhaseTime
    timed: PhaseTime
    replays: List[PhaseTime]
    replay_span_h: float
    accepted: int
    attempted: int
    failed: int
    post_latencies_s: List[float]
    wal_bytes: int
    wal_sightings: int
    detection: Dict[str, float]
    layer_counts: Dict[str, float]
    failures: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """Everything that must repeat exactly on identical inputs."""
        return json.dumps(
            [self.accepted, self.attempted, self.failed, self.wal_bytes,
             self.wal_sightings, self.detection, self.replay_span_h,
             self.layer_counts, len(self.post_latencies_s)],
            sort_keys=True,
        )


def _phase(recorder: Optional[SpanRecorder], name: str):
    return recorder.phase(name) if recorder is not None else contextlib.nullcontext()


class _PostTimer:
    """Times every request through a router, from the caller's side.

    Installed as an instance attribute over ``router.dispatch``, so
    everything that posts through that router — the uplinks, or the
    benchmark's own client — is timed without touching the program.
    """

    def __init__(self, router, monitor: HostMonitor) -> None:
        self.latencies_s: List[float] = []
        self.errors: List[int] = []
        self.failed_sightings = 0
        dispatch = router.dispatch

        def timed(request):
            monitor.tick()
            start = perf_counter()
            response = dispatch(request)
            self.latencies_s.append(perf_counter() - start)
            if not response.ok:
                self.errors.append(response.status)
                self.failed_sightings += len((request.body or {}).get("sightings", [1]))
            return response

        router.dispatch = timed


def _attach_wal(system: OccupancyDetectionSystem, wal_dir: Path) -> SightingWal:
    """The fleet load generator's WAL directory layout: log, manifest, calibration."""
    bms = system.bms
    wal = SightingWal(wal_dir / "shard-00", fsync=WAL_FSYNC)
    bms.attach_wal(wal)
    replay.write_manifest(
        wal_dir,
        beacon_ids=list(bms.vectorizer.beacon_ids),
        missing_value=bms.vectorizer.missing_value,
        device_timeout_s=bms.device_timeout_s,
        svm_c=system.config.svm_c,
        svm_gamma=system.config.svm_gamma,
        seed=system.config.seed,
        shards=1,
    )
    save_calibration(bms, wal_dir / replay.CALIBRATION_NAME)
    return wal


def _trained_system(calibration_s: float, config: SystemConfig) -> OccupancyDetectionSystem:
    system = OccupancyDetectionSystem(test_house(), config)
    system.calibrate(duration_s=calibration_s)
    system.train()
    return system


def _history(server) -> Dict[str, list]:
    return {room: server.history.series(room) for room in server.history.rooms()}


def replay_mismatches(live_snapshot, live_history, live_rows, rebuilt) -> List[str]:
    """Differences between the live server and its replayed rebuild."""
    found = []
    if rebuilt.sighting_count != live_rows:
        found.append(
            f"replayed sightings table holds {rebuilt.sighting_count} rows, "
            f"the live run {live_rows}"
        )
    rebuilt_snapshot = rebuilt.snapshot(live_snapshot.time)
    for name in ("time", "devices", "rooms"):
        if getattr(rebuilt_snapshot, name) != getattr(live_snapshot, name):
            found.append(f"replayed occupancy {name} differs from the live run")
    if _history(rebuilt) != live_history:
        found.append("replayed per-room history differs from the live run")
    return found


def _wal_bytes(wal: SightingWal) -> int:
    return sum(path.stat().st_size for path in wal.segment_paths())


@contextlib.contextmanager
def _ticking(monitor: HostMonitor, owner: type, attr: str):
    """Give ``monitor`` a call boundary at every call to ``owner.attr``."""
    if not monitor.enabled:
        yield
        return
    method = getattr(owner, attr)

    @functools.wraps(method)
    def ticked(*args, **kwargs):
        monitor.tick()
        return method(*args, **kwargs)

    setattr(owner, attr, ticked)
    try:
        yield
    finally:
        setattr(owner, attr, method)


@contextlib.contextmanager
def _ticking_records(monitor: HostMonitor):
    """Give ``monitor`` a call boundary at every WAL record a rebuild reads."""
    if not monitor.enabled:
        yield
        return
    read = replay.read_wal_records

    def ticked(*args, **kwargs):
        for record in read(*args, **kwargs):
            monitor.tick()
            yield record

    replay.read_wal_records = ticked
    try:
        yield
    finally:
        replay.read_wal_records = read


def _replay(
    wal_dir: Path, recorder: Optional[SpanRecorder], monitor: HostMonitor, repeats: int, live
):
    """Rebuild the server from its log ``repeats`` times; returns every
    rebuild's time, the replay report and every mismatch found."""
    times, failures = [], []
    for _ in range(repeats):
        with _phase(recorder, "bench.replay"), _ticking_records(monitor), \
                monitor.phase() as timed:
            rebuilt, report = replay.server_from_manifest(wal_dir)
        times.append(timed)
        failures.extend(replay_mismatches(*live, rebuilt))
        del rebuilt
    return times, report, sorted(set(failures))


# ----------------------------------------------------------------------
# fleet-scalar / fleet-columnar
# ----------------------------------------------------------------------
_DETECTION: Dict[str, Dict[str, float]] = {}


def _detection(predictions, change_time) -> Dict[str, float]:
    """Detection metrics, worked out once per distinct set of predictions.

    Every iteration of a run makes the same predictions, and bisecting
    their change instants costs about as much as a timed phase, time
    that would otherwise leave fewer iterations in a run.
    """
    key = hashlib.sha256(json.dumps(predictions, sort_keys=True).encode()).hexdigest()
    if key not in _DETECTION:
        _DETECTION[key] = detection_metrics(predictions, change_time)
    return _DETECTION[key]


def _trajectory_change_time(occupants: Dict[str, Occupant], plan):
    """Resolve a room change to ~1 us by bisecting the true trajectory."""

    def change_time(device: str, before: float, after: float, truth: str) -> float:
        occupant = occupants[device]
        low, high = before, after
        for _ in range(21):
            middle = (low + high) / 2.0
            if occupant.room_at(middle, plan) == truth:
                high = middle
            else:
                low = middle
        return high

    return change_time


#: Where the host monitor may run a burst, besides batch posts: during
#: set-up at each scan cycle of the calibration walk, and during a drive
#: (by ``columnar``) at each phone's scan cycle or each device's room
#: query.  Posts alone come in bunches every batch delay.
SETUP_TICKS = (Scanner, "scan_cycle")
DRIVE_TICKS = {False: (Smartphone, "run_cycle"), True: (BuildingManagementServer, "device_room_at")}


def fleet_iteration(
    params: FleetParams,
    seed: int,
    workdir: Path,
    recorder: Optional[SpanRecorder] = None,
    inputs: None = None,
    monitor: Optional[HostMonitor] = None,
) -> Iteration:
    """Calibrate, train, drive the fleet, then rebuild the BMS from its log."""
    monitor = monitor or HostMonitor(enabled=False)
    wal_dir = workdir / "wal"
    config = SystemConfig(
        seed=BUILDING_SEED,
        uplink=params.uplink,
        uplink_batch_size=params.batch_size,
        uplink_batch_delay_s=params.batch_delay_s,
    )
    with _phase(recorder, SETUP_ROOT), _ticking(monitor, *SETUP_TICKS), \
            monitor.phase() as setup:
        system = _trained_system(params.calibration_s, config)
        wal = _attach_wal(system, wal_dir)
        occupants = {}
        for i in range(params.devices):
            mobility = RandomWaypoint(system.plan, seed=derive_seed(seed, f"fleet:{i}"))
            occupant = occupants[f"dev-{i:04d}"] = Occupant(f"dev-{i:04d}", mobility)
            system.add_occupant(occupant)
    timer = _PostTimer(system.bms.router, monitor)
    with _phase(recorder, "bench.drive"), _ticking(monitor, *DRIVE_TICKS[params.columnar]), \
            monitor.phase() as drive:
        if params.columnar:
            run = run_columnar(system, params.duration_s)
        else:
            run = system.run(params.duration_s)
    bms = system.bms
    accepted = int(system.obs.counter("server.sightings").value)
    live_snapshot = bms.snapshot()
    live_history = _history(bms)
    wal.close()
    live = (live_snapshot, live_history, bms.sighting_count)
    replays, report, failures = _replay(wal_dir, recorder, monitor, params.replays, live)
    delivered = sum(stats.delivered for stats in run.delivery.values())
    attempted = sum(stats.attempts for stats in run.delivery.values())
    if timer.errors:
        failures.append(f"BMS refused {len(timer.errors)} batch posts: {timer.errors[:5]}")
    if delivered != accepted:
        failures.append(f"{delivered} reports delivered but {accepted} accepted")
    obs = system.obs
    counts = {
        "uplink.bytes": obs.counter("uplink.bytes").value,
        "uplink.retries": obs.counter("uplink.retries").value
        + obs.counter("uplink.backpressure_retries").value,
        "uplink.dropped": float(attempted - delivered),
        "bms.rows": float(bms.sighting_count),
        "bms.devices": float(len(live_snapshot.devices)),
    }
    return Iteration(
        setup=setup,
        timed=drive,
        replays=replays,
        replay_span_h=report.span_s / 3600.0,
        accepted=accepted,
        attempted=attempted,
        failed=timer.failed_sightings,
        post_latencies_s=timer.latencies_s,
        wal_bytes=_wal_bytes(wal),
        wal_sightings=wal.sightings_appended,
        detection=_detection(
            run.predictions, _trajectory_change_time(occupants, system.plan)
        ),
        layer_counts=counts,
        failures=failures,
    )


#: The CI smoke configuration at which the scalar and columnar engines
#: must agree byte for byte.
SMOKE = dict(devices=4, duration_s=60.0, batch_size=8, calibration_s=240.0)


def engines_agree(seed: int) -> List[str]:
    """Scalar vs columnar fleet at the smoke config: reports, occupancy
    and history must be byte-identical."""
    outputs = []
    for columnar in (False, True):
        generator = FleetLoadGenerator(seed=seed, columnar=columnar, uplink="wifi", **SMOKE)
        report = generator.run()
        outputs.append(
            {
                "report": json.dumps(report.to_dict(), sort_keys=True),
                "occupancy": json.dumps(
                    [generator.last_occupancy.devices, generator.last_occupancy.rooms],
                    sort_keys=True,
                ),
                "history": json.dumps(
                    {r: generator.last_history.series(r) for r in generator.last_history.rooms()},
                    sort_keys=True,
                ),
            }
        )
    scalar, columnar = outputs
    return [
        f"scalar and columnar fleet {key} differ at the smoke config"
        for key in scalar
        if scalar[key] != columnar[key]
    ]


# ----------------------------------------------------------------------
# bms-wal
# ----------------------------------------------------------------------
@dataclass
class SightingStream:
    """The recorded fleet traffic plus the workload's delivery faults.

    ``posts[k]`` lists the report indices of the k-th post, in the
    order the fleet sent them, after each late report has been moved
    to the end of its device's next post; ``duplicate[k]`` marks post
    ``k`` for redelivery.  Request bodies are built from these arrays
    one post at a time.
    """

    beacon_ids: List[str]
    post_time: np.ndarray
    post_device: np.ndarray
    report_time: np.ndarray
    report_beacons: np.ndarray
    posts: List[np.ndarray]
    duplicate: np.ndarray
    late: int

    def body(self, k: int) -> List[dict]:
        device = device_name(int(self.post_device[k]))
        body = []
        for r in self.posts[k].tolist():
            row = self.report_beacons[r]
            body.append(
                {
                    "device_id": device,
                    "time": float(self.report_time[r]),
                    "beacons": {
                        beacon: float(value)
                        for beacon, value in zip(self.beacon_ids, row.tolist())
                        if value == value  # NaN marks an unseen beacon
                    },
                }
            )
        return body


def make_stream(
    params: StreamParams, seed: int, recorded: Dict[str, np.ndarray]
) -> SightingStream:
    """Add the seeded delivery faults to the recorded traffic.

    A ``late_share`` of the reports, drawn among those whose device
    posts again, is held back and sent at the end of that device's next
    post, behind newer reports.  A ``duplicate_share`` of the posts is
    delivered twice in a row.
    """
    rng = np.random.default_rng(derive_seed(seed, "bms-wal:faults"))
    start, devices = recorded["post_start"], recorded["post_device"]
    posts = [np.arange(start[k], start[k + 1]) for k in range(len(devices))]
    following: Dict[int, int] = {}
    next_post = np.full(len(devices), -1)
    for k in range(len(devices) - 1, -1, -1):
        next_post[k] = following.get(int(devices[k]), -1)
        following[int(devices[k])] = k
    held = [np.empty(0, dtype=np.int64) for _ in posts]
    late = 0
    for k, indices in enumerate(posts):
        if next_post[k] < 0:
            continue
        moved = rng.random(len(indices)) < params.late_share
        posts[k] = indices[~moved]
        held[next_post[k]] = indices[moved]
        late += int(moved.sum())
    posts = [np.concatenate([indices, extra]) for indices, extra in zip(posts, held)]
    return SightingStream(
        beacon_ids=recorded["beacon_ids"].tolist(),
        post_time=recorded["post_time"],
        post_device=devices,
        report_time=recorded["report_time"],
        report_beacons=recorded["report_beacons"],
        posts=posts,
        duplicate=rng.random(len(posts)) < params.duplicate_share,
        late=late,
    )


def prepare_stream(params: StreamParams, seed: int, workdir: Path) -> SightingStream:
    """Record the fleet's traffic in a child process, then add the faults."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "stream.npz"
    record_in_subprocess(dataclasses.asdict(params), seed, BUILDING_SEED, path)
    return make_stream(params, seed, load_stream(path))


def stream_iteration(
    params: StreamParams,
    seed: int,
    workdir: Path,
    recorder: Optional[SpanRecorder],
    stream: SightingStream,
    monitor: Optional[HostMonitor] = None,
) -> Iteration:
    """Post the recorded traffic into a trained, logging BMS; rebuild it from the log."""
    monitor = monitor or HostMonitor(enabled=False)
    wal_dir = workdir / "wal"
    config = SystemConfig(seed=BUILDING_SEED)
    with _phase(recorder, SETUP_ROOT), _ticking(monitor, *SETUP_TICKS), \
            monitor.phase() as setup:
        system = _trained_system(params.calibration_s, config)
        wal = _attach_wal(system, wal_dir)
    bms = system.bms
    period = system.config.scan_period_s
    mark_times = [(p + 1) * period for p in range(int(params.duration_s / period))]
    router = bms.router
    timer = _PostTimer(router, monitor)
    marks = []
    attempted = accepted = 0
    with _phase(recorder, "bench.ingest"), monitor.phase() as ingest:
        for k, post_time in enumerate(stream.post_time.tolist()):
            # A history mark every scan period, after the posts sent up to it.
            while len(marks) < len(mark_times) and mark_times[len(marks)] < post_time:
                marks.append(bms.record_history(mark_times[len(marks)]).devices)
            body = stream.body(k)
            request = BmsClient.batch_request(body, time=post_time)
            for _ in range(2 if stream.duplicate[k] else 1):
                attempted += len(body)
                response = router.dispatch(request)
                if response.ok:
                    accepted += response.body["count"]
        while len(marks) < len(mark_times):
            marks.append(bms.record_history(mark_times[len(marks)]).devices)
    live_snapshot = bms.snapshot()
    live_history = _history(bms)
    wal.close()
    live = (live_snapshot, live_history, bms.sighting_count)
    replays, report, failures = _replay(wal_dir, recorder, monitor, params.replays, live)
    if timer.errors:
        failures.append(f"BMS refused {len(timer.errors)} batch posts: {timer.errors[:5]}")
    if accepted != attempted - timer.failed_sightings:
        failures.append(f"{attempted} sightings posted but {accepted} accepted")
    walkers = occupants(system.plan, params.devices, seed)
    predictions: Dict[str, List[Prediction]] = {
        name: [
            (time, occupant.room_at(time, system.plan), devices.get(name, OUTSIDE))
            for time, devices in zip(mark_times, marks)
        ]
        for name, occupant in walkers.items()
    }
    counts = {
        "bms.rows": float(bms.sighting_count),
        "bms.devices": float(len(live_snapshot.devices)),
    }
    return Iteration(
        setup=setup,
        timed=ingest,
        replays=replays,
        replay_span_h=report.span_s / 3600.0,
        accepted=accepted,
        attempted=attempted,
        failed=timer.failed_sightings,
        post_latencies_s=timer.latencies_s,
        wal_bytes=_wal_bytes(wal),
        wal_sightings=wal.sightings_appended,
        detection=_detection(
            predictions, _trajectory_change_time(walkers, system.plan)
        ),
        layer_counts=counts,
        failures=failures,
    )


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, its size, and how to run it.

    ``prepare`` makes the run's inputs once, before any iteration; its
    result is handed to every iteration.
    """

    name: str
    why: str
    params: object
    iterate: Callable[..., Iteration]
    smoke_check: Optional[Callable[[int], List[str]]] = None
    prepare: Optional[Callable[..., object]] = None

    def inputs(self, seed: int, workdir: Path) -> object:
        return None if self.prepare is None else self.prepare(self.params, seed, workdir)

    def run(
        self,
        seed: int,
        workdir: Path,
        recorder: Optional[SpanRecorder] = None,
        inputs: object = None,
        monitor: Optional[HostMonitor] = None,
    ) -> Iteration:
        return self.iterate(self.params, seed, workdir, recorder, inputs, monitor)


FLEET_SCALAR = FleetParams(devices=12, duration_s=120.0, columnar=False, replays=5)
FLEET_COLUMNAR = FleetParams(devices=96, duration_s=60.0, columnar=True, replays=3)
BMS_WAL = StreamParams(devices=125, duration_s=240.0)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-scalar",
            "event-driven per-phone path (12 phones x 120 sim-s): radio, scanner, filter, "
            "sim loop and uplinks do the work here and almost nowhere else",
            FLEET_SCALAR,
            fleet_iteration,
            engines_agree,
        ),
        Workload(
            "fleet-columnar",
            "columnar fleet drive (96 phones x 60 sim-s): no scanner, filter or event loop; "
            "per-tick costs that grow with fleet size dominate",
            FLEET_COLUMNAR,
            fleet_iteration,
            engines_agree,
        ),
        Workload(
            "bms-wal",
            "no simulation: a fleet's recorded uplink posts, some redelivered or late, "
            "replayed closed-loop into a logging BMS, then a rebuild from the log",
            BMS_WAL,
            stream_iteration,
            prepare=prepare_stream,
        ),
    )
}
