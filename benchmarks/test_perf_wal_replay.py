"""WAL write-through overhead and replay throughput.

Durability must be close to free on the hot path: the WAL appends one
compact record per applied *batch* (not per sighting), so a BMS taking
``/sightings/batch`` posts with its ``shard-00`` log attached sustains
nearly the same sightings/sec as with logging off.  Recovery must then be
much faster than the original run: the replayer folds the log back
through the vectorised batch-ingest path, so rebuilding state covering
a long simulated span takes a small fraction of that span.

Three things are asserted, in this order:

1. **Correctness, unconditionally**: the replayed occupancy snapshot
   is byte-identical to the live run's.
2. **Overhead**: WAL-on ingest sustains >= 80% of the WAL-off
   sightings/sec, as the median over back-to-back round pairs (the
   contract is <10% overhead; the bar leaves room for timer noise on
   loaded CI boxes).
3. **Replay speed**: replay runs >= 20x faster than the simulated
   real time the log covers.
"""

import gc
import json
import statistics
import time

import numpy as np

from conftest import print_table, run_once
from repro.server.bms import BuildingManagementServer
from repro.server.replay import replay_wal
from repro.server.rest import Request
from repro.traces.wal import SightingWal

N_SIGHTINGS = 24_000
POST_BATCH = 2_000
SIM_SPAN_S = 600.0
ROUNDS = 9

BEACON_IDS = [f"1-{i}" for i in range(1, 7)]
ROOMS = ["kitchen", "living", "bedroom"]


def _calibration_rows(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(30):
        for r, room in enumerate(ROOMS):
            beacons = {
                b: float(abs(rng.normal(1.0 if i // 2 == r else 8.0, 0.5)))
                for i, b in enumerate(BEACON_IDS)
            }
            rows.append((room, beacons))
    return rows


def _sightings(n, seed=1):
    """One sighting per device, times spread over the simulated span."""
    rng = np.random.default_rng(seed)
    distances = rng.uniform(0.5, 9.0, size=(n, len(BEACON_IDS)))
    times = np.sort(rng.uniform(0.0, SIM_SPAN_S, size=n))
    return [
        {
            "device_id": f"dev-{k:06d}",
            "beacons": {b: float(row[i]) for i, b in enumerate(BEACON_IDS)},
            "time": float(t),
        }
        for k, (row, t) in enumerate(zip(distances, times))
    ]


def _make_server(rows, wal_dir=None):
    """A trained BMS, logging into ``<wal_dir>/shard-00`` when given."""
    wal = SightingWal(wal_dir / "shard-00") if wal_dir is not None else None
    server = BuildingManagementServer(BEACON_IDS, wal=wal)
    for room, beacons in rows:
        server.add_fingerprint(room, beacons, 0.0)
    server.train()
    return server


def _ingest_rate(server, sightings):
    """Sightings/sec through ``/sightings/batch`` posts.

    Collects first, so earlier rounds' dead servers are not swept
    (a full collection over 24k stored rows) inside the timed window
    of whichever round happens to trip the collector.
    """
    gc.collect()
    t0 = time.perf_counter()
    for start in range(0, len(sightings), POST_BATCH):
        response = server.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": sightings[start : start + POST_BATCH]},
                time=sightings[start]["time"],
            )
        )
        assert response.status == 200, response
    elapsed = time.perf_counter() - t0
    return len(sightings) / elapsed


def _snapshot_json(server):
    snap = server.snapshot()
    return json.dumps(
        {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
        sort_keys=True,
    )


def test_perf_wal_overhead_and_replay(benchmark, tmp_path):
    rows = _calibration_rows()
    sightings = _sightings(N_SIGHTINGS)

    # (WAL off, WAL on) round pairs on fresh servers, each pair back
    # to back, alternating which side goes first.  The overhead is the
    # median of the per-pair ratios: a shared host changes speed in
    # spells, and best-of-N on each side can take its two best rounds
    # from different spells, while the median of adjacent-round ratios
    # shrugs off the pairs a spell boundary splits.
    _ingest_rate(_make_server(rows), sightings)  # warm code paths
    bare_rates, logged_rates = [], []

    def paired_rounds():
        for attempt in range(ROUNDS):
            bare = _make_server(rows)
            logged = _make_server(rows, wal_dir=tmp_path / f"wal-{attempt}")
            pair = [(bare, bare_rates), (logged, logged_rates)]
            for server, rates in pair[:: 1 if attempt % 2 == 0 else -1]:
                rates.append(_ingest_rate(server, sightings))
            if attempt < ROUNDS - 1:
                logged.wal.close()
        return bare, logged

    bare, logged = run_once(benchmark, paired_rounds)
    bare.record_history(SIM_SPAN_S)
    logged.record_history(SIM_SPAN_S)
    logged.wal.close()

    # Correctness first, unconditionally: byte-identical snapshots
    # live-with-WAL vs live-without, and replayed vs live.
    live_snapshot = _snapshot_json(logged)
    assert live_snapshot == _snapshot_json(bare)

    restored = _make_server(rows)
    t0 = time.perf_counter()
    report = replay_wal(restored, logged.wal.directory)
    replay_wall = time.perf_counter() - t0
    assert _snapshot_json(restored) == live_snapshot
    assert report.sightings == N_SIGHTINGS

    bare_rate = statistics.median(bare_rates)
    logged_rate = statistics.median(logged_rates)
    overhead_ratio = statistics.median(
        on / off for on, off in zip(logged_rates, bare_rates)
    )
    realtime_factor = report.span_s / replay_wall
    print_table(
        f"WAL overhead and replay throughput ({N_SIGHTINGS} sightings, "
        f"{SIM_SPAN_S:.0f}s sim span)",
        [
            ("ingest, WAL off (sightings/s)", "n/a", f"{bare_rate:,.0f}"),
            ("ingest, WAL on (sightings/s)", "n/a", f"{logged_rate:,.0f}"),
            ("wal_on/wal_off ratio", ">= 0.80", f"{overhead_ratio:.2f}"),
            ("replay wall (s)", "n/a", f"{replay_wall:.2f}"),
            ("replay realtime factor", ">= 20x", f"{realtime_factor:.0f}x"),
        ],
    )
    assert overhead_ratio >= 0.80, (
        f"WAL overhead too high: ratio {overhead_ratio:.2f}"
    )
    assert realtime_factor >= 20.0, (
        f"replay only {realtime_factor:.1f}x real time"
    )
