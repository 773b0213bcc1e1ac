"""Fast tests of the benchmark's own arithmetic, catalogue and checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from occbench import hostprobe, metrics, stream, tracer
from occbench.runner import host_steadiness, result_line
from occbench.workloads import (
    BUILDING_SEED,
    WORKLOADS,
    StreamParams,
    make_stream,
    stream_iteration,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ----------------------------------------------------------------------
# metric names and units
# ----------------------------------------------------------------------
def test_catalogue_matches_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {m["better"] for m in spec["per_layer"]} == {"lower"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_budget_rows_are_per_layer_seconds():
    for row in metrics.BUDGET_ROWS:
        assert metrics.PER_LAYER[row] == "s"
    rows = {entry.row for entry in tracer.ENTRY_POINTS}
    assert rows - {"setup.calibrate_s", "setup.train_s", "setup.add_occupant"} <= set(
        metrics.BUDGET_ROWS
    )


def test_result_line_names_every_metric_with_its_unit():
    base = {"correct": True, "counts": {"attempted": 3, "failed": 0}}
    untraced = dict(base, trace=0, end_to_end={k: 1.5 for k in metrics.END_TO_END})
    line = result_line(untraced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["ingest_p99_ms"] == {"value": 1.5, "unit": "ms"}
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    traced = dict(base, trace=1, per_layer={k: 2.0 for k in metrics.PER_LAYER})
    assert set(result_line(traced)["metrics"]) == set(metrics.PER_LAYER)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_on_a_hand_built_tree():
    #   0 root [0, 10]
    #   +-- 1 [1, 4]
    #   |   +-- 2 [2, 3]
    #   +-- 3 [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert metrics.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_a_span_ending_after_its_parent_is_rejected():
    with pytest.raises(ValueError, match="escapes its parent"):
        metrics.self_times([-1, 0], [0.0, 1.0], [2.0, 3.0])


def _hand_built_recorder():
    recorder = tracer.SpanRecorder()

    def add(name, parent, start, end):
        recorder.name_of.append(recorder.name_id(name))
        recorder.parent_of.append(parent)
        recorder.start.append(start)
        recorder.end.append(end)
        return len(recorder.start) - 1

    setup = add(tracer.SETUP_ROOT, -1, 0.0, 2.0)
    add("OccupancyDetectionSystem.calibrate", setup, 0.1, 1.1)
    drive = add("bench.drive", -1, 3.0, 13.0)
    sim = add("Simulator.run", drive, 3.5, 12.5)
    add("ChannelModel.link_budget_many", sim, 4.0, 8.0)
    add("SightingWal.close", -1, 13.0, 13.5)  # between phases: left out
    replay = add("bench.replay", -1, 14.0, 16.0)
    add("server_from_manifest", replay, 14.0, 15.5)
    return recorder


def test_budget_rows_add_up_to_the_timed_wall():
    rows = tracer.budget(_hand_built_recorder())
    assert rows["timed_wall_s"] == 12.0
    assert rows["radio.self_s"] == 4.0
    assert rows["sim.self_s"] == 5.0
    assert rows["replay.self_s"] == 1.5
    assert rows["unattributed_s"] == 1.0 + 0.5
    assert rows["wal.append.self_s"] == 0.0
    assert rows["setup.calibrate_s"] == 1.0
    assert sum(rows[r] for r in metrics.BUDGET_ROWS) == rows["timed_wall_s"]


def test_install_restores_every_entry_point():
    import repro.server.replay as replay_module
    from repro.radio.channel import ChannelModel

    before = (ChannelModel.link_budget_many, replay_module.read_wal_records)
    restore = tracer.install(tracer.SpanRecorder())
    assert ChannelModel.link_budget_many is not before[0]
    restore()
    assert (ChannelModel.link_budget_many, replay_module.read_wal_records) == before


# ----------------------------------------------------------------------
# settled/transit split and handover lag
# ----------------------------------------------------------------------
PREDICTIONS = {
    # Warm-up until 4, a change to "b" between 12 and 14 resolved at
    # 18, then settled in "b" from 24 on.
    "d1": [
        (2.0, "a", "outside"),
        (4.0, "a", "a"),
        (6.0, "a", "a"),
        (8.0, "a", "a"),
        (10.0, "a", "a"),
        (12.0, "a", "a"),
        (14.0, "b", "a"),
        (16.0, "b", "a"),
        (18.0, "b", "b"),
        (20.0, "b", "b"),
        (22.0, "b", "b"),
        (24.0, "b", "b"),
        (26.0, "b", "c"),
    ],
    # A change to "c" that flips back before the BMS agrees: censored.
    "d2": [(2.0, "a", "a"), (4.0, "c", "a"), (6.0, "a", "a")],
}


def test_settled_points_start_ten_seconds_after_the_last_change():
    hits, points = metrics.settled_points(PREDICTIONS)
    # d1: 10 and 12 (run start counts as a change) and 24, 26 (change
    # at 13); d2 has none.
    assert (hits, points) == (3, 4)


def test_handover_lag_and_censoring():
    handovers = metrics.handover_lags(PREDICTIONS)
    assert handovers.lags_s == [18.0 - 13.0, 6.0 - 5.0]
    assert handovers.censored == 1


def test_handover_lag_uses_the_resolved_change_instant():
    exact = metrics.handover_lags(PREDICTIONS, lambda d, lo, hi, truth: hi - 0.25)
    assert exact.lags_s == [18.0 - 13.75, 6.0 - 5.75]


def test_detection_metrics_percentiles():
    found = metrics.detection_metrics(PREDICTIONS)
    assert found["accuracy"] == 11 / 16
    assert found["settled_accuracy"] == 3 / 4
    assert found["handover_lag_p50_s"] == 3.0
    assert math.isclose(found["handover_lag_p95_s"], 1.0 + 0.95 * 4.0)
    assert found["handovers_censored"] == 1


# ----------------------------------------------------------------------
# host steadiness
# ----------------------------------------------------------------------
def test_host_steadiness_flags_a_run_whose_setup_time_moved():
    assert host_steadiness([1.0, 1.01, 0.99, 1.0])["steady"]
    moved = host_steadiness([1.0, 1.0, 1.4, 1.4])
    assert not moved["steady"] and moved["setup_spread"] > moved["limit"]


# ----------------------------------------------------------------------
# the host probe
# ----------------------------------------------------------------------
def test_a_phase_is_timed_without_its_bursts_and_scaled_by_them():
    monitor = hostprobe.HostMonitor()
    with monitor.phase() as timed:
        for _ in range(30):
            monitor.tick()
            time.sleep(0.004)
    inside = monitor.bursts_s[1:-1]
    assert inside, "a burst falls due inside a 0.12 s phase"
    assert 0.11 < timed.wall_s < 0.12 + 0.05
    expected = statistics.fmean(monitor.bursts_s) / hostprobe.REFERENCE_BURST_S
    assert math.isclose(timed.scale, expected)
    assert math.isclose(timed.scaled_s, timed.wall_s / timed.scale)


def test_a_disabled_monitor_runs_no_burst():
    monitor = hostprobe.HostMonitor(enabled=False)
    with monitor.phase() as timed:
        monitor.tick()
    assert monitor.bursts_s == [] and timed.scale == 1.0 and timed.wall_s >= 0.0


# ----------------------------------------------------------------------
# the bms-wal stream and its replay check
# ----------------------------------------------------------------------
TINY_STREAM = StreamParams(devices=6, duration_s=80.0, calibration_s=120.0, late_share=0.2)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "stream.npz"
    stream.record_traffic(dataclasses.asdict(TINY_STREAM), 3, BUILDING_SEED, path)
    return stream.load(path)


@pytest.fixture
def tiny(recorded):
    return make_stream(TINY_STREAM, 3, recorded)


def test_stream_posts_are_per_device_and_late_reports_trail_newer_ones(recorded, tiny):
    sizes = np.diff(recorded["post_start"])
    assert sizes.max() == TINY_STREAM.batch_size
    assert sorted(np.concatenate(tiny.posts).tolist()) == list(range(len(tiny.report_time)))
    assert tiny.late > 0
    out_of_order = 0
    for k, indices in enumerate(tiny.posts):
        device = stream.device_name(int(tiny.post_device[k]))
        assert {sighting["device_id"] for sighting in tiny.body(k)} == {device}
        times = tiny.report_time[indices]
        out_of_order += int((times < np.maximum.accumulate(times)).sum())
    assert out_of_order == tiny.late


def test_tiny_stream_replays_cleanly(tmp_path, tiny):
    import repro.server.replay as replay_module
    from repro.phone.scanner import Scanner

    read, scan = replay_module.read_wal_records, Scanner.scan_cycle
    monitor = hostprobe.HostMonitor()
    iteration = stream_iteration(TINY_STREAM, 3, tmp_path, None, tiny, monitor)
    assert iteration.failures == []
    assert iteration.accepted == iteration.attempted > 0
    # Set-up, ingest and the rebuild each open and close with a burst.
    assert len(monitor.bursts_s) >= 2 * (2 + TINY_STREAM.replays)
    assert len(iteration.replays) == TINY_STREAM.replays
    assert iteration.timed.scale > 0 and iteration.replays[0].wall_s > 0
    assert replay_module.read_wal_records is read and Scanner.scan_cycle is scan


def _replay_without_last(kind):
    import repro.server.replay as replay_module

    real = replay_module.read_wal_records

    def planted(directory):
        records = list(real(directory))
        last = max(i for i, r in enumerate(records) if r.kind == kind)
        return iter(records[:last] + records[last + 1 :])

    return planted


@pytest.mark.parametrize(
    "kind, message",
    [("history", "per-room history differs"), ("batch", "sightings table holds")],
)
def test_planted_replay_mismatch_fails_the_check(tmp_path, monkeypatch, tiny, kind, message):
    import repro.server.replay as replay_module

    monkeypatch.setattr(replay_module, "read_wal_records", _replay_without_last(kind))
    iteration = stream_iteration(TINY_STREAM, 3, tmp_path, None, tiny)
    assert any(message in failure for failure in iteration.failures)


def test_tracing_does_not_change_results(tmp_path, tiny):
    plain = stream_iteration(TINY_STREAM, 3, tmp_path / "plain", None, tiny)
    recorder = tracer.SpanRecorder()
    restore = tracer.install(recorder)
    try:
        traced = stream_iteration(TINY_STREAM, 3, tmp_path / "traced", recorder, tiny)
    finally:
        restore()
    assert traced.digest() == plain.digest()
    rows = tracer.budget(recorder)
    assert rows["wal.append.self_s"] > 0 and rows["replay.self_s"] > 0
    assert math.isclose(
        sum(rows[r] for r in metrics.BUDGET_ROWS), rows["timed_wall_s"], rel_tol=1e-9
    )


def test_a_run_records_its_stream_in_a_child_process(tmp_path):
    s = WORKLOADS["bms-wal"].prepare(TINY_STREAM, 3, tmp_path)
    assert (tmp_path / "stream.npz").is_file()
    assert len(s.posts) == len(s.post_time) > 0
