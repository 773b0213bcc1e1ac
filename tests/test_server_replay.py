"""Tests for deterministic BMS recovery from the sighting WAL.

The pinned contract: folding a WAL back through
:func:`~repro.server.replay.replay_wal` rebuilds the live server's
externally observable state *byte for byte* — occupancy snapshot,
history series, sighting counts, and every ``server.*`` telemetry
counter — and the replay chunk size never changes the result, only
the wall clock.  The same holds end to end for
:func:`~repro.server.replay.server_from_manifest` directories.
"""

import json

import pytest

from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from repro.server.bms import BuildingManagementServer
from repro.server.persistence import save_calibration
from repro.server.replay import (
    CALIBRATION_NAME,
    MANIFEST_NAME,
    load_manifest,
    replay_wal,
    server_from_manifest,
    write_manifest,
)
from repro.traces.wal import SightingWal

BEACONS = ["b1", "b2", "b3"]

ROOM_BASES = {
    "lab": {"b1": 1.0, "b2": 6.0, "b3": 9.0},
    "office": {"b1": 6.0, "b2": 1.0, "b3": 6.0},
    "hall": {"b1": 9.0, "b2": 6.0, "b3": 1.0},
}


def make_classifier():
    return SupportVectorClassifier(
        c=10.0, kernel=RbfKernel(gamma=0.5), seed=0
    )


def calibrate(server):
    for room, base in ROOM_BASES.items():
        for jitter in (0.0, 0.3, -0.3, 0.6):
            server.add_fingerprint(
                room, {k: v + jitter for k, v in base.items()}, 0.0
            )
    server.train()


def make_server(registry=None, wal=None):
    server = BuildingManagementServer(
        BEACONS,
        classifier=make_classifier(),
        registry=registry if registry is not None else MetricsRegistry(),
        wal=wal,
    )
    calibrate(server)
    return server


def near(room, delta=0.05):
    return {k: v + delta for k, v in ROOM_BASES[room].items()}


def drive_live(server):
    """A workload mixing every record kind, in a fixed order."""
    server.ingest_sighting("alice", near("lab"), 1.0)
    server.ingest_sighting("bob", near("office"), 1.5)
    server.record_history(2.0)
    server.ingest_batch(
        [
            {"device_id": "carol", "beacons": near("hall"), "time": 2.5},
            {"device_id": "alice", "beacons": near("office"), "time": 3.0},
        ]
    )
    server.record_history(4.0)
    server.refresh(
        [{"room": "lab", "beacons": near("lab", 0.2), "time": 4.5}]
    )
    server.ingest_sighting("dave", near("lab"), 5.0)
    server.record_history(6.0)


def server_metrics(registry):
    """The ``server.*`` slice of a registry state (live vs replay
    comparable: the live side additionally carries ``wal.*``)."""
    state = registry.state()
    return {
        kind: {
            name: payload
            for name, payload in state[kind].items()
            if name.startswith("server.")
        }
        for kind in ("counters", "gauges", "histograms")
    }


def observable_state(server):
    history = server.history
    return {
        "snapshot": server.snapshot(),
        "history": {
            room: history.series(room) for room in history.rooms()
        },
        "sightings": server.sighting_count,
    }


class TestReplaySingleStore:
    def run_live(self, tmp_path):
        live_registry = MetricsRegistry()
        wal = SightingWal(tmp_path / "wal", registry=live_registry)
        live = make_server(registry=live_registry, wal=wal)
        drive_live(live)
        wal.close()
        return live, live_registry

    def rebuild(self, tmp_path, chunk=256):
        registry = MetricsRegistry()
        restored = make_server(registry=registry)
        report = replay_wal(restored, tmp_path / "wal", chunk=chunk)
        return restored, registry, report

    def test_state_is_byte_identical(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        restored, registry, report = self.rebuild(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert server_metrics(registry) == server_metrics(live_registry)
        assert report.records == 8
        assert report.sightings == 5
        assert report.batches == 1
        assert report.history_marks == 3
        assert report.refreshes == 1
        assert report.span_s == 5.0

    def test_chunk_size_is_invisible(self, tmp_path):
        live, _ = self.run_live(tmp_path)
        states = [
            observable_state(self.rebuild(tmp_path, chunk=chunk)[0])
            for chunk in (1, 2, 256)
        ]
        assert states[0] == states[1] == states[2]

    def test_refresh_record_replays_the_model(self, tmp_path):
        live, _ = self.run_live(tmp_path)
        restored, _, _ = self.rebuild(tmp_path)
        # Post-refresh classifications must agree: the replayed model
        # saw the same extra fingerprint at the same point in the
        # stream.
        probes = [near(room, 0.11) for room in ROOM_BASES]
        assert restored.classify_batch(probes) == live.classify_batch(probes)
        assert len(list(restored.db.table("fingerprints"))) == len(
            list(live.db.table("fingerprints"))
        )

    def test_replay_into_own_wal_is_rejected(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        target = make_server(
            registry=MetricsRegistry(),
            wal=SightingWal(tmp_path / "wal"),
        )
        with pytest.raises(ValueError, match="being replayed"):
            replay_wal(target, tmp_path / "wal")

    def test_chunk_validation(self, tmp_path):
        self.run_live(tmp_path)
        restored = make_server()
        with pytest.raises(ValueError, match="chunk"):
            replay_wal(restored, tmp_path / "wal", chunk=0)

    def test_replay_survives_compaction(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        maintenance = SightingWal(tmp_path / "wal")
        assert maintenance.compact() >= 1
        restored, registry, _ = self.rebuild(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert server_metrics(registry) == server_metrics(live_registry)


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=25.0,
            device_timeout_s=60.0,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=7,
        )
        manifest = load_manifest(tmp_path)
        assert manifest["beacon_ids"] == BEACONS
        assert manifest["seed"] == 7
        assert manifest["shards"] == 1

    def test_write_manifest_rejects_multiple_shards(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            write_manifest(
                tmp_path,
                beacon_ids=BEACONS,
                missing_value=25.0,
                device_timeout_s=60.0,
                svm_c=10.0,
                svm_gamma=0.5,
                seed=7,
                shards=4,
            )
        assert not (tmp_path / MANIFEST_NAME).exists()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(tmp_path)

    def test_server_from_manifest_single(self, tmp_path):
        live_registry = MetricsRegistry()
        wal = SightingWal(tmp_path / "shard-00", registry=live_registry)
        live = make_server(registry=live_registry, wal=wal)
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=live.vectorizer.missing_value,
            device_timeout_s=live.device_timeout_s,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
            shards=1,
        )
        save_calibration(live, tmp_path / CALIBRATION_NAME)
        drive_live(live)
        wal.close()

        restored, report = server_from_manifest(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert report.records == 8

    def test_server_from_manifest_requires_calibration(self, tmp_path):
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=25.0,
            device_timeout_s=60.0,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
        )
        with pytest.raises(ValueError, match="calibration"):
            server_from_manifest(tmp_path)

    def test_server_from_manifest_rejects_multi_store_log(self, tmp_path):
        # A directory written by an older multi-store run: one manifest
        # announcing four shard logs next to a calibration snapshot.
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=25.0,
            device_timeout_s=60.0,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
        )
        path = tmp_path / MANIFEST_NAME
        document = json.loads(path.read_text(encoding="utf-8"))
        document["shards"] = 4
        path.write_text(json.dumps(document), encoding="utf-8")
        save_calibration(make_server(), tmp_path / CALIBRATION_NAME)
        with pytest.raises(ValueError, match="'shards'"):
            server_from_manifest(tmp_path)
