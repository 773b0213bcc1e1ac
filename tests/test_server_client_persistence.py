"""Tests for the BMS API client and calibration persistence."""

import pytest

from repro.server.bms import BuildingManagementServer
from repro.server.client import BmsApiError, BmsClient, RoomHistory
from repro.server.persistence import load_calibration, save_calibration

KITCHEN = {"1-1": 1.2, "1-2": 8.0}
LIVING = {"1-1": 8.0, "1-2": 1.3}


def fresh_bms():
    return BuildingManagementServer(["1-1", "1-2"])


def seeded_client():
    bms = fresh_bms()
    client = BmsClient(bms.router)
    for i in range(8):
        client.post_fingerprint("kitchen", {"1-1": 1.0 + 0.1 * i, "1-2": 8.0}, i)
        client.post_fingerprint("living", {"1-1": 8.0, "1-2": 1.0 + 0.1 * i}, i)
    return bms, client


class TestBmsClient:
    def test_fingerprint_and_train_roundtrip(self):
        bms, client = seeded_client()
        accuracy = client.train()
        assert accuracy > 0.9
        assert bms.trained

    def test_sighting_returns_room(self):
        _, client = seeded_client()
        client.train()
        room = client.post_sighting("alice", {"1-1": 1.2, "1-2": 8.0}, 5.0)
        assert room == "kitchen"

    def test_occupancy_queries(self):
        bms, client = seeded_client()
        client.train()
        client.post_sighting("alice", {"1-1": 1.2, "1-2": 8.0}, 5.0)
        assert client.occupancy(time=5.0) == {"kitchen": 1}
        assert client.room_count("kitchen", time=5.0) == 1
        assert client.room_count("living", time=5.0) == 0
        assert client.device_location("alice") == "kitchen"

    def test_history_after_recording(self):
        bms, client = seeded_client()
        client.train()
        client.post_sighting("alice", {"1-1": 1.2, "1-2": 8.0}, 5.0)
        bms.record_history(5.0)
        bms.record_history(15.0)
        history = client.room_history("kitchen")
        assert history["peak"] == 1

    def test_errors_raise_typed_exception(self):
        _, client = seeded_client()
        with pytest.raises(BmsApiError) as excinfo:
            client.device_location("ghost")
        assert excinfo.value.status == 404

    def test_train_without_data_conflicts(self):
        client = BmsClient(fresh_bms().router)
        with pytest.raises(BmsApiError) as excinfo:
            client.train()
        assert excinfo.value.status == 409

    def test_validation_error_maps_to_400(self):
        client = BmsClient(fresh_bms().router)
        with pytest.raises(BmsApiError) as excinfo:
            client.post_fingerprint("", {}, 0.0)
        assert excinfo.value.status == 400


class TestClientBackpressure:
    """The client's bounded retries of a 429 + ``retry_after_s`` answer."""

    def test_retry_honours_hint_and_succeeds_after_drain(self, backpressured_router):
        router = backpressured_router(reject_first_n=1, retry_after_s=2.0)
        observed = []

        def on_backpressure(next_time, attempt):
            observed.append((next_time, attempt))

        client = BmsClient(router, on_backpressure=on_backpressure)
        assert client.post_sighting("d-new", LIVING, time=1.0) == "kitchen"
        assert observed == [(3.0, 1)]  # 1.0 + the 2.0s retry_after hint
        assert client.backpressure_retries == 1
        assert [request.time for request in router.seen] == [1.0, 3.0]

    def test_bounded_retries_then_api_error(self, backpressured_router):
        router = backpressured_router(reject_first_n=10)
        client = BmsClient(router, max_backpressure_retries=2)
        with pytest.raises(BmsApiError) as excinfo:
            client.post_sightings_batch(
                [{"device_id": "d-new", "beacons": LIVING}], time=1.0
            )
        assert excinfo.value.status == 429
        assert client.backpressure_retries == 2
        assert len(router.seen) == 3

    def test_zero_retries_fails_fast(self, backpressured_router):
        router = backpressured_router(reject_first_n=10)
        client = BmsClient(router, max_backpressure_retries=0)
        with pytest.raises(BmsApiError):
            client.post_sightings_batch(
                [{"device_id": "d-new", "beacons": LIVING}], time=1.0
            )
        assert client.backpressure_retries == 0
        assert len(router.seen) == 1


class TestTypedClientWrappers:
    def make_served_client(self):
        bms, client = seeded_client()
        client.train()
        return bms, client

    def test_post_sightings_batch_returns_rooms(self):
        _, client = self.make_served_client()
        rooms = client.post_sightings_batch(
            [
                {"device_id": "a", "beacons": KITCHEN},
                {"device_id": "b", "beacons": LIVING},
            ],
            time=1.0,
        )
        assert rooms == ["kitchen", "living"]

    def test_post_sightings_batch_raises_on_validation(self):
        _, client = self.make_served_client()
        with pytest.raises(BmsApiError) as excinfo:
            client.post_sightings_batch([], time=1.0)
        assert excinfo.value.status == 400

    def test_history_returns_typed_record(self):
        bms, client = self.make_served_client()
        client.post_sightings_batch(
            [{"device_id": "a", "beacons": KITCHEN}], time=1.0
        )
        bms.record_history(5.0)
        bms.record_history(10.0)
        history = client.history("kitchen")
        assert isinstance(history, RoomHistory)
        assert history.room == "kitchen"
        assert history.series == ((5.0, 1), (10.0, 1))
        assert history.peak == 1
        assert history.utilisation == 1.0

    def test_batch_request_builder_shapes_wire_format(self):
        request = BmsClient.batch_request(
            [{"device_id": "a", "beacons": {"b1": 1.0}, "time": 2.0}], time=2.0
        )
        assert request.method == "POST"
        assert request.path == "/sightings/batch"
        assert request.body["sightings"][0]["device_id"] == "a"


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        bms, client = seeded_client()
        path = tmp_path / "calibration.json"
        saved = save_calibration(bms, path)
        assert saved == 16

        restored = fresh_bms()
        loaded = load_calibration(restored, path)
        assert loaded == 16
        assert restored.trained
        assert restored.classify({"1-1": 1.2, "1-2": 8.0}) == "kitchen"

    def test_load_without_training(self, tmp_path):
        bms, _ = seeded_client()
        path = tmp_path / "calibration.json"
        save_calibration(bms, path)
        restored = fresh_bms()
        load_calibration(restored, path, train=False)
        assert not restored.trained
        assert len(restored.fingerprints) == 16

    def test_beacon_mismatch_rejected(self, tmp_path):
        bms, _ = seeded_client()
        path = tmp_path / "calibration.json"
        save_calibration(bms, path)
        other = BuildingManagementServer(["9-9"])
        with pytest.raises(ValueError):
            load_calibration(other, path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99}')
        with pytest.raises(ValueError):
            load_calibration(fresh_bms(), path)

    def test_empty_store_roundtrip(self, tmp_path):
        bms = fresh_bms()
        path = tmp_path / "empty.json"
        assert save_calibration(bms, path) == 0
        assert load_calibration(fresh_bms(), path) == 0

