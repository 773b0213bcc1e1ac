"""Tests for the Wi-Fi and Bluetooth-relay uplinks."""

import numpy as np
import pytest

from repro.comms.bt_relay import BluetoothRelayUplink
from repro.comms.uplink import BatchPolicy
from repro.comms.wifi import WifiUplink
from repro.phone.app import RangedBeacon, SightingReport
from repro.server.rest import Router


def report(time=1.0):
    return SightingReport(
        device_id="alice",
        time=time,
        beacons=[RangedBeacon("1-1", -60.0, 2.0, False)],
    )


def accepting_router():
    router = Router()

    @router.route("POST", "/sightings")
    def post(request, params):
        return {"room": "kitchen"}

    return router


class TestWifiUplink:
    def test_delivers_to_router(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        response = uplink.send_report(report())
        assert response is not None and response.ok
        assert uplink.stats.delivered == 1

    def test_energy_charged_per_message(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.send_report(report())
        assert uplink.stats.energy_j > 0.0

    def test_idle_power_positive(self):
        """Wi-Fi keeps the adapter on - the paper's complaint."""
        uplink = WifiUplink(accepting_router())
        assert uplink.idle_power_w > 0.0

    def test_charge_idle_accumulates(self):
        uplink = WifiUplink(accepting_router())
        energy = uplink.charge_idle(10.0)
        assert energy == pytest.approx(uplink.idle_power_w * 10.0)
        assert uplink.stats.energy_j == pytest.approx(energy)

    def test_charge_idle_rejects_negative(self):
        with pytest.raises(ValueError):
            WifiUplink(accepting_router()).charge_idle(-1.0)

    def test_loss_and_retry(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        # Instance attribute overrides the class constant.
        uplink.LOSS_PROBABILITY = 1.0
        assert uplink.send_report(report()) is None
        assert uplink.stats.failed == 1
        assert uplink.stats.retries == uplink.max_retries

    def test_delivery_ratio(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(1))
        for k in range(20):
            uplink.send_report(report(float(k)))
        assert uplink.stats.delivery_ratio > 0.9

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            WifiUplink(accepting_router(), max_retries=-1)


class TestBluetoothRelayUplink:
    def test_delivers_via_relay(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(0))
        response = uplink.send_report(report())
        assert response is not None and response.ok
        assert uplink.relay_requests == 1

    def test_no_idle_power(self):
        """BT connects on demand: no standing adapter cost."""
        assert BluetoothRelayUplink(accepting_router()).idle_power_w == 0.0

    def test_cheaper_per_message_than_wifi(self):
        router = accepting_router()
        wifi = WifiUplink(router)
        bt = BluetoothRelayUplink(router)
        size = 400
        assert bt.energy_per_message_j(size) < wifi.energy_per_message_j(size)

    def test_less_reliable_than_wifi(self):
        """Paper: BT less stable due to BLE Android API bugs."""
        assert (
            BluetoothRelayUplink.LOSS_PROBABILITY > WifiUplink.LOSS_PROBABILITY
        )

    def test_failed_attempts_still_cost_energy(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.__dict__["LOSS_PROBABILITY"] = 1.0
        uplink.send_report(report())
        assert uplink.stats.energy_j > 0.0
        assert uplink.stats.delivered == 0

    def test_relay_leg_failure_counts_as_failed(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.__dict__["RELAY_LOSS_PROBABILITY"] = 1.0
        assert uplink.send_report(report()) is None
        assert uplink.stats.failed == 1

    def test_long_run_delivery_ratio_reasonable(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(3))
        for k in range(200):
            uplink.send_report(report(float(k)))
        # One retry on a 4 % loss channel: ~99.8 % delivery.
        assert uplink.stats.delivery_ratio > 0.97


def reports(n, device="alice"):
    return [
        SightingReport(
            device_id=device,
            time=float(k),
            beacons=[RangedBeacon("1-1", -60.0, 2.0, False)],
        )
        for k in range(n)
    ]


def batch_router():
    """Router accepting both the single and the batch sighting routes."""
    router = Router()

    @router.route("POST", "/sightings")
    def post(request, params):
        return {"room": "kitchen"}

    @router.route("POST", "/sightings/batch")
    def post_batch(request, params):
        sightings = request.body["sightings"]
        return {"rooms": ["kitchen"] * len(sightings), "count": len(sightings)}

    return router


class TestSendBatch:
    def test_batch_delivers_all_reports_in_one_request(self):
        router = batch_router()
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_batch(reports(8))
        assert response is not None and response.ok
        assert response.body["count"] == 8
        assert uplink.stats.delivered == 8
        assert router.requests_handled == 1

    def test_batch_energy_amortises_connection_cost(self):
        """N batched reports must cost less than N individual sends:
        the wake/connection energy is paid once per batch."""
        n = 16
        batched = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        batched.send_batch(reports(n))
        individual = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        for r in reports(n):
            individual.send_report(r)
        assert batched.stats.energy_j < individual.stats.energy_j
        # The saving is roughly (n - 1) wake energies.
        saved = individual.stats.energy_j - batched.stats.energy_j
        assert saved > (n - 2) * WifiUplink.WAKE_ENERGY_J * 0.5

    def test_empty_batch_is_noop(self):
        uplink = WifiUplink(batch_router())
        assert uplink.send_batch([]) is None
        assert uplink.stats.attempts == 0

    def test_batch_loss_fails_all_reports(self):
        uplink = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        uplink.LOSS_PROBABILITY = 1.0
        assert uplink.send_batch(reports(5)) is None
        assert uplink.stats.failed == 5
        assert uplink.stats.retries == uplink.max_retries

    def test_bt_relay_batch_uses_one_relay_request(self):
        uplink = BluetoothRelayUplink(batch_router(), rng=np.random.default_rng(0))
        response = uplink.send_batch(reports(6))
        assert response is not None and response.ok
        assert uplink.relay_requests == 1
        assert uplink.stats.delivered == 6


class TestBatchPolicy:
    def test_queue_without_policy_sends_immediately(self):
        uplink = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        response = uplink.queue_report(report())
        assert response is not None and response.ok
        assert uplink.pending_reports == 0

    def test_flush_at_max_size(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=3, max_delay_s=1000.0),
        )
        assert uplink.queue_report(report(0.0)) is None
        assert uplink.queue_report(report(1.0)) is None
        response = uplink.queue_report(report(2.0))
        assert response is not None and response.body["count"] == 3
        assert uplink.pending_reports == 0

    def test_flush_at_max_delay(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=10.0),
        )
        assert uplink.queue_report(report(0.0)) is None
        assert uplink.queue_report(report(5.0)) is None
        response = uplink.queue_report(report(10.0))
        assert response is not None and response.body["count"] == 3

    def test_explicit_flush_drains_buffer(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=1000.0),
        )
        uplink.queue_report(report(0.0))
        uplink.queue_report(report(1.0))
        assert uplink.pending_reports == 2
        response = uplink.flush()
        assert response is not None and response.body["count"] == 2
        assert uplink.flush() is None  # idle flush is a no-op

    def test_discard_pending(self):
        uplink = WifiUplink(
            batch_router(),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=1000.0),
        )
        uplink.queue_report(report(0.0))
        assert uplink.discard_pending() == 1
        assert uplink.pending_reports == 0
        assert uplink.stats.attempts == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_s=-1.0)


class TestUplinkBackpressure:
    def test_retry_honours_hint_then_delivers(self, backpressured_router):
        router = backpressured_router(reject_first_n=1, retry_after_s=0.5)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_report(report(time=1.0))
        assert response is not None and response.ok
        assert uplink.stats.delivered == 1
        assert uplink.stats.retries == 1
        # The retry advanced the request's logical time by the hint.
        assert [r.time for r in router.seen] == [1.0, 1.5]
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.backpressure_retries"]["value"] == 1.0
        assert snapshot["uplink.backpressure_dropped"]["value"] == 0.0

    def test_bounded_retries_then_drop(self, backpressured_router):
        router = backpressured_router(reject_first_n=10)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_report(report(time=1.0))
        assert response is not None and response.status == 429
        assert uplink.stats.delivered == 0
        assert uplink.stats.failed == 1
        assert len(router.seen) == 1 + uplink.max_backpressure_retries
        snapshot = uplink.obs.snapshot()
        assert (
            snapshot["uplink.backpressure_retries"]["value"]
            == uplink.max_backpressure_retries
        )
        assert snapshot["uplink.backpressure_dropped"]["value"] == 1.0

    def test_batch_drop_counts_every_report(self, backpressured_router):
        router = backpressured_router(reject_first_n=10)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_batch([report(1.0), report(2.0), report(3.0)])
        assert response is not None and response.status == 429
        assert uplink.stats.failed == 3
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.backpressure_dropped"]["value"] == 3.0

    def test_backpressure_retries_cost_bytes_and_energy(self, backpressured_router):
        router = backpressured_router(reject_first_n=1)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        uplink.send_report(report(time=1.0))
        baseline = WifiUplink(
            backpressured_router(reject_first_n=0),
            rng=np.random.default_rng(0),
        )
        baseline.send_report(report(time=1.0))
        assert uplink.stats.bytes_sent == 2 * baseline.stats.bytes_sent
        assert uplink.stats.energy_j > baseline.stats.energy_j

    def test_on_backpressure_seam_runs_before_each_retry(self, backpressured_router):
        router = backpressured_router(reject_first_n=1)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        calls = []
        uplink.on_backpressure = lambda request, attempt: calls.append(
            (request.time, attempt)
        )
        uplink.send_report(report(time=1.0))
        assert calls == [(1.5, 1)]

    def test_zero_bound_drops_immediately(self, backpressured_router):
        router = backpressured_router(reject_first_n=10)
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        uplink.max_backpressure_retries = 0
        response = uplink.send_report(report(time=1.0))
        assert response.status == 429
        assert len(router.seen) == 1
