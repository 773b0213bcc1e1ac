"""Tests for the air interface."""

import numpy as np
import pytest

from repro.ble.air import AirInterface
from repro.building.geometry import Point
from repro.building.presets import single_room, two_room_corridor
from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES
from repro.radio.fading import RicianFading

IDEAL = DEVICE_PROFILES["ideal"]


def quiet_air(plan):
    channel = ChannelModel(
        shadowing_sigma_db=0.0, fading=None, collision_loss_prob=0.0
    )
    return AirInterface(plan, channel)


class TestObserve:
    def test_sees_all_advertisements_on_ideal_link(self):
        air = quiet_air(single_room())
        sightings = air.observe(
            lambda t: Point(1.5, 4.0), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        # 100 ms interval over 2 s: ~20 advertisements.
        assert 18 <= len(sightings) <= 22

    def test_sightings_sorted_by_time(self):
        air = quiet_air(two_room_corridor())
        sightings = air.observe(
            lambda t: Point(6.0, 1.5), IDEAL, 0.0, 5.0, np.random.default_rng(0)
        )
        times = [s.time for s in sightings]
        assert times == sorted(times)

    def test_sightings_carry_packet_identity(self):
        plan = single_room()
        air = quiet_air(plan)
        sightings = air.observe(
            lambda t: Point(1.5, 4.0), IDEAL, 0.0, 1.0, np.random.default_rng(0)
        )
        assert all(s.packet == plan.beacons[0].packet for s in sightings)

    def test_true_distance_recorded(self):
        plan = single_room()
        air = quiet_air(plan)
        beacon_pos = plan.beacons[0].position
        rx = Point(beacon_pos.x + 3.0, beacon_pos.y)
        sightings = air.observe(
            lambda t: rx, IDEAL, 0.0, 1.0, np.random.default_rng(0)
        )
        assert all(s.true_distance_m == pytest.approx(3.0) for s in sightings)

    def test_moving_receiver_changes_distance(self):
        plan = single_room()
        air = quiet_air(plan)
        beacon_pos = plan.beacons[0].position

        def walk(t):
            return Point(beacon_pos.x + 1.0 + t, beacon_pos.y)

        sightings = air.observe(walk, IDEAL, 0.0, 4.0, np.random.default_rng(0))
        distances = [s.true_distance_m for s in sightings]
        assert distances[0] < distances[-1]

    def test_wall_oracle_installed_from_plan(self):
        plan = two_room_corridor()
        air = AirInterface(plan)
        assert air.channel.wall_oracle == plan.wall_losses

    def test_both_beacons_visible_in_corridor(self):
        air = quiet_air(two_room_corridor())
        sightings = air.observe(
            lambda t: Point(6.0, 1.5), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        assert {s.beacon_id for s in sightings} == {"1-1", "1-2"}

    def test_closer_beacon_is_stronger(self):
        air = quiet_air(two_room_corridor())
        sightings = air.observe(
            lambda t: Point(2.0, 1.5), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        by_beacon = {}
        for s in sightings:
            by_beacon.setdefault(s.beacon_id, []).append(s.rssi)
        assert np.mean(by_beacon["1-1"]) > np.mean(by_beacon["1-2"])


class TestSharedWindow:
    """One window per listen interval, whoever scans it."""

    @staticmethod
    def scanners(air):
        from repro.phone.scanner import AndroidScanner, IosScanner

        return [
            AndroidScanner(air, rng=np.random.default_rng(1)),
            IosScanner(air, rng=np.random.default_rng(2)),
            AndroidScanner(air, device="ideal", rng=np.random.default_rng(3)),
        ]

    @pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (0.0, 0.5, 1.25)])
    def test_shared_interface_matches_one_interface_each(self, offsets):
        from repro.building.mobility import RandomWaypoint
        from repro.building.presets import test_house

        plan = test_house()
        walks = [RandomWaypoint(plan, seed=s).position_at for s in (4, 5, 6)]
        shared = self.scanners(AirInterface(plan, ChannelModel(seed=9)))
        alone = [
            self.scanners(AirInterface(plan, ChannelModel(seed=9)))[k]
            for k in range(3)
        ]
        for cycle in range(12):
            t0 = 2.0 * cycle
            for k in range(3):
                together = shared[k].scan_cycle(walks[k], t0 + offsets[k])
                solo = alone[k].scan_cycle(walks[k], t0 + offsets[k])
                assert together == solo
        assert shared[0].air._window.t_start == 22.0 + offsets[2]

    def test_in_step_scanners_reuse_one_window(self):
        from repro.obs.profiling import WallClockProfiler, activated

        air = quiet_air(two_room_corridor())
        profiler = WallClockProfiler()
        with activated(profiler):
            first = air.window(0.0, 2.0)
            assert air.window(0.0, 2.0) is first
            assert air.window(2.0, 4.0) is not first
        assert profiler.count("ble.air.window_miss") == 2
        assert profiler.count("ble.air.window_hit") == 1

    def test_fleet_run_holds_one_window(self):
        from repro.ble.air import AdvertisingWindow
        from repro.building.mobility import RandomWaypoint
        from repro.building.occupant import Occupant
        from repro.building.presets import test_house
        from repro.core.config import SystemConfig
        from repro.core.system import OccupancyDetectionSystem
        from repro.obs.profiling import WallClockProfiler, activated

        plan = test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=0))
        system.calibrate(duration_s=60.0)
        system.train()
        for i in range(4):
            system.add_occupant(Occupant(f"p{i}", RandomWaypoint(plan, seed=i)))
        profiler = WallClockProfiler()
        with activated(profiler):
            system.run(600.0)
        held = [
            v for v in vars(system.air).values() if isinstance(v, AdvertisingWindow)
        ]
        assert len(held) == 1
        assert held[0].t_start == 598.0
        assert profiler.count("ble.air.window_miss") == 300
        assert profiler.count("ble.air.window_hit") == 900
