"""Tests for rooms, walls, beacon placement and ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.building.floorplan import (
    OUTSIDE,
    BeaconPlacement,
    FloorPlan,
    Room,
    Wall,
)
from repro.building.geometry import Point, Segment
from repro.building.presets import BUILDING_UUID, make_beacon
from repro.radio.materials import WALL_MATERIALS


class TestRoom:
    def test_contains_interior(self):
        room = Room("a", 0, 0, 4, 3)
        assert room.contains(Point(2, 1))

    def test_contains_boundary(self):
        room = Room("a", 0, 0, 4, 3)
        assert room.contains(Point(0, 0))
        assert room.contains(Point(4, 3))

    def test_excludes_exterior(self):
        room = Room("a", 0, 0, 4, 3)
        assert not room.contains(Point(5, 1))

    def test_centre_and_area(self):
        room = Room("a", 0, 0, 4, 2)
        assert room.centre == Point(2, 1)
        assert room.area == 8.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Room("a", 0, 0, 0, 3)

    def test_rejects_reserved_name(self):
        with pytest.raises(ValueError):
            Room(OUTSIDE, 0, 0, 1, 1)


class TestWall:
    def test_rejects_unknown_material(self):
        with pytest.raises(ValueError):
            Wall(Segment(Point(0, 0), Point(1, 0)), material="unobtanium")


class TestBeaconPlacement:
    def test_beacon_id_from_major_minor(self):
        beacon = make_beacon(7, Point(1, 1), "a", major=2)
        assert beacon.beacon_id == "2-7"

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            BeaconPlacement(
                packet=make_beacon(1, Point(0, 0), "a").packet,
                position=Point(0, 0),
                room="a",
                advertising_interval_s=0.0,
            )


class TestFloorPlan:
    def make_plan(self):
        rooms = [Room("a", 0, 0, 4, 4), Room("b", 4, 0, 8, 4)]
        walls = [Wall(Segment(Point(4, 0), Point(4, 3)), "drywall")]
        return FloorPlan(rooms, walls)

    def test_duplicate_room_names_rejected(self):
        with pytest.raises(ValueError):
            FloorPlan([Room("a", 0, 0, 1, 1), Room("a", 2, 0, 3, 1)])

    def test_room_lookup(self):
        plan = self.make_plan()
        assert plan.room("a").name == "a"
        with pytest.raises(KeyError):
            plan.room("zzz")

    def test_room_at_interior(self):
        plan = self.make_plan()
        assert plan.room_at(Point(1, 1)) == "a"
        assert plan.room_at(Point(5, 1)) == "b"

    def test_room_at_outside(self):
        plan = self.make_plan()
        assert plan.room_at(Point(100, 100)) == OUTSIDE

    def test_labels_include_outside(self):
        plan = self.make_plan()
        assert plan.labels == ["a", "b", OUTSIDE]

    def test_add_beacon_unknown_room_rejected(self):
        plan = self.make_plan()
        with pytest.raises(ValueError):
            plan.add_beacon(make_beacon(1, Point(1, 1), "nope"))

    def test_add_duplicate_beacon_rejected(self):
        plan = self.make_plan()
        plan.add_beacon(make_beacon(1, Point(1, 1), "a"))
        with pytest.raises(ValueError):
            plan.add_beacon(make_beacon(1, Point(2, 2), "b"))

    def test_beacon_lookup(self):
        plan = self.make_plan()
        plan.add_beacon(make_beacon(3, Point(1, 1), "a"))
        assert plan.beacon("1-3").room == "a"
        with pytest.raises(KeyError):
            plan.beacon("9-9")

    def test_walls_crossed_through_divider(self):
        plan = self.make_plan()
        assert plan.walls_crossed((1, 1), (7, 1)) == ["drywall"]

    def test_walls_crossed_through_doorway(self):
        plan = self.make_plan()
        # The divider stops at y=3; pass above it.
        assert plan.walls_crossed((1, 3.5), (7, 3.5)) == []

    def test_walls_crossed_same_room(self):
        plan = self.make_plan()
        assert plan.walls_crossed((1, 1), (2, 2)) == []

    def test_bounds(self):
        assert self.make_plan().bounds() == (0, 0, 8, 4)

    def test_bounds_empty_plan_raises(self):
        with pytest.raises(ValueError):
            FloorPlan([]).bounds()

    def test_repr_mentions_rooms(self):
        assert "a" in repr(self.make_plan())


class TestWallLossKernel:
    """``FloorPlan.wall_losses`` equals the per-ray oracle, bit for bit."""

    @staticmethod
    def per_ray(plan, tx, rx):
        from repro.radio.materials import wall_loss_db

        return np.array(
            [wall_loss_db(plan.walls_crossed(a, b)) for a, b in zip(tx, rx)]
        )

    def plan_with(self, walls):
        return FloorPlan(rooms=[Room("r", -5, -5, 5, 5)], walls=walls)

    def assert_matches_oracle(self, plan, tx, rx):
        tx = np.asarray(tx, dtype=float).reshape(-1, 2)
        rx = np.asarray(rx, dtype=float).reshape(-1, 2)
        kernel = plan.wall_losses(tx, rx)
        expected = self.per_ray(plan, tx.tolist(), rx.tolist())
        assert kernel.shape == (len(tx),)
        assert kernel.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "tx, rx, crossed",
        [
            ((-1.0, 0.0), (1.0, 0.0), True),  # proper crossing
            ((0.0, 0.0), (1.0, 0.0), True),  # ray starts on the wall
            ((-1.0, -2.0), (1.0, -2.0), True),  # ray touches the wall's end
            ((-1.0, 3.0), (1.0, 3.0), False),  # passes beyond the wall's end
            ((0.0, -3.0), (0.0, -1.0), True),  # collinear overlap
            ((0.0, 3.0), (0.0, 4.0), False),  # collinear, disjoint
            ((0.0, 1.0), (0.0, 1.0), True),  # zero-length ray on the wall
            ((1.0, 1.0), (1.0, 1.0), False),  # zero-length ray off the wall
        ],
    )
    def test_degenerate_rays(self, tx, rx, crossed):
        wall = Wall(Segment(Point(0.0, -2.0), Point(0.0, 2.0)), "brick")
        plan = self.plan_with([wall])
        self.assert_matches_oracle(plan, [tx], [rx])
        assert plan.wall_losses(np.array([tx]), np.array([rx]))[0] == (
            8.0 if crossed else 0.0
        )

    def test_t_junction_counts_both_walls(self):
        stem = Wall(Segment(Point(0.0, 0.0), Point(0.0, 2.0)), "drywall")
        bar = Wall(Segment(Point(-2.0, 0.0), Point(2.0, 0.0)), "concrete")
        plan = self.plan_with([stem, bar])
        self.assert_matches_oracle(
            plan, [(-1.0, -1.0), (0.0, -1.0)], [(1.0, 1.0), (0.0, 0.0)]
        )
        assert plan.wall_losses(np.array([[-1.0, -1.0]]), np.array([[1.0, 1.0]]))[
            0
        ] == 15.0

    def test_plan_without_walls(self):
        plan = self.plan_with([])
        rays = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert plan.wall_losses(rays, rays[::-1]).tolist() == [0.0, 0.0]
        assert plan.wall_losses(np.empty((0, 2)), np.empty((0, 2))).shape == (0,)

    def test_wall_added_after_the_oracle_was_installed(self):
        from repro.ble.air import AirInterface
        from repro.building.presets import two_room_corridor

        plan = two_room_corridor()
        air = AirInterface(plan)
        tx, rx = np.array([[1.0, 1.0]]), np.array([[1.0, 3.0]])
        before = air.channel.wall_oracle(tx, rx)[0]
        plan.walls.append(Wall(Segment(Point(0.0, 2.0), Point(2.0, 2.0)), "metal"))
        after = air.channel.wall_oracle(tx, rx)[0]
        assert after == before + 26.0
        self.assert_matches_oracle(plan, tx, rx)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_ray_oracle(self, data):
        # Half-metre grid coordinates make shared endpoints, collinear
        # overlaps, T-junctions and zero-length rays common; free floats
        # cover the general position.
        coord = st.one_of(
            st.integers(-6, 6).map(lambda v: v / 2.0),
            st.floats(-4.0, 4.0, allow_nan=False),
        )
        point = st.tuples(coord, coord)
        walls = data.draw(
            st.lists(
                st.tuples(point, point, st.sampled_from(sorted(WALL_MATERIALS))),
                max_size=6,
            )
        )
        plan = self.plan_with(
            [Wall(Segment(Point(*a), Point(*b)), m) for a, b, m in walls]
        )
        rays = data.draw(st.lists(st.tuples(point, point), max_size=12))
        tx = [a for a, _ in rays]
        rx = [b for _, b in rays]
        self.assert_matches_oracle(plan, tx, rx)
