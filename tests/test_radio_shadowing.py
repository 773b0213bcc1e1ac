"""Tests for the spatially correlated shadowing field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.shadowing import ShadowingField


class TestDeterminism:
    def test_same_position_same_value(self):
        field = ShadowingField(sigma_db=3.0, link_seed=1)
        assert field.sample(2.3, 4.5) == field.sample(2.3, 4.5)

    def test_same_seed_same_field(self):
        a = ShadowingField(sigma_db=3.0, link_seed=9)
        b = ShadowingField(sigma_db=3.0, link_seed=9)
        assert a.sample(1.0, 1.0) == b.sample(1.0, 1.0)

    def test_different_seed_different_field(self):
        a = ShadowingField(sigma_db=3.0, link_seed=1)
        b = ShadowingField(sigma_db=3.0, link_seed=2)
        samples_a = [a.sample(x, 0.0) for x in range(10)]
        samples_b = [b.sample(x, 0.0) for x in range(10)]
        assert samples_a != samples_b


class TestStatistics:
    def test_zero_sigma_is_zero_everywhere(self):
        field = ShadowingField(sigma_db=0.0)
        assert field.sample(3.0, 7.0) == 0.0

    def test_marginal_std_close_to_sigma(self):
        field = ShadowingField(sigma_db=4.0, correlation_distance_m=1.0, link_seed=3)
        rng = np.random.default_rng(0)
        # Sample far apart (decorrelated) positions at cell centres.
        values = [
            field.sample(float(x) + 0.0, float(y) + 0.0)
            for x in range(0, 300, 10)
            for y in range(0, 30, 10)
        ]
        std = np.std(values)
        # Bilinear interpolation shrinks variance somewhat; accept a
        # broad band around sigma.
        assert 1.5 < std < 6.0

    def test_nearby_points_are_similar(self):
        field = ShadowingField(sigma_db=4.0, correlation_distance_m=5.0, link_seed=3)
        base = field.sample(10.0, 10.0)
        near = field.sample(10.3, 10.1)
        far_values = [field.sample(10.0 + 50.0 * k, 10.0 + 35.0 * k) for k in range(1, 8)]
        assert abs(near - base) < 2.0
        # Far samples should spread much more than the near difference.
        assert np.std(far_values) > abs(near - base)


class TestValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            ShadowingField(sigma_db=-1.0)

    def test_rejects_nonpositive_correlation(self):
        with pytest.raises(ValueError):
            ShadowingField(correlation_distance_m=0.0)


class TestSampleMany:
    def test_matches_scalar_bitwise(self):
        field = ShadowingField(sigma_db=3.0, link_seed=11)
        fresh = ShadowingField(sigma_db=3.0, link_seed=11)
        xs = np.array([0.1, 5.3, -2.7, 5.3, 100.0])
        ys = np.array([0.2, -1.1, 3.3, -1.1, 42.0])
        vec = field.sample_many(xs, ys)
        for i in range(len(xs)):
            assert vec[i] == fresh.sample(float(xs[i]), float(ys[i]))

    def test_two_dimensional_input(self):
        field = ShadowingField(sigma_db=3.0, link_seed=3)
        fresh = ShadowingField(sigma_db=3.0, link_seed=3)
        xs = np.arange(6.0).reshape(2, 3)
        ys = xs + 0.5
        vec = field.sample_many(xs, ys)
        assert vec.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert vec[i, j] == fresh.sample(xs[i, j], ys[i, j])

    def test_zero_sigma_shape(self):
        field = ShadowingField(sigma_db=0.0)
        assert field.sample_many(np.zeros((3, 2)), np.zeros((3, 2))).shape == (3, 2)


class TestSampleManyDedup:
    """``sample_many`` gathers exactly the cells ``sample`` reads."""

    @staticmethod
    def pair(seed=7):
        return (
            ShadowingField(sigma_db=3.0, correlation_distance_m=2.0, link_seed=seed),
            ShadowingField(sigma_db=3.0, correlation_distance_m=2.0, link_seed=seed),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-60.0, 60.0, allow_nan=False),
                st.floats(-60.0, 60.0, allow_nan=False),
            ),
            max_size=40,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_matches_scalar_and_fills_same_cells(self, points, seed):
        batched, scalar = self.pair(seed)
        xs = np.array([x for x, _ in points], dtype=float)
        ys = np.array([y for _, y in points], dtype=float)
        values = batched.sample_many(xs, ys)
        expected = [scalar.sample(x, y) for x, y in points]
        assert values.shape == xs.shape
        assert values.tolist() == expected
        assert batched._cells == scalar._cells

    def test_single_negative_point(self):
        batched, scalar = self.pair()
        value = batched.sample_many(np.array([-3.7]), np.array([-0.2]))
        assert value.tolist() == [scalar.sample(-3.7, -0.2)]
        assert set(batched._cells) == {(-2, -1), (-1, -1), (-2, 0), (-1, 0)}
        assert batched._cells == scalar._cells

    def test_empty_input(self):
        field = ShadowingField(sigma_db=3.0, link_seed=1)
        assert field.sample_many(np.array([]), np.array([])).shape == (0,)
        assert field._cells == {}

    def test_two_dimensional_input_keeps_shape(self):
        batched, scalar = self.pair()
        xs = np.array([[0.5, -4.5, 9.0], [3.0, 3.0, -0.1]])
        ys = np.array([[1.0, 2.0, -7.5], [-3.0, 3.0, 0.1]])
        values = batched.sample_many(xs, ys)
        assert values.shape == (2, 3)
        assert values.ravel().tolist() == [
            scalar.sample(x, y) for x, y in zip(xs.ravel(), ys.ravel())
        ]
