"""Tests for hot-path wall-clock profiling (repro.obs.profiling).

The module-level hooks must be free no-ops unless a profiler is
installed, and profiles must stay presentational: they ride outside
``FleetReport.to_dict`` / equality so instrumented runs remain
byte-identical to bare ones.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetLoadGenerator
from repro.obs import WallClockProfiler
from repro.obs.profiling import activated, active, measure, render_profile, tick


class TestModuleHooks:
    def test_inactive_measure_records_nothing(self):
        assert active() is None
        with measure("anything"):
            pass
        tick("anything")
        assert active() is None

    def test_inactive_measure_is_shared_nullcontext(self):
        # One stateless context serves every call site: no per-call
        # allocation on hot paths while profiling is off.
        assert measure("a") is measure("b")

    def test_activated_installs_and_restores(self):
        profiler = WallClockProfiler()
        with activated(profiler):
            assert active() is profiler
            with measure("work"):
                pass
            tick("hit")
        assert active() is None
        assert profiler.count("work") == 1
        assert profiler.count("hit") == 1
        assert profiler.totals()["work"] >= 0.0

    def test_activations_stack(self):
        outer, inner = WallClockProfiler(), WallClockProfiler()
        with activated(outer):
            with activated(inner):
                tick("x")
            assert active() is outer
            tick("x")
        assert inner.count("x") == 1
        assert outer.count("x") == 1


class TestStateAndMerge:
    def test_state_round_trips_through_merge(self):
        source = WallClockProfiler()
        with source.measure("train"):
            pass
        source.tick("hit")
        merged = WallClockProfiler().merge(source.state())
        assert merged.state() == source.state()

    def test_merge_accumulates(self):
        profiler = WallClockProfiler()
        profiler.merge({"totals": {"a": 1.0}, "counts": {"a": 2}})
        profiler.merge({"totals": {"a": 0.5}, "counts": {"a": 3}})
        assert profiler.totals() == {"a": 1.5}
        assert profiler.count("a") == 5

    def test_render_profile_tick_only_rows_show_dash(self):
        text = render_profile({"totals": {"slow": 1.0}, "counts": {"hit": 4}})
        lines = text.splitlines()
        assert lines[1].startswith("slow")
        assert lines[2].startswith("hit") and lines[2].rstrip().endswith("-")

    def test_render_profile_empty_state(self):
        assert render_profile({}) == "(no sections profiled)"


class TestHotPathSites:
    def test_gram_cache_hits_tick_and_misses_time(self):
        from repro.ml.gram_cache import GramCache
        from repro.ml.kernels import LinearKernel

        cache = GramCache()
        X = np.arange(12, dtype=float).reshape(4, 3)
        profiler = WallClockProfiler()
        with activated(profiler):
            cache.full(LinearKernel(), X)
            cache.full(LinearKernel(), X)
        assert profiler.count("ml.gram.full_miss") == 1
        assert profiler.count("ml.gram.full_hit") == 1
        assert "ml.gram.full_hit" not in profiler.totals()

    def test_svm_fit_and_predict_record(self):
        from repro.ml.svm import SupportVectorClassifier

        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        profiler = WallClockProfiler()
        with activated(profiler):
            clf = SupportVectorClassifier().fit(X, y)
            clf.predict(X)
        assert profiler.count("ml.svm.smo_fit") >= 1
        assert profiler.count("ml.svm.predict") == 1

    def test_profiling_does_not_change_fitted_model(self):
        from repro.ml.svm import SupportVectorClassifier

        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        bare = SupportVectorClassifier().fit(X, y).predict(X)
        with activated(WallClockProfiler()):
            profiled = SupportVectorClassifier().fit(X, y).predict(X)
        assert np.array_equal(bare, profiled)

    def test_link_budget_many_records(self):
        from repro.radio.channel import ChannelModel
        from repro.radio.devices import DEVICE_PROFILES

        channel = ChannelModel(seed=3)
        device = DEVICE_PROFILES["ideal"]
        profiler = WallClockProfiler()
        with activated(profiler):
            batch = channel.link_budget_many(
                ["b1", "b2"],
                [(0.0, 0.0), (5.0, 0.0)],
                [(1.0, 1.0), (1.0, 1.0)],
                [-59.0, -59.0],
                device,
                np.random.default_rng(0),
            )
        assert len(batch) == 2
        assert profiler.count("radio.link_budget_many") == 1


def run_fleet(**kwargs):
    return FleetLoadGenerator(
        devices=4,
        duration_s=30.0,
        batch_size=4,
        calibration_s=120.0,
        seed=0,
        **kwargs,
    ).run()


class TestFleetProfile:
    def test_single_process_profile_covers_phases(self):
        report = run_fleet(profile=True)
        totals = report.profile["totals"]
        for label in ("fleet.calibrate", "fleet.train", "fleet.drive"):
            assert label in totals
        assert "section" in report.profile_table()

    def test_sharded_profile_merges_workers(self):
        report = run_fleet(profile=True, shards=2, workers=2)
        assert report.profile["counts"]["fleet.shard_run"] == 2
        assert report.profile["counts"]["fleet.calibrate"] == 2

    def test_profile_stays_out_of_report_dict_and_equality(self):
        profiled = run_fleet(profile=True)
        bare = run_fleet()
        assert profiled.profile is not None
        assert bare.profile is None
        assert "profile" not in profiled.to_dict()
        assert profiled.to_dict() == bare.to_dict()
        assert profiled == bare

    @pytest.mark.parametrize("columnar", [False, True], ids=["scalar", "columnar"])
    def test_air_window_rows_and_byte_identical_report(self, columnar):
        profiled = run_fleet(profile=True, columnar=columnar)
        bare = run_fleet(columnar=columnar)
        counts = profiled.profile["counts"]
        # The calibration walk observes through the air interface on
        # both engines; 15 drive ticks of 4 phones share one window
        # each, so the scalar drive reuses every window 3 times.
        assert "ble.air.observe" in profiled.profile["totals"]
        assert counts["ble.air.window_miss"] >= 15
        assert counts.get("ble.air.window_hit", 0) == (0 if columnar else 45)
        assert json.dumps(profiled.to_dict(), sort_keys=True) == json.dumps(
            bare.to_dict(), sort_keys=True
        )

    def test_profile_table_without_profile_is_empty_placeholder(self):
        assert run_fleet().profile_table() == "(no sections profiled)"
