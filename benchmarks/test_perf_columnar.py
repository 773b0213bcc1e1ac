"""Columnar fleet drive: struct-of-arrays speedup, identical answer.

The columnar engine (:mod:`repro.fleet.columnar`) replays the scalar
per-device event loop as numpy passes over (device x beacon) arrays.
Its contract is byte-identity — same DetectionRun, same reports, same
region events — so this benchmark asserts equality *unconditionally*
and then measures the wall-clock win on the drive phase, which grows
with fleet size (the scalar loop is O(devices) python dispatch per
scan tick, the columnar one amortises it).

The >= 4x bar applies on hosts with >= 2 usable cores (numpy gets
vector width regardless, but single-core containers throttle the
BLAS/memory subsystem enough to warrant the softer >= 2x bar).  The
bar was 5x until the scalar engine began sharing the advertising
window and the wall kernel with the columnar one: that made the
ratio's denominator about 3x faster, so the bar now sits at the
five-run median measured then (4.1x), rounded down, and the absolute
``scalar drive (s)`` / ``columnar drive (s)`` rows are gated in
``benchmarks/bench_baseline.json``.
"""

import time

from conftest import print_table

from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import test_house as make_test_house
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.fleet.columnar import run_columnar
from repro.obs.metrics import MetricsRegistry
from repro.parallel import available_workers
from repro.sim.rng import derive_seed

DEVICES = 24
DURATION_S = 60.0
SEED = 3
REPEATS = 2


def _build_system():
    plan = make_test_house()
    config = SystemConfig(seed=SEED, platform="android", uplink_batch_size=4)
    system = OccupancyDetectionSystem(plan, config, registry=MetricsRegistry())
    system.calibrate(duration_s=120.0)
    system.train()
    for i in range(DEVICES):
        mobility = RandomWaypoint(plan, seed=derive_seed(SEED, f"fleet:{i}"))
        system.add_occupant(Occupant(f"dev-{i:04d}", mobility))
    return system


def _timed_drives(drive, repeats=REPEATS):
    """Best-of-N wall time of the drive phase on fresh systems.

    A run mutates app/tracker/server state, so every repetition gets
    its own identically-seeded system; only the drive is timed.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        system = _build_system()
        t0 = time.perf_counter()
        result = drive(system)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_perf_columnar_fleet_drive():
    cores = available_workers()
    t_scalar, run_scalar = _timed_drives(lambda s: s.run(DURATION_S))
    t_columnar, run_columnar_result = _timed_drives(
        lambda s: run_columnar(s, DURATION_S)
    )

    # The acceptance property first: both engines produce the same
    # detection run, whatever this host's core budget.
    assert run_columnar_result.predictions == run_scalar.predictions
    assert repr(run_columnar_result.accuracy) == repr(run_scalar.accuracy)

    speedup = t_scalar / t_columnar
    print_table(
        f"Columnar fleet drive, {DEVICES} devices, {DURATION_S:.0f} s",
        [
            ("usable cores", "-", f"{cores}"),
            ("scalar drive (s)", "-", f"{t_scalar:.2f}"),
            ("columnar drive (s)", "-", f"{t_columnar:.2f}"),
            (
                "scalar devices/sec",
                "-",
                f"{DEVICES / t_scalar:.1f}",
            ),
            (
                "columnar devices/sec",
                "-",
                f"{DEVICES / t_columnar:.1f}",
            ),
            ("speedup", ">= 4x on >= 2 cores", f"{speedup:.2f}x"),
        ],
    )

    if cores >= 2:
        assert speedup >= 4.0, (
            f"columnar only {speedup:.2f}x faster on {cores} cores"
        )
    else:
        assert speedup >= 2.0, (
            f"columnar only {speedup:.2f}x faster on {cores} cores"
        )
