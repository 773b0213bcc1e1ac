"""The bms-wal workload's input: the uplink traffic of the program's own fleet.

A seeded fleet of phones walks the paper's test house under
``RandomWaypoint`` mobility and is driven by the columnar engine.  Each
phone's Wi-Fi uplink batches its own reports under a ``BatchPolicy``,
so every ``POST /sightings/batch`` carries one device's reports.  Every
post the BMS accepts is recorded and stored as compact arrays; the
workload later posts exactly that traffic into a fresh BMS.

Recording runs in a process of its own, so the recording fleet's memory
never counts towards the measured process's peak RSS::

    python3 -m occbench.stream --params '{"devices": 4, ...}' --seed 0 --out s.npz

(with ``src/`` and ``perfbench/`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import test_house
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.fleet.columnar import run_columnar
from repro.sim.rng import derive_seed

#: Seconds the recording process may take before the run gives up.
RECORD_TIMEOUT_S = 150.0


def device_name(index: int) -> str:
    return f"dev-{index:05d}"


def occupants(plan, devices: int, seed: int) -> Dict[str, Occupant]:
    """The recorded fleet's occupants: their walks are the ground truth."""
    return {
        device_name(i): Occupant(
            device_name(i), RandomWaypoint(plan, seed=derive_seed(seed, f"bms-wal:{i}"))
        )
        for i in range(devices)
    }


def record_traffic(params: dict, seed: int, building_seed: int, out: Path) -> None:
    """Drive the fleet and store every accepted batch post in ``out`` (.npz)."""
    config = SystemConfig(
        seed=building_seed,
        uplink="wifi",
        uplink_batch_size=params["batch_size"],
        uplink_batch_delay_s=params["batch_delay_s"],
    )
    system = OccupancyDetectionSystem(test_house(), config)
    system.calibrate(duration_s=params["calibration_s"])
    system.train()
    for occupant in occupants(system.plan, params["devices"], seed).values():
        system.add_occupant(occupant)
    posts: List[tuple] = []
    router = system.bms.router
    dispatch = router.dispatch

    def recorded(request):
        response = dispatch(request)
        if response.ok and request.path == "/sightings/batch":
            posts.append((request.time, request.body["sightings"]))
        return response

    router.dispatch = recorded
    run_columnar(system, params["duration_s"], evaluate=False)
    beacon_ids = sorted({b for _, body in posts for s in body for b in s["beacons"]})
    column = {beacon: j for j, beacon in enumerate(beacon_ids)}
    names = {device_name(i): i for i in range(params["devices"])}
    reports = sum(len(body) for _, body in posts)
    report_time = np.empty(reports)
    report_beacons = np.full((reports, len(beacon_ids)), np.nan)
    post_device = np.empty(len(posts), dtype=np.int64)
    post_start = np.zeros(len(posts) + 1, dtype=np.int64)
    r = 0
    for k, (_, body) in enumerate(posts):
        devices = {s["device_id"] for s in body}
        if len(devices) != 1:
            raise RuntimeError(f"a post carries reports of {len(devices)} devices")
        post_device[k] = names[devices.pop()]
        for sighting in body:
            report_time[r] = sighting["time"]
            for beacon, value in sighting["beacons"].items():
                report_beacons[r, column[beacon]] = value
            r += 1
        post_start[k + 1] = r
    np.savez(
        out,
        beacon_ids=np.asarray(beacon_ids),
        post_time=np.asarray([time for time, _ in posts], dtype=float),
        post_device=post_device,
        post_start=post_start,
        report_time=report_time,
        report_beacons=report_beacons,
    )


def record_in_subprocess(params: dict, seed: int, building_seed: int, out: Path) -> None:
    """:func:`record_traffic` in a fresh Python process; waits for it to end.

    Raises:
        subprocess.CalledProcessError: the recording failed.
        subprocess.TimeoutExpired: it took longer than
            :data:`RECORD_TIMEOUT_S` (the process is killed and reaped).
    """
    import repro

    path = [Path(repro.__file__).resolve().parents[1], Path(__file__).resolve().parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    subprocess.run(
        [sys.executable, "-m", "occbench.stream", "--params", json.dumps(params),
         "--seed", str(seed), "--building-seed", str(building_seed), "--out", str(out)],
        env=env, check=True, timeout=RECORD_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


def load(path: Path) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Record the bms-wal input stream.")
    parser.add_argument("--params", required=True, help="StreamParams as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--building-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    record_traffic(json.loads(args.params), args.seed, args.building_seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
