"""Pinned fleet outputs: a small run's results must never drift.

The scalar and columnar engines share the advertisement schedule and
the wall kernel, so the columnar-equals-scalar contract alone cannot
catch a defect in either shared piece.  These digests were recorded
before the two engines began sharing them; any change to the radio,
scan, filter, uplink or classify path that moves a single bit of the
predictions, the BMS history, the final occupancy snapshot or the
calibration fingerprints fails here.

The digests live in ``tests/fixtures/fleet_digests.json``.  There is
deliberately no way to rewrite them from the test suite: a change that
is meant to alter these outputs has to say so by editing the fixture.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.system import OccupancyDetectionSystem
from repro.fleet import FleetLoadGenerator
from repro.fleet import columnar

FIXTURE = Path(__file__).parent / "fixtures" / "fleet_digests.json"

RUN = dict(
    seed=0,
    devices=4,
    duration_s=60.0,
    batch_size=8,
    calibration_s=240.0,
    uplink="wifi",
)


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_digests(monkeypatch, *, columnar_drive: bool) -> dict:
    """Drive ``RUN`` and digest its outputs.

    The generator keeps the system private, so the drive entry point
    is wrapped to capture the system and its detection run.
    """
    captured = {}
    owner, name = (
        (columnar, "run_columnar")
        if columnar_drive
        else (OccupancyDetectionSystem, "run")
    )
    original = getattr(owner, name)

    def capture(system, duration_s, **kwargs):
        captured["system"] = system
        captured["run"] = original(system, duration_s, **kwargs)
        return captured["run"]

    monkeypatch.setattr(owner, name, capture)
    generator = FleetLoadGenerator(columnar=columnar_drive, **RUN)
    report = generator.run()
    system, run = captured["system"], captured["run"]

    snap = generator.last_occupancy
    history = generator.last_history
    X, y, _ = system.bms.fingerprints.dataset().to_matrix(system.bms.vectorizer)
    X = np.ascontiguousarray(X, dtype=np.float64)
    return {
        "report": _sha256(report.to_dict()),
        "predictions": _sha256(run.predictions),
        "history": _sha256(
            {
                "rooms": {room: history.series(room) for room in history.rooms()},
                "entries": len(history),
            }
        ),
        "snapshot": _sha256(
            {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices}
        ),
        "calibration_matrix": hashlib.sha256(
            repr(X.shape).encode("ascii") + X.tobytes()
        ).hexdigest(),
        "calibration_labels": _sha256([str(label) for label in y]),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("columnar_drive", [False, True], ids=["scalar", "columnar"])
def test_fleet_outputs_match_pinned_digests(monkeypatch, pinned, columnar_drive):
    assert pinned["run"] == {k: RUN[k] for k in sorted(RUN)}
    assert _run_digests(monkeypatch, columnar_drive=columnar_drive) == pinned[
        "digests"
    ]
