"""Batched vs per-row classification throughput (the fleet fast path).

The batched `SupportVectorClassifier.predict` computes one Gram matrix
against the deduplicated support-vector bank and one fused decision
matrix for the whole batch; the per-row loop pays that fixed Python +
numpy overhead once per sighting.  The REST layer inherits the win
through ``POST /sightings/batch``.  Predictions must be identical
either way.  Both times are gated as absolute series in
``bench_baseline.json``: the ratio alone would also move when the
per-row oracle gets faster.
"""

import time

import numpy as np

from conftest import print_table
from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.server.bms import BuildingManagementServer
from repro.server.rest import Request

BATCH_SIZE = 64


def _timed(fn, repeats=5):
    """Best-of-N wall time of ``fn`` (seconds) and its last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _fingerprint_classifier(n_classes=4, n_per=40, d=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(n_classes, d))
    X = np.vstack([rng.normal(c, 1.0, size=(n_per, d)) for c in centers])
    y = np.array([f"room-{k}" for k in range(n_classes) for _ in range(n_per)])
    model = SupportVectorClassifier(c=10.0, kernel=RbfKernel(0.5)).fit(X, y)
    return model, rng.uniform(-1.0, 11.0, size=(BATCH_SIZE, d))


def test_perf_batched_predict_vs_per_row_loop():
    model, X = _fingerprint_classifier()

    t_loop, per_row = _timed(
        lambda: [model.predict(row.reshape(1, -1))[0] for row in X]
    )
    t_batch, batched = _timed(lambda: model.predict(X))

    np.testing.assert_array_equal(np.asarray(per_row), batched)
    speedup = t_loop / t_batch
    print_table(
        f"Batched SVM predict, N={BATCH_SIZE}",
        [
            ("per-row loop (ms)", "-", f"{t_loop * 1e3:.2f}"),
            ("batched (ms)", "-", f"{t_batch * 1e3:.2f}"),
            ("speedup", ">= 3x", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 3.0, f"batched path only {speedup:.1f}x faster"


def _trained_bms(seed=0):
    beacon_ids = [f"1-{i}" for i in range(1, 7)]
    bms = BuildingManagementServer(beacon_ids)
    rng = np.random.default_rng(seed)
    rooms = ["kitchen", "living", "bedroom"]
    for _ in range(30):
        for r, room in enumerate(rooms):
            beacons = {
                b: float(abs(rng.normal(1.0 if i // 2 == r else 8.0, 0.5)))
                for i, b in enumerate(beacon_ids)
            }
            bms.add_fingerprint(room, beacons, 0.0)
    bms.train()
    rng_q = np.random.default_rng(seed + 1)
    sightings = [
        {
            "device_id": f"dev-{k:03d}",
            "beacons": {b: float(rng_q.uniform(0.5, 9.0)) for b in beacon_ids},
            "time": float(k),
        }
        for k in range(BATCH_SIZE)
    ]
    return bms, sightings


def test_perf_batch_route_vs_per_report_posts():
    """REST-level: one /sightings/batch vs N /sightings posts, with
    byte-identical room predictions."""
    bms_a, sightings = _trained_bms()
    bms_b, _ = _trained_bms()

    def per_report():
        rooms = []
        for s in sightings:
            response = bms_a.router.dispatch(
                Request("POST", "/sightings", body=s, time=s["time"])
            )
            rooms.append(response.body["room"])
        return rooms

    def batch():
        response = bms_b.router.dispatch(
            Request("POST", "/sightings/batch", body={"sightings": sightings})
        )
        return response.body["rooms"]

    t_loop, rooms_loop = _timed(per_report, repeats=3)
    t_batch, rooms_batch = _timed(batch, repeats=3)

    assert rooms_loop == rooms_batch
    speedup = t_loop / t_batch
    print_table(
        f"Batched BMS ingestion, N={BATCH_SIZE}",
        [
            ("per-report posts (ms)", "-", f"{t_loop * 1e3:.2f}"),
            ("one batch post (ms)", "-", f"{t_batch * 1e3:.2f}"),
            ("speedup", "> 1x", f"{speedup:.1f}x"),
        ],
    )
    assert speedup > 1.0, f"batch route slower than per-report ({speedup:.2f}x)"
