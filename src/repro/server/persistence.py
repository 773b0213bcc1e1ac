"""Persisting the BMS's calibration state to disk.

A real deployment calibrates once and reuses the fingerprint database
across server restarts.  This module serialises the fingerprint store
(plus the beacon/feature configuration needed to interpret it) to a
JSON document and restores it into a fresh BMS.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.server.bms import BuildingManagementServer

__all__ = ["save_calibration", "load_calibration"]

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_calibration(bms: BuildingManagementServer, path: PathLike) -> int:
    """Write the BMS's fingerprints and feature config to JSON.

    Args:
        bms: the server whose fingerprints to save.
        path: JSON file to write.

    Returns:
        Number of fingerprints saved.
    """
    path = Path(path)
    rows = [
        {
            "time": row["time"],
            "room": row["room"],
            "beacons": row["beacons"],
        }
        for row in bms.db.table("fingerprints")
    ]
    document = {
        "format": FORMAT_VERSION,
        "beacon_ids": bms.vectorizer.beacon_ids,
        "missing_value": bms.vectorizer.missing_value,
        "fingerprints": rows,
    }
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return len(rows)


def load_calibration(
    bms: BuildingManagementServer, path: PathLike, *, train: bool = True
) -> int:
    """Restore fingerprints saved by :func:`save_calibration`.

    Args:
        bms: a server whose beacon set matches the saved document.
        path: JSON file to read.
        train: retrain the classifier after loading.

    Returns:
        Number of fingerprints loaded.

    Raises:
        ValueError: wrong format version or mismatched beacon set.
    """
    path = Path(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported calibration format {document.get('format')!r}"
        )
    saved_beacons = list(document.get("beacon_ids", []))
    if saved_beacons != bms.vectorizer.beacon_ids:
        raise ValueError(
            "beacon set mismatch: saved "
            f"{saved_beacons} vs server {bms.vectorizer.beacon_ids}"
        )
    count = 0
    for row in document.get("fingerprints", []):
        bms.add_fingerprint(row["room"], row["beacons"], row.get("time", 0.0))
        count += 1
    if train and count:
        bms.train()
    return count
