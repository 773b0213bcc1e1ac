"""Deterministic BMS state recovery from the sighting WAL.

Crash recovery for the occupancy pipeline: the WAL
(:mod:`repro.traces.wal`) holds every state-changing operation the
live server applied, in apply order, so folding it back through the
same ingest code rebuilds the occupancy state *byte for byte* —
snapshots, merged history, sighting counts, and the ``server.*``
telemetry counters all come out equal to the live run's.

The replay is also *fast*: consecutive loose-sighting records are
classified in vectorised chunks through ``classify_batch`` (one Gram
against the support-vector bank per chunk instead of one per report)
and each label is handed back to ``ingest_sighting(room=...)`` so the
per-report bookkeeping — storage, counters, occupancy state — applies
exactly as it did live.  Chunking is invisible to the result: the
batch predict path is pinned row-pure, so the chunk size only moves
the wall clock (the replay benchmark drives this well past 20x
real-time).

A WAL directory written by the fleet driver additionally carries a
``manifest.json`` (server construction parameters) and a
``calibration.json`` (:func:`repro.server.persistence.save_calibration`
at initial-train time), so :func:`server_from_manifest` can rebuild
the server from nothing but the directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.server.bms import BuildingManagementServer
from repro.server.persistence import load_calibration
from repro.traces.wal import read_wal_records

__all__ = [
    "ReplayReport",
    "load_manifest",
    "replay_wal",
    "server_from_manifest",
    "write_manifest",
]

PathLike = Union[str, Path]

#: Fleet WAL-directory layout: construction parameters + calibration.
MANIFEST_NAME = "manifest.json"
CALIBRATION_NAME = "calibration.json"
MANIFEST_FORMAT = 1

#: Loose sightings classified per vectorised replay chunk.
DEFAULT_REPLAY_CHUNK = 256


@dataclass(frozen=True)
class ReplayReport:
    """What a replay applied.

    Attributes:
        records: WAL records applied.
        sightings: individual sighting reports re-ingested (from both
            loose-sighting and batch records).
        batches: batch records re-ingested.
        history_marks: occupancy-history marks re-applied.
        refreshes: online model refreshes re-applied.
        first_time: earliest record time, or ``None`` for an empty log.
        last_time: latest record time, or ``None`` for an empty log.
    """

    records: int
    sightings: int
    batches: int
    history_marks: int
    refreshes: int
    first_time: Optional[float]
    last_time: Optional[float]

    @property
    def span_s(self) -> float:
        """Simulated seconds the log covers (0 for empty logs)."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (for the fleet CLI)."""
        return {
            "records": self.records,
            "sightings": self.sightings,
            "batches": self.batches,
            "history_marks": self.history_marks,
            "refreshes": self.refreshes,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "span_s": self.span_s,
        }


def replay_wal(
    server: BuildingManagementServer,
    directory: PathLike,
    *,
    chunk: int = DEFAULT_REPLAY_CHUNK,
) -> ReplayReport:
    """Re-apply a WAL into ``server`` (trained, calibration loaded).

    The server must be constructed and trained exactly as the live one
    was before its first logged operation (same beacons, classifier,
    calibration — see :func:`server_from_manifest`); the replayed
    state is then byte-identical to the live server's.

    Args:
        server: the rebuild target.
        directory: the WAL directory to fold back.
        chunk: loose sightings classified per vectorised batch; any
            value yields the same state (batch predict is row-pure),
            larger chunks amortise the Gram work further.

    Raises:
        ValueError: ``chunk < 1``, or ``server`` writes its own WAL
            into the directory being replayed (the reader and appender
            would race).
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    directory = Path(directory)
    if server.wal is not None and Path(server.wal.directory) == directory:
        raise ValueError(
            "replay target writes its WAL into the directory being "
            "replayed; attach a different log (or none)"
        )
    records = sightings = batches = history_marks = refreshes = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    pending: List[Dict[str, Any]] = []

    def flush_pending() -> None:
        nonlocal sightings
        for start in range(0, len(pending), chunk):
            part = pending[start : start + chunk]
            rooms = server.classify_batch([s["beacons"] for s in part])
            for sighting, room in zip(part, rooms):
                server.ingest_sighting(
                    sighting["device_id"],
                    sighting["beacons"],
                    sighting["time"],
                    room=room,
                )
        sightings += len(pending)
        pending.clear()

    with server.obs.tracer.span("server.replay", directory=str(directory)):
        for record in read_wal_records(directory):
            records += 1
            if first_time is None:
                first_time = record.time
            last_time = record.time
            if record.kind == "sighting":
                # Defer: consecutive loose sightings classify together.
                pending.extend(record.sightings)
                continue
            flush_pending()
            if record.kind == "batch":
                server.ingest_batch(list(record.sightings))
                batches += 1
                sightings += len(record.sightings)
            elif record.kind == "history":
                server.record_history(record.time)
                history_marks += 1
            elif record.kind == "refresh":
                server.refresh(list(record.fingerprints))
                refreshes += 1
        flush_pending()
    return ReplayReport(
        records=records,
        sightings=sightings,
        batches=batches,
        history_marks=history_marks,
        refreshes=refreshes,
        first_time=first_time,
        last_time=last_time,
    )


# ----------------------------------------------------------------------
# Fleet WAL-directory manifest
# ----------------------------------------------------------------------
def write_manifest(
    directory: PathLike,
    *,
    beacon_ids: List[str],
    missing_value: float,
    device_timeout_s: float,
    svm_c: float,
    svm_gamma: float,
    seed: int,
    shards: int = 1,
) -> Path:
    """Record the server construction parameters next to the log.

    Together with the ``calibration.json`` the fleet driver saves at
    initial-train time, the manifest makes the WAL directory
    self-contained: :func:`server_from_manifest` rebuilds the exact
    live server with no other inputs.  ``shards`` must be 1: the log
    lives in the single ``shard-00`` sub-directory.

    Returns:
        The manifest path.

    Raises:
        ValueError: ``shards`` is not 1.
    """
    _check_shards(shards)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    document = {
        "format": MANIFEST_FORMAT,
        "beacon_ids": list(beacon_ids),
        "missing_value": float(missing_value),
        "device_timeout_s": float(device_timeout_s),
        "svm_c": float(svm_c),
        "svm_gamma": float(svm_gamma),
        "seed": int(seed),
        "shards": int(shards),
    }
    path.write_text(
        json.dumps(document, indent=1, sort_keys=True), encoding="utf-8"
    )
    return path


def _check_shards(shards: Any) -> None:
    if shards != 1:
        raise ValueError(
            f"manifest field 'shards' must be 1 (one store, one "
            f"shard-00 log), got {shards!r}"
        )


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read and validate a WAL directory's manifest.

    Raises:
        ValueError: no manifest, or an unsupported format version.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ValueError(f"{path} not found; was this WAL written by fleet?")
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"unsupported manifest format {document.get('format')!r}"
        )
    return document


def server_from_manifest(directory: PathLike, *, registry=None, chunk: int = DEFAULT_REPLAY_CHUNK):
    """Rebuild and replay the server a fleet WAL directory describes.

    Constructs the server with the manifest's parameters, loads and
    trains on the saved calibration, then replays the ``shard-00`` log.

    Returns:
        ``(server, report)`` — the rebuilt
        :class:`BuildingManagementServer` and the :class:`ReplayReport`.

    Raises:
        ValueError: no manifest or calibration, or a manifest whose
            ``shards`` field is not 1 (a log written by a multi-store
            run this server cannot rebuild).
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    _check_shards(manifest.get("shards", 1))
    calibration = directory / CALIBRATION_NAME
    if not calibration.exists():
        raise ValueError(
            f"{calibration} not found; was this WAL written by fleet?"
        )

    server = BuildingManagementServer(
        beacon_ids=list(manifest["beacon_ids"]),
        classifier=SupportVectorClassifier(
            c=manifest["svm_c"],
            kernel=RbfKernel(gamma=manifest["svm_gamma"]),
            seed=manifest["seed"],
        ),
        missing_value=manifest["missing_value"],
        device_timeout_s=manifest["device_timeout_s"],
        registry=registry,
    )
    load_calibration(server, calibration)
    return server, replay_wal(server, directory / "shard-00", chunk=chunk)
