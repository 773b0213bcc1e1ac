"""Durable sighting write-ahead log: segmented, CRC-stamped, replayable.

A production BMS must survive restarts: the in-memory occupancy state
dies with the process, but the stream of accepted operations does not
have to.  :class:`SightingWal` is an append-only log of exactly the
operations the server applied — loose sightings, coalesced batches
(one line per batch, preserving the batch boundaries the telemetry
counts), occupancy-history marks, and online model refreshes — in
apply order.  :mod:`repro.server.replay` folds the log back through
the vectorised ingest path and rebuilds the live state byte for byte.

Layout: a directory of ``segment-NNNNNN`` files.  The active segment
is JSONL — a CRC-stamped header line followed by one compact JSON
record per line — and rotates on a size threshold.  Sealed segments
can be *compacted* into numpy-backed columnar ``.npz`` files (one
flat row table for the sightings plus per-operation index arrays),
which read back losslessly: float64 values round-trip bit-exactly in
both encodings.  The reader tolerates a torn trailing line on the
active segment (a crash mid-append) but treats any other corruption —
bad header CRC, malformed interior line — as an error.  Reopening a
directory repairs the previous active segment first — the torn bytes
were never durable, so truncating them keeps the log readable end to
end across any number of crash/resume cycles.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.obs import profiling
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SightingWal",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "read_wal_records",
    "wal_segment_paths",
]

PathLike = Union[str, Path]

#: On-disk format version, stamped into every segment header.
WAL_FORMAT = 1

#: Record kinds, in the order the columnar encoding numbers them.
RECORD_KINDS = ("sighting", "batch", "history", "refresh")

#: Default active-segment rotation threshold, bytes.
DEFAULT_SEGMENT_BYTES = 256 * 1024

_SEGMENT_PREFIX = "segment-"
_ACTIVE_SUFFIX = ".jsonl"
_SEALED_SUFFIX = ".npz"

#: Batches at or above this many rows are logged in the columnar wire
#: encoding (beacon names once, float64 value/time arrays as base64 of
#: their raw bytes).  JSON float text is the dominant cost of a big
#: batch append — ~10 chars of ``repr`` per value versus 8 raw bytes —
#: so packing the arrays keeps write-through under the <10% ingest
#: overhead contract.  Both encodings are bit-exact; small batches
#: stay as readable inline row lists.
_COLUMNAR_MIN_ROWS = 9


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


def _str_column(values: Sequence[str]) -> np.ndarray:
    """String column with numpy-inferred width.

    A fixed ``<U64`` dtype would silently truncate device ids, rooms
    or beacon names longer than 64 characters, breaking the lossless
    round-trip contract; letting numpy size the dtype to the longest
    string in the column keeps compaction exact.
    """
    if not values:
        return np.empty(0, dtype="<U1")
    return np.asarray(values, dtype=str)


def _columnar_batch_row(
    sightings: Sequence[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Build a columnar batch line, or ``None`` to fall back to rows.

    Device ids are newline-joined, so a pathological id containing a
    newline forces the inline row encoding instead of corrupting the
    column.
    """
    n = len(sightings)
    devices = "\n".join([str(s["device_id"]) for s in sightings])
    if devices.count("\n") != n - 1:
        return None
    times = np.fromiter(
        (s.get("time", 0.0) for s in sightings), dtype=np.float64, count=n
    )
    beacon_lists = [s["beacons"] for s in sightings]
    key_orders = set(map(tuple, beacon_lists))
    mask = None
    if len(key_orders) == 1:
        (first_keys,) = key_orders
        names = [str(k) for k in first_keys]
        values = np.fromiter(
            chain.from_iterable(b.values() for b in beacon_lists),
            dtype=np.float64,
            count=n * len(names),
        ).reshape(n, len(names))
        order = sorted(range(len(names)), key=names.__getitem__)
        names = [names[j] for j in order]
        values = np.ascontiguousarray(values[:, order])
    else:
        union = sorted({str(k) for b in beacon_lists for k in b})
        index = {k: j for j, k in enumerate(union)}
        names = union
        values = np.zeros((n, len(union)), dtype=np.float64)
        mask = np.zeros((n, len(union)), dtype=bool)
        for i, beacons in enumerate(beacon_lists):
            for k, v in beacons.items():
                j = index[str(k)]
                values[i, j] = float(v)
                mask[i, j] = True
    row = {
        "kind": "batch",
        "time": float(times[-1]),
        "n": n,
        "beacon_names": names,
        "devices": devices,
        "t64": _b64(times),
        "v64": _b64(values),
    }
    if mask is not None:
        row["m64"] = _b64(np.packbits(mask))
    return row


class WalError(Exception):
    """Base class for WAL failures."""


class WalCorruptionError(WalError):
    """A segment failed its CRC or structural validation."""


@dataclass(frozen=True)
class WalRecord:
    """One logged operation, in apply order.

    Attributes:
        kind: ``"sighting"`` (one report), ``"batch"`` (one coalesced
            batch ingest — the boundary matters: it replays the batch
            counter and size histogram exactly), ``"history"`` (an
            occupancy-history mark, which carries the expiry side
            effects of its snapshot), or ``"refresh"`` (an online
            model refresh with new calibration fingerprints).
        seq: per-log monotonically increasing record number.
        time: the operation's resolved time.
        sightings: the reports of a sighting/batch record, each a
            mapping with ``device_id``, ``beacons`` and ``time``.
        fingerprints: the calibration rows of a refresh record, each a
            mapping with ``room``, ``beacons`` and ``time``.
    """

    kind: str
    seq: int
    time: float
    sightings: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    fingerprints: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)


def _header_payload(segment: int, base_seq: int) -> Dict[str, Any]:
    return {
        "kind": "wal-header",
        "format": WAL_FORMAT,
        "segment": int(segment),
        "base_seq": int(base_seq),
    }


def _header_crc(payload: Mapping[str, Any]) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _validate_header(header: Dict[str, Any], origin: str) -> Dict[str, Any]:
    if header.get("kind") != "wal-header":
        raise WalCorruptionError(f"{origin}: missing wal-header line")
    crc = header.pop("crc", None)
    if crc != _header_crc(header):
        raise WalCorruptionError(
            f"{origin}: header CRC mismatch (stamped {crc!r})"
        )
    if header.get("format") != WAL_FORMAT:
        raise WalError(
            f"{origin}: unsupported WAL format {header.get('format')!r}"
        )
    return header


def _segment_index(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX) : -len(path.suffix)])


def wal_segment_paths(directory: PathLike) -> List[Path]:
    """Every segment file under ``directory``, in log order.

    Raises:
        WalCorruptionError: a segment index appears both sealed and
            active (the compactor removes the JSONL only after the npz
            is written, so duplicates mean a crashed compaction — the
            caller should remove the ``.npz`` and retry).
    """
    directory = Path(directory)
    paths: Dict[int, Path] = {}
    for path in sorted(directory.glob(f"{_SEGMENT_PREFIX}*")):
        if path.suffix not in (_ACTIVE_SUFFIX, _SEALED_SUFFIX):
            continue
        index = _segment_index(path)
        if index in paths:
            raise WalCorruptionError(
                f"{directory}: segment {index} exists as both "
                f"{paths[index].name} and {path.name}"
            )
        paths[index] = path
    return [paths[index] for index in sorted(paths)]


def _columnar_batch_record(row: Dict[str, Any], origin: str) -> WalRecord:
    """Decode a columnar-encoded batch line (see ``_COLUMNAR_MIN_ROWS``)."""
    try:
        names = [str(b) for b in row["beacon_names"]]
        n = int(row["n"])
        devices = row["devices"].split("\n")
        times = np.frombuffer(
            base64.b64decode(row["t64"]), dtype=np.float64
        )
        values = np.frombuffer(
            base64.b64decode(row["v64"]), dtype=np.float64
        ).reshape(n, len(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruptionError(
            f"{origin}: malformed columnar batch record"
        ) from exc
    if len(devices) != n or len(times) != n:
        raise WalCorruptionError(
            f"{origin}: columnar batch row counts disagree "
            f"({n} rows, {len(devices)} devices, {len(times)} times)"
        )
    mask = None
    if "m64" in row:
        bits = np.frombuffer(base64.b64decode(row["m64"]), dtype=np.uint8)
        mask = (
            np.unpackbits(bits, count=n * len(names))
            .reshape(n, len(names))
            .astype(bool)
        )
    sightings = []
    for i in range(n):
        if mask is None:
            beacons = dict(zip(names, values[i].tolist()))
        else:
            beacons = {
                names[j]: float(values[i, j])
                for j in np.flatnonzero(mask[i])
            }
        sightings.append(
            {
                "device_id": devices[i],
                "beacons": beacons,
                "time": float(times[i]),
            }
        )
    return WalRecord(
        kind="batch",
        seq=int(row["seq"]),
        time=float(row["time"]),
        sightings=tuple(sightings),
    )


def _record_from_dict(row: Dict[str, Any], origin: str) -> WalRecord:
    kind = row.get("kind")
    if kind not in RECORD_KINDS:
        raise WalCorruptionError(f"{origin}: unknown record kind {kind!r}")
    if kind == "batch" and "v64" in row:
        return _columnar_batch_record(row, origin)
    return WalRecord(
        kind=kind,
        seq=int(row["seq"]),
        time=float(row["time"]),
        sightings=tuple(
            {
                "device_id": s["device_id"],
                "beacons": dict(s["beacons"]),
                "time": float(s["time"]),
            }
            for s in row.get("sightings", ())
        ),
        fingerprints=tuple(
            {
                "room": f["room"],
                "beacons": dict(f["beacons"]),
                "time": float(f["time"]),
            }
            for f in row.get("fingerprints", ())
        ),
    )


def _read_jsonl_segment(
    path: Path, *, tolerate_torn_tail: bool
) -> Iterator[WalRecord]:
    origin = str(path)
    header: Optional[Dict[str, Any]] = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if header is None:
                try:
                    header = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise WalCorruptionError(
                        f"{origin}: unreadable header line"
                    ) from exc
                _validate_header(header, origin)
                continue
            try:
                row = json.loads(stripped)
            except json.JSONDecodeError:
                # A malformed *final* line of the active segment is the
                # signature of a crash mid-append: drop it.  Malformed
                # interior lines (content follows) are real corruption.
                if tolerate_torn_tail and fh.read(1) == "":
                    return
                raise WalCorruptionError(f"{origin}: malformed record line")
            yield _record_from_dict(row, origin)
    if header is None:
        raise WalCorruptionError(f"{origin}: empty segment (no header)")


def _read_npz_segment(path: Path) -> Iterator[WalRecord]:
    origin = str(path)
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        _validate_header(header, origin)
        beacon_names = [str(b) for b in data["beacon_names"]]
        op_kind = data["op_kind"]
        op_seq = data["op_seq"]
        op_time = data["op_time"]
        op_row_start = data["op_row_start"]
        op_row_count = data["op_row_count"]
        row_device = data["row_device"]
        row_room = data["row_room"]
        row_time = data["row_time"]
        row_values = data["row_values"]
        row_mask = data["row_mask"]
    for k in range(len(op_kind)):
        kind = RECORD_KINDS[int(op_kind[k])]
        start = int(op_row_start[k])
        count = int(op_row_count[k])
        rows = []
        for r in range(start, start + count):
            beacons = {
                beacon_names[j]: float(row_values[r, j])
                for j in np.flatnonzero(row_mask[r])
            }
            rows.append(
                {
                    "device": str(row_device[r]),
                    "room": str(row_room[r]),
                    "time": float(row_time[r]),
                    "beacons": beacons,
                }
            )
        if kind == "refresh":
            fingerprints = tuple(
                {"room": r["room"], "beacons": r["beacons"], "time": r["time"]}
                for r in rows
            )
            yield WalRecord(
                kind=kind,
                seq=int(op_seq[k]),
                time=float(op_time[k]),
                fingerprints=fingerprints,
            )
        else:
            sightings = tuple(
                {
                    "device_id": r["device"],
                    "beacons": r["beacons"],
                    "time": r["time"],
                }
                for r in rows
            )
            yield WalRecord(
                kind=kind,
                seq=int(op_seq[k]),
                time=float(op_time[k]),
                sightings=sightings,
            )


def read_wal_records(directory: PathLike) -> Iterator[WalRecord]:
    """Every record in the log, in apply (sequence) order.

    Sealed ``.npz`` and JSONL segments interleave transparently; only
    the log's final JSONL segment may end in a torn line.
    """
    paths = wal_segment_paths(directory)
    for position, path in enumerate(paths):
        if path.suffix == _SEALED_SUFFIX:
            yield from _read_npz_segment(path)
        else:
            tail_ok = position == len(paths) - 1
            yield from _read_jsonl_segment(path, tolerate_torn_tail=tail_ok)


class SightingWal:
    """Segmented append-only log of applied BMS operations.

    Args:
        directory: log directory; created if missing.  Reopening a
            directory with existing segments resumes appending after
            the last durable record (a fresh segment is started, so a
            torn tail on the previous active segment is never written
            past).
        segment_bytes: rotate the active segment once it exceeds this
            many bytes.
        fsync: when true, ``os.fsync`` after every append so
            acknowledged records survive an OS/power failure too.
            When false (the default) every append is still flushed to
            the OS — the durability window is a *kernel* crash, not a
            process crash: an acknowledged record can only be lost if
            the whole machine dies before the page cache hits disk.
        registry: optional telemetry registry; the log maintains
            ``wal.records`` / ``wal.sightings`` / ``wal.segments_sealed``
            / ``wal.compacted_segments`` counters on it.  All counts
            are pure functions of the logged content, so telemetry
            stays deterministic.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_bytes < 1:
            raise ValueError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self._fh = None
        self._active_index: Optional[int] = None
        self._active_bytes = 0
        self._closed = False
        self.records_appended = 0
        self.sightings_appended = 0
        existing = wal_segment_paths(self.directory)
        if existing and existing[-1].suffix == _ACTIVE_SUFFIX:
            self._repair_torn_tail(existing[-1])
            existing = wal_segment_paths(self.directory)
        if existing:
            self._segment_counter = _segment_index(existing[-1]) + 1
            self._next_seq = self._scan_next_seq(existing[-1])
        else:
            self._segment_counter = 0
            self._next_seq = 0
        self._c_records = (
            registry.counter("wal.records") if registry is not None else None
        )
        self._c_sightings = (
            registry.counter("wal.sightings") if registry is not None else None
        )
        self._c_sealed = (
            registry.counter("wal.segments_sealed")
            if registry is not None
            else None
        )
        self._c_compacted = (
            registry.counter("wal.compacted_segments")
            if registry is not None
            else None
        )

    @staticmethod
    def _repair_torn_tail(last_segment: Path) -> None:
        """Truncate a torn trailing line left by a crash mid-append.

        Resuming opens a *new* segment, which turns the old active one
        into an interior segment — where a torn line reads as real
        corruption.  The torn bytes were never durable (the appender
        crashed before completing the line), so dropping them restores
        the durable prefix and keeps the whole log readable end to end.
        A segment whose *header* line is torn holds nothing durable at
        all and is removed outright.
        """
        data = last_segment.read_bytes()
        if not data.strip():
            last_segment.unlink()
            return
        offset = 0
        last_start = 0
        last_line = b""
        for line in data.splitlines(keepends=True):
            if line.strip():
                last_start = offset
                last_line = line
            offset += len(line)
        try:
            json.loads(last_line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            if last_start == 0:
                last_segment.unlink()
            else:
                with last_segment.open("r+b") as fh:
                    fh.truncate(last_start)

    @staticmethod
    def _scan_next_seq(last_segment: Path) -> int:
        last = -1
        if last_segment.suffix == _SEALED_SUFFIX:
            records: Iterator[WalRecord] = _read_npz_segment(last_segment)
        else:
            records = _read_jsonl_segment(last_segment, tolerate_torn_tail=True)
        for record in records:
            last = record.seq
        if last < 0:
            # A record-less segment: fall back to its header's base_seq.
            if last_segment.suffix == _SEALED_SUFFIX:
                with np.load(last_segment, allow_pickle=False) as data:
                    header = _validate_header(
                        json.loads(str(data["header"])), str(last_segment)
                    )
                return int(header["base_seq"])
            with last_segment.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        header = _validate_header(
                            json.loads(line), str(last_segment)
                        )
                        return int(header["base_seq"])
            return 0
        return last + 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{index:06d}{_ACTIVE_SUFFIX}"

    def _open_segment(self) -> None:
        index = self._segment_counter
        self._segment_counter += 1
        path = self._segment_path(index)
        payload = _header_payload(index, self._next_seq)
        line = json.dumps(
            {**payload, "crc": _header_crc(payload)}, separators=(",", ":")
        )
        self._fh = path.open("w", encoding="utf-8")
        self._fh.write(line + "\n")
        self._active_index = index
        self._active_bytes = len(line) + 1

    def _seal_active(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._active_index = None
            self._active_bytes = 0
            if self._c_sealed is not None:
                self._c_sealed.inc()

    def _append_line(self, row: Dict[str, Any], sightings: int) -> int:
        if self._closed:
            raise WalError("append on a closed WAL")
        if self._fh is None:
            self._open_segment()
        seq = self._next_seq
        self._next_seq += 1
        line = json.dumps({"seq": seq, **row}, separators=(",", ":"))
        self._fh.write(line + "\n")
        # Every acknowledged append reaches the OS before the caller
        # proceeds; otherwise acknowledged operations could sit in the
        # userspace buffer and vanish on a process crash — the exact
        # scenario the WAL exists to survive.
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._active_bytes += len(line.encode("utf-8")) + 1
        self.records_appended += 1
        self.sightings_appended += sightings
        if self._c_records is not None:
            self._c_records.inc(kind=row["kind"])
        if self._c_sightings is not None and sightings:
            self._c_sightings.inc(float(sightings))
        profiling.tick("traces.wal.record")
        if self._active_bytes >= self.segment_bytes:
            self._seal_active()
        return seq

    @staticmethod
    def _normalise_sighting(sighting: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "device_id": str(sighting["device_id"]),
            "beacons": {
                str(b): float(v) for b, v in sighting["beacons"].items()
            },
            "time": float(sighting.get("time", 0.0)),
        }

    def append_sighting(
        self, device_id: str, beacons: Mapping[str, float], time: float
    ) -> int:
        """Log one accepted loose sighting; returns its seq."""
        sighting = self._normalise_sighting(
            {"device_id": device_id, "beacons": beacons, "time": time}
        )
        return self._append_line(
            {
                "kind": "sighting",
                "time": sighting["time"],
                "sightings": [sighting],
            },
            sightings=1,
        )

    def append_batch(self, sightings: Sequence[Mapping[str, Any]]) -> int:
        """Log one accepted batch ingest as a single record.

        One line per batch amortises the encoding cost across the
        batch and preserves the batch boundary, so replay reproduces
        the ``server.batches`` counter and ``server.batch_size``
        histogram exactly.  Returns the record's seq.
        """
        if not sightings:
            raise ValueError("append_batch needs at least one sighting")
        with profiling.measure("traces.wal.append_batch"):
            if len(sightings) >= _COLUMNAR_MIN_ROWS:
                row = _columnar_batch_row(sightings)
                if row is not None:
                    return self._append_line(row, sightings=len(sightings))
            rows = [self._normalise_sighting(s) for s in sightings]
            return self._append_line(
                {
                    "kind": "batch",
                    "time": rows[-1]["time"],
                    "sightings": rows,
                },
                sightings=len(rows),
            )

    def append_history_mark(self, time: float) -> int:
        """Log an occupancy-history mark (with its expiry side effects)."""
        return self._append_line(
            {"kind": "history", "time": float(time)}, sightings=0
        )

    def append_refresh(
        self, fingerprints: Sequence[Mapping[str, Any]], time: float
    ) -> int:
        """Log an applied online model refresh."""
        if not fingerprints:
            raise ValueError("append_refresh needs at least one fingerprint")
        rows = [
            {
                "room": str(f["room"]),
                "beacons": {
                    str(b): float(v) for b, v in f["beacons"].items()
                },
                "time": float(f.get("time", 0.0)),
            }
            for f in fingerprints
        ]
        return self._append_line(
            {"kind": "refresh", "time": float(time), "fingerprints": rows},
            sightings=0,
        )

    def flush(self) -> None:
        """Flush the active segment to the OS (and disk when ``fsync``)."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Seal the active segment and stop accepting appends."""
        self._seal_active()
        self._closed = True

    def __enter__(self) -> "SightingWal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading and compaction
    # ------------------------------------------------------------------
    def records(self) -> Iterator[WalRecord]:
        """Every durable record, in order (flushes the active segment)."""
        self.flush()
        return read_wal_records(self.directory)

    def segment_paths(self) -> List[Path]:
        """Current segment files, in log order."""
        return wal_segment_paths(self.directory)

    def compact(self) -> int:
        """Rewrite sealed JSONL segments as columnar ``.npz`` files.

        The active segment is left alone.  Returns the number of
        segments compacted.  Lossless: float64 beacon values and times
        round-trip bit-exactly through the column arrays.
        """
        compacted = 0
        with profiling.measure("traces.wal.compact"):
            for path in self.segment_paths():
                if path.suffix != _ACTIVE_SUFFIX:
                    continue
                if (
                    self._active_index is not None
                    and _segment_index(path) == self._active_index
                ):
                    continue
                self._compact_segment(path)
                compacted += 1
        if self._c_compacted is not None and compacted:
            self._c_compacted.inc(float(compacted))
        return compacted

    @staticmethod
    def _compact_segment(path: Path) -> None:
        origin = str(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline().strip()
        header = _validate_header(json.loads(header_line), origin)
        header["crc"] = _header_crc(header)
        records = list(_read_jsonl_segment(path, tolerate_torn_tail=False))
        beacon_names = sorted(
            {
                str(b)
                for record in records
                for row in (record.sightings + record.fingerprints)
                for b in row["beacons"]
            }
        )
        name_index = {b: j for j, b in enumerate(beacon_names)}
        op_kind: List[int] = []
        op_seq: List[int] = []
        op_time: List[float] = []
        op_row_start: List[int] = []
        op_row_count: List[int] = []
        row_device: List[str] = []
        row_room: List[str] = []
        row_time: List[float] = []
        row_values: List[np.ndarray] = []
        row_mask: List[np.ndarray] = []
        for record in records:
            rows: Sequence[Mapping[str, Any]]
            if record.kind == "refresh":
                rows = record.fingerprints
            else:
                rows = record.sightings
            op_kind.append(RECORD_KINDS.index(record.kind))
            op_seq.append(record.seq)
            op_time.append(record.time)
            op_row_start.append(len(row_device))
            op_row_count.append(len(rows))
            for row in rows:
                row_device.append(str(row.get("device_id", "")))
                row_room.append(str(row.get("room", "")))
                row_time.append(float(row["time"]))
                values = np.zeros(len(beacon_names))
                mask = np.zeros(len(beacon_names), dtype=bool)
                for b, v in row["beacons"].items():
                    j = name_index[b]
                    values[j] = float(v)
                    mask[j] = True
                row_values.append(values)
                row_mask.append(mask)
        width = len(beacon_names)
        sealed = path.with_suffix(_SEALED_SUFFIX)
        np.savez(
            sealed,
            header=np.asarray(json.dumps(header, separators=(",", ":"))),
            beacon_names=_str_column(beacon_names),
            op_kind=np.asarray(op_kind, dtype=np.int8),
            op_seq=np.asarray(op_seq, dtype=np.int64),
            op_time=np.asarray(op_time, dtype=np.float64),
            op_row_start=np.asarray(op_row_start, dtype=np.int64),
            op_row_count=np.asarray(op_row_count, dtype=np.int64),
            row_device=_str_column(row_device),
            row_room=_str_column(row_room),
            row_time=np.asarray(row_time, dtype=np.float64),
            row_values=(
                np.vstack(row_values)
                if row_values
                else np.empty((0, width))
            ),
            row_mask=(
                np.vstack(row_mask)
                if row_mask
                else np.empty((0, width), dtype=bool)
            ),
        )
        path.unlink()

    def describe(self) -> Dict[str, Any]:
        """Admin-endpoint view of the log's shape."""
        paths = self.segment_paths()
        return {
            "directory": str(self.directory),
            "format": WAL_FORMAT,
            "segments": len(paths),
            "compacted_segments": sum(
                1 for p in paths if p.suffix == _SEALED_SUFFIX
            ),
            "next_seq": self._next_seq,
            "records_appended": self.records_appended,
            "sightings_appended": self.sightings_appended,
            "active_bytes": self._active_bytes,
            "segment_bytes": self.segment_bytes,
        }
