"""Perf-regression gate over the benchmark trajectory.

``BENCH_results.json`` accumulates one entry per benchmark session
(appended by ``benchmarks/conftest.py``): paper-vs-measured table rows
keyed by test nodeid and row label.  This module is the perf analogue
of the devtools lint ratchet:

- :func:`normalise` flattens the history into ``(benchmark, metric,
  value, run_id)`` points, parsing the leading float out of measured
  strings like ``"3.68x"``, ``"14.2%"`` or ``"0.23"``;
- :func:`check` compares the latest value of every series named in a
  checked-in baseline against the baseline value, inside a tolerance
  band, failing in the *regression* direction only (a speedup series
  may rise freely but not collapse);
- ``python -m repro.obs.bench --check`` runs the gate for CI, and
  ``--update-baseline`` re-pins the baseline to the latest values.

The baseline lives in ``benchmarks/bench_baseline.json``::

    {
      "tolerance_pct": 60.0,
      "series": {
        "<nodeid>::<label>": {"value": 10.1, "direction": "higher"}
      }
    }

Per-series ``tolerance_pct`` overrides the file-wide band.  Tolerances
are generous by design: the gate exists to catch collapses (a fast
path silently disabled, a cache no longer hitting), not CI-runner
noise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = [
    "BenchPoint",
    "Violation",
    "check",
    "latest",
    "load_baseline",
    "load_results",
    "main",
    "normalise",
    "parse_value",
    "update_baseline",
]

DEFAULT_RESULTS = Path("BENCH_results.json")
DEFAULT_BASELINE = Path("benchmarks") / "bench_baseline.json"

#: A number, with optional comma-grouped thousands (``f"{x:,.0f}"``).
_FLOAT_RE = re.compile(
    r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][-+]?\d+)?"
)


@dataclass(frozen=True)
class BenchPoint:
    """One numeric benchmark observation.

    Attributes:
        benchmark: test nodeid that produced the row.
        metric: the row label (``"speedup"``, ``"grid speedup"``, ...).
        value: leading float parsed from the measured string.
        run_id: index of the session the row belongs to (later wins).
    """

    benchmark: str
    metric: str
    value: float
    run_id: int

    @property
    def key(self) -> str:
        """The series key the baseline file uses."""
        return f"{self.benchmark}::{self.metric}"


@dataclass(frozen=True)
class Violation:
    """One failed gate check."""

    key: str
    message: str

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"


def parse_value(measured: str) -> Optional[float]:
    """The leading float of a measured string, or ``None``.

    ``"3.68x"`` -> 3.68, ``"14.2%"`` -> 14.2, ``"std 0.83 m"`` -> 0.83,
    ``"58,412"`` -> 58412.0; purely textual cells (``"yes"``) yield
    ``None`` and drop out of the series.
    """
    match = _FLOAT_RE.search(measured)
    return float(match.group(0).replace(",", "")) if match else None


def load_results(path: Path) -> List[dict]:
    """The session history list from ``BENCH_results.json``.

    Raises:
        ValueError: the file is not a list of ``{"results": [...]}``
            session entries (malformed rows must fail loudly, not
            silently vanish from the gate).
    """
    history = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(history, list):
        raise ValueError(f"{path}: expected a JSON list of session entries")
    for i, session in enumerate(history):
        if not isinstance(session, dict) or not isinstance(
            session.get("results"), list
        ):
            raise ValueError(
                f"{path}: session entry {i} is not a dict with a "
                "'results' list"
            )
        for row in session["results"]:
            if not isinstance(row, dict) or not isinstance(
                row.get("test"), str
            ):
                raise ValueError(
                    f"{path}: malformed row in session {i}: {row!r}"
                )
    return history


def normalise(history: Sequence[dict]) -> List[BenchPoint]:
    """Flatten the session history into numeric series points.

    Sessions carry an explicit ``run_id`` when stamped by the current
    conftest; older entries fall back to their list position, which is
    the same ordering.
    """
    points: List[BenchPoint] = []
    for position, session in enumerate(history):
        run_id = int(session.get("run_id", position))
        for row in session["results"]:
            label = row.get("label")
            measured = row.get("measured")
            if not isinstance(label, str) or not isinstance(measured, str):
                continue
            value = parse_value(measured)
            if value is None:
                continue
            points.append(
                BenchPoint(
                    benchmark=row["test"],
                    metric=label,
                    value=value,
                    run_id=run_id,
                )
            )
    return points


def latest(points: Sequence[BenchPoint]) -> Dict[str, BenchPoint]:
    """series key -> the most recent point (ties: last row wins)."""
    current: Dict[str, BenchPoint] = {}
    for point in points:
        existing = current.get(point.key)
        if existing is None or point.run_id >= existing.run_id:
            current[point.key] = point
    return current


def load_baseline(path: Path) -> dict:
    """The baseline document (see the module docstring for the shape).

    Raises:
        ValueError: structurally invalid baseline.
    """
    baseline = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("series"), dict
    ):
        raise ValueError(f"{path}: baseline must be a dict with 'series'")
    for key, spec in baseline["series"].items():
        if not isinstance(spec, dict) or "value" not in spec:
            raise ValueError(f"{path}: series {key!r} needs a 'value'")
        if spec.get("direction", "higher") not in ("higher", "lower"):
            raise ValueError(
                f"{path}: series {key!r} direction must be "
                "'higher' or 'lower'"
            )
    return baseline


def check(points: Sequence[BenchPoint], baseline: dict) -> List[Violation]:
    """Gate the latest series values against the baseline.

    A ``direction: higher`` series (speedups, accuracies) violates
    when it drops below ``value * (1 - tol)``; ``lower`` (latencies)
    when it rises above ``value * (1 + tol)``.  A baseline series
    missing from the results entirely is a violation too — a deleted
    benchmark must be removed from the baseline deliberately.
    """
    default_tol = float(baseline.get("tolerance_pct", 25.0))
    current = latest(points)
    violations: List[Violation] = []
    for key in sorted(baseline["series"]):
        spec = baseline["series"][key]
        point = current.get(key)
        if point is None:
            violations.append(
                Violation(key, "series missing from BENCH_results.json")
            )
            continue
        base = float(spec["value"])
        direction = spec.get("direction", "higher")
        tol = float(spec.get("tolerance_pct", default_tol))
        band = abs(base) * tol / 100.0
        if direction == "higher" and point.value < base - band:
            violations.append(
                Violation(
                    key,
                    f"regressed: {point.value:g} < {base:g} - {tol:g}% "
                    f"(floor {base - band:g})",
                )
            )
        elif direction == "lower" and point.value > base + band:
            violations.append(
                Violation(
                    key,
                    f"regressed: {point.value:g} > {base:g} + {tol:g}% "
                    f"(ceiling {base + band:g})",
                )
            )
    return violations


def update_baseline(points: Sequence[BenchPoint], baseline: dict) -> dict:
    """Re-pin every baseline series to its latest measured value.

    Directions and per-series tolerances are preserved; series with no
    current measurement keep their old value.  Returns the new
    baseline document (the caller writes it).
    """
    current = latest(points)
    series = {}
    for key in sorted(baseline["series"]):
        spec = dict(baseline["series"][key])
        point = current.get(key)
        if point is not None:
            spec["value"] = point.value
        series[key] = spec
    updated = dict(baseline)
    updated["series"] = series
    return updated


def _format_table(points: Sequence[BenchPoint], baseline: dict) -> str:
    current = latest(points)
    keys = sorted(set(current) | set(baseline.get("series", {})))
    if not keys:
        return "(no benchmark series)"
    width = min(72, max(len(k) for k in keys))
    lines = [f"{'series':<{width}}  {'latest':>10}  {'baseline':>10}"]
    for key in keys:
        point = current.get(key)
        spec = baseline.get("series", {}).get(key)
        measured = f"{point.value:g}" if point is not None else "-"
        pinned = f"{float(spec['value']):g}" if spec else "-"
        lines.append(f"{key:<{width}}  {measured:>10}  {pinned:>10}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Benchmark series and perf-regression gate over "
        "BENCH_results.json.",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=DEFAULT_RESULTS,
        help="path to BENCH_results.json",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="path to the checked-in baseline",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the latest values against the baseline (exit 1 on "
        "regression)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-pin the baseline series to the latest measured values",
    )
    args = parser.parse_args(argv)
    try:
        points = normalise(load_results(args.results))
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        updated = update_baseline(points, baseline)
        args.baseline.write_text(
            json.dumps(updated, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline re-pinned: {args.baseline}")
        return 0
    if args.check:
        violations = check(points, baseline)
        if violations:
            print(f"{len(violations)} perf regression(s):", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print(f"perf gate: {len(baseline['series'])} series within tolerance")
        return 0
    print(_format_table(points, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
