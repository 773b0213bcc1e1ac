"""Run one workload for a measured span and reduce it to the reported metrics.

Iterations repeat the same seeded inputs until ``seconds`` have passed
(and at least :data:`MIN_ITERATIONS` ran).  The host's speed drifts:
on a shared 2-vCPU VM identical iterations took from 1x to 1.8x the
fastest one's time, in spells from a fraction of a second to a minute.
So each untraced iteration runs with a
:class:`~occbench.hostprobe.HostMonitor` that times a fixed probe
between the workload's own calls, and every timed phase is reported as
its wall time (less the probe's) divided by the phase's host scale.
Each timed metric is then a median across the iterations: set-up time,
timed-phase time, rebuild time, and each batch post's latency (the
n-th post of every iteration is the same request, so each post gets
its own median, divided by the scale of the phase it ran in), whose
percentiles are then taken over the posts.  Detection metrics come from
the first iteration; the others must repeat it exactly.

Each iteration sets up afresh, so the spread of scaled set-up time
across a run's iterations shows how well the scaling held; a run above
a third of ``setup_s``'s bound is marked unsteady.

Traced runs pair each untraced iteration with a traced one and report
the per-layer budget of the first traced iteration, plus
``trace_overhead``.  Every iteration's correctness failures, the
determinism check (tracing included) and the budget-closure check
decide ``correct``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml import gram_cache

from . import hostprobe
from .metrics import BUDGET_ROWS, END_TO_END, PER_LAYER, percentile, summarise
from .tracer import SpanRecorder, budget, install
from .workloads import BUILDING_SEED, WAL_FSYNC, WORKLOADS, Iteration

#: Relative tolerance of the budget-closure check (float summation).
CLOSURE_RTOL = 1e-9

#: Iterations an untraced run makes whatever ``seconds`` says, so that
#: every fastest time and median is taken over at least three samples.
MIN_ITERATIONS = 3

#: The benchmark's contract: the measured span and each metric's bound.
SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def host_steadiness(setup_samples: List[float]) -> Dict[str, object]:
    """Whether the host kept its speed during the run.

    Every iteration repeats identical set-up work, so the spread of
    scaled ``setup_s`` across a run's iterations (IQR over median) shows
    the host drift the scaling left in.  Above a third of ``setup_s``'s bound the run is
    marked unsteady: its timed figures measure the host as much as the
    program, and it should not count as a sample.
    """
    bound = next(m["bound"] for m in spec()["end_to_end"] if m["name"] == "setup_s")
    summary = summarise(setup_samples)
    spread = (summary["q3"] - summary["q1"]) / summary["median"]
    return {"setup_spread": spread, "limit": bound / 3.0, "steady": spread <= bound / 3.0}


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    iterations: List[Iteration], rss_mb: float
) -> Tuple[Dict[str, float], dict, dict]:
    """The end-to-end metrics, the raw samples behind them, and the
    median and quartiles of each timed metric's scaled samples.

    The raw samples are unscaled walls and latencies, with the scales.
    """
    first = iterations[0]
    replays = [r for it in iterations for r in it.replays]
    raw = {
        "setup_s": [it.setup.wall_s for it in iterations],
        "setup_scale": [it.setup.scale for it in iterations],
        "timed_s": [it.timed.wall_s for it in iterations],
        "timed_scale": [it.timed.scale for it in iterations],
        "replay_s": [r.wall_s for r in replays],
        "replay_scale": [r.scale for r in replays],
        "post_latency_ms": [[1000.0 * s for s in it.post_latencies_s] for it in iterations],
    }
    posts_ms = np.asarray(raw["post_latency_ms"]) / np.asarray(raw["timed_scale"])[:, None]
    per_post_ms = np.median(posts_ms, axis=0).tolist()
    sightings_per_s = [first.accepted / it.timed.scaled_s for it in iterations]
    replay_s_per_sim_h = [r.scaled_s / first.replay_span_h for r in replays]
    setup_s = [it.setup.scaled_s for it in iterations]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "sightings_per_s": statistics.median(sightings_per_s),
        "ingest_p50_ms": percentile(per_post_ms, 50.0),
        "ingest_p99_ms": percentile(per_post_ms, 99.0),
        "replay_s_per_sim_h": statistics.median(replay_s_per_sim_h),
        "wal_bytes_per_sighting": first.wal_bytes / first.wal_sightings,
        "peak_rss_mb": rss_mb,
        **{key: first.detection[key] for key in (
            "accuracy", "settled_accuracy", "handover_lag_p50_s", "handover_lag_p95_s")},
    }
    summary = {
        "setup_s": summarise(setup_s),
        "sightings_per_s": summarise(sightings_per_s),
        "replay_s_per_sim_h": summarise(replay_s_per_sim_h),
        "ingest_ms (per-post medians)": summarise(per_post_ms),
        "host scale (timed phase)": summarise(raw["timed_scale"]),
    }
    return metrics, raw, summary


def _timed_wall(it: Iteration) -> float:
    return it.timed.wall_s + sum(r.wall_s for r in it.replays)


def per_layer(
    traced: List[Tuple[Iteration, Optional[SpanRecorder], Iteration]],
) -> Tuple[Dict[str, float], SpanRecorder, Dict[str, float]]:
    """Budget and counts of the first traced iteration; ``trace_overhead``
    is the median over pairs of traced / untraced timed wall."""
    it, recorder, _ = traced[0]
    rows = budget(recorder)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(recorder.counts)
    metrics.update(it.layer_counts)
    metrics["wal.bytes"] = float(it.wal_bytes)
    for row in BUDGET_ROWS:
        metrics[row] = rows[row]
    metrics["setup.calibrate_s"] = rows["setup.calibrate_s"]
    metrics["setup.train_s"] = rows["setup.train_s"]
    metrics["trace_overhead"] = statistics.median(
        _timed_wall(t) / _timed_wall(u) for t, _, u in traced
    )
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics outside the catalogue: {sorted(unknown)}")
    return metrics, recorder, rows


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path
) -> dict:
    """Measure ``name`` for ``seconds`` and return the full result.

    Untraced runs stop once ``seconds`` have passed, give or take half
    an iteration, and at least :data:`MIN_ITERATIONS` ran.  Traced runs
    pair each untraced iteration with a traced one and stop the same
    way after at least one pair.
    """
    workload = WORKLOADS[name]
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    untraced: List[Iteration] = []
    # (traced, its spans -- kept for the first only, untraced twin)
    traced: List[Tuple[Iteration, Optional[SpanRecorder], Iteration]] = []

    def run(k: int, recorder: Optional[SpanRecorder] = None) -> Iteration:
        # Untraced iterations interleave the host probe; traced ones
        # keep their layer budget free of it.
        monitor = hostprobe.HostMonitor(enabled=recorder is None)
        # Every iteration sets up as a fresh process would: no Gram
        # matrices left over from the previous iteration's training.
        gram_cache.default_cache().clear()
        gc.collect()
        workdir = base / f"iteration-{k}"
        try:
            return workload.run(seed, workdir, recorder, inputs, monitor)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    try:
        inputs_start = perf_counter()
        inputs = workload.inputs(seed, base / "inputs")
        inputs_s = perf_counter() - inputs_start
        start = perf_counter()
        k = 0
        while True:
            plain = run(2 * k)
            untraced.append(plain)
            if trace:
                recorder = SpanRecorder()
                restore = install(recorder)
                try:
                    iteration = run(2 * k + 1, recorder)
                finally:
                    restore()
                traced.append((iteration, None if traced else recorder, plain))
            k += 1
            elapsed = perf_counter() - start
            if k >= (1 if trace else MIN_ITERATIONS) and elapsed + elapsed / k / 2 >= seconds:
                break
        rss_mb = peak_rss_mb()
        everything = untraced + [t for t, _, _ in traced]
        failures: List[str] = []
        for it in everything:
            failures.extend(it.failures)
        digests = {it.digest() for it in everything}
        if len(digests) > 1:
            failures.append(f"{len(digests)} different results from identical inputs")
        if workload.smoke_check is not None:
            failures.extend(workload.smoke_check(seed))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    result = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": dataclasses.asdict(workload.params),
        "building_seed": BUILDING_SEED,
        "wal_fsync": WAL_FSYNC,
        "host": host_fingerprint(),
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "inputs_s": inputs_s,
        "counts": {
            "post_latency_samples": len(untraced[0].post_latencies_s),
            **{key: untraced[0].detection[key] for key in (
                "eval_points", "settled_points", "handovers", "handovers_censored")},
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
        },
    }
    result["host_steadiness"] = host_steadiness([it.setup.scaled_s for it in untraced])
    result["host_probe"] = {
        "reference_burst_s": hostprobe.REFERENCE_BURST_S,
        "burst_laps": hostprobe.BURST_LAPS,
        "interval_s": hostprobe.INTERVAL_S,
    }
    if len(digests) == 1:
        metrics, raw, summary = end_to_end(untraced, rss_mb)
        result["end_to_end"] = metrics
        result["raw"] = raw
        result["summary"] = summary
        if not trace:
            for key, value in metrics.items():
                if not (math.isfinite(value) and value > 0):
                    failures.append(f"end-to-end metric {key} = {value} is not positive")
    if trace:
        try:
            layer, recorder, rows = per_layer(traced)
        except ValueError as exc:  # a span escaped its parent
            failures.append(str(exc))
        else:
            closure = sum(rows[row] for row in BUDGET_ROWS)
            if abs(closure - rows["timed_wall_s"]) > CLOSURE_RTOL * rows["timed_wall_s"]:
                failures.append(
                    f"budget rows sum to {closure} s, timed wall is {rows['timed_wall_s']} s"
                )
            result["per_layer"] = layer
            result["timed_wall_s"] = rows["timed_wall_s"]
            result["spans"] = len(recorder)
            result["_recorder"] = recorder
    result["failures"] = failures
    result["correct"] = not failures
    return result


def result_line(result: dict) -> dict:
    """The last line of standard output: correct, attempted, failed, metrics.

    A run whose checks failed may lack some values; those are left out.
    """
    if result["trace"]:
        values, units = result.get("per_layer", {}), PER_LAYER
    else:
        values = result.get("end_to_end", {})
        units = {key: unit for key, (unit, _) in END_TO_END.items()}
    return {
        "correct": result["correct"],
        "attempted": int(result["counts"]["attempted"]),
        "failed": int(result["counts"]["failed"]),
        "metrics": {
            key: {"value": values[key], "unit": unit}
            for key, unit in units.items()
            if key in values
        },
    }


def render(result: dict) -> str:
    """Human-readable tables: end-to-end metrics, then the layer budget."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"iterations {result['iterations']}  wal fsync={result['wal_fsync']}",
        f"host {json.dumps(result['host'], sort_keys=True)}",
    ]
    steadiness = result["host_steadiness"]
    lines.append(
        "  host {}: setup_s spread across iterations {:.3f} (limit {:.3f}){}".format(
            "steady" if steadiness["steady"] else "UNSTEADY",
            steadiness["setup_spread"], steadiness["limit"],
            "" if steadiness["steady"] else "; this run is not a valid sample",
        )
    )
    if not result["trace"] and "end_to_end" in result:
        for key, (unit, better) in END_TO_END.items():
            lines.append(f"  {key:<24} {result['end_to_end'][key]:>14.6g} {unit:<8} {better}")
        counts = result["counts"]
        lines.append(
            "  error_rate {:.6g} ({} failed of {} attempted); {} posts per iteration; "
            "{} handovers, {} censored".format(
                counts["error_rate"], counts["failed"], counts["attempted"],
                counts["post_latency_samples"], counts["handovers"],
                counts["handovers_censored"],
            )
        )
        for key, s in result["summary"].items():
            lines.append(
                f"  {key}: median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                f"q3 {s['q3']:.6g}, n {s['n']}"
            )
    elif "per_layer" in result:
        layer = result["per_layer"]
        wall = result["timed_wall_s"]
        lines.append(f"  per-layer budget, timed wall {wall:.4f} s, {result['spans']} spans")
        for row in BUDGET_ROWS:
            lines.append(f"  {row:<22} {layer[row]:>10.4f} s {100 * layer[row] / wall:6.1f} %")
        for key, unit in PER_LAYER.items():
            if key not in BUDGET_ROWS:
                lines.append(f"  {key:<22} {layer[key]:>14.6g} {unit}")
    for failure in result["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return "\n".join(lines)


def write_outputs(result: dict, out_dir: Path) -> None:
    """The full result as JSON, and a traced run's spans as JSON lines."""
    out_dir.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    recorder: Optional[SpanRecorder] = result.pop("_recorder", None)
    if recorder is not None:
        recorder.dump(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))


def main(argv: List[str], root: Path) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, root)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    write_outputs(result, root / ".perfbench_out")
    print(render(result), flush=True)
    print(json.dumps(result_line(result)), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, root: Path) -> int:
    """Each workload in its own fresh process (peak RSS is per process)."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent.parent / "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        line = {"correct": False}
        if lines:
            try:
                line = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        combined["correct"] &= completed.returncode == 0 and line["correct"]
        combined["attempted"] += line.get("attempted", 0)
        combined["failed"] += line.get("failed", 0)
        for key, value in line.get("metrics", {}).items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1
