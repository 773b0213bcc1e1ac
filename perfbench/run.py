"""Benchmark entry point for the beacon -> occupancy pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-scalar --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before measuring anything.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results (host
fingerprint, raw samples, quartiles) land in ``.perfbench_out/``.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the load comes from one thread, and a second BLAS
# thread would contend for the host's few cores.  Set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        _fail(f"program source not found at {source}/repro; run from a checkout")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {source}")


if __name__ == "__main__":
    _import_program()
    from occbench.runner import main

    sys.exit(main(sys.argv[1:], ROOT))
