"""Benchmark of hnlq: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload amm-d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload store-a2 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke          # all workloads, small shapes, seconds
    python3 perfbench/run.py --self-check     # exits non-zero unless a spoiled
                                              # output makes the run fail

Load model: closed loop, one process, one caller that waits for each
result.  Every input comes from ``--seed``.  The program is imported from
``src/`` of the checkout this file sits in; without it the benchmark exits
with status 2 before measuring anything.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and unit,
and the full report (machine, samples, workload metrics) is written to
``.perfbench/`` in the checkout.  A failed output check or an
``UnencodableError`` counts as a failed operation and makes the exit
status 1.  See perfbench/README.md for the metrics and the predictions.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = 1


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads; must run before numpy loads.

    hnlq's BLAS calls are small, (rows, d) @ (d, d).  With two OpenBLAS
    threads on a 2-CPU machine they ran no faster than with one, and some
    processes ran quantize_matrix 3x slower for their whole life, which
    made run-to-run medians bimodal.  One thread per caller is steady.
    """
    cap = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def use_checkout_sources() -> None:
    """Put this checkout's src/ first on the path, or exit 2 if hnlq is not there."""
    package = SRC / "hnlq"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hnlq sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    origin = Path(importlib.util.find_spec("hnlq").origin).resolve().parent
    if origin != package.resolve():
        sys.stderr.write(f"perfbench: hnlq resolves to {origin}, not {package}\n")
        sys.exit(2)


if __name__ == "__main__":
    blas_threads = cap_threads()
    use_checkout_sources()
    import harness

    sys.exit(harness.main(blas_threads=blas_threads))
