"""Measurement loop, metrics and report of the hnlq benchmark.

Imported by run.py once the BLAS thread cap is set and ``src/`` of the
checkout is on the path; see run.py for the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from hnlq.errors import UnencodableError

from tracing import LayerTotals, Tracer, self_time_sum, spans_as_records
from workloads import WORKLOADS

WORKDIR = Path(__file__).resolve().parent.parent / ".perfbench"

# Set-up passes per run; set-up time is their median.
SETUP_REPEATS = 5
# A tail percentile needs at least ten samples beyond it, so a timed run
# keeps going past --seconds until it has this many iterations.
MIN_SAMPLES = 11
# Traced runs alternate traced and untraced iterations, at least this many
# of each, so that the tracing overhead is measured under the same drift.
MIN_TRACED = 4
TAIL_BEYOND = 10


def machine(blas_threads: int) -> dict:
    """Where the numbers were taken."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_cap": blas_threads,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def _kib(size: str) -> int | None:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return None


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned and labelled 100 (smoke runs only; timed runs have more).
    """
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND
    if rank < 1:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / len(xs)


class Run:
    """One workload run: set-up, a reference iteration, then the timed loop."""

    def __init__(self, workload, seconds: float, trace: bool, min_samples: int,
                 setup_repeats: int, spoil: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.min_samples = min_samples
        self.setup_repeats = setup_repeats
        self.spoil = spoil
        self.attempted = 0
        self.failures: list[str] = []
        self.iter_s: list[float] = []
        self.traced_iter_s: list[float] = []
        self.stages: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.oracle_s: list[float] = []
        self.tail_percentile = float("nan")
        self.setup_spans: list[list] = []
        self.last_iter_spans: list[list] = []

    def _attempt(self, index: int, tracer=None, totals=None) -> None:
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.w.iterate()
            else:
                with tracer.root(index, totals):
                    out = self.w.iterate()
        except UnencodableError as e:
            self.failures.append(f"iteration {index}: UnencodableError: {e}")
            return
        dt = perf_counter() - t0
        if self.spoil and index == 1:
            self.w.corrupt(out)
        errs = self.w.check(out)
        if tracer is not None:
            spans = tracer.last_spans
            duration = spans[0][2] - spans[0][1]
            if abs(self_time_sum(spans) - duration) > 1e-9 * max(duration, 1.0):
                errs.append("span self times do not add up to the traced iteration time")
        self.failures.extend(f"iteration {index}: {e}" for e in errs)
        if index == 0:
            return  # the reference iteration warms caches and is not timed
        if tracer is not None:
            self.traced_iter_s.append(dt)
            return
        self.iter_s.append(dt)
        for key, v in out.items():
            if key.endswith("_s"):
                self.stages.setdefault(key, []).append(v)
        if self.trace and hasattr(self.w, "oracle"):
            t1 = perf_counter()
            self.w.oracle(out)
            self.oracle_s.append(perf_counter() - t1)

    def execute(self) -> dict:
        tracer = Tracer() if self.trace else None
        setup_totals, iter_totals = LayerTotals(), LayerTotals()
        for i in range(self.setup_repeats):
            t0 = perf_counter()
            if tracer is not None and i == self.setup_repeats - 1:
                with tracer.root("setup", setup_totals):
                    self.w.setup()
                self.setup_spans = tracer.last_spans
            else:
                self.w.setup()
                self.setup_s.append(perf_counter() - t0)
        self._attempt(0)
        deadline = perf_counter() + self.seconds
        index = 1
        while True:
            enough = len(self.iter_s) >= self.min_samples and (
                tracer is None or len(self.traced_iter_s) >= MIN_TRACED
            )
            if enough and perf_counter() >= deadline:
                break
            if tracer is not None and index % 2 == 0:
                self._attempt(index, tracer, iter_totals)
            else:
                self._attempt(index)
            index += 1
        if tracer is not None:
            self.last_iter_spans = tracer.last_spans
        return {"setup": setup_totals, "iterations": iter_totals}

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        value, pct = tail(self.iter_s)
        self.tail_percentile = pct
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "iter_s.p50": (statistics.median(self.iter_s), "s"),
            "iter_s.tail": (value, "s"),
            "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        }


# Per-layer metrics: name -> (layer, field, unit).  Each sums one set-up pass
# and the mean traced iteration, i.e. the layer's share of a run of one
# iteration.  Fields: calls, s (inclusive time), self_s (exclusive time),
# or a counter taken at the layer's boundary.
LAYER_METRICS = {
    "lut.reads": ("lut.gather", "reads", "reads"),
    "lut.gather_s": ("lut.gather", "s", "s"),
    "lut.gather_bytes_computed": ("lut.gather", "bytes", "bytes"),
    "lut.build_lut_s": ("lut.build_lut", "s", "s"),
    "pipeline.ip_approx.calls": ("pipeline.ip_approx", "calls", "calls"),
    "pipeline.ip_approx.self_s": ("pipeline.ip_approx", "self_s", "s"),
    "pipeline.column.calls": ("pipeline.column", "calls", "calls"),
    "pipeline.column.self_s": ("pipeline.column", "self_s", "s"),
    "pipeline.matmul_approx.self_s": ("pipeline.matmul_approx", "self_s", "s"),
    "lattices.nearest_coords.rows": ("lattices.nearest_coords", "rows", "rows"),
    "lattices.nearest_coords.s": ("lattices.nearest_coords", "s", "s"),
    "codec.h_encode_many.calls": ("codec.h_encode_many", "calls", "calls"),
    "codec.h_encode_many.rows": ("codec.h_encode_many", "rows", "rows"),
    "codec.h_encode_many.self_s": ("codec.h_encode_many", "self_s", "s"),
    "scaling.encode_scaled_many.self_s": ("scaling.encode_scaled_many", "self_s", "s"),
    "scaling.retry_passes": ("scaling.encode_scaled_many", "passes", "passes"),
    "pipeline.dither_ids.hashes": ("pipeline.dither_ids", "hashes", "hashes"),
    "pipeline.dither_ids.s": ("pipeline.dither_ids", "s", "s"),
    "pipeline.quantize_matrix.self_s": ("pipeline.quantize_matrix", "self_s", "s"),
    "scaling.decode_scaled_many.rows": ("scaling.decode_scaled_many", "rows", "rows"),
    "scaling.decode_scaled_many.self_s": ("scaling.decode_scaled_many", "self_s", "s"),
    "codec.decode_coords_many.self_s": ("codec.decode_coords_many", "self_s", "s"),
    "voronoi.vc_decode_many.rows": ("voronoi.vc_decode_many", "rows", "rows"),
    "voronoi.vc_decode_many.s": ("voronoi.vc_decode_many", "s", "s"),
    "pipeline.save.s": ("pipeline.save", "s", "s"),
    "pipeline.save.bytes": ("pipeline.save", "bytes", "bytes"),
    "pipeline.load.self_s": ("pipeline.load", "self_s", "s"),
    "bench.calibrate_beta0.calls": ("bench.calibrate_beta0", "calls", "calls"),
    "bench.calibrate_beta0.self_s": ("bench.calibrate_beta0", "self_s", "s"),
    "bench.run_dr_ip.self_s": ("bench.run_dr_ip", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def per_layer(run: Run, totals: dict) -> dict[str, tuple[float, str]]:
    setup, iters = totals["setup"], totals["iterations"]
    n = max(iters.passes, 1)

    def get(layer, field):
        return setup.get(layer, field) + iters.get(layer, field) / n

    out = {name: (get(layer, field), unit) for name, (layer, field, unit) in
           LAYER_METRICS.items()}
    builds = get("lut.build_lut", "calls")
    out["lut.table_bytes"] = (get("lut.build_lut", "bytes") / builds if builds else 0.0, "bytes")
    rows = get("scaling.encode_scaled_many", "rows")
    out["scaling.rows_encoded_per_row"] = (
        get("codec.h_encode_many", "rows") / rows if rows else 0.0, "ratio")
    out["scaling.overload_frac"] = (
        get("scaling.encode_scaled_many", "overloaded") / rows if rows else 0.0, "frac")
    untraced = statistics.median(run.iter_s)
    traced = statistics.median(run.traced_iter_s)
    if run.oracle_s:
        oracle = statistics.median(run.oracle_s)
        out["oracle.decode_gemm_s"] = (oracle, "s")
        out["oracle.ratio"] = (statistics.median(run.stages["matmul_s"]) / oracle, "ratio")
    else:
        out["oracle.decode_gemm_s"] = (0.0, "s")
        out["oracle.ratio"] = (0.0, "ratio")
    out["trace.iter_s.p50"] = (traced, "s")
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return out


def _json_metrics(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
                 spoil: bool = False, blas_threads: int) -> int:
    """Run one workload, print its metrics and result line; return the exit status."""
    WORKDIR.mkdir(exist_ok=True)
    w = WORKLOADS[name](seed, smoke, WORKDIR)
    run = Run(w, seconds, trace, min_samples=2 if smoke else MIN_TRACED if trace else MIN_SAMPLES,
              setup_repeats=1 + trace if smoke else SETUP_REPEATS, spoil=spoil)
    totals = run.execute()
    failed = len(run.failures)
    e2e = run.end_to_end()
    workload_metrics = w.metrics(run.stages) if w.ref is not None else {}
    e2e["rate_bits"] = workload_metrics.pop("rate_bits", (float("nan"), "bits"))
    workload_metrics["ops_failed_frac"] = (failed / run.attempted, "frac")
    layers = per_layer(run, totals) if trace else {}
    info = machine(blas_threads)
    table = getattr(w, "lut", None)
    l2 = _kib(info["caches"].get("L2", ""))
    if table is not None and l2:
        info["table_bytes"] = table.nbytes
        info["table_bytes_over_l2"] = table.nbytes / (l2 * 1024)

    for msg in run.failures:
        print(f"FAILED {name}: {msg}")
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("# machine " + json.dumps(info, sort_keys=True))
    print(f"# iterations {len(run.iter_s)} timed (+1 reference), "
          f"{len(run.traced_iter_s)} traced; iter_s.tail is p{run.tail_percentile:.1f} "
          f"of {len(run.iter_s)} samples")
    for k, (v, u) in {**e2e, **workload_metrics, **layers}.items():
        print(f"{k} = {float(v)!r} {u}")
    if trace:
        print("# lut.gather_bytes_computed is reads x item size, computed, not measured")

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "machine": info, "attempted": run.attempted, "failures": run.failures,
        "samples": {"iter_s": run.iter_s, "traced_iter_s": run.traced_iter_s,
                    "setup_s": run.setup_s, "oracle_s": run.oracle_s, **run.stages},
        "iter_s.tail_percentile": run.tail_percentile,
        "end_to_end": _json_metrics(e2e), "workload_metrics": _json_metrics(workload_metrics),
        "per_layer": _json_metrics(layers),
    }
    if trace:
        report["spans"] = {"setup": spans_as_records(run.setup_spans),
                           "last_iteration": spans_as_records(run.last_iter_spans)}
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps(report) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": _json_metrics(layers if trace else e2e),
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def self_check() -> int:
    """The harness must exit non-zero when an output check fails."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py"))]
    status = 0
    clean = subprocess.run(cmd + ["--smoke"], capture_output=True, text=True, timeout=170)
    if clean.returncode != 0:
        print(f"self-check: clean smoke run exited {clean.returncode}\n{clean.stdout}")
        status = 1
    for name in WORKLOADS:
        spoiled = subprocess.run(cmd + ["--smoke", "--workload", name, "--spoil"],
                                 capture_output=True, text=True, timeout=170)
        ok = spoiled.returncode == 1 and f"FAILED {name}" in spoiled.stdout
        print(f"self-check: spoiled {name} output -> exit {spoiled.returncode} "
              f"({'ok' if ok else 'NOT CAUGHT'})")
        status |= 0 if ok else 1
    print("self-check: " + ("passed" if status == 0 else "FAILED"))
    return status


def main(argv=None, *, blas_threads: int) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of hnlq; see perfbench/README.md.")
    ap.add_argument("--workload", help="amm-d4, store-a2 or dr-ip-d4")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small shapes and a few iterations; every workload unless --workload")
    ap.add_argument("--spoil", action="store_true",
                    help="corrupt one output before its check (used by --self-check)")
    ap.add_argument("--self-check", action="store_true",
                    help="check that a corrupted output makes the run exit non-zero")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        status = 0
        for name in names:
            status |= run_workload(name, args.seed, 0.0, bool(args.trace), smoke=True,
                                   spoil=args.spoil, blas_threads=blas_threads)
        return status
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        spoil=args.spoil, blas_threads=blas_threads)

