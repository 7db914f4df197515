"""Span tracing around the calls into each hnlq module.

Spans are recorded from the benchmark's side only.  For the length of one
traced pass, the tracer replaces the module attributes through which hnlq
looks up the next layer (``hnlq.pipeline.encode_scaled_many`` is the name
``quantize_matrix`` calls, ``hnlq.bench.ip_approx`` the one ``run_dr_ip``
calls) with wrappers, and puts the originals back when the pass ends.
Where a layer has no public entry point, the module helper the public
function calls is wrapped: ``pipeline._dither_digit_ids`` for dither ids and
``InnerProductLUT._gather`` for the table gather.

A span is ``[layer, start, end, parent, pass id, time covered by children]``.
Calls are nested on one thread, so child spans never overlap and a span's
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from hnlq import bench, cli, codec, lattices, lut, pipeline, scaling


# Counters taken at the same boundary as the span: (args, result) -> {key: n}.
def _count_rows(args, res):
    """Rows of a (..., d) result."""
    return {"rows": res.size // res.shape[-1]}


def _count_h_encode(args, res):
    return {"rows": res[1].size}


def _count_encode_scaled(args, res):
    T = res[1]
    return {
        "rows": T.size,
        "overloaded": int(np.count_nonzero(T)),
        "passes": int(T.max()) + 1 if T.size else 0,
    }


def _count_dither_ids(args, res):
    cfg, _col, K = args
    return {"hashes": K if cfg.dither_mode == "random" else 0}


def _count_gather(args, res):
    return {"reads": res.size, "bytes": res.nbytes}


def _count_table(args, res):
    return {"bytes": res.nbytes}


def _count_file(args, res):
    return {"bytes": os.path.getsize(args[1])}


# Layer name, the (owner, attribute) pairs its callers look it up by, counter.
LAYERS = [
    ("lattices.nearest_coords", [(lattices.Lattice, "nearest_coords")], _count_rows),
    ("voronoi.vc_decode_many",
     [(codec, "vc_decode_many"), (scaling, "vc_decode_many")], _count_rows),
    ("codec.h_encode_many", [(scaling, "h_encode_many"), (bench, "h_encode_many")],
     _count_h_encode),
    ("codec.decode_coords_many", [(scaling, "decode_coords_many")], None),
    ("scaling.encode_scaled_many",
     [(pipeline, "encode_scaled_many"), (bench, "encode_scaled_many")],
     _count_encode_scaled),
    ("scaling.decode_scaled_many",
     [(scaling, "decode_scaled_many"), (pipeline, "decode_scaled_many"),
      (bench, "decode_scaled_many")], _count_rows),
    ("lut.build_lut", [(lut, "build_lut"), (bench, "build_lut")], _count_table),
    ("lut.gather", [(lut.InnerProductLUT, "_gather")], _count_gather),
    ("pipeline.dither_ids", [(pipeline, "_dither_digit_ids")], _count_dither_ids),
    ("pipeline.quantize_matrix", [(pipeline, "quantize_matrix"), (bench, "quantize_matrix")],
     None),
    ("pipeline.column", [(pipeline.QuantizedMatrix, "column")], None),
    ("pipeline.ip_approx", [(pipeline, "ip_approx"), (bench, "ip_approx")], None),
    ("pipeline.matmul_approx", [(pipeline, "matmul_approx")], None),
    ("pipeline.save", [(pipeline, "save_quantized_matrix")], _count_file),
    ("pipeline.load", [(pipeline, "load_quantized_matrix")], None),
    ("bench.calibrate_beta0", [(bench, "calibrate_beta0")], None),
    ("bench.run_dr_ip", [(cli, "run_dr_ip")], None),
    ("cli.main", [(cli, "main")], None),
]


class LayerTotals:
    """Per-layer sums over one or more passes: calls, time, self time, counts."""

    def __init__(self):
        self.passes = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def add(self, spans: list[list], counts: dict) -> None:
        self.passes += 1
        for layer, start, end, _parent, _pid, child_s in spans:
            self.calls[layer] += 1
            self.total_s[layer] += end - start
            self.self_s[layer] += end - start - child_s
        for key, v in counts.items():
            self.counts[key] += v

    def get(self, layer: str, field: str) -> float:
        if field == "calls":
            return self.calls[layer]
        if field == "s":
            return self.total_s[layer]
        if field == "self_s":
            return self.self_s[layer]
        return self.counts[(layer, field)]


class Tracer:
    """Records spans for passes entered through :meth:`root`."""

    def __init__(self):
        self.last_spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn, count, spans, counts, pass_id):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [layer, 0.0, 0.0, parent, pass_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                spans[parent][5] += span[2] - span[1]
            if count is not None:
                for key, v in count(args, res).items():
                    counts[(layer, key)] += v
            return res

        return traced

    @contextmanager
    def root(self, pass_id, into: LayerTotals):
        """Trace one pass (set-up or one iteration) and add it to ``into``.

        The wrappers are installed only inside this block, so code the
        benchmark runs between passes, its output checks included, runs
        untraced.
        """
        spans = [["pass", 0.0, 0.0, -1, pass_id, 0.0]]
        counts = defaultdict(float)
        saved = []
        for layer, sites, count in LAYERS:
            for owner, attr in sites:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, count, spans, counts, pass_id))
        self._stack[:] = [0]
        spans[0][1] = perf_counter()
        try:
            yield
        finally:
            spans[0][2] = perf_counter()
            self._stack.clear()
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
        self.last_spans = spans
        into.add(spans, counts)


def spans_as_records(spans: list[list]) -> list[dict]:
    """Spans of one pass as JSON-ready records, times relative to its start."""
    t0 = spans[0][1]
    return [
        {"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3], "pass": s[4]}
        for s in spans
    ]


def self_time_sum(spans: list[list]) -> float:
    """Sum of every span's self time; equals the root's duration."""
    return sum(end - start - child for _l, start, end, _p, _i, child in spans)
