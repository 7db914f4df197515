"""Overload avoidance by geometric rescaling, plus rate accounting.

A vector is divided by beta0 * 2^(alpha T) with the smallest T >= 0 that
encodes without overload; T is transmitted alongside the digits, so the
effective rate is the nominal M log2 q plus the empirical entropy of T
per dimension.  Optionally a dither point drawn from the scaled-down
single-layer codebook is subtracted before encoding and added back after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import (
    HierarchicalParams,
    _dither_points,
    _dither_rows,
    _items,
    _sum_layers,
    decode_coords_many,
    h_encode_many,
)
from .errors import UnencodableError
from .lattices import _as_float, _columns, _positive
from .voronoi import digit_dtype
from .voronoi import vc_decode_many  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "MAX_RETRIES",
    "ScalingConfig",
    "encode_scaled_many",
    "decode_scaled_many",
    "empirical_rate",
    "entropy_bits",
]


# Rungs past rung 0 of every ladder.  T is uint8, the smallest unsigned type
# that holds MAX_RETRIES + 1, the count a row reaches when it fails the top
# rung, so T + 1 never wraps.
MAX_RETRIES = 60


@dataclass(frozen=True)
class ScalingConfig:
    """Base step beta0 > 0 and growth exponent alpha > 0, every rung
    beta0 * 2^(alpha t), t = 0..MAX_RETRIES, a finite float."""

    beta0: float
    alpha: float = 1.0 / 3.0

    def __post_init__(self):
        _positive("beta0", self.beta0)
        _positive("alpha", self.alpha)
        try:  # rungs grow with t, so the top one bounds beta0 and the rest
            with np.errstate(over="ignore", invalid="ignore"):  # numpy scalars give inf or nan
                top = self.scale(MAX_RETRIES)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"rung {MAX_RETRIES} leaves the float range: lower alpha or beta0")

    def scale(self, T: int | np.ndarray) -> float | np.ndarray:
        return self.beta0 * 2.0 ** (self.alpha * T)

    @property
    def _rungs(self) -> np.ndarray:
        """Read-only scales of rungs 0..MAX_RETRIES (``_ladder``)."""
        return _ladder(self.beta0, self.alpha)


@lru_cache(maxsize=256, typed=True)
def _ladder(beta0, alpha) -> np.ndarray:
    """Read-only rung scales of every config with these fields (of these
    types), built once: calibration scores a new config per candidate, and
    every cell of a sweep scores the same grid.  Rung t is ``scale`` of the
    Python int t, the float a scalar call gives."""
    cfg = ScalingConfig(beta0, alpha)
    rungs = np.array([cfg.scale(t) for t in range(MAX_RETRIES + 1)])
    rungs.setflags(write=False)
    return rungs


# Elements (rows x d) of the float input per row block of the codec: encode,
# decode, random dither ids and NLQM records, so each float64 temporary of a
# block is 512 KiB.  On a 2 MiB L2 cache, quantizing the store-a2 matrix
# (131,072 a2 rows) took 16.6 ms at 2^16 against 19.6 ms in one block, and
# d4 M=2 and M=3 over 64,000 rows 12.9 and 14.3 ms against 15.7 and 17.3 (best
# of 20, interleaved).  2^15 was 1.05-1.13x slower, 2^17 and 2^18 1.1-1.3x, and
# 2^13 1.3-1.8x, where each pass's fixed cost dominates.
_CODEC_BLOCK = 2**16


def _blocks(n: int, per: int) -> list[slice]:
    """Slices covering range(n) in blocks of _CODEC_BLOCK elements, ``per`` to
    an item (at least one item a block); one empty block when n = 0.  The
    codec's items are the entries of an array's leading axis."""
    step = max(1, _CODEC_BLOCK // per)
    return [slice(i, min(i + step, n)) for i in range(0, max(n, 1), step)]


def _blockwise(fn, blocks: list[slice], shape: tuple, dtype) -> np.ndarray:
    """fn(block) of every block, reshaped into entries ``block`` of axis 0 of an
    array of shape and dtype.  A single block's result is returned as it is,
    reshaped: a call that fits one block allocates nothing more than one
    unblocked call."""
    if len(blocks) == 1:
        return fn(blocks[0]).reshape(shape)
    out = np.empty(shape, dtype=dtype)
    for b in blocks:
        out[b] = fn(b).reshape(out[b].shape)
    return out


# Relative allowance for float rounding in the start bound, in x / scale and
# in the decoders, none of which comes near one part in 1e9 of the threshold.
_GAUGE_RTOL = 1e-9


def encode_scaled_many(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    X: np.ndarray,
    dither_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode rows of X (..., d) with per-row retry counts.

    Returns (digits (..., M, d), T (...)), the digits of type
    ``voronoi.digit_dtype(q)`` and T uint8: M d + 1 bytes per row for
    q <= 256.  Both are unsigned, so cast them before subtracting.  Raises
    ValueError on non-finite or complex input or a trailing axis other than
    d, and UnencodableError when some row still overloads at T =
    MAX_RETRIES.  A row whose lattice coordinates at a rung could leave
    int64 overloads at that rung without being quantized; if one still
    could at T = MAX_RETRIES, the error is raised before any encoding.

    Each row runs its own ladder, and one pass encodes every unfinished row
    at its current rung.  A row starts at the first rung within int64 reach;
    if it overloads there, it jumps to the first later rung that the layer
    codebook's support along each relevant vector allows
    (``HierarchicalParams._fit_weights``), so only those rows are bounded.
    Every rung skipped overloads, so digits and T are those of trying each
    rung in turn.  Rows are independent, so they run in
    blocks of entries of X's leading axis, about ``_CODEC_BLOCK`` elements
    (at least one entry) a block, each block's rows taken from X on their
    own: a strided X, as the transposed columns ``quantize_matrix`` passes,
    is never copied whole.  Errors count the rows of every block.

    ``dither_ids`` is None, one id (d,) for every row, or the rows' ids
    (..., d) (``codec._dither_rows``): one id's point is computed once and
    broadcast, per-row ids are looked up block by block.
    """
    X = _as_float(X)
    lat = params.lat
    if X.shape[-1:] != (lat.d,):
        raise ValueError(f"rows must have trailing axis d = {lat.d}, got shape {X.shape}")
    top = np.abs(X).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("cannot encode non-finite values")
    rows = X if X.ndim > 1 else X[None]  # blocks run over its leading axis
    dither = _dither_rows(lat.d, rows.shape[:-1], dither_ids, lambda i: _dither_points(params, i))
    T = _start_rungs(lat, cfg, rows, top)
    W = params._fit_weights[dither_ids is not None]
    failures = []

    def encode(b):
        Xb = rows[b].reshape(-1, lat.d)
        # T[b] of the contiguous T is a view, so the block's final rungs land in T.
        digits, failed = _encode_block(params, cfg._rungs[None], lambda i: _need(W, Xb[i]), Xb,
                                       T[b].reshape(-1), dither(b))
        failures.append(failed)
        return digits

    digits = _blockwise(encode, _blocks(len(rows), math.prod(rows.shape[1:])),
                        T.shape + (params.M, lat.d), digit_dtype(params.q))
    _raise_if_failed(sum(failures))
    return digits.reshape(X.shape[:-1] + (params.M, lat.d)), T.reshape(X.shape[:-1])


def _raise_if_failed(failed: int) -> None:
    if failed:
        raise UnencodableError(f"{failed} vector(s) still overload after {MAX_RETRIES} retries")


def _start_rungs(lat, cfg: ScalingConfig, rows: np.ndarray, top: float) -> np.ndarray:
    """Rungs (...) at which rows (..., d) with max |entry| top start: the first
    within int64 reach, 0 for rows far from it.  Raises UnencodableError when
    some row is past reach at every rung."""
    scales = cfg._rungs
    # |coordinates| <= max|x| * max row sum of |G^-1|; 2^62 leaves room for the dither.
    reach = 2.0**62 / float(np.abs(lat.G_inv).sum(axis=1).max())
    T = np.zeros(rows.shape[:-1], dtype=np.uint8)
    if top >= reach * cfg.beta0:  # some row could leave int64: start past those rungs
        with np.errstate(over="ignore"):  # a reach past the float range fits every row
            T[:] = np.searchsorted(reach * scales, np.abs(rows).max(axis=-1), side="right")
        _raise_if_failed(np.count_nonzero(T >= scales.size))
    return T


def _need(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Least scale at which each row of X (rows, d) can fit, by the bound W of
    ``HierarchicalParams._fit_weights``: the max over its rows of
    (w_v / b_v) . x, inf past the float range.  Rows run in blocks whose
    products (rows of W x rows) hold _CODEC_BLOCK elements."""
    need = np.empty(len(X))
    with np.errstate(over="ignore"):
        for b in _blocks(len(X), len(W)):
            np.max(W @ _columns(X[b]), axis=0, out=need[b])
    return need


def _encode_block(params, scales, need, X, T, Z, rung=None, sub=None):
    """Encode C stacked copies of the rows X (n, d), copy c on ladder c of the
    rung table ``scales`` (C, R): stacked row c n + i is X[i] divided by
    scales[c, T[c n + i]].  T (C n,) holds the start rungs, which become the
    final rungs in place; Z is the rows' dither points (n x d values in any
    shape) or None.  Returns digits (C n, M, d) and the count of stacked rows
    that still overload at the top rung.  The first pass's row scales and
    input go into ``rung`` (C n,) and ``sub`` (C n, d) when given.

    The first pass encodes every row at its start rung.  A row that
    overloads there steps one rung when need is None, the caller having
    raised every start to the first rung the bound allows; otherwise (one
    ladder) it jumps to the first later rung that need(i), ``_need`` of rows
    X[i], allows.  Every rung skipped overloads, and rows are independent, so
    each stacked row's digits and rung are those of encoding its copy alone.
    """
    C, R = scales.shape
    n, d = X.shape
    at = T.reshape(C, n)  # each row's index into the flat scales
    if C > 1:
        at = at + R * np.arange(C)[:, None]
    scale = np.take(scales, at, out=None if rung is None else rung.reshape(C, n))
    sub = np.divide(X, scale[..., None], out=None if sub is None else sub.reshape(C, n, d))
    if Z is not None:
        Z = Z.reshape(X.shape)
        sub -= Z
    digits, ov = h_encode_many(params, sub.reshape(C * n, d))
    active = np.flatnonzero(ov)
    if active.size and need is None:  # past the bound already, so the next rung
        T[active] += 1
    elif active.size:  # the bound, only for rows that overload at their start
        fits = scales[0] * (1.0 + _GAUGE_RTOL)
        T[active] = np.maximum(T[active] + 1, np.searchsorted(fits, need(active)))
    failed = 0
    while active.size:
        past = T[active] >= R
        if past.any():
            failed += np.count_nonzero(past)
            active = active[~past]
            continue
        c, i = np.divmod(active, n)
        sub = X[i] / scales[c, T[active]][:, None]
        if Z is not None:
            sub -= Z[i]
        dg, ov = h_encode_many(params, sub)
        done = ~ov  # each finished row's M d digits move as one item
        rows = _items(dg.reshape(len(dg), -1))
        _items(digits.reshape(len(digits), -1))[active[done]] = rows[done]
        active = active[ov]
        T[active] += 1
    return digits, failed


class _Pilot:
    """Finite rows X (n, d), undithered, that one caller encodes and decodes
    at many ladders: the beta0 candidates of one ``bench.calibrate_beta0``.

    Holds what every ladder shares: the rows' bound (``_need``) and one
    (4, stack n, d) block of work arrays for the first pass's input and for
    the decode of up to ``stack`` configs at once.  They live as long as the
    object, which its caller drops when done; nothing ``mse`` returns is one
    of them.
    """

    def __init__(self, params: HierarchicalParams, X: np.ndarray, stack: int = 1):
        self.params, self.X = params, X
        self.top = np.abs(X).max(initial=0.0)
        self._bound = _need(params._fit_weights[False], X)
        self._rung = np.empty(stack * len(X))
        self._work = np.empty((4, stack * len(X), X.shape[1]))
        self._sub, self._pts = self._work[0], self._work[1]
        self._acc, self._rows = self._work[2].view(np.int64), self._work[3].view(np.int64)

    def mse(self, cfgs: list[ScalingConfig]) -> list[tuple[float, np.ndarray]]:
        """(mean squared error per dimension, T) of X encoded at each config
        and decoded: the float and the counts of ``encode_scaled_many`` then
        ``decode_scaled_many``, bit for bit.  The configs, at most ``stack``
        of them, run as one stacked encode (``_encode_block``) and one
        decode; a config whose rows still overload raises UnencodableError,
        the first such in the list."""
        p, X, n = self.params, self.X, len(self.X)
        rows = len(cfgs) * n
        T = np.concatenate([_start_rungs(p.lat, cfg, X, self.top) for cfg in cfgs])
        Ts = T.reshape(len(cfgs), n)
        # Every row starts at the first rung its bound allows; a row that fits
        # no rung starts at the top one, overloads and fails there.
        for cfg, t in zip(cfgs, Ts):
            first = np.searchsorted(cfg._rungs * (1.0 + _GAUGE_RTOL), self._bound)
            np.maximum(t, np.minimum(first, MAX_RETRIES), out=t, casting="unsafe")
        digits, failed = _encode_block(p, np.stack([cfg._rungs for cfg in cfgs]), None, X, T,
                                       None, self._rung[:rows], self._sub[:rows])
        if failed:  # a failed row ends one past its top rung
            for t in Ts:
                _raise_if_failed(np.count_nonzero(t > MAX_RETRIES))
        sub = self._sub[:rows]
        np.copyto(sub, _sum_layers(p, digits, range(p.M), self._acc[:rows], self._rows[:rows]))
        err = np.matmul(sub, p.lat.G.T, out=self._pts[:rows])  # lat.point_of of the sums
        out = []
        for cfg, t, e in zip(cfgs, Ts, err.reshape(len(cfgs), n, -1)):
            np.multiply(np.asarray(cfg.scale(t))[..., None], e, out=e)
            np.subtract(X, e, out=e)
            out.append((float(np.einsum("ij,ij->i", e, e).mean() / p.lat.d), t))
        return out


def decode_scaled_many(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    digits: np.ndarray,
    T: np.ndarray,
    dither_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Reconstruct rows from digits (..., M, d) and per-row T (...,).

    T must be a non-negative integer array of shape ``digits.shape[:-2]``
    (shape () for one row); anything else raises ValueError.  Rows decode in
    blocks of entries of the leading axis, as ``encode_scaled_many`` encodes
    them, and take ``dither_ids`` in its three forms.
    """
    digits = np.asarray(digits)
    M, d = params.M, params.lat.d
    if digits.shape[-2:] != (M, d):
        raise ValueError(f"digits must have trailing shape ({M}, {d}), got {digits.shape}")
    batch = digits.shape[:-2]
    T = np.asarray(T)
    if not np.issubdtype(T.dtype, np.integer) or T.shape != batch:
        raise ValueError(f"T must be an integer array of shape {batch}, "
                         f"got {T.dtype} of shape {T.shape}")
    if T.min(initial=0) < 0:
        raise ValueError("T must not be negative")
    if not batch:
        digits, T = digits[None], T[None]
    dither = _dither_rows(d, T.shape, dither_ids, lambda i: _dither_points(params, i))
    out = _blockwise(
        lambda b: _decode_block(params, cfg, digits[b].reshape(-1, M, d), T[b].reshape(-1),
                                dither(b)),
        _blocks(len(T), math.prod(T.shape[1:]) * d), T.shape + (d,), np.float64)
    return out.reshape(batch + (d,))


def _decode_block(params, cfg, digits, T, Z):
    """Rows (rows, d) of digits (rows, M, d), T (rows,) and the rows' dither
    points Z (rows x d values in any shape) or None."""
    pts = params.lat.point_of(decode_coords_many(params, digits))
    if Z is not None:
        pts = pts + Z.reshape(pts.shape)
    return np.asarray(cfg.scale(T))[..., None] * pts


def entropy_bits(counts) -> float:
    """Plug-in Shannon entropy (bits) of a histogram; 0 log 0 taken as 0."""
    c = np.asarray(list(counts), dtype=np.float64)
    if c.size == 0 or c.sum() <= 0:
        raise ValueError("empty histogram")
    p = c / c.sum()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def empirical_rate(params: HierarchicalParams, T_samples) -> float:
    """Empirical rate in bits per dimension: M log2 q + H(T) / d.

    Uses the plug-in entropy of the observed retry counts; no entropy
    coder is involved.
    """
    T = np.asarray(T_samples)
    if T.size == 0:
        raise ValueError("need at least one T sample")
    return params.bits_per_dim + entropy_bits(_retry_histogram(T)[1]) / params.lat.d


def _retry_histogram(T) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts) of the retry counts T, values ascending, counts > 0:
    by ``np.bincount`` for an unsigned T of at most 2 bytes (the encoder's
    uint8 among them), else ``np.unique`` as int64."""
    T = np.asarray(T).ravel()
    if T.dtype.kind == "u" and T.dtype.itemsize <= 2:
        counts = np.bincount(T)
        vals = np.flatnonzero(counts)
        return vals, counts[vals]
    return np.unique(T.astype(np.int64), return_counts=True)
