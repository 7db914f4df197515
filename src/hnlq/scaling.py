"""Overload avoidance by geometric rescaling, plus rate accounting.

A vector is divided by beta0 * 2^(alpha T) with the smallest T >= 0 that
encodes without overload; T is transmitted alongside the digits, so the
effective rate is the nominal M log2 q plus the empirical entropy of T
per dimension.  Optionally a dither point drawn from the scaled-down
single-layer codebook is subtracted before encoding and added back after.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codec import (
    HierarchicalParams,
    _dither_points,
    decode_coords_many,
    h_encode_many,
    outer_nesting_ratio,
)
from .errors import UnencodableError
from .lattices import _as_float
from .voronoi import vc_decode_many  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "ScalingConfig",
    "encode_scaled_many",
    "decode_scaled_many",
    "dither_point",
    "empirical_rate",
    "entropy_bits",
]


@dataclass(frozen=True)
class ScalingConfig:
    """Base step beta0 > 0, growth exponent alpha > 0, retry budget; every rung finite."""

    beta0: float
    alpha: float = 1.0 / 3.0
    max_retries: int = 60

    def __post_init__(self):
        if not self.beta0 > 0:
            raise ValueError("beta0 must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not isinstance(self.max_retries, numbers.Integral) or self.max_retries < 0:
            raise ValueError("max_retries must be an integer >= 0")
        try:  # rungs grow with t, so the top one bounds beta0 and the rest
            with np.errstate(over="ignore", invalid="ignore"):  # numpy scalars give inf or nan
                top = self.scale(self.max_retries)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError("a rung beta0 * 2^(alpha t) leaves the float range: lower max_retries")

    def scale(self, T: int | np.ndarray) -> float | np.ndarray:
        return self.beta0 * 2.0 ** (self.alpha * T)

    @property
    def retry_dtype(self) -> np.dtype:
        """Type of the retry counts T: the smallest unsigned one that holds
        max_retries + 1, the count a row reaches when it fails the top rung,
        so T + 1 never wraps.  uint8 up to max_retries = 254."""
        return np.min_scalar_type(int(self.max_retries) + 1)


def dither_point(params: HierarchicalParams, b_z: np.ndarray) -> np.ndarray:
    """Dither vector for digit id b_z: a single-layer codebook point over q.

    Always lies inside the base Voronoi cell (up to the tie-break).
    """
    b_z = np.asarray(b_z)
    if b_z.shape != (params.lat.d,):
        raise ValueError(f"dither id must have shape ({params.lat.d},)")
    return _dither_points(params, b_z)


def _resolve_dither(params, X_shape, dither_ids):
    """Dither points for rows of X_shape (..., d), or None; one id (d,) serves
    every row, so its point is computed once and broadcast."""
    if dither_ids is None:
        return None
    ids = np.asarray(dither_ids)
    if ids.ndim == 1:
        return np.broadcast_to(dither_point(params, ids), X_shape)
    if ids.shape != X_shape[:-1] + (params.lat.d,):
        raise ValueError("dither ids must broadcast to the batch shape")
    return _dither_points(params, ids)


# Relative allowance for float rounding in the gauge, in x / scale and in the
# decoders, none of which comes near one part in 1e9 of the threshold.
_GAUGE_RTOL = 1e-9


def encode_scaled_many(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    X: np.ndarray,
    dither_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode rows of X (N, d) with per-row retry counts.

    Returns (digits (N, M, d), T (N,)), the digits of type
    ``voronoi.digit_dtype(q)`` and T of ``cfg.retry_dtype``: M d + 1 bytes
    per row for q <= 256 and max_retries <= 254.  Both are unsigned, so cast
    them before subtracting.  Raises ValueError on non-finite or complex
    input and UnencodableError when some row still overloads at
    T = max_retries.  A row whose lattice coordinates at a rung could leave
    int64 overloads at that rung without being quantized; if one still
    could at T = max_retries, the error is raised before any encoding.

    Each row runs its own ladder, and one pass encodes every unfinished row
    at its current rung.  A row starts at the first rung within int64 reach;
    if that overloads, it jumps to the first rung at which the outer
    inclusion of the codebook lets it fit (``Lattice.gauge``).  Every rung
    skipped either way overloads, so digits and T are those of trying each
    rung in turn.
    """
    X = _as_float(X)
    lat = params.lat
    flatX = X.reshape(-1, lat.d)
    top = np.abs(flatX).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("cannot encode non-finite values")
    Z = _resolve_dither(params, X.shape, dither_ids)
    flatZ = None if Z is None else Z.reshape(-1, lat.d)
    # Rung t is cfg.scale of the Python int t, the float a scalar call gives.
    scales = np.array([cfg.scale(t) for t in range(cfg.max_retries + 1)])
    n = flatX.shape[0]
    # |coordinates| <= max|x| * max row sum of |G^-1|; 2^62 leaves room for the dither.
    reach = 2.0**62 / float(np.abs(lat.G_inv).sum(axis=1).max())
    T = np.zeros(n, dtype=cfg.retry_dtype)
    if top >= reach * cfg.beta0:  # some row could leave int64: start past those rungs
        with np.errstate(over="ignore"):  # a reach past the float range fits every row
            T[:] = np.searchsorted(reach * scales, np.abs(flatX).max(axis=-1), side="right")
        lost = np.count_nonzero(T >= scales.size)
        if lost:
            raise UnencodableError(f"{lost} vector(s) still overload after {cfg.max_retries} retries")

    # Gauge bound.  Let e be the tie breaker in the lattice's frame, eta = g(e),
    # z the dither (zero without) and y = x / s - z the quantizer's input.  Its
    # nearest point l has g(y + e - l) <= 1.  A layer codebook row lies in
    # q (V - e), so a codeword, sum_m q^m rows, has g <= B (1 + eta) with
    # B = q + ... + q^M, and so has a dither, a row over q: g(z) <= 1 + eta.
    # A row that does not overload decodes to l, a codeword, so
    #   g(x) / s = g(l + (y + e - l) - e + z) <= (B + 1 + [dithered]) (1 + eta).
    # At any rung where g(x) exceeds s times that bound the row overloads.
    bound = (outer_nesting_ratio(params.q, params.M) + 1 + (flatZ is not None)) * (
        1.0 + float(lat.gauge(lat.eps))
    )
    # The first pass encodes every row at its start rung.
    sub = flatX / scales[T][:, None]
    if flatZ is not None:
        sub -= flatZ
    digits, ov = h_encode_many(params, sub)
    active = np.flatnonzero(ov)
    if active.size:  # the gauge, only for rows that overload at their start
        with np.errstate(over="ignore"):
            fit = np.searchsorted(scales * (bound * (1.0 + _GAUGE_RTOL)), lat.gauge(flatX[active]))
        T[active] = np.maximum(T[active] + 1, fit)
    failed = 0
    while active.size:
        past = T[active] >= scales.size
        if past.any():
            failed += np.count_nonzero(past)
            active = active[~past]
            continue
        sub = flatX[active] / scales[T[active]][:, None]
        if flatZ is not None:
            sub -= flatZ[active]
        dg, ov = h_encode_many(params, sub)
        done = ~ov
        digits[active[done]] = dg[done]
        active = active[ov]
        T[active] += 1
    if failed:
        raise UnencodableError(f"{failed} vector(s) still overload after {cfg.max_retries} retries")
    return digits.reshape(X.shape[:-1] + (params.M, lat.d)), T.reshape(X.shape[:-1])


def decode_scaled_many(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    digits: np.ndarray,
    T: np.ndarray,
    dither_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Reconstruct rows from digits (..., M, d) and per-row T (...,)."""
    coords = decode_coords_many(params, digits)
    pts = params.lat.point_of(coords)
    Z = _resolve_dither(params, pts.shape, dither_ids)
    if Z is not None:
        pts = pts + Z
    scale = np.asarray(cfg.scale(np.asarray(T)))[..., None]
    return scale * pts


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
    T = np.asarray(T_samples, dtype=np.int64).ravel()
    if T.size == 0:
        raise ValueError("need at least one T sample")
    _, counts = np.unique(T, return_counts=True)
    return params.bits_per_dim + entropy_bits(counts) / params.lat.d
