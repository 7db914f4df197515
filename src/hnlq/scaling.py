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

import numpy as np

from .codec import (
    HierarchicalEncoding,
    HierarchicalParams,
    _layer_coords,
    decode_coords_many,
    h_encode_many,
)
from .errors import UnencodableError
from .voronoi import vc_decode_many  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "ScalingConfig",
    "ScaledEncoding",
    "encode_scaled",
    "encode_scaled_many",
    "decode_scaled",
    "decode_scaled_many",
    "dither_point",
    "empirical_rate",
    "entropy_bits",
]


@dataclass(frozen=True)
class ScalingConfig:
    """Base step beta0 > 0, growth exponent alpha > 0, retry budget."""

    beta0: float
    alpha: float = 1.0 / 3.0
    max_retries: int = 60

    def __post_init__(self):
        if not self.beta0 > 0:
            raise ValueError("beta0 must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def scale(self, T: int | np.ndarray) -> float | np.ndarray:
        return self.beta0 * 2.0 ** (self.alpha * T)


@dataclass(frozen=True, eq=False)
class ScaledEncoding:
    """A non-overloaded encoding, its retry count and optional dither id."""

    enc: HierarchicalEncoding
    T: int
    dither_id: np.ndarray | None = None


def dither_point(params: HierarchicalParams, b_z: np.ndarray) -> np.ndarray:
    """Dither vector for digit id b_z: a single-layer codebook point over q.

    Always lies inside the base Voronoi cell (up to the tie-break).
    """
    b_z = np.asarray(b_z)
    if b_z.shape != (params.lat.d,):
        raise ValueError(f"dither id must have shape ({params.lat.d},)")
    return params.lat.point_of(_layer_coords(params, b_z)) / params.q


def _resolve_dither(params, X_shape, dither_ids):
    if dither_ids is None:
        return None, None
    ids = np.asarray(dither_ids)
    if ids.ndim == 1:
        ids = np.broadcast_to(ids, X_shape[:-1] + ids.shape)
    if ids.shape != X_shape[:-1] + (params.lat.d,):
        raise ValueError("dither ids must broadcast to the batch shape")
    return ids, params.lat.point_of(_layer_coords(params, ids)) / params.q


def encode_scaled_many(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    X: np.ndarray,
    dither_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode rows of X (N, d) with per-row retry counts.

    Returns (digits (N, M, d), T (N,)).  Raises ValueError on non-finite
    input and UnencodableError when some row still overloads at
    T = max_retries.  A row whose scaled lattice coordinates could leave
    int64 overloads at that scale without being quantized; if one still
    could at T = max_retries, the error is raised before any encoding.
    """
    X = np.asarray(X, dtype=np.float64)
    flatX = X.reshape(-1, params.lat.d)
    top = np.abs(flatX).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("cannot encode non-finite values")
    _, Z = _resolve_dither(params, X.shape, dither_ids)
    flatZ = None if Z is None else Z.reshape(-1, params.lat.d)
    # |coordinates| <= max|x| * max row sum of |G^-1|; 2^62 leaves room for the dither.
    reach = 2.0**62 / float(np.abs(params.lat.G_inv).sum(axis=1).max())
    if top >= reach * cfg.beta0:  # some row could leave int64: per-row magnitudes
        mag = np.abs(flatX).max(axis=-1)
        with np.errstate(over="ignore"):  # a scale past the float range fits every row
            lost = np.count_nonzero(mag >= reach * cfg.scale(np.float64(cfg.max_retries)))
        if lost:
            raise UnencodableError(f"{lost} vector(s) still overload after {cfg.max_retries} retries")

    n = flatX.shape[0]
    digits = np.zeros((n, params.M, params.lat.d), dtype=np.int64)
    T = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for t in range(cfg.max_retries + 1):
        beta = cfg.scale(t)
        # A row that could leave int64 at this scale overloads here unquantized;
        # a pass with no row left to quantize is skipped.
        run = active if top < reach * beta else active[mag[active] < reach * beta]
        if run.size:
            sub = flatX[run] / beta
            if flatZ is not None:
                sub = sub - flatZ[run]
            dg, ov = h_encode_many(params, sub)
            digits[run] = dg
            T[run] = t
            active = run[ov] if run is active else np.setdiff1d(active, run[~ov], assume_unique=True)
        if active.size == 0:
            break
    if active.size:
        raise UnencodableError(
            f"{active.size} vector(s) still overload after {cfg.max_retries} retries"
        )
    return digits.reshape(X.shape[:-1] + (params.M, params.lat.d)), T.reshape(X.shape[:-1])


def encode_scaled(
    params: HierarchicalParams,
    cfg: ScalingConfig,
    x: np.ndarray,
    dither_id: np.ndarray | None = None,
) -> ScaledEncoding:
    """Encode one vector, growing the scale until nothing overloads."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.lat.d,):
        raise ValueError(f"expected shape ({params.lat.d},), got {x.shape}")
    digits, T = encode_scaled_many(params, cfg, x[None], dither_ids=dither_id)
    enc = HierarchicalEncoding(digits=digits[0], overload=False)
    did = None if dither_id is None else np.asarray(dither_id, dtype=np.int64)
    return ScaledEncoding(enc=enc, T=int(T[0]), dither_id=did)


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
    _, Z = _resolve_dither(params, pts.shape, dither_ids)
    if Z is not None:
        pts = pts + Z
    scale = np.asarray(cfg.scale(np.asarray(T)))[..., None]
    return scale * pts


def decode_scaled(params: HierarchicalParams, cfg: ScalingConfig, se: ScaledEncoding) -> np.ndarray:
    """Reconstruct one vector: 2^(alpha T) beta0 (decoded point + dither)."""
    return decode_scaled_many(
        params, cfg, se.enc.digits[None], np.array([se.T]), dither_ids=se.dither_id
    )[0]


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
