"""Hierarchical nested-lattice codec.

Encodes a vector as M base-q digit vectors by repeatedly quantizing,
reducing mod q and shrinking by q.  Only the first quantization runs the
nearest-point decoder: each later one is exact coset arithmetic through
the layer codebook (``_layer_coords``).  Layer m of the decoder contributes
q^m times a coset representative, so the reconstruction always equals the
nearest lattice point minus the M-fold coarsened quantization of the
input; the codebook is exact whenever that coarse term is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import Lattice, in_scaled_voronoi_many
from .voronoi import (
    LAYER_CODEBOOK_MAX,
    VoronoiCodeParams,
    digit_dtype,
    digit_grid,
    digits_to_index,
    vc_decode_many,
)

__all__ = [
    "HierarchicalParams",
    "SandwichReport",
    "h_encode_many",
    "decode_coords_many",
    "q_circ_many",
    "layer_codebook_coords",
    "enumerate_codebook",
    "verify_sandwich",
    "nesting_radius_ratio",
    "reduced_nesting_ratio",
    "outer_nesting_ratio",
]

ENUMERATION_GUARD = 2**24
# Largest inner-product table, q^(2d) entries, that lut.build_lut builds:
# the square of the largest cached layer codebook.
LUT_GUARD = LAYER_CODEBOOK_MAX**2


@dataclass(frozen=True, eq=False)
class HierarchicalParams:
    """Lattice, base q >= 2 and depth M >= 1."""

    lat: Lattice
    q: int
    M: int

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("base q must be an integer >= 2")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("depth M must be an integer >= 1")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "M", int(self.M))

    @property
    def bits_per_dim(self) -> float:
        """Nominal rate in bits per dimension, M log2 q."""
        return self.M * math.log2(self.q)

    @property
    def codebook_size(self) -> int:
        return self.q ** (self.lat.d * self.M)

    @cached_property
    def _layer_codebook(self) -> np.ndarray | None:
        """Read-only (q^d, d) layer codebook, or None when q^d > LAYER_CODEBOOK_MAX."""
        if self.q**self.lat.d > LAYER_CODEBOOK_MAX:
            return None
        cb = vc_decode_many(VoronoiCodeParams(self.lat, self.q), digit_grid(self.q, self.lat.d))
        cb.setflags(write=False)
        return cb

    @cached_property
    def _dither_table(self) -> np.ndarray | None:
        """Read-only (q^d, d) dither points, the layer codebook's points over q."""
        if self._layer_codebook is None:
            return None
        pts = self.lat.point_of(self._layer_codebook) / self.q
        pts.setflags(write=False)
        return pts


def nesting_radius_ratio(q: int, M: int) -> float:
    """Relative slack of the codebook region: (1 - q^(1-M)) / (q - 1)."""
    return (1.0 - float(q) ** (1 - M)) / (q - 1)


def reduced_nesting_ratio(q: int, M: int) -> int:
    """q^M (1 - ratio) as an exact integer: q^M minus the geometric tail."""
    return q**M - sum(q**m for m in range(1, M))


def outer_nesting_ratio(q: int, M: int) -> int:
    """q^M (1 + ratio) as an exact integer, q + q^2 + ... + q^M.

    Every codeword lies in this multiple of the (tie-broken) Voronoi cell:
    layer m contributes q^m times a layer codebook row, which lies in q V.
    """
    return sum(q**m for m in range(1, M + 1))


def h_encode_many(params: HierarchicalParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode rows of X (..., d); returns digits (..., M, d) and overload (...).

    The digits have type ``voronoi.digit_dtype(q)``: M d bytes per row for
    q <= 256.  They are unsigned, so cast them before subtracting.

    Only layer 0 runs the nearest-point quantizer.  Layer m + 1 quantizes
    lambda_m / q, which depends only on the coset of lambda_m mod qL: it is
    (c - rep(c mod q)) / q in generator coordinates, with rep the layer
    codebook row (``_layer_coords``).  So every later layer and the
    overload test are exact int64 steps.  Past |x| of about 1e9 the digits
    of rows that already overload may differ from re-quantizing each layer
    in floating point, whose tie-breaker falls below float resolution there;
    the overload flag does not.  Unchecked: |x| >= 2^62 is outside
    its contract (INT64_MIN coordinates, RuntimeWarning); the checked entry
    point is ``scaling.encode_scaled_many``.
    """
    q = params.q
    c = params.lat.nearest_coords(X)
    digits = np.empty(c.shape[:-1] + (params.M, params.lat.d), dtype=digit_dtype(q))
    for m in range(params.M):
        # c mod q as c - q (c // q): numpy's integer // by a scalar is several
        # times faster than its %.  Contiguous b also checks and indexes faster
        # than the strided digits[..., m, :].
        b = c - (c // q) * q
        digits[..., m, :] = b
        c -= _layer_coords(params, b)
        c //= q
    # Any non-zero coordinate, one column at a time: a reduction over the
    # short trailing axis costs several times more.
    ov = c[..., 0] != 0
    for i in range(1, params.lat.d):
        ov |= c[..., i] != 0
    return digits, ov


def _layer_coords(params: HierarchicalParams, digits: np.ndarray) -> np.ndarray:
    """Coset representative coordinates of digit rows (..., d), exact int64.

    Gathers rows of the cached layer codebook by base-q index; without a
    cached codebook it runs the quantizer per row.  Either way the digits
    are validated once.
    """
    cb = params._layer_codebook
    if cb is None:
        return vc_decode_many(VoronoiCodeParams(params.lat, params.q), digits)
    if np.shape(digits)[-1] != params.lat.d:
        raise ValueError(f"digit vector must have trailing axis {params.lat.d}")
    return np.take(cb, digits_to_index(digits, params.q), axis=0)


def _dither_points(params: HierarchicalParams, ids: np.ndarray) -> np.ndarray:
    """Dither points of ids (..., d): rows of the cached point table, or above
    LAYER_CODEBOOK_MAX each row's ``_layer_coords`` point over q (same floats)."""
    table = params._dither_table
    if table is None:
        return params.lat.point_of(_layer_coords(params, ids)) / params.q
    return np.take(table, digits_to_index(ids, params.q), axis=0)


def _dither_rows(d: int, batch: tuple, dither_ids, f):
    """The codec's one reading of dither ids for rows of shape batch: a
    function rows -> f of the ids of the rows ``rows`` (any index into the
    batch axes), shaped as those rows; without ids it gives None.

    Ids come as one id (d,) for every row, or as the rows' ids (*batch, d).
    Ids whose batch axes all have stride 0 or length 1 (the read-only
    broadcast view a fixed-mode matrix holds) are one id too: f of it is
    computed once and broadcast.  Per-row ids are indexed at ``rows`` only,
    never copied whole.  Any other shape raises ValueError.
    """
    if dither_ids is None:
        return lambda rows: None
    ids = np.asarray(dither_ids)
    if ids.shape not in ((d,), batch + (d,)):
        raise ValueError(f"dither ids must have shape ({d},) or {batch + (d,)}, got {ids.shape}")
    ids = np.broadcast_to(ids, batch + (d,))
    if ids.size and all(n == 1 or s == 0 for n, s in zip(batch, ids.strides)):
        one = f(ids[(0,) * len(batch)])
        return lambda rows: np.broadcast_to(one, ids[rows].shape[:-1] + np.shape(one))
    return lambda rows: f(ids[rows])


def decode_coords_many(
    params: HierarchicalParams, digits: np.ndarray, layers: slice | None = None
) -> np.ndarray:
    """Reconstruction coordinates from digits (..., M, d), exact integers.

    ``layers`` restricts the sum to a slice of layer indices; default all.
    """
    digits = np.asarray(digits)
    if digits.shape[-2:] != (params.M, params.lat.d):
        raise ValueError(
            f"digits must have trailing shape ({params.M}, {params.lat.d}), got {digits.shape}"
        )
    reps = _layer_coords(params, digits)
    rng = range(params.M)[layers] if layers is not None else range(params.M)
    acc = np.zeros(digits.shape[:-2] + (params.lat.d,), dtype=np.int64)
    for m in rng:
        acc += (params.q**m) * reps[..., m, :]
    return acc


def q_circ_many(params: HierarchicalParams, X: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of the m-fold coarsened quantization of rows of X.

    Applies the nearest-neighbor quantizer at scales 1, q, ..., q^m in
    sequence; m = 0 is plain quantization.  Returns int64 (..., d).
    Unchecked: |x| >= 2^62 is outside its contract (INT64_MIN
    coordinates, RuntimeWarning); the checked entry point is
    ``scaling.encode_scaled_many``.
    """
    if int(m) != m or m < 0:
        raise ValueError("m must be a non-negative integer")
    lat, q = params.lat, params.q
    t = lat.nearest_coords(np.asarray(X, dtype=np.float64))
    for _ in range(m):
        t = lat.nearest_coords(lat.point_of(t) / q)
    return t * q**m


def layer_codebook_coords(params: HierarchicalParams) -> np.ndarray:
    """Coordinates of the q^d single-layer codebook points.

    Row i is the representative of the digit vector whose base-q value is
    i (first coordinate most significant), matching the LUT index layout.
    Up to LAYER_CODEBOOK_MAX rows this is the params' cached, read-only array.
    """
    cb = params._layer_codebook
    return cb if cb is not None else _layer_coords(params, digit_grid(params.q, params.lat.d))


def _iter_codebook_coords(params: HierarchicalParams):
    """Yield codebook coordinates in q^d chunks of q^(d(M-1)) rows each.

    The codebook is the Minkowski sum over layers of q^m times the layer
    codebook; chunking by the layer-0 point keeps memory bounded for the
    largest admissible enumerations.
    """
    q, M, d = params.q, params.M, params.lat.d
    LC = layer_codebook_coords(params)
    # Outer sum over layers 1..M-1, built once; bounded by guard / q^d rows.
    tail = np.zeros((1, d), dtype=np.int64)
    for m in range(1, M):
        w = q**m
        tail = (tail[:, None, :] + w * LC[None, :, :]).reshape(-1, d)
    for i in range(LC.shape[0]):
        yield LC[i][None, :] + tail


def enumerate_codebook(params: HierarchicalParams) -> np.ndarray:
    """All q^(dM) codebook coordinates, one row per digit combination.

    Raises ValueError when the codebook exceeds the enumeration guard of
    2^24 points.  Points are returned as integer generator coordinates;
    map through ``params.lat.point_of`` for vectors.
    """
    if params.codebook_size > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration too large: q^(dM) = {params.codebook_size} exceeds {ENUMERATION_GUARD}"
        )
    return np.concatenate(list(_iter_codebook_coords(params)), axis=0)


def _key_layout(params: HierarchicalParams) -> tuple[int, int] | None:
    """(lo, width): codeword coordinates lie in [lo, lo + 2^width).

    None when d fields of that width exceed an int64 key.  A codeword sums q^m
    times a layer codebook row over m < M, so its extremes are (q^M - 1) / (q - 1)
    times the layer codebook's."""
    LC = layer_codebook_coords(params)
    span = (params.q**params.M - 1) // (params.q - 1)
    lo, hi = span * int(LC.min()), span * int(LC.max())
    width = (hi - lo).bit_length()
    return (lo, width) if width * params.lat.d <= 63 else None


def _pack_coords(C: np.ndarray, lo: int, width: int) -> np.ndarray:
    """Distinct int64 keys >= 0 of integer rows in [lo, lo + 2^width)^d; -1 for others."""
    U = C - lo
    key = np.zeros(C.shape[:-1], dtype=np.int64)
    for i in range(C.shape[-1]):
        key = (key << width) | U[..., i]
    return np.where((U >> width).any(axis=-1), -1, key)


@dataclass(frozen=True)
class SandwichReport:
    """Result of verify_sandwich."""

    inner_ok: bool
    outer_ok: bool
    r_qM: float
    codebook_size: int
    distinct: bool


def verify_sandwich(params: HierarchicalParams) -> SandwichReport:
    """Check the two-sided Voronoi-code bracketing of the codebook.

    Confirms that every Voronoi codebook point with nesting ratio
    q^M (1 - r_qM) lies in the hierarchical codebook (inner inclusion) and
    that every codebook point lies within q^M (1 + r_qM) times the Voronoi
    cell (outer inclusion), with r_qM = (1 - q^(1-M)) / (q - 1).  Also
    verifies all q^(dM) points are distinct.  Raises ValueError past the
    enumeration guard or when coordinates do not pack into int64 keys."""
    if params.codebook_size > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration too large: q^(dM) = {params.codebook_size} exceeds {ENUMERATION_GUARD}"
        )
    layout = _key_layout(params)
    if layout is None:
        raise ValueError(f"{params.lat.d} coordinate fields do not fit an int64 key")
    lo, width = layout
    lat, q, M, d = params.lat, params.q, params.M, params.lat.d
    ratio = nesting_radius_ratio(q, M)
    s_inner = reduced_nesting_ratio(q, M)
    s_outer = outer_nesting_ratio(q, M)

    outer_ok = True
    keys = []
    for chunk in _iter_codebook_coords(params):
        pts = lat.point_of(chunk)
        if outer_ok and not in_scaled_voronoi_many(lat, pts, s_outer).all():
            outer_ok = False
        keys.append(_pack_coords(chunk, lo, width))
    keys = np.sort(np.concatenate(keys))
    distinct = bool(np.all(np.diff(keys) != 0)) if keys.size > 1 else True

    # The reduced-ratio codebook is exactly the set of lattice points inside
    # s_inner times the Voronoi cell (one representative per coset of
    # L / s_inner L), so enumerating cosets enumerates the inner region.
    # s_inner = ((q-2) q^M + q) / (q-1) >= 2 for every q >= 2, M >= 1.
    inner_ok = True
    vc_small = VoronoiCodeParams(lat, s_inner)
    grid = digit_grid(s_inner, d)
    chunk_rows = 1 << 18
    for start in range(0, grid.shape[0], chunk_rows):
        reps = vc_decode_many(vc_small, grid[start : start + chunk_rows])
        rk = _pack_coords(reps, lo, width)
        pos = np.searchsorted(keys, rk)
        found = keys[np.minimum(pos, keys.size - 1)] == rk
        if not found.all():
            inner_ok = False
            break
    return SandwichReport(
        inner_ok=inner_ok,
        outer_ok=outer_ok,
        r_qM=ratio,
        codebook_size=int(params.codebook_size),
        distinct=distinct,
    )
