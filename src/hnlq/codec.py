"""Hierarchical nested-lattice codec.

Encodes a vector as M base-q digit vectors by repeatedly quantizing,
reducing mod q and shrinking by q.  Only the first quantization runs the
nearest-point decoder: each later one is exact coset arithmetic through
the layer codebook (``_layer_rows``).  Layer m of the decoder contributes
q^m times a coset representative, so the reconstruction always equals the
nearest lattice point minus the M-fold coarsened quantization of the
input; the codebook is exact whenever that coarse term is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import Lattice, _columns, _integer, in_scaled_voronoi_many
from .voronoi import (
    LAYER_CODEBOOK_MAX,
    _check_digits,
    _index,
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
    "verify_sandwich",
    "nesting_radius_ratio",
    "reduced_nesting_ratio",
    "outer_nesting_ratio",
]

ENUMERATION_GUARD = 2**24
# Exact integer types, narrowest first: ``_coord_dtype`` and
# ``lut.chunk_sum_dtype`` pick the first that holds a proven bound.
_INT_TYPES = tuple(map(np.dtype, (np.int16, np.int32, np.int64)))
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
        object.__setattr__(self, "q", _integer("q", self.q, 2))
        object.__setattr__(self, "M", _integer("M", self.M, 1))

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
        cb = vc_decode_many(self.lat, self.q, digit_grid(self.q, self.lat.d))
        cb.setflags(write=False)
        return cb

    @cached_property
    def _codebooks(self) -> dict:
        """Read-only ``_layer_codebook`` in each of ``_INT_TYPES``."""
        books = {t: self._layer_codebook.astype(t, copy=False) for t in _INT_TYPES}
        for cb in books.values():
            cb.setflags(write=False)
        return books

    @cached_property
    def _coord_bound(self) -> tuple[float, int]:
        """``h_encode_many``'s R and S."""
        S = max(int(np.abs(self._layer_codebook).max()), self.q - 1)
        return float(np.abs(self.lat.G_inv).sum(axis=1).max()), S

    @cached_property
    def _dither_table(self) -> np.ndarray | None:
        """Read-only (q^d, d) dither points, the layer codebook's points over q."""
        if self._layer_codebook is None:
            return None
        pts = self.lat.point_of(self._layer_codebook) / self.q
        pts.setflags(write=False)
        return pts

    @cached_property
    def _supports(self) -> np.ndarray:
        """Read-only support of the layer codebook along each signed relevant
        vector v, the rows of ``lat._signed_weights``: the max over its rows r
        of 2 <r, v> / |v|^2.  Without a cached codebook, its bound q (1 + eta)
        in every direction, eta the gauge of the tie breaker: a layer codebook
        row lies in q (V - e)."""
        lat = self.lat
        if self._layer_codebook is None:
            S = np.full(len(lat._signed_weights), self.q * (1.0 + float(lat.gauge(lat.eps))))
        else:
            S = (lat._signed_weights @ _columns(lat.point_of(self._layer_codebook))).max(axis=1)
        S.setflags(write=False)
        return S

    @cached_property
    def _fit_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows w_v / b_v, one per signed relevant vector v
        (``Lattice._signed_weights``, w_v = 2 v / |v|^2), without and with a
        dither: a row x can encode without overload at scale s only if every
        entry of (w_v / b_v) . x is at most s (up to float rounding).

        Let e be the tie breaker in the lattice's frame, eta = g(e) its gauge,
        z the dither (zero without) and y = x / s - z the quantizer's input.
        Its nearest point l has w_v . (y + e - l) <= 1.  A row that does not
        overload decodes to l, a codeword sum_{m<M} q^m r_m of layer codebook
        rows r_m, and a dither is such a row over q.  With S_v the codebook's
        support along v (``_supports``) and A = 1 + q + ... + q^(M-1),
          w_v . x / s = w_v . (l + (y + e - l) - e + z)
                      <= b_v = A S_v + 1 + eta + [dithered] S_v / q.
        """
        lat, q, M, S = self.lat, self.q, self.M, self._supports
        eta = float(lat.gauge(lat.eps))
        pair = []
        for dithered in (False, True):
            bounds = (q**M - 1) // (q - 1) * S + (1.0 + eta) + (S / q if dithered else 0.0)
            W = lat._signed_weights / bounds[:, None]
            W.setflags(write=False)
            pair.append(W)
        return tuple(pair)


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


def _coord_dtype(params: HierarchicalParams, top: float) -> np.dtype:
    """``h_encode_many``'s integer type for rows with max |x| = top."""
    lat = params.lat
    if params._layer_codebook is None or not np.isfinite(top):
        return _INT_TYPES[-1]
    (R, S), near = params._coord_bound, top + 2.0  # 1 to the point, 1 for eps and rounding
    bound = max(max(R * near, S) + S, (lat.d if lat.family == "D" else 1) * near)
    return next((t for t in _INT_TYPES if bound < 2 ** (8 * t.itemsize - 1)), _INT_TYPES[-1])


def _items(a: np.ndarray) -> np.ndarray:
    """View of a (..., k), its trailing axis contiguous, as items (...) of k
    entries' bytes each: numpy moves such items whole."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


def h_encode_many(params: HierarchicalParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode rows of X (..., d); returns digits (..., M, d) and overload (...).

    The digits have type ``voronoi.digit_dtype(q)``: M d bytes per row for
    q <= 256.  They are unsigned, so cast them before subtracting.

    Only layer 0 runs the nearest-point quantizer.  Layer m + 1 quantizes
    lambda_m / q, which depends only on the coset of lambda_m mod qL: it is
    (c - rep(c mod q)) / q in generator coordinates, with rep the layer
    codebook row (``_layer_rows``).  So every later layer and the overload
    test are exact integer steps, in the narrowest of int16, int32 and int64
    (``_coord_dtype``; int64 past LAYER_CODEBOOK_MAX) that holds
    max(max(R (t + 2), S) + S, [D_n] d (t + 2)) for t = max |X|: the nearest
    point lies within infinity-distance 1 of x + eps, so R, the largest row
    sum of |G^-1|, times t + 2 bounds its coordinates and D_n's parity sums d
    entries of at most t + 2; a layer's c - rows and q (c // q) stay within S,
    the larger of q - 1 and |layer codebook entries|, of max(|c|, S).  Past
    |x| of about 1e9 the digits of rows that already overload may differ from
    re-quantizing each layer in floating point, whose tie-breaker falls below
    float resolution there; the overload flag does not.  Unchecked: |x| >=
    2^62 is outside its contract (INT64_MIN coordinates, RuntimeWarning); the
    checked entry point is ``scaling.encode_scaled_many``.
    """
    q, X = params.q, np.asarray(X, dtype=np.float64)
    top = max(-X.min(initial=0.0), X.max(initial=0.0))  # NaN when X has one
    c = params.lat.nearest_coords(X, dtype=_coord_dtype(params, top))
    digits = np.empty(c.shape[:-1] + (params.M, params.lat.d), dtype=digit_dtype(q))
    b, rows, layer = np.empty_like(c), np.empty_like(c), np.empty(c.shape, digits.dtype)
    for m in range(params.M):
        # c mod q as c - q (c // q), in place: numpy's integer // by a scalar is
        # several times faster than its %.  b lies in [0, q) by construction,
        # so it is indexed unchecked; its digits go into layer m as whole rows.
        np.floor_divide(c, q, out=b)
        b *= q
        np.subtract(c, b, out=b)
        np.copyto(layer, b, casting="unsafe")
        _items(digits)[..., m] = _items(layer)
        c -= _layer_rows(params, b, rows)
        c //= q
    # Any non-zero coordinate, one column at a time: a reduction over the
    # short trailing axis costs several times more.
    ov = c[..., 0] != 0
    for i in range(1, params.lat.d):
        ov |= c[..., i] != 0
    return digits, ov


def _layer_coords(params: HierarchicalParams, digits: np.ndarray) -> np.ndarray:
    """Coset representative coordinates of digit rows (..., d), exact int64,
    after validating the digits (``voronoi._check_digits``)."""
    return _layer_rows(params, _check_digits(digits, params.q, params.lat.d))


def _layer_rows(params: HierarchicalParams, b: np.ndarray, out: np.ndarray | None = None):
    """Layer codebook rows (..., d) of digits b (..., d) known to lie in [0, q).

    One gather from the cached codebook by base-q index, both in the type of
    ``out`` when given (int64 otherwise; q^d <= LAYER_CODEBOOK_MAX fits int16);
    without a cached codebook the quantizer runs per row (new int64 array).
    """
    if params._layer_codebook is None:
        return vc_decode_many(params.lat, params.q, b)
    cb = params._codebooks[np.dtype(np.int64) if out is None else out.dtype]
    return np.take(cb, _index(b, params.q, cb.dtype), axis=0, out=out)


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
    _check_digits(digits, params.q, params.lat.d)
    return _sum_layers(params, digits, range(params.M)[layers] if layers is not None
                       else range(params.M))


def _sum_layers(params: HierarchicalParams, digits: np.ndarray, ms, acc=None, rows=None):
    """Sum over layers m in ms of q^m times the layer rows of digits (..., M, d)
    known to lie in [0, q), as int64 (..., d): into ``acc`` when given, with
    ``rows`` (same shape) for each later layer's gather.

    Horner's rule from the top layer down, one layer's rows at a time: every
    product and sum is the int64 one of sum_m q^m rows_m, as int64 wraps alike.
    """
    ms = sorted(ms, reverse=True)
    if not ms:
        return np.zeros(digits.shape[:-2] + (params.lat.d,), dtype=np.int64)
    acc = _layer_rows(params, digits[..., ms[0], :], acc)
    rows = np.empty_like(acc) if rows is None else rows
    for hi, m in zip(ms, ms[1:]):
        acc *= params.q ** (hi - m)
        acc += _layer_rows(params, digits[..., m, :], rows)
    if ms[-1]:
        acc *= params.q ** ms[-1]
    return acc


def q_circ_many(params: HierarchicalParams, X: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of the m-fold coarsened quantization of rows of X.

    Applies the nearest-neighbor quantizer at scales 1, q, ..., q^m in
    sequence; m = 0 is plain quantization.  Returns int64 (..., d).
    Unchecked: |x| >= 2^62 is outside its contract (INT64_MIN
    coordinates, RuntimeWarning); the checked entry point is
    ``scaling.encode_scaled_many``.
    """
    m = _integer("m", m, 0)
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
    grid = digit_grid(s_inner, d)
    chunk_rows = 1 << 18
    for start in range(0, grid.shape[0], chunk_rows):
        reps = vc_decode_many(lat, s_inner, grid[start : start + chunk_rows])
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
