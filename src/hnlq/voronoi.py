"""Voronoi codes: finite codebooks cut from a lattice by a scaled Voronoi cell.

A code with nesting ratio r has r^d codewords, one per coset of L / rL,
each represented by the coset member inside r times the Voronoi cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattices import Lattice

__all__ = [
    "VoronoiCodeParams",
    "vc_decode_many",
    "digit_grid",
    "digits_to_index",
    "index_to_digits",
]


@dataclass(frozen=True, eq=False)
class VoronoiCodeParams:
    """Lattice plus integer nesting ratio r >= 2."""

    lat: Lattice
    r: int

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 2:
            raise ValueError("nesting ratio must be an integer >= 2")
        object.__setattr__(self, "r", int(self.r))


def digit_grid(q: int, d: int) -> np.ndarray:
    """All q^d digit vectors in [0, q)^d, first coordinate most significant.

    Row i holds the base-q expansion of i: ``digits_to_index`` of row i is i.
    """
    axes = np.meshgrid(*([np.arange(q, dtype=np.int64)] * d), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


def _check_digits(b: np.ndarray, r: int, d: int) -> np.ndarray:
    b = np.asarray(b)
    if b.shape[-1] != d:
        raise ValueError(f"digit vector must have trailing axis {d}")
    if not np.issubdtype(b.dtype, np.integer):
        raise ValueError("digits must be integers")
    if b.min(initial=0) < 0 or b.max(initial=0) >= r:
        raise ValueError(f"digits out of range [0, {r})")
    return b.astype(np.int64, copy=False)


def digits_to_index(b: np.ndarray, q: int) -> int | np.ndarray:
    """Base-q value of a digit vector, first coordinate most significant.

    Accepts integer digits (..., d) in [0, q) and returns int64 of shape
    (...), or uint64 when q^d > 2^63.  Raises ValueError when q^d > 2^64.
    """
    b = _check_digits(b, q, np.shape(b)[-1])
    d = b.shape[-1]
    if q**d <= 2**63:
        idx = b @ q ** np.arange(d - 1, -1, -1)
    elif q**d <= 2**64:
        idx = b.astype(np.uint64) @ np.array([q**k for k in range(d - 1, -1, -1)], dtype=np.uint64)
    else:
        raise ValueError(f"q^d = {q}^{d} indices do not fit 64 bits")
    return int(idx) if idx.ndim == 0 else idx


def index_to_digits(idx, q: int, d: int) -> np.ndarray:
    """Inverse of digits_to_index: indices (...) to int64 digit vectors (..., d).

    Unpacks in int64, or in uint64 when q^d > 2^63, so every index in
    [0, min(q^d, 2^64)) is accepted.
    """
    idx = np.asarray(idx)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= min(q**d, 2**64)):
        raise ValueError("index out of range")
    v = idx.astype(np.int64 if q**d <= 2**63 else np.uint64)
    out = np.empty(idx.shape + (d,), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        out[..., i] = v % q
        v //= q
    return out


def vc_decode_many(params: VoronoiCodeParams, B: np.ndarray) -> np.ndarray:
    """Coset representatives for digit rows B (..., d), as integer coordinates.

    Computes b - r * Q(G b / r) in generator coordinates, i.e. the member
    of the coset of G b (mod rL) lying in r times the Voronoi cell.
    """
    lat, r = params.lat, params.r
    B = _check_digits(B, r, lat.d)
    u = lat.nearest_coords(lat.point_of(B) / r)
    return B - r * u

