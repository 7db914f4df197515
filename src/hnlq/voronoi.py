"""Voronoi codes: finite codebooks cut from a lattice by a scaled Voronoi cell.

A code with nesting ratio r has r^d codewords, one per coset of L / rL,
each represented by the coset member inside r times the Voronoi cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattices import Lattice, LatticePoint, nn_quantize

__all__ = [
    "VoronoiCodeParams",
    "vc_encode",
    "vc_decode",
    "vc_decode_many",
    "digit_grid",
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

    Row i holds the base-q expansion of i, so the ordering matches
    digits_to_index in the LUT module.
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


def vc_decode_many(params: VoronoiCodeParams, B: np.ndarray) -> np.ndarray:
    """Coset representatives for digit rows B (..., d), as integer coordinates.

    Computes b - r * Q(G b / r) in generator coordinates, i.e. the member
    of the coset of G b (mod rL) lying in r times the Voronoi cell.
    """
    lat, r = params.lat, params.r
    B = _check_digits(B, r, lat.d)
    u = lat.nearest_coords(lat.point_of(B) / r)
    return B - r * u


def vc_decode(params: VoronoiCodeParams, b: np.ndarray) -> LatticePoint:
    """Decode one digit vector to its codebook point."""
    c = vc_decode_many(params, np.asarray(b).reshape(params.lat.d))
    return LatticePoint(coords=c, point=params.lat.point_of(c))


def vc_encode(params: VoronoiCodeParams, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Encode a vector: digits of the nearest lattice point mod r, plus overload.

    Overload is true when the digits decode to a different lattice point
    than the true nearest neighbor, i.e. the nearest neighbor fell outside
    the codebook region.
    """
    t = nn_quantize(params.lat, x)
    b = np.mod(t.coords, params.r)
    dec = vc_decode(params, b)
    return b, bool(np.any(dec.coords != t.coords))
