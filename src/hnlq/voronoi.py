"""Voronoi codes: finite codebooks cut from a lattice by a scaled Voronoi cell.

A code with nesting ratio r has r^d codewords, one per coset of L / rL,
each represented by the coset member inside r times the Voronoi cell.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattices import Lattice

# Largest q^d whose digit vectors ``index_to_digits`` gathers from a cached
# table, and whose layer codebook ``codec`` caches per params and decodes by
# gathering rows: the side of the largest inner-product table.  Above it
# (e.g. Z^16, q = 16) both compute per row.
LAYER_CODEBOOK_MAX = 2**14

__all__ = [
    "vc_decode_many",
    "digit_dtype",
    "digit_grid",
    "digits_to_index",
    "index_to_digits",
]


def digit_dtype(q: int) -> np.dtype:
    """Smallest unsigned integer type that holds every base-q digit, q - 1.

    uint8 up to q = 256, then uint16, uint32 and uint64: every quantized digit
    and dither id is held in it, one byte per digit for q <= 256.  Unsigned
    digits wrap under subtraction, so cast them before signed arithmetic.
    Raises ValueError when q - 1 passes 2^64 - 1.
    """
    t = np.min_scalar_type(int(q) - 1)
    if t.kind != "u":
        raise ValueError(f"base-{q} digits fit no unsigned 64-bit type")
    return t


def digit_grid(q: int, d: int) -> np.ndarray:
    """All q^d digit vectors in [0, q)^d, first coordinate most significant.

    Row i holds the base-q expansion of i: ``digits_to_index`` of row i is i.
    """
    axes = np.meshgrid(*([np.arange(q, dtype=np.int64)] * d), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


@lru_cache(maxsize=64)
def _digit_table(q: int, d: int) -> np.ndarray:
    """Read-only ``digit_grid(q, d)`` in ``digit_dtype(q)``, for q^d <= LAYER_CODEBOOK_MAX."""
    table = digit_grid(q, d).astype(digit_dtype(q))
    table.setflags(write=False)
    return table


def _check_digits(b: np.ndarray, r: int, d: int) -> np.ndarray:
    b = np.asarray(b)
    if b.shape[-1] != d:
        raise ValueError(f"digit vector must have trailing axis {d}")
    if not np.issubdtype(b.dtype, np.integer):
        raise ValueError("digits must be integers")
    if b.min(initial=0) < 0 or b.max(initial=0) >= r:
        raise ValueError(f"digits out of range [0, {r})")
    return b


def digits_to_index(b: np.ndarray, q: int) -> int | np.ndarray:
    """Base-q value of a digit vector, first coordinate most significant.

    Accepts integer digits (..., d) in [0, q) of any integer type and returns
    int64 of shape (...), or uint64 when q^d > 2^63.  Raises ValueError when
    q^d > 2^64.
    """
    b = _check_digits(b, q, np.shape(b)[-1])
    d = b.shape[-1]
    if q**d > 2**64:
        raise ValueError(f"q^d = {q}^{d} indices do not fit 64 bits")
    idx = _index(b, q)
    return int(idx) if idx.ndim == 0 else idx


def _index(b: np.ndarray, q: int, itype=None) -> np.ndarray:
    """``digits_to_index`` of digits known to lie in [0, q), as an array, in
    ``itype`` when given (it must hold q^d - 1)."""
    d = b.shape[-1]
    # Horner's rule in place in the index type, one column at a time: the add
    # casts each digit column in small buffers, so no column is widened as a
    # whole.  The digits lie in [0, q), so the cast from any integer type is
    # exact, and every partial value stays below q^d.
    if itype is None:
        itype = np.int64 if q**d <= 2**63 else np.uint64
    idx = b[..., 0].astype(itype)
    for i in range(1, d):
        idx *= q
        np.add(idx, b[..., i], out=idx, dtype=itype, casting="unsafe")
    return idx


def index_to_digits(idx, q: int, d: int) -> np.ndarray:
    """Inverse of digits_to_index: integer indices (...) to a new array of digit
    vectors (..., d) of type ``digit_dtype(q)``, d bytes per vector for q <= 256
    (unsigned: cast them before subtracting).

    Up to q^d = LAYER_CODEBOOK_MAX the digits are rows gathered from a cached
    table.  Above it they are unpacked in int64, or in uint64 when q^d > 2^63,
    so every index in [0, min(q^d, 2^64)) is accepted.  Indices of a
    non-integer type (float, bool) or out of range raise ValueError.
    """
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("indices must have an integer type")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= min(q**d, 2**64)):
        raise ValueError("index out of range")
    if q**d <= LAYER_CODEBOOK_MAX:
        return np.take(_digit_table(q, d), idx, axis=0)
    v = idx.astype(np.int64 if q**d <= 2**63 else np.uint64)
    out = np.empty(idx.shape + (d,), dtype=digit_dtype(q))
    for i in range(d - 1, -1, -1):  # each digit cast into place in small buffers
        np.remainder(v, q, out=out[..., i], dtype=v.dtype, casting="unsafe")
        v //= q
    return out


def vc_decode_many(lat: Lattice, r: int, B: np.ndarray) -> np.ndarray:
    """Coset representatives for digit rows B (..., d) of the Voronoi code of
    lat with nesting ratio r, as integer coordinates.

    Computes b - r * Q(G b / r) in generator coordinates, i.e. the member
    of the coset of G b (mod rL) lying in r times the Voronoi cell.  The
    one-layer hierarchical code of base r is this code.  Raises ValueError
    unless r is an integer >= 2.
    """
    if int(r) != r or r < 2:
        raise ValueError("nesting ratio must be an integer >= 2")
    r = int(r)
    B = _check_digits(B, r, lat.d)
    u = lat.nearest_coords(lat.point_of(B) / r)
    # in int64 for every digit type: uint64 digits minus int64 would give float64
    return np.subtract(B, r * u, dtype=np.int64)
