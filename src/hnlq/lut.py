"""Lookup tables for inner products between quantized vectors.

One table of q^(2d) entries holds every pairwise inner product of
single-layer codebook points; any two hierarchical encodings are then
combined with powers of q, so an M-layer by M-layer product needs exactly
M^2 table reads regardless of depth.  Tables over Z_d and D_n hold exact
64-bit integers; the hexagonal lattice stores reals.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import LUT_GUARD, HierarchicalEncoding, HierarchicalParams, layer_codebook_coords
from .lattices import FAMILY_IDS, Lattice

__all__ = [
    "InnerProductLUT",
    "OneSidedLUT",
    "digits_to_index",
    "index_to_digits",
    "build_lut",
    "lut_ip",
    "lut_ip_dithered",
    "build_one_sided",
    "one_sided_ip",
    "save_lut",
    "load_lut",
]

_MAGIC = int.from_bytes(b"NLL1", "little")
_HEADER = struct.Struct("<8I")  # magic, version, family, d, q, value type, two reserved
_VALUE_TYPES = {0: np.dtype("<i8"), 1: np.dtype("<f8")}


def digits_to_index(b: np.ndarray, q: int) -> int | np.ndarray:
    """Base-q value of a digit vector, first coordinate most significant.

    Accepts (..., d) and returns int64 of shape (...).
    """
    b = np.asarray(b, dtype=np.int64)
    if b.min(initial=0) < 0 or b.max(initial=0) >= q:
        raise ValueError(f"digits out of range [0, {q})")
    idx = np.zeros(b.shape[:-1], dtype=np.int64)
    for i in range(b.shape[-1]):
        idx = idx * q + b[..., i]
    return int(idx) if idx.ndim == 0 else idx


def index_to_digits(idx, q: int, d: int) -> np.ndarray:
    """Inverse of digits_to_index: indices (...) to int64 digit vectors (..., d).

    Unpacks in uint64, so every index in [0, min(q^d, 2^64)) is accepted.
    """
    idx = np.asarray(idx)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= min(q**d, 2**64)):
        raise ValueError("index out of range")
    v = idx.astype(np.uint64)
    out = np.empty(idx.shape + (d,), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        out[..., i] = v % q
        v //= q
    return out


@dataclass(eq=False)
class InnerProductLUT:
    """Flat table of all single-layer pairwise inner products.

    Entry i * q^d + j holds the inner product of layer codebook points i
    and j.  ``query_count`` tallies every element read made through the
    lookup helpers; it is diagnostic state, not part of the table.
    """

    family: str
    d: int
    q: int
    values: np.ndarray
    query_count: int = field(default=0, compare=False)

    @property
    def side(self) -> int:
        return self.q**self.d

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    @cached_property
    def max_abs(self) -> int | float:
        """Largest entry magnitude; bounds every weighted sum of reads."""
        return np.abs(self.values).max().item()

    def _fetch(self, i: int, j: int):
        self.query_count += 1
        return self.values[i * self.side + j]

    def _gather(self, flat_idx: np.ndarray) -> np.ndarray:
        self.query_count += flat_idx.size
        return self.values[flat_idx]


@dataclass(eq=False)
class OneSidedLUT:
    """Per-query table: inner products of one fixed vector with the layer codebook."""

    family: str
    d: int
    q: int
    values: np.ndarray
    query_count: int = field(default=0, compare=False)

    def _fetch(self, i: int):
        self.query_count += 1
        return self.values[i]


def build_lut(params: HierarchicalParams, guard: int = LUT_GUARD) -> InnerProductLUT:
    """Build the full q^(2d)-entry inner product table.

    Raises ValueError when q^(2d) exceeds the guard.
    """
    q, d = params.q, params.lat.d
    if q ** (2 * d) > guard:
        raise ValueError(f"table too large: q^(2d) = {q ** (2 * d)} exceeds {guard}")
    P = params.lat.point_of(layer_codebook_coords(params))
    table = P @ P.T
    if params.lat.integral_gram:
        table = np.rint(table).astype(np.int64)
    return InnerProductLUT(family=params.lat.family, d=d, q=q, values=table.reshape(-1))


def _layer_indices(tbl, enc: HierarchicalEncoding) -> np.ndarray:
    digits = np.asarray(enc.digits)
    if digits.ndim != 2 or digits.shape[1] != tbl.d:
        raise ValueError(f"digits must have shape (M, {tbl.d})")
    return digits_to_index(digits, tbl.q)


def _weighted_reads(lut: InnerProductLUT, ix: np.ndarray, iy: np.ndarray):
    """Sum of q^(i+j) table[ix[i], iy[j]] with each read as an exact Python scalar."""
    if ix.shape != iy.shape:
        raise ValueError("encodings have different depths")
    return sum(
        lut.q ** (i + j) * lut._fetch(int(a), int(b)).item()
        for i, a in enumerate(ix)
        for j, b in enumerate(iy)
    )


def lut_ip(
    lut: InnerProductLUT,
    enc_x: HierarchicalEncoding,
    enc_y: HierarchicalEncoding,
):
    """Inner product of two reconstructions via M^2 table reads.

    Both encodings must come from the parameters the table was built for;
    digit range and shape are validated against the table.  Returns a
    Python int for integral-Gram lattices, else a float.
    """
    total = _weighted_reads(lut, _layer_indices(lut, enc_x), _layer_indices(lut, enc_y))
    return int(total) if lut.values.dtype.kind == "i" else float(total)


def lut_ip_dithered(
    lut: InnerProductLUT,
    enc_x: HierarchicalEncoding,
    enc_y: HierarchicalEncoding,
    dither_x: np.ndarray,
    dither_y: np.ndarray,
) -> float:
    """Inner product of dithered reconstructions via (M+1)^2 reads.

    The dither ids act as an extra layer with weight 1/q on each side; the
    sum is accumulated with exact integer weights scaled by q^2 and divided
    once at the end, so integral-Gram tables stay exact until the final
    division.
    """
    q = lut.q
    ix = np.concatenate([[digits_to_index(np.asarray(dither_x), q)], _layer_indices(lut, enc_x)])
    iy = np.concatenate([[digits_to_index(np.asarray(dither_y), q)], _layer_indices(lut, enc_y)])
    return float(_weighted_reads(lut, ix, iy)) / q**2


def build_one_sided(params: HierarchicalParams, y: np.ndarray) -> OneSidedLUT:
    """Table of inner products of y with every single-layer codebook point."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.lat.d,):
        raise ValueError(f"expected shape ({params.lat.d},), got {y.shape}")
    P = params.lat.point_of(layer_codebook_coords(params))
    return OneSidedLUT(family=params.lat.family, d=params.lat.d, q=params.q, values=P @ y)


def one_sided_ip(oslut: OneSidedLUT, enc_x: HierarchicalEncoding) -> float:
    """Inner product of the table's vector with a reconstruction, M reads."""
    ix = _layer_indices(oslut, enc_x)
    q = oslut.q
    return float(sum(q**i * oslut._fetch(int(ix[i])) for i in range(ix.size)))


def save_lut(lut: InnerProductLUT, path) -> None:
    """Write the table in the fixed little-endian binary layout."""
    vt = 0 if lut.values.dtype.kind == "i" else 1
    header = _HEADER.pack(_MAGIC, 1, FAMILY_IDS[lut.family], lut.d, lut.q, vt, 0, 0)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(lut.values, dtype=_VALUE_TYPES[vt]).tobytes())


def load_lut(path, params: HierarchicalParams) -> InnerProductLUT:
    """Read a table and validate its header against params."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated LUT file")
    magic, version, fam_id, d, q, vt, _, _ = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("bad magic, not a LUT file")
    if version != 1:
        raise ValueError(f"unsupported LUT version {version}")
    if vt not in _VALUE_TYPES:
        raise ValueError(f"unknown value type {vt}")
    families = {v: k for k, v in FAMILY_IDS.items()}
    family = families.get(fam_id)
    lat = params.lat
    if family != lat.family or d != lat.d or q != params.q:
        raise ValueError(
            f"LUT header ({family}{d}, q={q}) does not match params ({lat.name}, q={params.q})"
        )
    values = np.frombuffer(raw, dtype=_VALUE_TYPES[vt], offset=_HEADER.size)
    expected = q ** (2 * d)
    if values.size != expected:
        raise ValueError(f"table holds {values.size} entries, expected {expected}")
    return InnerProductLUT(family=family, d=d, q=q, values=values.copy())
