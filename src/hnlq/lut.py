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
from functools import cached_property, reduce

import numpy as np

from .codec import LUT_GUARD, HierarchicalEncoding, HierarchicalParams, layer_codebook_coords
from .lattices import FAMILY_IDS, Lattice, _as_vector
from .voronoi import digits_to_index, index_to_digits

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

    def _gather(self, idx: np.ndarray) -> np.ndarray:
        self.query_count += idx.size
        return self.values[idx]


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


def layer_indices(q: int, digits: np.ndarray, dither_ids: np.ndarray | None) -> np.ndarray:
    """Table indices (..., L) of digits (..., M, d); dither ids (..., d) become layer 0."""
    idx = digits_to_index(digits, q)
    if dither_ids is None:
        return idx
    want = np.shape(digits)[:-2] + np.shape(digits)[-1:]
    if np.shape(dither_ids) != want:
        raise ValueError(f"dither ids must have shape {want}, got {np.shape(dither_ids)}")
    return np.concatenate([digits_to_index(dither_ids, q)[..., None], idx], axis=-1)


def weighted_pair_sum(lut: InnerProductLUT, ra: np.ndarray, rb: np.ndarray, w: np.ndarray):
    """Sum over layer pairs (i, j) of w[i, j] * table[ra[i] + rb[j]], in one gather.

    ra holds row offsets (index times ``side``) and rb column indices, both
    layer-major (L, ...) with broadcasting trailing axes.  The dtype of the
    (L, L) weights chooses the arithmetic: int64 or float64 arrays, or
    Python objects for exact integers past int64.  The pairs are folded in
    one fixed order, (0, 0), (0, 1), ..., whatever the trailing shape.
    """
    L = len(w)
    pairs = lut._gather(ra[:, None] + rb[None, :])
    pairs = w.reshape(L, L, *[1] * (pairs.ndim - 2)) * pairs
    # An axis sum can change its order with the shape; a fold cannot.
    return reduce(np.add, pairs.reshape(L * L, *pairs.shape[2:]))


def _stacked_digits(tbl, encs) -> np.ndarray:
    """Digits (len(encs), M, d) of encodings; np.stack refuses unequal depths."""
    digits = np.stack([np.asarray(e.digits) for e in encs])
    if digits.ndim != 3 or digits.shape[2] != tbl.d:
        raise ValueError(f"digits must have shape (M, {tbl.d})")
    return digits


def _exact_ip(lut: InnerProductLUT, encs, dither_ids):
    """Sum of q^(i+j) table[ix_i, iy_j] over two encodings' layers, in Python-int weights."""
    ix, iy = layer_indices(lut.q, _stacked_digits(lut, encs), dither_ids)
    e = np.arange(ix.size, dtype=object)
    return weighted_pair_sum(lut, lut.side * ix[:, None], iy[:, None], lut.q ** (e[:, None] + e))[0]


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
    total = _exact_ip(lut, (enc_x, enc_y), None)
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
    return float(_exact_ip(lut, (enc_x, enc_y), np.stack([dither_x, dither_y]))) / lut.q**2


def build_one_sided(params: HierarchicalParams, y: np.ndarray) -> OneSidedLUT:
    """Table of inner products of y with every single-layer codebook point."""
    y = _as_vector(y, params.lat.d)
    P = params.lat.point_of(layer_codebook_coords(params))
    return OneSidedLUT(family=params.lat.family, d=params.lat.d, q=params.q, values=P @ y)


def one_sided_ip(oslut: OneSidedLUT, enc_x: HierarchicalEncoding) -> float:
    """Inner product of the table's vector with a reconstruction, M reads."""
    (ix,) = layer_indices(oslut.q, _stacked_digits(oslut, [enc_x]), None)
    reads = oslut._gather(ix)
    return float(sum(oslut.q**i * v for i, v in enumerate(reads)))


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
