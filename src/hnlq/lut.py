"""Lookup tables for inner products between quantized vectors.

One table of q^(2d) entries holds every pairwise inner product of
single-layer codebook points; any two hierarchical encodings are then
combined with powers of q, so an M-layer by M-layer product combines
exactly M^2 table entries regardless of depth.  A table's ``query_count``
counts those entries: L^2 per product of two L-layer chunks (L = M, or
M + 1 with the dither layer), whichever gather reads them.

Every table holds exact int64 inner products on the unscaled canonical
lattice, times 2 for A_2 (``Lattice.integer_gram``'s B); the lattice's one
float factor u (scale^2, halved for A_2) is applied with the chunk scales.
One kernel, ``chunk_sums``, combines the entries into exact integer chunk
sums for every product.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

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
# magic, version, family, d, q, value type, lattice scale (version 1: two reserved words)
_HEADER = struct.Struct("<6Id")
_VERSION = 2
_VALUE_TYPES = {0: np.dtype("<i8"), 1: np.dtype("<f8")}


@dataclass(eq=False)
class InnerProductLUT:
    """Flat int64 table of all single-layer pairwise inner products over ``unit``.

    Entry i * q^d + j times ``unit`` (``Lattice.integer_gram``'s u) is the
    inner product of layer codebook points i and j of the lattice scaled by
    ``scale``.  ``query_count`` tallies the table entries combined by the
    products, L^2 per chunk pair of L layers each; it is diagnostic state.
    """

    family: str
    d: int
    q: int
    values: np.ndarray
    scale: float = 1.0
    unit: float = 1.0
    query_count: int = field(default=0, compare=False)

    @property
    def side(self) -> int:
        return self.q**self.d

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    @cached_property
    def max_abs(self) -> int:
        """Largest entry magnitude; bounds every weighted sum of reads."""
        return max(-int(self.values.min()), int(self.values.max()))

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
    scale: float = 1.0
    query_count: int = field(default=0, compare=False)

    def _gather(self, idx: np.ndarray) -> np.ndarray:
        self.query_count += idx.size
        return self.values[idx]


def build_lut(params: HierarchicalParams) -> InnerProductLUT:
    """Build the full q^(2d)-entry inner product table, C B C^T over the layer
    codebook coordinates C, in int64 with no rounding.

    Raises ValueError when q^(2d) exceeds ``codec.LUT_GUARD``.
    """
    q, lat = params.q, params.lat
    if q ** (2 * lat.d) > LUT_GUARD:
        raise ValueError(f"table too large: q^(2d) = {q ** (2 * lat.d)} exceeds {LUT_GUARD}")
    B, u = lat.integer_gram
    C = layer_codebook_coords(params)
    return InnerProductLUT(family=lat.family, d=lat.d, q=q, values=(C @ B @ C.T).reshape(-1),
                           scale=lat.scale, unit=u)


def check_lut(lut: InnerProductLUT | OneSidedLUT, params: HierarchicalParams) -> None:
    """Refuse a full or one-sided table built for another lattice, scale or base than params'."""
    lat = params.lat
    if (lut.family, lut.d, lut.scale, lut.q) != (lat.family, lat.d, lat.scale, params.q):
        raise ValueError(
            f"LUT ({lut.family}{lut.d} at scale {lut.scale}, q={lut.q}) does not match "
            f"params ({lat.name} at scale {lat.scale}, q={params.q})"
        )


def layer_indices(q: int, digits: np.ndarray, dither_ids: np.ndarray | None) -> np.ndarray:
    """Table indices (..., L) of digits (..., M, d); dither ids (..., d) become layer 0."""
    idx = digits_to_index(digits, q)
    if dither_ids is None:
        return idx
    want = np.shape(digits)[:-2] + np.shape(digits)[-1:]
    if np.shape(dither_ids) != want:
        raise ValueError(f"dither ids must have shape {want}, got {np.shape(dither_ids)}")
    return np.concatenate([digits_to_index(dither_ids, q)[..., None], idx], axis=-1)


_CHUNK_TYPES = tuple(map(np.dtype, (np.int16, np.int32, np.int64)))


def chunk_sum_dtype(lut: InnerProductLUT, L: int) -> np.dtype | None:
    """Narrowest integer type exact for every L-layer chunk sum, or None.

    A chunk sum weighs the pair of layers (i, j) by q^(i+j), so its magnitude
    is at most max|table| (sum_l q^l)^2; that bound must stay below the
    type's 2^(bits-1).  None for a bound past 2^63.
    """
    bound = lut.max_abs * ((lut.q**L - 1) // (lut.q - 1)) ** 2
    return next((t for t in _CHUNK_TYPES if bound < 2 ** (8 * t.itemsize - 1)), None)


def _horner(q: int, terms) -> np.ndarray:
    """sum_l q^l terms[l], terms given highest layer first; overwrites the first."""
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc *= q
        acc += t
    return acc


def chunk_sums(
    lut: InnerProductLUT, ia: np.ndarray, ib: np.ndarray, outer: bool, block: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Exact chunk sums sum_(i, j) q^(i+j) table[ia_i, ib_j] of layer indices
    ia (na, K, L) and ib (nb, K, L), as (r, C) for row blocks of A from row r.

    C is (rows, nb, K) for all pairs (``outer``), else (rows, K) for column a
    against column a, in the narrowest type ``chunk_sum_dtype`` proves exact,
    else Python ints: no order of the sums changes a bit.  A block holds
    about ``block`` elements of its largest temporary, and at least one row.
    Counts K L^2 table entries per chunk pair.

    All pairs in an integer type sum partial rows P[a, k] = sum_i q^i
    table[ia[r + a, k, i]] by Horner's rule, then gather sum_j q^j P[a, k,
    ib[b, k, j]]: L reads per chunk pair, plus L q^d per chunk of A.  The rest
    gather all L^2 layer pairs of a block (a partial row would read L q^d),
    cast only those, and take Horner's rule over both layer axes.
    """
    na, K, L = ia.shape
    nb, side, q = len(ib), lut.side, lut.q
    dtype = chunk_sum_dtype(lut, L)
    if outer and dtype is not None:
        table = lut.values.astype(dtype).reshape(side, side)
        lut.query_count += na * nb * K * L * L
        # (L, nb, K) columns k * side + ib of a block's partial rows, flattened (rows, K * side)
        cols = np.moveaxis(ib + side * np.arange(K)[:, None], -1, 0).copy()
        rows = max(1, block // (K * max(nb, side)))
        for r in range(0, na, rows):
            ra = ia[r:r + rows]
            P = _horner(q, (table[ra[..., i]] for i in reversed(range(L)))).reshape(len(ra), -1)
            # np.take on a flat axis, several times faster than P[:, cols[j]]
            yield r, _horner(q, (np.take(P, cols[j], axis=1) for j in reversed(range(L))))
        return
    # contiguous layer-major row offsets (L, na, K) and columns (L, nb, K), or all pairs
    ra, rb = (np.moveaxis(i, -1, 0).copy() for i in (ia * side, ib))
    if outer:
        ra, rb = ra[:, :, None], rb[:, None]
    rows = max(1, block // (L * L * K * (max(nb, 1) if outer else 1)))
    for r in range(0, na, rows):
        pairs = lut._gather(ra[:, None, r:r + rows] + (rb if outer else rb[:, r:r + rows])[None])
        pairs = pairs.astype(object if dtype is None else dtype, copy=False)
        yield r, _horner(q, (_horner(q, pairs[i, ::-1]) for i in reversed(range(L))))


def _stacked_digits(tbl, encs) -> np.ndarray:
    """Digits (len(encs), M, d) of encodings; np.stack refuses unequal depths."""
    digits = np.stack([np.asarray(e.digits) for e in encs])
    if digits.ndim != 3 or digits.shape[2] != tbl.d:
        raise ValueError(f"digits must have shape (M, {tbl.d})")
    return digits


def _exact_ip(lut: InnerProductLUT, encs, dither_ids) -> int:
    """Sum of q^(i+j) table[ix_i, iy_j] over two encodings' layers: one paired chunk."""
    ix, iy = layer_indices(lut.q, _stacked_digits(lut, encs), dither_ids)
    ((_, C),) = chunk_sums(lut, ix[None, None], iy[None, None], False, 1)
    return int(C[0, 0])


def lut_ip(
    lut: InnerProductLUT,
    enc_x: HierarchicalEncoding,
    enc_y: HierarchicalEncoding,
):
    """Inner product of two reconstructions from M^2 table entries.

    Both encodings must come from the parameters the table was built for
    (``check_lut`` checks a table against them); digit range and shape are
    validated against the table.  Returns a Python int, exact, when the
    table's unit is an integer (Z_d and D_n at an integer scale^2), else the
    exact table sum times the unit as a float.
    """
    total = _exact_ip(lut, (enc_x, enc_y), None)
    return total * int(lut.unit) if float(lut.unit).is_integer() else total * lut.unit


def lut_ip_dithered(
    lut: InnerProductLUT,
    enc_x: HierarchicalEncoding,
    enc_y: HierarchicalEncoding,
    dither_x: np.ndarray,
    dither_y: np.ndarray,
) -> float:
    """Inner product of dithered reconstructions from (M+1)^2 table entries.

    The dither ids act as an extra layer with weight 1/q on each side; the
    sum is exact in integers scaled by q^2, then divided by q^2 and
    multiplied by the table's unit, the float steps of ``ip_approx``.
    """
    total = _exact_ip(lut, (enc_x, enc_y), np.stack([dither_x, dither_y]))
    return float(total) / lut.q**2 * lut.unit


def build_one_sided(params: HierarchicalParams, y: np.ndarray) -> OneSidedLUT:
    """Table of inner products of y with every single-layer codebook point."""
    y = _as_vector(y, params.lat.d)
    P = params.lat.point_of(layer_codebook_coords(params))
    return OneSidedLUT(family=params.lat.family, d=params.lat.d, q=params.q, values=P @ y,
                       scale=params.lat.scale)


def one_sided_ip(oslut: OneSidedLUT, enc_x: HierarchicalEncoding) -> float:
    """Inner product of the table's vector with a reconstruction, M reads.

    The encoding must come from the parameters the table was built for;
    ``check_lut`` checks a table against them.
    """
    (ix,) = layer_indices(oslut.q, _stacked_digits(oslut, [enc_x]), None)
    reads = oslut._gather(ix)
    return float(sum(oslut.q**i * v for i, v in enumerate(reads)))


def save_lut(lut: InnerProductLUT, path) -> None:
    """Write the table as NLL version 2: header, int64 values, CRC-32 of both."""
    body = _HEADER.pack(_MAGIC, _VERSION, FAMILY_IDS[lut.family], lut.d, lut.q, 0, lut.scale)
    body += np.ascontiguousarray(lut.values, dtype=_VALUE_TYPES[0]).tobytes()
    with open(path, "wb") as f:
        f.write(body + zlib.crc32(body).to_bytes(4, "little"))


def _canonical_v1(values: np.ndarray, lat: Lattice) -> np.ndarray:
    """Canonical int64 entries of a version 1 table: its scaled products over u.

    Version 1 wrote int64 for Z_d and D_n at an integer scale^2, else float64.
    """
    u = lat.integer_gram[1]
    integral = lat.family != "A" and float(u).is_integer()
    if (values.dtype.kind == "i") != integral:
        raise ValueError(f"LUT holds {'real' if integral else 'integer'} values, unlike "
                         f"version 1 tables of {lat.name} at scale {lat.scale}")
    if integral:
        out, rem = np.divmod(values, int(u))
        if rem.any():
            raise ValueError(f"version 1 integer LUT is not a multiple of scale^2 = {int(u)}")
        return out
    x = values / u
    out = np.rint(x)
    if not ((np.abs(x - out) <= 1e-6) & (np.abs(out) < 2.0**62)).all():
        raise ValueError(f"version 1 real LUT is not an integer multiple of {u}")
    return out.astype(np.int64)


def load_lut(path, params: HierarchicalParams) -> InnerProductLUT:
    """Read a table and validate it against params.

    A version 2 file is checked against its CRC-32, then its header, scale
    included.  Version 1 files have neither: the table takes params' scale and
    is converted by ``_canonical_v1``.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated LUT file")
    magic, version, fam_id, d, q, vt, scale = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("bad magic, not a LUT file")
    if version == _VERSION:
        raw, crc = raw[:-4], raw[-4:]
        if len(raw) < _HEADER.size or zlib.crc32(raw).to_bytes(4, "little") != crc:
            raise ValueError("LUT checksum mismatch: corrupt or truncated file")
    elif version != 1:
        raise ValueError(f"unsupported LUT version {version}")
    if vt not in _VALUE_TYPES or (version == _VERSION and vt != 0):
        raise ValueError(f"unknown value type {vt}")
    family = {v: k for k, v in FAMILY_IDS.items()}.get(fam_id)
    lat = params.lat
    if family != lat.family or d != lat.d or q != params.q:
        raise ValueError(
            f"LUT header ({family}{d}, q={q}) does not match params ({lat.name}, q={params.q})"
        )
    if version == _VERSION and scale != lat.scale:
        raise ValueError(f"LUT built for scale {scale}, params have scale {lat.scale}")
    values = np.frombuffer(raw, dtype=_VALUE_TYPES[vt], offset=_HEADER.size)
    if values.size != q ** (2 * d):
        raise ValueError(f"table holds {values.size} entries, expected {q ** (2 * d)}")
    values = _canonical_v1(values, lat) if version == 1 else values.copy()
    return InnerProductLUT(family=family, d=d, q=q, values=values, scale=lat.scale,
                           unit=lat.integer_gram[1])
