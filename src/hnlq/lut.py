"""Lookup tables for inner products between quantized vectors.

One table of q^(2d) entries holds every pairwise inner product of
single-layer codebook points; any two hierarchical encodings are then
combined with powers of q, so an M-layer by M-layer product combines
exactly M^2 table entries regardless of depth.  A table's ``query_count``
counts those entries: L^2 per product of two L-layer chunks (L = M, or
M + 1 with the dither layer), whichever gather reads them.

Every table holds exact int64 inner products on the canonical lattice,
times 2 for A_2 (``Lattice.integer_gram``'s B); the lattice's one float
factor u (1, or 1/2 for A_2) is applied with the chunk scales.
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

from .codec import LUT_GUARD, _INT_TYPES, HierarchicalParams, _dither_rows, layer_codebook_coords
from .lattices import FAMILY_IDS
from .voronoi import digits_to_index, index_to_digits

__all__ = [
    "InnerProductLUT",
    "digits_to_index",
    "index_to_digits",
    "build_lut",
    "save_lut",
    "load_lut",
]

_MAGIC = int.from_bytes(b"NLL1", "little")
# magic, version, family, d, q, value type (0: int64, the only one), a float64
# slot that always reads 1.0 (``load_lut`` refuses any other value)
_HEADER = struct.Struct("<6Id")
_VERSION = 2


@dataclass(eq=False)
class InnerProductLUT:
    """Flat int64 table of all single-layer pairwise inner products.

    Entry i * q^d + j times ``Lattice.integer_gram``'s u (1, or 1/2 for A_2)
    is the inner product of layer codebook points i and j.  ``query_count``
    tallies the table entries combined by the products, L^2 per chunk pair
    of L layers each; it is diagnostic state.
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
    def max_abs(self) -> int:
        """Largest entry magnitude; bounds every weighted sum of reads."""
        return max(-int(self.values.min()), int(self.values.max()))

    def _gather(self, flat_idx: np.ndarray) -> np.ndarray:
        self.query_count += flat_idx.size
        return self.values[flat_idx]


def build_lut(params: HierarchicalParams) -> InnerProductLUT:
    """Build the full q^(2d)-entry inner product table, C B C^T over the layer
    codebook coordinates C, in int64 with no rounding.

    Raises ValueError when q^(2d) exceeds ``codec.LUT_GUARD``.
    """
    q, lat = params.q, params.lat
    if q ** (2 * lat.d) > LUT_GUARD:
        raise ValueError(f"table too large: q^(2d) = {q ** (2 * lat.d)} exceeds {LUT_GUARD}")
    B = lat.integer_gram[0]
    C = layer_codebook_coords(params)
    return InnerProductLUT(family=lat.family, d=lat.d, q=q, values=(C @ B @ C.T).reshape(-1))


def check_lut(lut: InnerProductLUT, params: HierarchicalParams) -> None:
    """Refuse a table built for another lattice or base than params'."""
    lat = params.lat
    if (lut.family, lut.d, lut.q) != (lat.family, lat.d, params.q):
        raise ValueError(
            f"LUT ({lut.family}{lut.d}, q={lut.q}) does not match "
            f"params ({lat.name}, q={params.q})"
        )


def layer_indices(q: int, digits: np.ndarray, dither_ids: np.ndarray | None) -> np.ndarray:
    """Table indices (..., L) of digits (..., M, d); dither ids become layer 0.

    The ids take the codec's three forms (``codec._dither_rows``): None, one
    id (d,) for every row, whose index is computed once and broadcast, or the
    rows' ids (..., d).
    """
    idx = digits_to_index(digits, q)
    # in idx's type: digits_to_index gives one id's index as a Python int
    dither = _dither_rows(np.shape(digits)[-1], np.shape(digits)[:-2], dither_ids,
                          lambda i: np.asarray(digits_to_index(i, q), dtype=idx.dtype))
    z = dither(...)
    return idx if z is None else np.concatenate([z[..., None], idx], axis=-1)


# Elements per row block of the chunk-sum kernel, so each float64 temporary is
# 1 MiB.  On a 2 MiB L2 cache a 1024x128 d4 pair fold ran 1.1-1.6x slower at
# 2^18, 2x at 2^19, and the partial-row gather about 1.1x slower at 2^16 or 2^18.
_COMBINE_BLOCK = 2**17


def chunk_sum_dtype(lut: InnerProductLUT, L: int) -> np.dtype | None:
    """Narrowest integer type exact for every L-layer chunk sum, or None.

    A chunk sum weighs the pair of layers (i, j) by q^(i+j), so its magnitude
    is at most max|table| (sum_l q^l)^2; that bound must stay below the
    type's 2^(bits-1).  None for a bound past 2^63.
    """
    bound = lut.max_abs * ((lut.q**L - 1) // (lut.q - 1)) ** 2
    return next((t for t in _INT_TYPES if bound < 2 ** (8 * t.itemsize - 1)), None)


def _horner(q: int, terms) -> np.ndarray:
    """sum_l q^l terms[l], terms given highest layer first; overwrites the first."""
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc *= q
        acc += t
    return acc


def chunk_sums(
    lut: InnerProductLUT, a: tuple, b: tuple, outer: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Exact chunk sums sum_(i, j) q^(i+j) table[x_i, y_j] of codes a and b,
    as (r, C) for row blocks of a from row r.

    Each side is (digits (n, K, M, d), dither ids (n, K, d) or None), and its
    layer indices x, y (``layer_indices``, L layers) are worked out one block
    of rows at a time, so a block's temporaries, not the matrices', set the
    kernel's memory.  C is (rows, nb, K) for all pairs (``outer``), else
    (rows, K) for column a against column a, in the narrowest type
    ``chunk_sum_dtype`` proves exact, else Python ints: no order of the sums
    changes a bit.  A block holds about ``_COMBINE_BLOCK`` elements of its
    largest temporary, and at least one row.  Counts K L^2 table entries per
    chunk pair.

    All pairs in an integer type sum partial rows P[a, k] = sum_i q^i
    table[x[r + a, k, i]] by Horner's rule, then gather sum_j q^j P[a, k,
    y[b, k, j]]: L reads per chunk pair, plus L q^d per chunk of a; the
    columns of b are laid out for that gather once.  The rest gather all L^2
    layer pairs of a block (a partial row would read L q^d), cast only those,
    and take Horner's rule over both layer axes.
    """
    (da, za), (db, zb) = a, b
    na, K, M = da.shape[:3]
    L = M + (za is not None)
    nb, side, q = len(db), lut.side, lut.q
    dtype = chunk_sum_dtype(lut, L)

    def indices(digits, ids, rows):  # a new array (rows, K, L)
        return layer_indices(q, digits[rows], None if ids is None else ids[rows])

    if outer and dtype is not None:
        table = lut.values.astype(dtype).reshape(side, side)
        lut.query_count += na * nb * K * L * L
        # (L, nb, K) columns k * side + y of a block's partial rows, flattened (rows, K * side)
        cols = indices(db, zb, ...)
        cols += side * np.arange(K)[:, None]
        cols = np.moveaxis(cols, -1, 0).copy()
        rows = max(1, _COMBINE_BLOCK // (K * max(nb, side)))
        for r in range(0, na, rows):
            x = indices(da, za, slice(r, r + rows))
            P = _horner(q, (table[x[..., i]] for i in reversed(range(L)))).reshape(len(x), -1)
            # np.take on a flat axis, several times faster than P[:, cols[j]]
            yield r, _horner(q, (np.take(P, cols[j], axis=1) for j in reversed(range(L))))
        return
    if outer:  # every column of b, layer-major (L, 1, nb, K)
        y = np.moveaxis(indices(db, zb, ...), -1, 0)[:, None]
    rows = max(1, _COMBINE_BLOCK // (L * L * K * (max(nb, 1) if outer else 1)))
    for r in range(0, na, rows):
        block = slice(r, r + rows)
        # layer-major row offsets (L, rows, K), and for all pairs a column axis
        x = np.moveaxis(indices(da, za, block) * side, -1, 0)
        if outer:
            x = x[:, :, None]
        else:
            y = np.moveaxis(indices(db, zb, block), -1, 0)
        pairs = lut._gather(np.add(x[:, None], y[None], order="C"))
        pairs = pairs.astype(object if dtype is None else dtype, copy=False)
        yield r, _horner(q, (_horner(q, pairs[i, ::-1]) for i in reversed(range(L))))


def _with_crc(body: bytes) -> bytes:
    """body followed by its zlib.crc32, 4 bytes little-endian: the trailer of
    NLL version 2 and NLQM version 3 files."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def _strip_crc(raw: bytes, min_size: int, kind: str) -> bytes:
    """raw without its CRC-32 trailer; ValueError unless the trailer matches
    and at least min_size bytes precede it."""
    body, crc = raw[:-4], raw[-4:]
    if len(body) < min_size or zlib.crc32(body).to_bytes(4, "little") != crc:
        raise ValueError(f"{kind} checksum mismatch: corrupt or truncated file")
    return body


def save_lut(lut: InnerProductLUT, path) -> None:
    """Write the table as NLL version 2: header, int64 values, CRC-32 of both."""
    body = _HEADER.pack(_MAGIC, _VERSION, FAMILY_IDS[lut.family], lut.d, lut.q, 0, 1.0)
    body += np.ascontiguousarray(lut.values, dtype="<i8").tobytes()
    with open(path, "wb") as f:
        f.write(_with_crc(body))


def load_lut(path, params: HierarchicalParams) -> InnerProductLUT:
    """Read an NLL version 2 table and validate it against params.

    The file is checked against its CRC-32, then its header, whose float slot
    must read 1.0.  Other versions, version 1 among them, raise ValueError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated LUT file")
    magic, version, fam_id, d, q, vt, slot = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("bad magic, not a LUT file")
    if version != _VERSION:
        raise ValueError(f"unsupported LUT version {version}")
    raw = _strip_crc(raw, _HEADER.size, "LUT")
    if vt != 0:
        raise ValueError(f"unknown value type {vt}")
    family = {v: k for k, v in FAMILY_IDS.items()}.get(fam_id)
    lat = params.lat
    if family != lat.family or d != lat.d or q != params.q:
        raise ValueError(
            f"LUT header ({family}{d}, q={q}) does not match params ({lat.name}, q={params.q})"
        )
    if slot != 1.0:
        raise ValueError(f"LUT header slot reads {slot}, expected 1.0")
    values = np.frombuffer(raw, dtype="<i8", offset=_HEADER.size)
    if values.size != q ** (2 * d):
        raise ValueError(f"table holds {values.size} entries, expected {q ** (2 * d)}")
    return InnerProductLUT(family=family, d=d, q=q, values=values.copy())
