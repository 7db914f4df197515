"""Product-code pipeline: long vectors in, table-driven inner products out.

A length-n vector is split into n/d chunks, each quantized independently
with per-chunk overload scaling.  Inner products between two quantized
vectors sum per-chunk table lookups weighted by both chunks' scales, with
an optional shared random rotation and norm bookkeeping in front.  Every
product (``_products``) takes exact integer chunk sums from
``lut.chunk_sums`` and one float step: divide by q^2 when dithered,
multiply by the lattice factor u and both chunk scales, sum over chunks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .codec import HierarchicalParams
from .lattices import FAMILY_IDS, _as_float, _as_vector, _integer, make_lattice
from .lut import InnerProductLUT, _strip_crc, _with_crc, check_lut, chunk_sums
from .scaling import ScalingConfig, _blocks, _blockwise, decode_scaled_many, encode_scaled_many
from .voronoi import _check_digits, digit_dtype, digits_to_index, index_to_digits

__all__ = [
    "DITHER_MODES",
    "PipelineConfig",
    "QuantizedMatrix",
    "random_rotation",
    "quantize_vector",
    "quantize_matrix",
    "reconstruct_chunks",
    "ip_approx",
    "matmul_approx",
    "paired_ip_approx",
    "save_quantized_matrix",
    "load_quantized_matrix",
]

DITHER_MODES = ("none", "fixed", "random")


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """Codec parameters plus vector-length and preprocessing choices.

    Attributes:
        params: hierarchical codec parameters, q >= 3 (d divides n).
        scaling: overload scaling configuration.
        n: full vector length, a multiple of the lattice dimension.
        rotate: True to apply a shared random rotation and scale each vector
            to norm sqrt(n), so its coordinates have unit variance, the frame
            beta0 is calibrated in; the recorded norm rescales inner products
            by norm_a norm_b / n.  A value equal to True or False is kept as
            that bool; any other is refused.
        rotation_seed: integer seed of the shared rotation, in [-2^63, 2^63)
            (files store it as int64); a negative seed is taken mod 2^64.
        dither_mode: "none", "fixed" (one digit id for every chunk) or
            "random" (per column/chunk ids from a counter-based SplitMix64
            hash of (dither_seed, column, chunk); see ``_dither_digit_ids``).
        dither_ids: the fixed digit id, required when dither_mode="fixed":
            integer digits in [0, q), kept read-only in ``digit_dtype(q)``.
        dither_seed: integer seed for the "random" mode, in [-2^63, 2^63) and
            taken mod 2^64, like rotation_seed.
    """

    params: HierarchicalParams
    scaling: ScalingConfig
    n: int
    rotate: bool = False
    rotation_seed: int = 0
    dither_mode: str = "none"
    dither_ids: np.ndarray | None = None
    dither_seed: int = 0

    def __post_init__(self):
        if _integer("n", self.n, 1) % self.params.lat.d:
            raise ValueError("n must be a positive multiple of the lattice dimension")
        for name in ("rotation_seed", "dither_seed"):
            _integer(name, getattr(self, name), -(2**63), 2**63)
        if self.rotate not in (False, True):
            raise ValueError(f"rotate must be True or False, got {self.rotate!r}")
        object.__setattr__(self, "rotate", bool(self.rotate))
        if self.dither_mode not in DITHER_MODES:
            raise ValueError(f"dither_mode must be one of {DITHER_MODES}")
        if self.dither_mode == "fixed":
            ids = np.asarray(self.dither_ids)
            if ids.shape != (self.params.lat.d,):
                raise ValueError("fixed dither needs one digit id of shape (d,)")
            q = self.params.q
            ids = _check_digits(ids, q, self.params.lat.d).astype(digit_dtype(q))
            ids.setflags(write=False)  # every fixed-mode matrix holds a view of it
            object.__setattr__(self, "dither_ids", ids)
        elif self.dither_ids is not None:
            raise ValueError("dither_ids only applies to the fixed mode")
        # The q = 2 layer codebook is one-sided (Z_1: {0, -1}), so a chunk with a
        # coordinate that rounds to +1 overloads until it rounds to 0; every
        # non-zero dither point lies on the cell boundary.
        if self.params.q == 2:
            raise ValueError("q = 2 is refused: its codes reconstruct almost every chunk as 0")

    @property
    def chunks(self) -> int:
        return self.n // self.params.lat.d


@dataclass(eq=False)
class QuantizedMatrix:
    """A column-quantized matrix plus the configuration that produced it.

    Digits and dither ids have type ``voronoi.digit_dtype(q)`` (uint8 for
    q <= 256) and T has ``cfg.scaling.retry_dtype`` (uint8 for max_retries
    <= 254), so a chunk holds M d + 1 bytes, plus d of random dither ids; a
    fixed id is a read-only broadcast view of the config's one id.  All are
    unsigned: cast them before subtracting.  Products and files accept the
    same values in any integer type.  A quantized vector is a one-column matrix.
    """

    cfg: PipelineConfig
    digits: np.ndarray  # (cols, K, M, d)
    T: np.ndarray  # (cols, K)
    norms: np.ndarray | None  # (cols,) when rotating
    dither_ids: np.ndarray | None  # (cols, K, d) when dithering

    @property
    def cols(self) -> int:
        return self.digits.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.cfg.n, self.cols)

    def column(self, j: int) -> QuantizedMatrix:
        """Column j (negative counts from the end) as a one-column matrix of views.

        A j that is not an integer, a bool included, raises ValueError; an
        integer out of range raises IndexError."""
        _integer("column index", j)
        return QuantizedMatrix(
            cfg=self.cfg,
            digits=self.digits[j, None],
            T=self.T[j, None],
            norms=None if self.norms is None else self.norms[j, None],
            dither_ids=None if self.dither_ids is None else self.dither_ids[j, None],
        )


def random_rotation(n: int, seed: int) -> np.ndarray:
    """Deterministic Haar-distributed orthogonal matrix.

    QR of an i.i.d. Gaussian matrix with the R diagonal's signs folded in,
    which makes the factorization unique and the distribution uniform.  The
    generator is seeded with seed mod 2^64, so every integer seed works.
    """
    rng = np.random.default_rng(int(seed) % 2**64)
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment and
# the 64-bit finalizer.  NLQM v2 derives random-mode dither ids with it.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1


def _mix64(z):
    """SplitMix64 finalizer of a Python int in [0, 2^64) or, in place, a uint64 array.

    The masks keep Python ints in 64 bits; uint64 array products wrap by themselves.
    """
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def _low_digits(vals: np.ndarray, q: int, d: int) -> np.ndarray:
    """Dither ids (..., d): the low d base-q digits of 64-bit values (...)."""
    if q**d < 2**64:
        vals = vals % q**d
    return index_to_digits(vals, q, d)


def _dither_digit_ids(cfg: PipelineConfig, col, K: int) -> np.ndarray | None:
    """Per-chunk dither ids (K, d) of column ``col``, or (..., K, d) of an array of
    columns, or None.  A fixed id is a read-only view of the config's one id.

    Random-mode chunk k takes the low digits of
    mix(mix(mix(seed gamma) + (col + 1) gamma) + (k + 1) gamma) mod 2^64, seed
    and col taken mod 2^64: a counter-based SplitMix64 chain, so any column is
    derived without the others, and every (column, chunk) id in one uint64 pass.
    """
    d, q = cfg.params.lat.d, cfg.params.q
    if cfg.dither_mode == "none":
        return None
    shape = np.shape(col) + (K, d)
    if cfg.dither_mode == "fixed":
        return np.broadcast_to(cfg.dither_ids, shape)
    # uint64 arrays, never numpy scalars: array products wrap without a warning.
    col = int(col) % 2**64 if np.ndim(col) == 0 else col
    z = np.array(col).astype(np.uint64).reshape(-1, 1)
    z += 1
    z *= _GAMMA
    z += _mix64(int(cfg.dither_seed) * _GAMMA & _MASK64)
    z = _mix64(z) + np.arange(1, K + 1, dtype=np.uint64) * _GAMMA
    return _low_digits(_mix64(z), q, d).reshape(shape)


def _column_dither_ids(cfg: PipelineConfig, first_col: int, cols: int) -> np.ndarray | None:
    """Dither ids (cols, K, d) of columns first_col, first_col + 1, ..., or None.

    Random ids are derived in the codec's blocks of columns (``scaling._blocks``).
    """
    if cfg.dither_mode == "none":
        return None
    # Columns are taken mod 2^64, so the uint64 column numbers may wrap past 2^64 - 1.
    col = np.arange(cols, dtype=np.uint64) + int(first_col) % 2**64
    if cfg.dither_mode == "fixed":
        return _dither_digit_ids(cfg, col, cfg.chunks)
    return _blockwise(lambda c: _dither_digit_ids(cfg, col[c], cfg.chunks), _blocks(cols, cfg.n),
                      (cols, cfg.chunks, cfg.params.lat.d), digit_dtype(cfg.params.q))


def _encode_columns(cfg: PipelineConfig, A: np.ndarray, first_col: int = 0) -> QuantizedMatrix:
    """Rotate columns of A (n, cols) to norm sqrt(n) and encode all chunks.

    Column j takes the dither ids of column first_col + j.
    """
    n, cols = A.shape
    d, K = cfg.params.lat.d, cfg.chunks
    if n != cfg.n:
        raise ValueError(f"expected {cfg.n} rows, got {n}")
    norms = None
    Y = A
    if cfg.rotate:
        # Checked here too: normalizing would warn on inf before the encoder rejects it.
        if not np.isfinite(A).all():
            raise ValueError("cannot encode non-finite values")
        S = random_rotation(cfg.n, cfg.rotation_seed)
        norms = np.linalg.norm(A, axis=0)
        Y = S @ A
        Y *= np.sqrt(cfg.n) / np.where(norms > 0, norms, 1.0)
    ids = _column_dither_ids(cfg, first_col, cols)
    digits, T = encode_scaled_many(cfg.params, cfg.scaling, Y.T.reshape(cols, K, d), ids)
    return QuantizedMatrix(cfg=cfg, digits=digits, T=T, norms=norms, dither_ids=ids)


def quantize_matrix(cfg: PipelineConfig, A: np.ndarray) -> QuantizedMatrix:
    """Quantize every column of real A (n, cols); complex A raises ValueError."""
    A = _as_float(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    return _encode_columns(cfg, A)


def quantize_vector(cfg: PipelineConfig, x: np.ndarray, col: int = 0) -> QuantizedMatrix:
    """Quantize a single length-n vector as column ``col`` of a matrix.

    The one-column result equals ``quantize_matrix(cfg, A).column(col)``
    when column ``col`` of A is x: ``col`` selects the "random" mode's dither
    ids, and any integer works: it is taken mod 2^64.  A ``col`` that is not
    an integer, a bool included, or a complex x, raises ValueError.
    """
    return _encode_columns(cfg, _as_vector(x, cfg.n)[:, None], first_col=_integer("col", col))


def reconstruct_chunks(cfg: PipelineConfig, Q: QuantizedMatrix) -> np.ndarray:
    """Decode every chunk of every column of a quantized matrix, shape (cols, K, d).

    These live in the rotated frame, where a column has norm sqrt(n), when
    the pipeline rotates; they are the exact vectors whose pairwise inner
    products the table products sum before rescaling by norm_a norm_b / n.
    """
    _check_config(cfg, Q)
    return decode_scaled_many(cfg.params, cfg.scaling, Q.digits, Q.T, dither_ids=Q.dither_ids)


def _code_key(cfg: PipelineConfig) -> tuple:
    """The settings quantized codes depend on; ``max_retries`` only bounds encoding."""
    lat, sc = cfg.params.lat, cfg.scaling
    ids = None if cfg.dither_ids is None else cfg.dither_ids.tolist()
    return (lat.family, lat.d, cfg.params.q, cfg.params.M,
            sc.beta0, sc.alpha, cfg.n, cfg.rotate, cfg.rotation_seed,
            cfg.dither_mode, ids, cfg.dither_seed)


def _check_config(cfg: PipelineConfig, *quantized) -> None:
    """Refuse quantized matrices made under settings other than cfg's."""
    if any(_code_key(v.cfg) != _code_key(cfg) for v in quantized):
        raise ValueError("quantized data does not match the pipeline config")


def _products(cfg, lut, QA: QuantizedMatrix, QB: QuantizedMatrix, outer: bool) -> np.ndarray:
    """Inner products of all column pairs (na, nb) when ``outer``, else paired (n,).

    The one float step: an exact chunk sum is divided by q^2 when dithered,
    multiplied by the lattice factor u, then (sa * sb) * chunk is summed over
    chunks and, when rotating, scaled by norm_a norm_b / n.  All pairs are
    built over the side with fewer columns: the table is symmetric and a
    float product commutes, so the swap changes no bit.
    """
    if outer and QB.cols < QA.cols:
        return _products(cfg, lut, QB, QA, outer).T.copy()
    _check_config(cfg, QA, QB)
    if not outer and QA.cols != QB.cols:
        raise ValueError("paired matrices need the same number of columns")
    check_lut(lut, cfg.params)
    q, u = cfg.params.q, cfg.params.lat.integer_gram[1]
    scale, Ta, Tb = cfg.scaling.scale, QA.T, QB.T
    sb = scale(Tb) if outer else None  # all pairs pair every block with all of b
    out = np.empty((QA.cols, QB.cols) if outer else QA.cols)
    for r, chunk in chunk_sums(lut, (QA.digits, QA.dither_ids), (QB.digits, QB.dither_ids), outer):
        rows = slice(r, r + len(chunk))
        if chunk.dtype == object:
            chunk = chunk.astype(np.float64)
        if cfg.dither_mode != "none":
            chunk = chunk / q**2
        if u != 1:
            chunk = chunk * u
        # a block's scales from its own T: the floats of scaling all of T at once
        prod = scale(Ta[rows])[:, None] * sb if outer else scale(Ta[rows]) * scale(Tb[rows])
        prod *= chunk
        out[rows] = prod.sum(-1)
    if cfg.rotate:
        out *= (QA.norms[:, None] * QB.norms if outer else QA.norms * QB.norms) / cfg.n
    return out


def ip_approx(
    cfg: PipelineConfig, lut: InnerProductLUT, qx: QuantizedMatrix, qy: QuantizedMatrix
) -> float:
    """Approximate inner product of two quantized columns via table lookups.

    The paired product of two one-column matrices (any other column count
    raises ValueError): looked-up chunk inner products times both chunks'
    scales, summed, then times norm_x norm_y / n when the pipeline rotates.
    Both must be quantized under cfg, and the table built for cfg's parameters.
    """
    if qx.cols != 1 or qy.cols != 1:
        raise ValueError(f"ip_approx takes one-column matrices, not {qx.cols} and {qy.cols}")
    return float(_products(cfg, lut, qx, qy, outer=False)[0])


def matmul_approx(
    cfg: PipelineConfig, lut: InnerProductLUT, QA: QuantizedMatrix, QB: QuantizedMatrix
) -> np.ndarray:
    """Approximate A^T B for two quantized matrices in one table combine.

    Entry (i, j) equals ``ip_approx`` of ``QA.column(i)`` and ``QB.column(j)``
    bit for bit.  The LUT's query counter grows by a.cols * b.cols * K * L^2
    table entries combined (L = M, or M + 1 when dithered).  Chunk sums
    within int64 read partial rows of the matrix with fewer columns (K L q^d
    entries per column of it plus K L per output entry); sums past int64
    gather all L^2 layer pairs in Python ints.  Both matrices must be
    quantized under settings equal to cfg's, and the table built for cfg's
    parameters.
    """
    return _products(cfg, lut, QA, QB, outer=True)


def paired_ip_approx(
    cfg: PipelineConfig, lut: InnerProductLUT, QA: QuantizedMatrix, QB: QuantizedMatrix
) -> np.ndarray:
    """Approximate inner products of column j of A with column j of B, every j.

    The pair gather of ``ip_approx`` on paired columns: entry j equals
    ``ip_approx`` of ``QA.column(j)`` and ``QB.column(j)`` bit for bit and
    combines its K M^2 table entries (K (M+1)^2 when dithered) in one gather
    per block.  Partial rows would not pay here: one pair reads L^2 entries,
    a partial row L q^d.  Both matrices must have the same number of columns
    and be quantized under settings equal to cfg's.
    """
    return _products(cfg, lut, QA, QB, outer=False)


_QM_MAGIC = int.from_bytes(b"NLQM", "little")
_QM_HEADER = struct.Struct("<8I2d2I2q")
# Version 3 appends a CRC-32 of the file to the version 2 layout; both derive
# random-mode dither ids with the SplitMix64 chain.  Version 1 is not read.
_QM_VERSION = 3
_DITHER_CODE = {"none": 0, "fixed": 1, "random": 2}


def _digit_record_bytes(q: int, d: int) -> int:
    """Bytes per packed digit vector; records hold at most 64 bits."""
    if d > 64 or q**d > 2**64:  # q >= 2, so d > 64 overflows too, without a huge q**d
        raise ValueError(f"q^d = {q}^{d} digit vectors do not fit 64-bit records")
    return ((q**d - 1).bit_length() + 7) // 8


def save_quantized_matrix(qm: QuantizedMatrix, path) -> None:
    """Write a quantized matrix in the fixed little-endian binary layout.

    Header, then per column and chunk each digit vector packed as its
    base-q value (first coordinate most significant) in the minimal whole
    number of little-endian bytes, then one byte of T per chunk, then the
    per-column norms when rotation is on, then a CRC-32 of all of it.  The
    config's fixed dither id rides in a short trailer right after the header;
    random ids are re-derived from the seed on load.  So a matrix whose ids
    differ from the ones its config gives (edited ids) is refused with
    ValueError.
    """
    cfg = qm.cfg
    if not np.array_equal(_column_dither_ids(cfg, 0, qm.cols), qm.dither_ids):
        raise ValueError("dither ids differ from the ones the config gives, "
                         "so the file would load different ids")
    q, d, M = cfg.params.q, cfg.params.lat.d, cfg.params.M
    header = _QM_HEADER.pack(
        _QM_MAGIC,
        _QM_VERSION,
        FAMILY_IDS[cfg.params.lat.family],
        d,
        cfg.n,
        qm.cols,
        q,
        M,
        cfg.scaling.alpha,
        cfg.scaling.beta0,
        1 if cfg.rotate else 0,
        _DITHER_CODE[cfg.dither_mode],
        cfg.rotation_seed,
        cfg.dither_seed,
    )
    nrec = _digit_record_bytes(q, d)
    if qm.T.max(initial=0) > 0xFF:
        raise ValueError("retry counts exceed one byte")
    if cfg.dither_mode == "fixed" and cfg.dither_ids.max() > 0xFF:
        raise ValueError("fixed dither id digits exceed one byte")
    parts = [header]
    if cfg.dither_mode == "fixed":
        parts.append(cfg.dither_ids.astype(np.uint8).tobytes())
    for c in _blocks(qm.cols, cfg.n):
        # the nrec low bytes of each value, little-endian, with no copy on a little-endian machine
        vals = digits_to_index(qm.digits[c], q)[..., None]
        parts.append(vals.astype(vals.dtype.newbyteorder("<"), copy=False)
                     .view(np.uint8)[..., :nrec].tobytes())
    parts.append(qm.T.astype(np.uint8).tobytes())
    if cfg.rotate:
        parts.append(np.ascontiguousarray(qm.norms, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(_with_crc(b"".join(parts)))


def _unpack_records(payload: np.ndarray, q: int, d: int) -> np.ndarray:
    """Digit vectors (..., d) of little-endian records (..., nrec); refuses records >= q^d."""
    if payload.shape[-1] == 1:  # one-byte records are the indices themselves
        return index_to_digits(payload[..., 0], q, d)
    # each record zero-padded to 8 bytes and read as one little-endian value
    rec = np.zeros(payload.shape[:-1] + (8,), dtype=np.uint8)
    rec[..., :payload.shape[-1]] = payload
    return index_to_digits(rec.view("<u8")[..., 0], q, d)


def load_quantized_matrix(path) -> QuantizedMatrix:
    """Read a quantized matrix; reconstructs the pipeline config from the header.

    ``max_retries`` is not serialized (it only matters when encoding); the
    reconstructed config takes the default 60, so a ladder whose top rung
    leaves the float range is refused.

    Versions 2 and 3 load; any other, version 1 among them, raises
    ValueError.  A version 3 file is checked against its CRC-32 before any
    field but the magic and version.  Version 2 is the same layout without
    the checksum; a flipped bit loads or raises ValueError.  Not checked
    there: alpha, beta0, both seeds, T bytes, norms, digit records kept below
    q^d, and q, family, dither code or d where the file stays consistent in
    length.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _QM_HEADER.size:
        raise ValueError("truncated quantized-matrix file")
    (
        magic, version, fam_id, d, n, cols, q, M,
        alpha, beta0, rotate, dither_code, rotation_seed, dither_seed,
    ) = _QM_HEADER.unpack_from(raw)
    if magic != _QM_MAGIC:
        raise ValueError("bad magic, not a quantized-matrix file")
    if version not in (2, _QM_VERSION):
        raise ValueError(f"unsupported version {version}")
    if version == _QM_VERSION:
        raw = _strip_crc(raw, _QM_HEADER.size, "quantized-matrix")
    families = {v: k for k, v in FAMILY_IDS.items()}
    if fam_id not in families:
        raise ValueError(f"unknown lattice id {fam_id}")
    mode = {v: k for k, v in _DITHER_CODE.items()}.get(dither_code)
    if mode is None:
        raise ValueError(f"unknown dither mode {dither_code}")
    if rotate not in (0, 1):
        raise ValueError(f"rotate flag {rotate} is neither 0 nor 1")
    # Check the record size before make_lattice allocates d x d matrices;
    # q >= 2 and q^d <= 2^64 bound d by 64.
    nrec = _digit_record_bytes(_integer("q", q, 2), d)
    off = _QM_HEADER.size
    fixed_ids = None
    if mode == "fixed":
        fixed_ids = np.frombuffer(raw, dtype=np.uint8, count=d, offset=off)
        off += d
    lat = make_lattice(families[fam_id], d)
    params = HierarchicalParams(lat, q, M)
    cfg = PipelineConfig(
        params=params,
        scaling=ScalingConfig(beta0=beta0, alpha=alpha),
        n=n,
        rotate=rotate == 1,
        rotation_seed=rotation_seed,
        dither_mode=mode,
        dither_ids=fixed_ids,
        dither_seed=dither_seed,
    )
    K = cfg.chunks
    count = cols * K * M * nrec
    payload = np.frombuffer(raw, dtype=np.uint8, count=count, offset=off)
    payload = payload.reshape(cols, K, M, nrec)
    off += count
    digits = _blockwise(lambda c: _unpack_records(payload[c], q, d), _blocks(cols, n),
                        (cols, K, M, d), digit_dtype(q))
    T = np.frombuffer(raw, dtype=np.uint8, count=cols * K, offset=off)
    T = T.astype(cfg.scaling.retry_dtype).reshape(cols, K)
    off += cols * K
    norms = None
    if rotate:
        norms = np.frombuffer(raw, dtype="<f8", count=cols, offset=off).copy()
        off += cols * 8
    if off != len(raw):
        raise ValueError("trailing bytes in quantized-matrix file")
    ids = _column_dither_ids(cfg, 0, cols)
    return QuantizedMatrix(cfg=cfg, digits=digits, T=T, norms=norms, dither_ids=ids)
