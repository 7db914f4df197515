"""The codec runs in row blocks of ``scaling._CODEC_BLOCK`` elements, and the
products in row blocks of about ``lut._COMBINE_BLOCK``.

Encode, decode, random dither ids and NLQM records are computed block by
block, and so are the layer indices of the products; every output must
equal one unblocked call bit for bit, and errors must count the rows of
every block.  The constants are patched small here.
"""

import zlib

import numpy as np
import pytest

from conftest import traced_peak_mib
from hnlq import UnencodableError, bench, lut, pipeline, scaling
from hnlq.codec import HierarchicalParams
from hnlq.lattices import make_lattice
from hnlq.lut import build_lut, chunk_sum_dtype
from hnlq.pipeline import (
    _QM_HEADER,
    PipelineConfig,
    _column_dither_ids,
    ip_approx,
    load_quantized_matrix,
    matmul_approx,
    paired_ip_approx,
    quantize_matrix,
    save_quantized_matrix,
)
from hnlq.scaling import ScalingConfig, decode_scaled_many, encode_scaled_many

SMALL = 2**6  # elements a block: 32 a2 or z2 rows, 16 d4 rows
LATTICES = {"a2": 8, "d4": 4, "z2": 5}  # lattice -> q


def unblocked(monkeypatch):
    monkeypatch.setattr(scaling, "_CODEC_BLOCK", 2**62)


def blocked(monkeypatch):
    monkeypatch.setattr(scaling, "_CODEC_BLOCK", SMALL)


def row_counts(d):
    """0 rows, one block less one, one block, one more, and several blocks and a part."""
    b = SMALL // d
    return [0, b - 1, b, b + 1, 3 * b + 2]


def dither_cases(params, rows, rng):
    """Dither ids per mode for a batch of rows: None, one id (d,) or per-row ids."""
    d, q = params.lat.d, params.q
    return {
        "none": None,
        "fixed": rng.integers(0, q, d).astype(np.uint8),
        "random": rng.integers(0, q, (rows, d)).astype(np.uint8),
    }


def heavy_tailed_rows(rng, rows, d):
    """Gaussian rows at spread scales, so many rows retry and some jump by the gauge."""
    return rng.standard_normal((rows, d)) * np.exp(rng.uniform(-1, 3, (rows, 1)))


@pytest.mark.parametrize("name", LATTICES)
def test_blocked_encode_and_decode_equal_one_call(name, monkeypatch):
    lat = make_lattice(name)
    params = HierarchicalParams(lat, LATTICES[name], 2)
    cfg = ScalingConfig(beta0=0.3)
    rng = np.random.default_rng(31)
    for rows in row_counts(lat.d):
        X = heavy_tailed_rows(rng, rows, lat.d)
        for mode, ids in dither_cases(params, rows, rng).items():
            unblocked(monkeypatch)
            digits, T = encode_scaled_many(params, cfg, X, dither_ids=ids)
            want = decode_scaled_many(params, cfg, digits, T, dither_ids=ids)
            blocked(monkeypatch)
            got_digits, got_T = encode_scaled_many(params, cfg, X, dither_ids=ids)
            got = decode_scaled_many(params, cfg, digits, T, dither_ids=ids)
            case = (rows, mode)
            assert got_digits.dtype == digits.dtype and got_T.dtype == T.dtype, case
            assert np.array_equal(got_digits, digits) and np.array_equal(got_T, T), case
            assert got.shape == want.shape == (rows, lat.d), case
            assert np.array_equal(got, want), case
        if rows:
            assert T.any()  # retries ran in the blocked calls too


def test_blocked_decode_keeps_batch_shapes(monkeypatch):
    # (cols, K, M, d) digits, as quantize_matrix holds them, across blocks
    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    cfg = ScalingConfig(beta0=0.3)
    X = heavy_tailed_rows(np.random.default_rng(32), 5 * 7, 4).reshape(5, 7, 4)
    unblocked(monkeypatch)
    digits, T = encode_scaled_many(params, cfg, X)
    want = decode_scaled_many(params, cfg, digits, T)
    blocked(monkeypatch)
    assert digits.shape == (5, 7, 2, 4) and T.shape == (5, 7)
    got = decode_scaled_many(params, cfg, digits, T)
    assert got.shape == (5, 7, 4) and np.array_equal(got, want)


def matrix_configs(name):
    params = HierarchicalParams(make_lattice(name), LATTICES[name], 2)
    d = params.lat.d
    ids = np.arange(d, dtype=np.uint8) % params.q
    return {
        "none": PipelineConfig(params, ScalingConfig(0.3), 4 * d),
        "fixed": PipelineConfig(params, ScalingConfig(0.3), 4 * d, dither_mode="fixed",
                                dither_ids=ids),
        "random": PipelineConfig(params, ScalingConfig(0.3), 4 * d, dither_mode="random",
                                 dither_seed=-3),
        "random rotated": PipelineConfig(params, ScalingConfig(0.3), 4 * d, rotate=True,
                                         rotation_seed=4, dither_mode="random", dither_seed=9),
    }


@pytest.mark.parametrize("name", LATTICES)
def test_blocked_matrices_and_files_equal_one_call(name, monkeypatch, tmp_path):
    # n = 4 d, so a block of SMALL elements holds SMALL / n columns
    for mode, cfg in matrix_configs(name).items():
        per = SMALL // cfg.n
        for cols in (0, per - 1, per, per + 1, 3 * per + 2):
            A = np.random.default_rng(cols).standard_normal((cfg.n, cols)) * 3
            unblocked(monkeypatch)
            Q = quantize_matrix(cfg, A)
            save_quantized_matrix(Q, tmp_path / "one.nlqm")
            blocked(monkeypatch)
            B = quantize_matrix(cfg, A)
            for got, want in ((B.digits, Q.digits), (B.T, Q.T), (B.dither_ids, Q.dither_ids)):
                assert (got is None) == (want is None), (mode, cols)
                if got is not None:
                    assert got.dtype == want.dtype and np.array_equal(got, want), (mode, cols)
            save_quantized_matrix(B, tmp_path / "blocks.nlqm")
            one = (tmp_path / "one.nlqm").read_bytes()
            assert (tmp_path / "blocks.nlqm").read_bytes() == one, (mode, cols)
            L = load_quantized_matrix(tmp_path / "one.nlqm")
            assert L.digits.dtype == Q.digits.dtype and L.digits.shape == Q.digits.shape
            assert np.array_equal(L.digits, Q.digits) and np.array_equal(L.T, Q.T)
            assert L.dither_ids is None or np.array_equal(L.dither_ids, Q.dither_ids)
            got = decode_scaled_many(cfg.params, cfg.scaling, L.digits, L.T, L.dither_ids)
            unblocked(monkeypatch)
            want = decode_scaled_many(cfg.params, cfg.scaling, Q.digits, Q.T, Q.dither_ids)
            assert np.array_equal(got, want), (mode, cols)


def test_blocked_load_refuses_a_record_in_a_later_block(monkeypatch, tmp_path):
    # d4 q=4 records are one byte, 0..255: every value fits, so take z2 q=5
    # (25 vectors, one byte): a record of 25 in the last column must be refused
    cfg = matrix_configs("z2")["none"]
    blocked(monkeypatch)
    cols = 3 * (SMALL // cfg.n) + 2
    Q = quantize_matrix(cfg, np.random.default_rng(33).standard_normal((cfg.n, cols)))
    save_quantized_matrix(Q, tmp_path / "m.nlqm")
    raw = bytearray((tmp_path / "m.nlqm").read_bytes())
    last = _QM_HEADER.size + cols * cfg.chunks * cfg.params.M - 1
    raw[last] = 25
    body = bytes(raw[:-4])
    (tmp_path / "bad.nlqm").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="index out of range"):
        load_quantized_matrix(tmp_path / "bad.nlqm")


@pytest.mark.parametrize("name", LATTICES)
def test_blocked_random_ids_equal_one_call(name, monkeypatch):
    cfg = matrix_configs(name)["random"]
    per = SMALL // cfg.n
    for first in (0, 7, 2**64 - 5, -2):
        for cols in (0, per - 1, per, per + 1, 3 * per + 2):
            unblocked(monkeypatch)
            want = _column_dither_ids(cfg, first, cols)
            blocked(monkeypatch)
            got = _column_dither_ids(cfg, first, cols)
            assert got.shape == (cols, cfg.chunks, cfg.params.lat.d)
            assert got.dtype == want.dtype and np.array_equal(got, want), (first, cols)


def test_unencodable_count_covers_every_block(monkeypatch):
    lat = make_lattice("d4")
    params = HierarchicalParams(lat, 4, 2)
    cfg = ScalingConfig(beta0=1.0, max_retries=2)
    blocked(monkeypatch)
    b = SMALL // lat.d
    X = np.random.default_rng(34).standard_normal((3 * b + 2, 4))
    lost = [0, b + 3, 2 * b + 1, 3 * b + 1]  # rows in all four blocks
    X[lost] = 1e6  # within int64 reach, beyond the top rung
    calls = []
    real = scaling.h_encode_many
    monkeypatch.setattr(scaling, "h_encode_many", lambda p, x: calls.append(len(x)) or real(p, x))
    with pytest.raises(UnencodableError, match="^4 vector"):
        encode_scaled_many(params, cfg, X)
    assert sum(calls) >= len(X)  # every block was encoded
    # past int64 reach at the top rung: refused before any row is encoded
    X[lost] = 1e30
    calls.clear()
    with pytest.raises(UnencodableError, match="^4 vector"):
        encode_scaled_many(params, cfg, X)
    assert calls == []


def test_one_block_calls_return_their_block_arrays(monkeypatch):
    # A calibration pilot, 8,000 d4 rows, fits one block at the default size:
    # the encoder's digits and the decoder's rows are the outputs, not copies.
    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    cfg = ScalingConfig(beta0=0.3)
    X = np.random.default_rng(35).standard_normal((8000, 4))
    assert len(scaling._blocks(len(X), 4)) == 1
    made = []
    real = scaling.h_encode_many
    monkeypatch.setattr(scaling, "h_encode_many", lambda p, x: made.append(real(p, x)) or made[-1])
    digits, T = encode_scaled_many(params, cfg, X, dither_ids=np.array([1, 0, 2, 3]))
    assert np.shares_memory(digits, made[0][0])
    rows = []
    real_block = scaling._decode_block
    monkeypatch.setattr(scaling, "_decode_block",
                        lambda *a: rows.append(real_block(*a)) or rows[-1])
    out = decode_scaled_many(params, cfg, digits, T)
    assert len(rows) == 1 and np.shares_memory(out, rows[0])


# tracemalloc peak of quantize_matrix on the store-a2 matrix (1024 x 256, a2
# q=8 M=2, random dither): 16.5 MiB in one block, 6.4 MiB in blocks of 2^16.
STORE_A2_QUANTIZE_PEAK_MIB = 8.0


def test_store_a2_quantize_peak_is_bounded():
    params = HierarchicalParams(make_lattice("a2"), 8, 2)
    beta0 = bench.calibrate_beta0("hierarchical", params, seed=51)
    cfg = PipelineConfig(params, ScalingConfig(beta0), 1024, dither_mode="random",
                         dither_seed=51)
    X = np.random.default_rng(51).standard_normal((1024, 256))
    Q, peak = traced_peak_mib(lambda: quantize_matrix(cfg, X))
    assert Q.digits.shape == (256, 512, 2, 2)
    assert peak <= STORE_A2_QUANTIZE_PEAK_MIB, f"{peak:.2f} MiB"


ROWS = 3  # rows of A in a block of the chunk-sum kernel when it is patched small
WIDE = 3 * ROWS + 3  # columns of B in all-pairs products: B stays the wider side


def product_configs():
    """matrix_configs' dither modes and rotation for each lattice, plus the
    Python-int path of test_products_exact_beyond_int64 (d4 q=8 M=11)."""
    cases = {f"{name} {mode}": cfg for name in LATTICES
             for mode, cfg in matrix_configs(name).items()}
    cases["d4 q=8 M=11 python ints"] = PipelineConfig(
        HierarchicalParams(make_lattice("d4"), 8, 11), ScalingConfig(1e-10), 8)
    return cases


def combine_block(cfg, table, outer):
    """A ``_COMBINE_BLOCK`` at which a kernel block holds ROWS rows of A.

    All pairs within int64 take blocks of partial rows and chunk sums,
    K max(B.cols, q^d) elements a row; the pair gather takes every layer pair,
    L^2 K elements a row, times B.cols for all pairs.
    """
    L = cfg.params.M + (cfg.dither_mode != "none")
    K = cfg.chunks
    if outer and chunk_sum_dtype(table, L) is not None:
        return ROWS * K * max(WIDE, table.side)
    return ROWS * L * L * K * (WIDE if outer else 1)


@pytest.mark.parametrize("case", product_configs().items(), ids=product_configs().keys())
def test_blocked_products_equal_one_call(case, monkeypatch):
    # the layer indices of both sides are worked out block by block: products
    # and table counts equal one block over all columns, bit for bit
    _, cfg = case
    table = build_lut(cfg.params)
    blocks = []
    kernel = lut.chunk_sums

    def spied(*args):
        for r, chunk in kernel(*args):
            blocks.append(r)
            yield r, chunk

    monkeypatch.setattr(pipeline, "chunk_sums", spied)
    for cols in (0, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2):
        rng = np.random.default_rng(cols)
        A, A2 = (rng.standard_normal((cfg.n, cols)) * 3 for _ in range(2))
        B = rng.standard_normal((cfg.n, WIDE)) * 3
        runs = []
        for small in (False, True):
            monkeypatch.setattr(scaling, "_CODEC_BLOCK", SMALL if small else 2**62)
            QA, QA2, QB = (quantize_matrix(cfg, M) for M in (A, A2, B))
            table.query_count = 0
            out = {}
            for product, Q, outer in ((paired_ip_approx, QA2, False), (matmul_approx, QB, True)):
                monkeypatch.setattr(lut, "_COMBINE_BLOCK",
                                    combine_block(cfg, table, outer) if small else 2**62)
                blocks.clear()
                out[product.__name__] = product(cfg, table, QA, Q)
                # one block unpatched; patched, a block per ROWS columns of A
                assert len(blocks) == (-(-cols // ROWS) if small else min(cols, 1)), (small, cols)
            out["matmul B^T A"] = matmul_approx(cfg, table, QB, QA)
            out["ip_approx"] = np.array([ip_approx(cfg, table, QA.column(j), QA2.column(j))
                                         for j in range(cols)])
            out["reads"] = table.query_count
            runs.append(out)
        one, blocked = runs
        for key, want in one.items():
            got = blocked[key]
            assert type(got) is type(want) and np.shape(got) == np.shape(want), (key, cols)
            assert np.array_equal(got, want), (key, cols)
        assert np.array_equal(one["ip_approx"], one["paired_ip_approx"])
        assert np.array_equal(one["matmul B^T A"], one["matmul_approx"].T)
        L = cfg.params.M + (cfg.dither_mode != "none")
        assert one["reads"] == (cols + 2 * cols * WIDE + cols) * cfg.chunks * L * L


# tracemalloc peak of paired_ip_approx on the dr-ip sweep's d4 q=4 M=3
# fixed-dither 512x500 pair: 11.42 MiB with the layer indices of both whole
# matrices built first, 4.11 MiB with them worked out block by block.
PAIRED_PRODUCT_PEAK_MIB = 6.0


def test_paired_product_peak_is_bounded():
    params = HierarchicalParams(make_lattice("d4"), 4, 3)
    beta0 = bench.calibrate_beta0("hierarchical", params, seed=52)
    cfg = PipelineConfig(params, ScalingConfig(beta0), 512, dither_mode="fixed",
                         dither_ids=np.ones(4, dtype=np.int64))
    rng = np.random.default_rng(52)
    QX, QY = (quantize_matrix(cfg, rng.standard_normal((512, 500))) for _ in range(2))
    table = build_lut(params)
    out, peak = traced_peak_mib(lambda: paired_ip_approx(cfg, table, QX, QY))
    assert out.shape == (500,) and table.query_count == 500 * 128 * 4 * 4
    assert peak <= PAIRED_PRODUCT_PEAK_MIB, f"{peak:.2f} MiB"
