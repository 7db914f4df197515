"""Quantized codes are held in their narrowest integer types.

Digits and dither ids take ``voronoi.digit_dtype(q)`` and retry counts
``ScalingConfig.retry_dtype``; every consumer gives the same bytes for the
same values in int64.
"""

import numpy as np
import pytest

from conftest import traced_peak_mib
from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    QuantizedMatrix,
    ScalingConfig,
    UnencodableError,
    build_lut,
    h_encode_many,
    index_to_digits,
    ip_approx,
    load_quantized_matrix,
    lut_ip,
    lut_ip_dithered,
    make_lattice,
    matmul_approx,
    paired_ip_approx,
    quantize_matrix,
    save_quantized_matrix,
)
from hnlq.scaling import decode_scaled_many, encode_scaled_many
from hnlq.voronoi import digit_dtype, digits_to_index


def test_digit_dtype_is_the_smallest_unsigned_type_holding_q_minus_1():
    cases = {2: np.uint8, 256: np.uint8, 257: np.uint16, 2**16: np.uint16,
             2**16 + 1: np.uint32, 2**32: np.uint32, 2**32 + 1: np.uint64, 2**64: np.uint64}
    for q, want in cases.items():
        assert digit_dtype(q) == want, q
    with pytest.raises(ValueError):
        digit_dtype(2**64 + 1)


@pytest.mark.parametrize("q, want", [(256, np.uint8), (257, np.uint16)])
def test_digits_take_the_helper_type_at_the_one_byte_boundary(q, want, tmp_path):
    z1 = make_lattice("z1")
    params = HierarchicalParams(z1, q, 2)
    X = np.random.default_rng(q).standard_normal((40, 1)) * q
    digits, _ = h_encode_many(params, X)
    assert digits.dtype == want
    assert index_to_digits(np.array([0, q - 1]), q, 1).dtype == want
    assert index_to_digits(q - 1, q, 1).tolist() == [q - 1]
    cfg = PipelineConfig(params, ScalingConfig(0.01), 4, dither_mode="random", dither_seed=5)
    Q = quantize_matrix(cfg, X.reshape(4, 10))
    assert Q.digits.dtype == Q.dither_ids.dtype == want
    save_quantized_matrix(Q, tmp_path / "m.nlqm")
    back = load_quantized_matrix(tmp_path / "m.nlqm")
    assert back.digits.dtype == back.dither_ids.dtype == want
    assert np.array_equal(back.digits, Q.digits) and np.array_equal(back.T, Q.T)
    fixed = PipelineConfig(params, ScalingConfig(0.01), 4, dither_mode="fixed",
                           dither_ids=np.array([q - 1]))
    assert fixed.dither_ids.dtype == want and fixed.dither_ids.tolist() == [q - 1]


def test_retry_counts_hold_one_past_the_top_rung():
    assert ScalingConfig(1.0).retry_dtype == np.uint8
    assert ScalingConfig(1.0, max_retries=254).retry_dtype == np.uint8
    assert ScalingConfig(1.0, max_retries=255).retry_dtype == np.uint16
    params = HierarchicalParams(make_lattice("z1"), 4, 1)
    X = np.array([[0.1], [100.0]])
    digits, T = encode_scaled_many(params, ScalingConfig(1e-3, 1 / 20, 400), X)
    assert T.dtype == np.uint16 and T[1] > 255
    back = decode_scaled_many(params, ScalingConfig(1e-3, 1 / 20, 400), digits, T)
    assert np.allclose(back, X, rtol=0.5)
    # a row that fails the top rung reaches max_retries + 1 without wrapping to 0
    for top in (254, 255):
        with pytest.raises(UnencodableError, match=f"after {top} retries"):
            encode_scaled_many(params, ScalingConfig(1.0, 1e-3, top), np.array([[1e6]]))


@pytest.mark.parametrize("mode", ["none", "fixed", "random"])
def test_a_d4_chunk_holds_m_d_plus_1_bytes(mode):
    ids = np.array([1, 0, 3, 2]) if mode == "fixed" else None
    cfg = PipelineConfig(HierarchicalParams(make_lattice("d4"), 4, 2), ScalingConfig(0.35), 64,
                         dither_mode=mode, dither_ids=ids)
    cols, K, M, d = 5, cfg.chunks, 2, 4
    Q = quantize_matrix(cfg, np.random.default_rng(1).standard_normal((64, cols)))
    assert Q.digits.nbytes == cols * K * M * d
    assert Q.T.nbytes == cols * K and Q.T.dtype == np.uint8
    if mode == "random":
        assert Q.dither_ids.nbytes == cols * K * d
    if mode == "fixed":
        # one id for every chunk: a read-only view of the config's, owning nothing
        for ids in (Q.dither_ids, Q.column(2).dither_ids, cfg.dither_ids):
            assert not ids.flags.writeable
            assert np.shares_memory(ids, cfg.dither_ids)
        assert not Q.dither_ids.flags.owndata
        assert Q.dither_ids.shape == (cols, K, d)


def _wide(Q: QuantizedMatrix) -> QuantizedMatrix:
    """The same matrix with int64 digits, T and ids."""
    return QuantizedMatrix(Q.cfg, Q.digits.astype(np.int64), Q.T.astype(np.int64), Q.norms,
                           None if Q.dither_ids is None else Q.dither_ids.astype(np.int64))


@pytest.mark.parametrize("mode, rotate", [("none", False), ("fixed", True), ("random", False)])
def test_int64_codes_give_the_same_bytes(mode, rotate, tmp_path):
    ids = np.array([1, 0, 3, 2]) if mode == "fixed" else None
    cfg = PipelineConfig(HierarchicalParams(make_lattice("d4"), 4, 2), ScalingConfig(0.35), 32,
                         rotate=rotate, dither_mode=mode, dither_ids=ids, dither_seed=4)
    rng = np.random.default_rng(2)
    QA, QB = (quantize_matrix(cfg, rng.standard_normal((32, 4)) * 2) for _ in range(2))
    WA, WB = _wide(QA), _wide(QB)
    lut = build_lut(cfg.params)
    for narrow, wide in [
        (matmul_approx(cfg, lut, QA, QB), matmul_approx(cfg, lut, WA, WB)),
        (paired_ip_approx(cfg, lut, QA, QB), paired_ip_approx(cfg, lut, WA, WB)),
        (ip_approx(cfg, lut, QA.column(1), QB.column(3)),
         ip_approx(cfg, lut, WA.column(1), WB.column(3))),
        (decode_scaled_many(cfg.params, cfg.scaling, QA.digits, QA.T, QA.dither_ids),
         decode_scaled_many(cfg.params, cfg.scaling, WA.digits, WA.T, WA.dither_ids)),
    ]:
        assert np.asarray(narrow).tobytes() == np.asarray(wide).tobytes()
    for k in range(cfg.chunks):
        if mode == "none":
            got = [lut_ip(lut, P.digits[0, k], R.digits[1, k]) for P, R in ((QA, QB), (WA, WB))]
        else:
            got = [lut_ip_dithered(lut, P.digits[0, k], R.digits[1, k], P.dither_ids[0, k],
                                   R.dither_ids[1, k]) for P, R in ((QA, QB), (WA, WB))]
        assert type(got[0]) is type(got[1]) and got[0] == got[1]
    save_quantized_matrix(QA, tmp_path / "narrow.nlqm")
    save_quantized_matrix(WA, tmp_path / "wide.nlqm")
    assert (tmp_path / "narrow.nlqm").read_bytes() == (tmp_path / "wide.nlqm").read_bytes()


def test_index_packing_widens_no_digit_column():
    # Horner's rule adds each uint8 column into the int64 index in place, and
    # unpacking casts each digit into place: (128, 256, 2, 4) digits peak near
    # the 0.5 MiB of indices they give, where an int64 temporary per column
    # (or per digit when unpacking) peaked at 1.00 MiB (1.25 MiB).
    b = np.random.default_rng(36).integers(0, 4, (128, 256, 2, 4)).astype(np.uint8)
    idx, pack_peak = traced_peak_mib(lambda: digits_to_index(b, 4))
    back, unpack_peak = traced_peak_mib(lambda: index_to_digits(idx, 4, 4))
    assert np.array_equal(back, b)
    assert pack_peak <= 0.75 and unpack_peak <= 1.0, (pack_peak, unpack_peak)
