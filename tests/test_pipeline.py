"""Product-code pipeline: rotation, chunked encoding, table-driven products."""

import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest

from conftest import dense_products, lut_ip
from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    ScalingConfig,
    UnencodableError,
    build_lut,
    ip_approx,
    load_lut,
    load_quantized_matrix,
    make_lattice,
    matmul_approx,
    paired_ip_approx,
    quantize_matrix,
    quantize_vector,
    random_rotation,
    reconstruct_chunks,
    save_quantized_matrix,
)
from hnlq import lut as lut_mod
from hnlq import scaling
from hnlq.bench import calibrate_beta0
from hnlq.codec import LUT_GUARD, decode_coords_many
from hnlq.lattices import FAMILY_IDS
from hnlq import pipeline
from hnlq.lut import _with_crc, check_lut, chunk_sum_dtype
from hnlq.scaling import decode_scaled_many, encode_scaled_many
from hnlq.voronoi import digit_dtype


def pipe(n=16, q=4, M=2, beta0=0.35, lat=None, alpha=1.0 / 3.0, **kw):
    params = HierarchicalParams(lat or make_lattice("d4"), q, M)
    return PipelineConfig(
        params=params, scaling=ScalingConfig(beta0=beta0, alpha=alpha), n=n, **kw
    )


def cols_spanning_blocks(cfg, cols_b, outer=True):
    """Columns of A that fill two row blocks of the table combine and part of a third.

    All pairs (``outer``) within int64 headroom take blocks of partial rows
    (rows, K, q^d) and chunk sums (rows, cols_b, K); the pair gather takes
    blocks of every layer pair (rows, L, L, cols_b, K).
    """
    L = cfg.params.M + (cfg.dither_mode != "none")
    if outer and chunk_sum_dtype(build_lut(cfg.params), L) is not None:
        per_row = cfg.chunks * max(cols_b, cfg.params.q**cfg.params.lat.d)
    else:
        per_row = L * L * cols_b * cfg.chunks
    rows = lut_mod._COMBINE_BLOCK // per_row
    assert rows >= 2
    return 2 * rows + 1


def direct_ip(cfg, qx, qy):
    rx, ry = (reconstruct_chunks(cfg, v)[0] for v in (qx, qy))
    total = float(np.einsum("kd,kd->", rx, ry))
    if cfg.rotate:
        total *= float(qx.norms[0]) * float(qy.norms[0]) / cfg.n
    return total


def test_rotation_is_orthogonal():
    for n, seed in ((1, 0), (8, 0), (33, 7)):
        S = random_rotation(n, seed)
        assert np.allclose(S.T @ S, np.eye(n), atol=1e-9)
        assert np.array_equal(S, random_rotation(n, seed))
    assert random_rotation(1, 0)[0, 0] in (1.0, -1.0)
    a = random_rotation(16, 0)
    b = random_rotation(16, 1)
    assert np.linalg.norm(a - b) > 0.1
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    assert abs(np.linalg.norm(a @ x) - np.linalg.norm(x)) < 1e-9


def test_negative_rotation_seed_quantizes_and_round_trips(tmp_path):
    # PipelineConfig accepts seeds in [-2^63, 2^63); rotation_seed=-1 used to
    # fail only when quantizing, inside numpy: "expected non-negative integer".
    cfg = pipe(n=16, rotate=True, rotation_seed=-1)
    assert np.array_equal(random_rotation(16, -1), random_rotation(16, 2**64 - 1))
    Q = quantize_matrix(cfg, np.random.default_rng(18).standard_normal((16, 3)))
    save_quantized_matrix(Q, tmp_path / "m.nlqm")
    L = load_quantized_matrix(tmp_path / "m.nlqm")
    assert L.cfg.rotation_seed == -1
    for got, want in ((L.digits, Q.digits), (L.T, Q.T), (L.norms, Q.norms)):
        assert np.array_equal(got, want)


def test_config_validation():
    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    sc = ScalingConfig(beta0=0.5)
    assert PipelineConfig(params=params, scaling=sc, n=12).chunks == 3
    with pytest.raises(ValueError):
        PipelineConfig(params=params, scaling=sc, n=10)  # not a multiple of 4
    with pytest.raises(ValueError):
        PipelineConfig(params=params, scaling=sc, n=0)
    with pytest.raises(ValueError):
        PipelineConfig(params=params, scaling=sc, n=8.0)  # used to fail in quantize_matrix
    with pytest.raises(ValueError):
        PipelineConfig(params=params, scaling=sc, n=8, dither_mode="bogus")
    with pytest.raises(ValueError):
        PipelineConfig(params=params, scaling=sc, n=8, dither_mode="fixed")
    with pytest.raises(ValueError):
        PipelineConfig(
            params=params, scaling=sc, n=8,
            dither_mode="fixed", dither_ids=np.array([1, 1]),
        )
    with pytest.raises(ValueError):
        PipelineConfig(
            params=params, scaling=sc, n=8,
            dither_mode="fixed", dither_ids=np.array([1, 1, 4, 0]),
        )
    with pytest.raises(ValueError):
        PipelineConfig(
            params=params, scaling=sc, n=8,
            dither_mode="none", dither_ids=np.array([1, 1, 1, 1]),
        )


def test_fixed_dither_ids_must_be_integer_digits():
    # non-integer ids used to be truncated to [1, 0, 0, 0] and [2, 0, 1, 0]
    for ids in (np.array([1.5, 0, 0, 0]), [2.9, 0, 1, 0]):
        with pytest.raises(ValueError, match="integers"):
            pipe(n=8, dither_mode="fixed", dither_ids=ids)
    assert pipe(n=8, dither_mode="fixed", dither_ids=[2, 0, 1, 0]).dither_ids.tolist() == [2, 0, 1, 0]


@pytest.mark.parametrize("name", ["rotation_seed", "dither_seed"])
def test_seeds_must_fit_int64(name, tmp_path):
    # Files store both seeds as int64, so a seed outside it is refused up front
    # rather than quantized with and then unsaveable.  A float seed is refused
    # too: dither_seed=1.5 used to quantize with seed 1's ids, then fail to save
    # with struct.error, and rotation_seed=2.5 to fail only at quantize time.
    for bad in (2**64 + 5, 2**63, -(2**63) - 1, 1.5, 2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match=name):
            pipe(n=8, dither_mode="random", **{name: bad})
    for ok in (2**63 - 1, -(2**63), np.int64(4), np.uint8(9)):
        cfg = pipe(n=8, dither_mode="random", **{name: ok})
        save_quantized_matrix(quantize_matrix(cfg, np.ones((8, 2))), tmp_path / "m.qm")
        assert getattr(load_quantized_matrix(tmp_path / "m.qm").cfg, name) == ok


def test_rotate_must_equal_a_bool():
    # a truthy rotate ("no", 2) used to rotate, then load back as rotate=True,
    # a config the matrix no longer matched; a bool is what the file records
    for bad in ("no", 2, None, 0.5):
        with pytest.raises(ValueError, match="rotate must be True or False"):
            pipe(n=8, rotate=bad)
    for flag, want in ((1, True), (np.bool_(True), True), (0, False), (np.bool_(False), False)):
        assert pipe(n=8, rotate=flag).rotate is want


def test_quantize_vector_col_must_be_an_integer():
    # col=1.5 used to take column 1's random-mode dither ids without a word
    cfg = pipe(n=8, dither_mode="random", dither_seed=3)
    x = np.random.default_rng(12).standard_normal(8)
    for bad in (1.5, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match="col must be an integer"):
            quantize_vector(cfg, x, col=bad)
    want = quantize_matrix(cfg, np.stack([x, x], axis=1)).column(1).dither_ids
    for ok in (1, np.int64(1), np.uint8(1)):
        assert np.array_equal(quantize_vector(cfg, x, col=ok).dither_ids, want)


def test_quantize_vector_shapes():
    cfg = pipe(n=16)
    rng = np.random.default_rng(1)
    qv = quantize_vector(cfg, rng.standard_normal(16))
    assert qv.shape == (16, 1)
    assert qv.digits.shape == (1, 4, 2, 4)
    assert qv.T.shape == (1, 4)
    assert qv.norms is None and qv.dither_ids is None
    with pytest.raises(ValueError):
        quantize_vector(cfg, rng.standard_normal(15))


def test_zero_vector_quantizes_to_zero():
    cfg = pipe(n=8)
    qv = quantize_vector(cfg, np.zeros(8))
    assert not qv.digits.any()
    assert not qv.T.any()
    assert np.allclose(reconstruct_chunks(cfg, qv), 0.0)


def test_rotation_records_norms():
    cfg = pipe(n=16, rotate=True, rotation_seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(16) * 2.5
    qv = quantize_vector(cfg, x)
    assert qv.norms.shape == (1,)
    assert abs(qv.norms[0] - np.linalg.norm(x)) < 1e-9
    qz = quantize_vector(cfg, np.zeros(16))
    assert qz.norms[0] == 0.0
    assert not qz.digits.any()


def test_ip_matches_reconstruction_oracle():
    cfg = pipe(n=16)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(6)
    for _ in range(200):
        qx = quantize_vector(cfg, rng.standard_normal(16))
        qy = quantize_vector(cfg, rng.standard_normal(16))
        got = ip_approx(cfg, lut, qx, qy)
        want = direct_ip(cfg, qx, qy)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_ip_matches_oracle_with_dither_and_rotation():
    rng = np.random.default_rng(7)
    fixed = pipe(n=16, dither_mode="fixed", dither_ids=np.ones(4, dtype=np.int64))
    rand = pipe(n=16, dither_mode="random", dither_seed=11)
    rot = pipe(n=16, rotate=True, rotation_seed=5)
    for cfg in (fixed, rand, rot):
        lut = build_lut(cfg.params)
        for _ in range(100):
            qx = quantize_vector(cfg, rng.standard_normal(16) * 1.5, col=0)
            qy = quantize_vector(cfg, rng.standard_normal(16) * 1.5, col=1)
            got = ip_approx(cfg, lut, qx, qy)
            want = direct_ip(cfg, qx, qy)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["d4", "a2"])
def test_rotation_keeps_the_calibrated_frame(name):
    # Rotated columns are scaled to norm sqrt(n): unit-variance coordinates, the
    # frame beta0 is calibrated in, so rotating leaves the distortion near the
    # unrotated one instead of quantizing every chunk to zero.
    rng = np.random.default_rng(31)
    X, Y = rng.standard_normal((2, 64, 100))
    exact = np.einsum("ij,ij->j", X, Y)
    dist = []
    lat = make_lattice(name)
    beta0 = calibrate_beta0("hierarchical", HierarchicalParams(lat, 4, 2))
    for rotate in (False, True):
        cfg = pipe(n=64, beta0=beta0, lat=lat, rotate=rotate)
        got = paired_ip_approx(cfg, build_lut(cfg.params), quantize_matrix(cfg, X),
                               quantize_matrix(cfg, Y))
        dist.append(((got - exact) ** 2).mean() / 64)
    assert 0.5 <= dist[1] / dist[0] <= 2.0


def test_single_chunk_reduces_to_lut_ip():
    cfg = pipe(n=4)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(8)
    for _ in range(50):
        qx = quantize_vector(cfg, rng.standard_normal(4))
        qy = quantize_vector(cfg, rng.standard_normal(4))
        raw = lut_ip(lut, qx.digits[0, 0], qy.digits[0, 0])
        want = float(
            cfg.scaling.scale(int(qx.T[0, 0])) * cfg.scaling.scale(int(qy.T[0, 0])) * raw
        )
        got = ip_approx(cfg, lut, qx, qy)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ip_zero_column_gives_zero():
    cfg = pipe(n=8)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(9)
    qx = quantize_vector(cfg, rng.standard_normal(8))
    qy = quantize_vector(cfg, np.zeros(8))
    assert ip_approx(cfg, lut, qx, qy) == 0.0


def test_ip_validates_inputs():
    cfg = pipe(n=8)
    lut_wrong = build_lut(HierarchicalParams(make_lattice("d4"), 3, 2))
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(10)
    qx = quantize_vector(cfg, rng.standard_normal(8))
    with pytest.raises(ValueError, match="does not match"):
        ip_approx(cfg, lut_wrong, qx, qx)
    QA = quantize_matrix(cfg, rng.standard_normal((8, 2)))
    for product in (matmul_approx, paired_ip_approx):
        with pytest.raises(ValueError, match="does not match"):
            product(cfg, lut_wrong, QA, QA)
    # ip_approx takes one-column matrices only
    for x, y in ((QA, qx), (qx, QA), (QA, QA)):
        with pytest.raises(ValueError, match="one-column"):
            ip_approx(cfg, lut, x, y)
    # a caller holding a table and params checks one against the other
    with pytest.raises(ValueError, match="does not match"):
        check_lut(lut_wrong, cfg.params)
    check_lut(lut, cfg.params)
    with pytest.raises(ValueError, match="does not match"):
        check_lut(build_lut(HierarchicalParams(make_lattice("z4"), 4, 2)), cfg.params)
    other = pipe(n=16)
    qz = quantize_vector(other, rng.standard_normal(16))
    with pytest.raises(ValueError):
        ip_approx(cfg, lut, qx, qz)
    dcfg = pipe(n=8, dither_mode="fixed", dither_ids=np.ones(4, dtype=np.int64))
    qd = quantize_vector(dcfg, rng.standard_normal(8))
    with pytest.raises(ValueError):
        ip_approx(cfg, lut, qx, qd)  # mixed dithered/undithered


def test_columns_from_another_config_are_refused():
    # Same n and dither mode, another beta0: the chunks' scales differ, so the
    # table sum would weigh one side wrongly (26.03 against an exact 53.51).
    cfg, other = pipe(n=64, beta0=0.3), pipe(n=64, beta0=0.6)
    lut = build_lut(cfg.params)
    x = np.random.default_rng(12).standard_normal(64)
    qx, qo = quantize_vector(cfg, x), quantize_vector(other, x)
    assert qx.cfg is cfg and quantize_matrix(cfg, x[:, None]).column(0).cfg is cfg
    with pytest.raises(ValueError, match="does not match the pipeline config"):
        ip_approx(cfg, lut, qx, qo)
    with pytest.raises(ValueError, match="does not match the pipeline config"):
        reconstruct_chunks(cfg, qo)
    assert abs(ip_approx(cfg, lut, qx, qx) - x @ x) < 0.1 * (x @ x)


def test_query_counter_scales_with_chunks():
    cfg = pipe(n=8)  # K=2, M=2
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(11)
    qx = quantize_vector(cfg, rng.standard_normal(8))
    qy = quantize_vector(cfg, rng.standard_normal(8))
    ip_approx(cfg, lut, qx, qy)
    assert lut.query_count == 2 * 4  # K * M^2
    dcfg = pipe(n=8, dither_mode="fixed", dither_ids=np.zeros(4, dtype=np.int64))
    dlut = build_lut(dcfg.params)
    qa = quantize_vector(dcfg, rng.standard_normal(8))
    ip_approx(dcfg, dlut, qa, qa)
    assert dlut.query_count == 2 * 9  # K * (M+1)^2


@pytest.mark.filterwarnings("error")
def test_non_finite_input_is_rejected():
    cfg = pipe(n=8)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones(8)
        x[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encode_scaled_many(cfg.params, cfg.scaling, x.reshape(2, 4))
        # rotating normalizes first, which must not warn before the rejection
        for c in (cfg, pipe(n=8, rotate=True)):
            with pytest.raises(ValueError, match="non-finite"):
                quantize_vector(c, x)
            with pytest.raises(ValueError, match="non-finite"):
                quantize_matrix(c, np.stack([np.ones(8), x], axis=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda cfg, x: encode_scaled_many(cfg.params, cfg.scaling, x.reshape(2, 4)),
    lambda cfg, x: quantize_vector(cfg, x),
    lambda cfg, x: quantize_matrix(cfg, x[:, None]),
], ids=["encode_scaled_many", "quantize_vector", "quantize_matrix"])
def test_complex_input_is_rejected(call):
    # a float cast keeps the real part with only a ComplexWarning
    for cfg in (pipe(n=8), pipe(n=8, rotate=True)):
        with pytest.raises(ValueError, match="complex"):
            call(cfg, np.full(8, 1 + 2j))


def test_unencodable_propagates():
    cfg = pipe(n=8, beta0=1e-4)
    bad = PipelineConfig(
        params=cfg.params,
        scaling=ScalingConfig(beta0=1e-4, alpha=0.01, max_retries=3),
        n=8,
    )
    with pytest.raises(UnencodableError):
        quantize_vector(bad, np.full(8, 1e8))


def test_random_dither_ids_are_reproducible():
    cfg = pipe(n=16, dither_mode="random", dither_seed=21)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(16)
    a = quantize_vector(cfg, x, col=5)
    b = quantize_vector(cfg, x, col=5)
    assert np.array_equal(a.dither_ids, b.dither_ids)
    assert np.array_equal(a.digits, b.digits)
    c = quantize_vector(cfg, x, col=6)
    assert not np.array_equal(a.dither_ids, c.dither_ids)
    assert a.dither_ids.min() >= 0 and a.dither_ids.max() < 4


def splitmix_ids(seed, col, K, q, d):
    """Reference NLQM v2 ids in Python ints: low d base-q digits of the SplitMix64 chain."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    prefix = mix((mix(seed * gamma & mask) + (col + 1) * gamma) & mask)
    ids = []
    for k in range(K):
        v = mix((prefix + (k + 1) * gamma) & mask) % min(q**d, 2**64)
        ids.append([v // q ** (d - 1 - i) % q for i in range(d)])
    return ids


@pytest.mark.filterwarnings("error")
def test_random_dither_ids_are_pinned_v2():
    # NLQM version 2 ids: the low d base-q digits of
    # mix(mix(mix(seed gamma) + (col + 1) gamma) + (k + 1) gamma) mod 2^64.
    pinned = [
        ("a2", 8, 7, 3, [[5, 1], [2, 6]]),
        ("d4", 4, 5, 2, [[1, 0, 2, 1], [0, 1, 0, 1]]),
        ("z16", 16, 1, 0, [[2, 3, 8, 2, 7, 5, 11, 12, 3, 8, 15, 12, 11, 14, 9, 1],
                           [15, 8, 9, 10, 2, 5, 6, 6, 11, 5, 8, 2, 2, 12, 5, 4]]),  # q^d = 2^64
        ("d4", 4, -3, 1000, [[3, 3, 2, 1], [3, 2, 3, 3]]),  # seeds are taken mod 2^64
        ("a2", 8, -2**63, 0, [[0, 4], [0, 5]]),
    ]
    for name, q, seed, col, want in pinned:
        lat = make_lattice(name)
        cfg = pipe(n=2 * lat.d, q=q, lat=lat, dither_mode="random", dither_seed=seed)
        assert pipeline._dither_digit_ids(cfg, col, 2).tolist() == want
        assert splitmix_ids(seed, col, 2, q, lat.d) == want
    # the finalizer is SplitMix64's: from state 0 its stream starts with these
    z = np.arange(1, 4, dtype=np.uint64)
    z *= pipeline._GAMMA
    stream = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert pipeline._mix64(z).tolist() == stream
    assert [pipeline._mix64(k * pipeline._GAMMA & 2**64 - 1) for k in (1, 2, 3)] == stream
    # random access: a column's ids need no earlier column, at any chunk count
    cfg = pipe(n=64, q=8, lat=make_lattice("a2"), dither_mode="random", dither_seed=2**63 - 1)
    ids = pipeline._column_dither_ids(cfg, 0, 6)
    assert np.array_equal(pipeline._column_dither_ids(cfg, 5, 1)[0], ids[5])
    for col in (0, 5):
        assert ids[col].tolist() == splitmix_ids(2**63 - 1, col, 32, 8, 2)


@pytest.mark.filterwarnings("error")
def test_column_dither_ids_match_the_reference_chain():
    # every (column, chunk) id of a block comes from one uint64 chain; columns
    # and seeds are taken mod 2^64, also where the column numbers wrap
    cases = [("a2", 8, 6), ("d4", 4, 12), ("z16", 16, 32)]  # z16 q=16: q^d = 2^64
    for name, q, n in cases:
        lat = make_lattice(name)
        for seed in (0, -3, 2**63 - 1):
            cfg = pipe(n=n, q=q, lat=lat, dither_mode="random", dither_seed=seed)
            for first_col in (0, 5, 2**40, 2**64 - 1):
                for cols in (1, 3, 17):
                    ids = pipeline._column_dither_ids(cfg, first_col, cols)
                    assert ids.shape == (cols, cfg.chunks, lat.d)
                    assert ids.dtype == digit_dtype(q) == np.uint8
                    want = [splitmix_ids(seed, first_col + j, cfg.chunks, q, lat.d)
                            for j in range(cols)]
                    assert ids.tolist() == want
    # a vector quantized as column col is that column of the matrix
    cfg = pipe(n=16, dither_mode="random", dither_seed=-3)
    A = np.random.default_rng(22).standard_normal((16, 6))
    QA = quantize_matrix(cfg, A)
    for col in (0, 5):
        qv = quantize_vector(cfg, A[:, col], col=col)
        assert np.array_equal(qv.dither_ids[0], QA.dither_ids[col])
        assert np.array_equal(qv.digits[0], QA.digits[col])
        assert np.array_equal(qv.T[0], QA.T[col])
    far = quantize_vector(cfg, A[:, 0], col=2**64 - 1)
    assert far.dither_ids[0].tolist() == splitmix_ids(-3, 2**64 - 1, 4, 4, 4)


def test_fixed_dither_id_shared_across_chunks():
    ids = np.array([1, 3, 0, 2])
    cfg = pipe(n=16, dither_mode="fixed", dither_ids=ids)
    rng = np.random.default_rng(13)
    qv = quantize_vector(cfg, rng.standard_normal(16))
    assert np.array_equal(qv.dither_ids, np.tile(ids, (1, 4, 1)))


@pytest.mark.parametrize("name, q", [("d4", 4), ("a2", 8), ("z16", 16)])
def test_fixed_dither_id_is_looked_up_once(name, q, monkeypatch):
    # A fixed-mode matrix holds its one id as a stride-0 broadcast (cols, K, d).
    # Decode, reconstruct_chunks and layer_indices look up one (d,) point or
    # index for it, and give what the same ids copied out per row give, bit for
    # bit, as does every product.  z16 q=16 is above LAYER_CODEBOOK_MAX.
    lat = make_lattice(name)
    cfg = pipe(n=4 * lat.d, q=q, lat=lat, beta0=0.3, dither_mode="fixed",
               dither_ids=np.arange(1, lat.d + 1) % q)
    rng = np.random.default_rng(17)
    QA, QB = (quantize_matrix(cfg, rng.standard_normal((cfg.n, 6)) * 0.15 * q**2)
              for _ in range(2))
    assert QA.T.any() and QA.dither_ids.strides[:2] == (0, 0)
    RA, RB = (dataclasses.replace(Q, dither_ids=Q.dither_ids.copy()) for Q in (QA, QB))
    p, d = cfg.params, lat.d

    looked_up = []
    points, index = scaling._dither_points, lut_mod.digits_to_index
    monkeypatch.setattr(scaling, "_dither_points",
                        lambda params, ids: looked_up.append(np.shape(ids)) or points(params, ids))
    decoded = decode_scaled_many(p, cfg.scaling, QA.digits, QA.T, QA.dither_ids)
    chunks = reconstruct_chunks(cfg, QA.column(2))
    assert looked_up == [(d,), (d,)]
    monkeypatch.setattr(lut_mod, "digits_to_index",
                        lambda b, q: looked_up.append(np.shape(b)) or index(b, q))
    indices = lut_mod.layer_indices(q, QA.digits, QA.dither_ids)
    assert looked_up[2:] == [QA.digits.shape, (d,)]
    monkeypatch.undo()

    want = decode_scaled_many(p, cfg.scaling, RA.digits, RA.T, RA.dither_ids)
    assert np.array_equal(decoded, want)
    assert np.array_equal(chunks, reconstruct_chunks(cfg, RA.column(2)))
    want = lut_mod.layer_indices(q, RA.digits, RA.dither_ids)
    assert indices.dtype == want.dtype and np.array_equal(indices, want)
    if q ** (2 * d) <= LUT_GUARD:  # z16 q=16 has no table
        lut = build_lut(p)
        for product in (matmul_approx, paired_ip_approx):
            assert np.array_equal(product(cfg, lut, QA, QB), product(cfg, lut, RA, RB))
        assert ip_approx(cfg, lut, QA.column(1), QB.column(4)) == ip_approx(
            cfg, lut, RA.column(1), RB.column(4))


KERNEL_CASES = {
    "plain": {},
    "fixed": {"dither_mode": "fixed", "dither_ids": np.array([1, 0, 3, 2])},
    "random": {"dither_mode": "random", "dither_seed": 5},
    "rotate": {"rotate": True, "rotation_seed": 2},
}


def test_matmul_matches_oracle_and_columns():
    rng = np.random.default_rng(14)
    for kw in KERNEL_CASES.values():
        cfg = pipe(n=256, **kw)
        lut = build_lut(cfg.params)
        cols_a, cols_b = cols_spanning_blocks(cfg, 8), 8
        QA = quantize_matrix(cfg, rng.standard_normal((256, cols_a)))
        QB = quantize_matrix(cfg, rng.standard_normal((256, cols_b)))
        out = matmul_approx(cfg, lut, QA, QB)
        assert out.shape == (cols_a, cols_b)
        ca = [QA.column(i) for i in range(cols_a)]
        cb = [QB.column(j) for j in range(cols_b)]
        for i in range(cols_a):
            for j in range(cols_b):
                via_cols = ip_approx(cfg, lut, ca[i], cb[j])
                assert out[i, j] == via_cols
                want = direct_ip(cfg, ca[i], cb[j])
                assert abs(out[i, j] - want) <= 1e-6 * max(1.0, abs(want))
    cfg = pipe(n=8)
    lut = build_lut(cfg.params)
    QA = quantize_matrix(cfg, rng.standard_normal((8, 2)))
    Z = quantize_matrix(cfg, np.zeros((8, 2)))
    assert not matmul_approx(cfg, lut, QA, Z).any()
    empty = quantize_matrix(cfg, np.zeros((8, 0)))
    assert matmul_approx(cfg, lut, QA, empty).shape == (2, 0)
    assert matmul_approx(cfg, lut, empty, QA).shape == (0, 2)


def test_matmul_counts_queries():
    rng = np.random.default_rng(15)
    for kw, L in ((KERNEL_CASES["plain"], 2), (KERNEL_CASES["fixed"], 3)):  # M=2, + dither
        for n, cols_b in ((8, 3), (256, 8)):
            cfg = pipe(n=n, **kw)
            lut = build_lut(cfg.params)
            cols_a = 2 if n == 8 else cols_spanning_blocks(cfg, cols_b)
            QA = quantize_matrix(cfg, rng.standard_normal((n, cols_a)))
            QB = quantize_matrix(cfg, rng.standard_normal((n, cols_b)))
            matmul_approx(cfg, lut, QA, QB)
            assert lut.query_count == cols_a * cols_b * cfg.chunks * L * L


def test_paired_products_match_columns():
    # entry j is ip_approx of the two columns bit for bit, at K L^2 reads per pair,
    # across two full row blocks of the combine and part of a third
    rng = np.random.default_rng(18)
    cases = [(256, kw) for kw in KERNEL_CASES.values()] + [
        (64, {"lat": make_lattice("a2"), "q": 8, **KERNEL_CASES["fixed"],
              "dither_ids": np.array([1, 7])}),
        (64, {"lat": make_lattice("a2"), "q": 4}),
        (64, {"M": 1, **KERNEL_CASES["random"]}),
        (64, {"M": 3, **KERNEL_CASES["fixed"]}),
    ]
    for n, kw in cases:
        cfg = pipe(n=n, **kw)
        lut = build_lut(cfg.params)
        L = cfg.params.M + (cfg.dither_mode != "none")
        cols = cols_spanning_blocks(cfg, 1, outer=False) if n == 256 else 40
        QA = quantize_matrix(cfg, rng.standard_normal((n, cols)))
        QB = quantize_matrix(cfg, rng.standard_normal((n, cols)))
        out = paired_ip_approx(cfg, lut, QA, QB)
        assert out.shape == (cols,)
        assert lut.query_count == cols * cfg.chunks * L * L
        for j in range(cols):
            assert out[j] == ip_approx(cfg, lut, QA.column(j), QB.column(j))
    empty = quantize_matrix(cfg, np.zeros((n, 0)))
    assert paired_ip_approx(cfg, lut, empty, empty).shape == (0,)
    with pytest.raises(ValueError):
        paired_ip_approx(cfg, lut, QA, empty)
    with pytest.raises(ValueError):  # one column must not broadcast against many
        paired_ip_approx(cfg, lut, QA, quantize_matrix(cfg, rng.standard_normal((n, 1))))
    other = quantize_matrix(pipe(n=n, M=3), rng.standard_normal((n, cols)))
    with pytest.raises(ValueError):
        paired_ip_approx(cfg, lut, QA, other)


@pytest.mark.parametrize("name", ["z1", "d4", "a2"])
def test_q2_refuses_non_zero_dither(name):
    # Every non-zero coset of L/2L holds both lambda and -lambda, so every
    # non-zero dither point at q = 2 lies on the cell boundary: a chunk near
    # zero would overload at every scale.  Undithered and zero-id q = 2 codes
    # are one-sided (Z_1: {0, -1}) and reconstruct almost every chunk as 0,
    # so q = 2 is refused in every dither mode; q = 3 is accepted.
    lat = make_lattice(name)
    one_hot = np.zeros(lat.d, dtype=np.int64)
    one_hot[-1] = 1
    for kw in ({"dither_mode": "random"}, {"dither_mode": "random", "dither_seed": 3},
               {"dither_mode": "fixed", "dither_ids": np.ones(lat.d, dtype=np.int64)},
               {"dither_mode": "fixed", "dither_ids": one_hot}, {},
               {"dither_mode": "fixed", "dither_ids": np.zeros(lat.d, dtype=np.int64)}):
        with pytest.raises(ValueError, match="^q = 2 is refused"):
            pipe(n=8, q=2, lat=lat, beta0=0.5, **kw)
        Q = quantize_matrix(pipe(n=8, q=3, lat=lat, beta0=0.5, **kw),
                            np.random.default_rng(19).standard_normal((8, 8)))
        assert Q.digits.shape == (8, 8 // lat.d, 2, lat.d)


def test_matmul_validates_config():
    cfg = pipe(n=8)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(16)
    QA = quantize_matrix(cfg, rng.standard_normal((8, 2)))
    other = pipe(n=16)
    QB = quantize_matrix(other, rng.standard_normal((16, 2)))
    with pytest.raises(ValueError):
        matmul_approx(cfg, lut, QA, QB)


FIXED = {"dither_mode": "fixed", "dither_ids": np.array([1, 1, 1, 1])}
RANDOM = {"dither_mode": "random", "dither_seed": 0}
CONFIG_FIELDS = {
    "lattice": ({}, {"lat": make_lattice("z4")}),
    "q": ({}, {"q": 3}),
    "M": ({}, {"M": 3}),
    "beta0": ({}, {"beta0": 0.3}),
    "alpha": ({}, {"alpha": 0.5}),
    "rotate": ({}, {"rotate": True}),
    "rotation_seed": ({"rotate": True}, {"rotate": True, "rotation_seed": 1}),
    "dither_mode": ({}, FIXED),
    "dither_ids": (FIXED, {**FIXED, "dither_ids": np.array([1, 1, 1, 0])}),
    "dither_seed": (RANDOM, {**RANDOM, "dither_seed": 1}),
}


@pytest.mark.parametrize("base, other", CONFIG_FIELDS.values(), ids=CONFIG_FIELDS.keys())
def test_matmul_rejects_other_config(base, other):
    # Fields are compared by value (n is covered by test_matmul_validates_config).
    cfg, alt = pipe(n=8, **base), pipe(n=8, **other)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(16)
    QA = quantize_matrix(cfg, rng.standard_normal((8, 2)))
    QB = quantize_matrix(alt, rng.standard_normal((8, 2)))
    same = quantize_matrix(pipe(n=8, **base), rng.standard_normal((8, 2)))
    assert matmul_approx(cfg, lut, QA, same).shape == (2, 2)
    with pytest.raises(ValueError):
        matmul_approx(cfg, lut, QA, QB)
    with pytest.raises(ValueError):
        matmul_approx(cfg, lut, QB, QA)


def spy_kernel(monkeypatch):
    """Record the dtype of every block the chunk-sum kernel yields."""
    dtypes = []

    def spied(*args):
        for r, chunk in lut_mod.chunk_sums(*args):
            dtypes.append(chunk.dtype)
            yield r, chunk

    monkeypatch.setattr(pipeline, "chunk_sums", spied)
    return dtypes


FIXED2 = {"dither_mode": "fixed", "dither_ids": np.array([3, 9])}
# (lattice, q, M, config, n, cols of B, the chunk sums' type: object for Python ints,
# which gather all layer pairs); B is the wider side, so A's blocks span the rows
KERNEL_TYPES = {
    "int16 d4 q=4 M=2": ("d4", 4, 2, {}, 32, 8, np.int16),
    "int32 d4 q=4 M=3 fixed": ("d4", 4, 3, KERNEL_CASES["fixed"], 32, 8, np.int32),
    "int32 z2 q=16 M=2": ("z2", 16, 2, {}, 16, 8, np.int32),
    "int64 z2 q=16 M=3 fixed": ("z2", 16, 3, FIXED2, 16, 8, np.int64),
    "python-int z2 q=16 M=8": ("z2", 16, 8, {}, 2, 12, object),
    "int16 a2 q=4 M=2": ("a2", 4, 2, {}, 32, 32, np.int16),
}


@pytest.mark.parametrize("case", KERNEL_TYPES.values(), ids=KERNEL_TYPES.keys())
def test_outer_kernel_at_every_dtype_boundary(case, monkeypatch):
    # matmul_approx equals ip_approx bit for bit and decode+GEMM to round-off,
    # across two row blocks and part of a third, on each side of every type bound
    name, q, M, kw, n, cols_b, dtype = case
    monkeypatch.setattr(lut_mod, "_COMBINE_BLOCK", 2**12)
    dtypes = spy_kernel(monkeypatch)
    cfg = pipe(n=n, lat=make_lattice(name), q=q, M=M, beta0=0.02 * q, **kw)
    lut = build_lut(cfg.params)
    cols_a = cols_spanning_blocks(cfg, cols_b)
    assert cols_a < cols_b
    rng = np.random.default_rng(21)
    QA = quantize_matrix(cfg, rng.standard_normal((n, cols_a)))
    QB = quantize_matrix(cfg, rng.standard_normal((n, cols_b)))
    G = matmul_approx(cfg, lut, QA, QB)
    assert dtypes == [np.dtype(dtype)] * 3
    L = M + (cfg.dither_mode != "none")
    assert lut.query_count == cols_a * cols_b * cfg.chunks * L * L
    # B^T A takes its blocks over A too, the side with fewer columns
    assert np.array_equal(matmul_approx(cfg, lut, QB, QA), G.T)
    assert dtypes == [np.dtype(dtype)] * 6
    empty = quantize_matrix(cfg, np.zeros((n, 0)))
    assert matmul_approx(cfg, lut, empty, empty).shape == (0, 0)
    for i in range(cols_a):
        for j in range(cols_b):
            assert G[i, j] == ip_approx(cfg, lut, QA.column(i), QB.column(j))
    want = dense_products(cfg, QA, QB)
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)


def test_products_exact_beyond_int64():
    # d4, q=8, M=11 with the top layer in use: a chunk's weighted table sum
    # passes 2^63, so the combine must leave int64 and lut_ip stay in Python ints.
    cfg = pipe(n=8, q=8, M=11, beta0=1e-10)
    lut = build_lut(cfg.params)
    rng = np.random.default_rng(20)
    QA = quantize_matrix(cfg, rng.standard_normal((8, 3)))
    top = np.argwhere(QA.digits[:, :, -1].any(axis=-1))  # (column, chunk) pairs
    assert len(top)
    G = matmul_approx(cfg, lut, QA, QA)
    X = reconstruct_chunks(cfg, QA).reshape(3, cfg.n)
    want = X @ X.T
    assert np.linalg.norm(G - want) <= 1e-9 * np.linalg.norm(want)
    assert G[0, 1] == ip_approx(cfg, lut, QA.column(0), QA.column(1))
    digits = QA.digits[tuple(top[0])]
    x = cfg.params.lat.point_of(decode_coords_many(cfg.params, digits))
    raw = lut_ip(lut, digits, digits)
    assert abs(raw - x @ x) <= 1e-12 * (x @ x)
    zero = np.zeros(4, dtype=np.int64)
    assert lut_ip(lut, digits, digits, zero, zero) == float(raw)


def test_matrix_column_quantization_matches_vector():
    # a column quantized inside a matrix equals the standalone vector path;
    # QuantizedMatrix.column(j) is a one-column matrix of views, j < 0 counting from the end
    rng = np.random.default_rng(17)
    for kw in KERNEL_CASES.values():
        cfg = pipe(n=16, **kw)
        A = rng.standard_normal((16, 3))
        QA = quantize_matrix(cfg, A)
        for j in (0, 1, 2, -1, -3):
            qv = quantize_vector(cfg, A[:, j], col=j % 3)
            col = QA.column(j)
            assert col.cfg is cfg and col.shape == qv.shape == (16, 1)
            for field in ("digits", "T", "norms", "dither_ids"):
                whole, one = getattr(QA, field), getattr(col, field)
                assert (one is None) == (whole is None) == (getattr(qv, field) is None)
                if one is not None:
                    assert one.shape == (1,) + whole.shape[1:] and np.shares_memory(one, whole)
                    assert np.array_equal(one[0], whole[j])
            assert np.array_equal(qv.digits, col.digits)
            assert np.array_equal(qv.T, col.T)
            if col.dither_ids is not None:
                assert np.array_equal(qv.dither_ids, col.dither_ids)
            if col.norms is not None:
                # the norm's reduction order depends on the column count
                assert abs(qv.norms[0] - col.norms[0]) <= 1e-12 * col.norms[0]
        for j in (3, -4):
            with pytest.raises(IndexError):
                QA.column(j)
        # numpy reads a bool as a mask: column(True) gave (1, 1, 3, ...) digits
        for j in (True, False, np.bool_(True), 1.0, 1.5, "1", None):
            with pytest.raises(ValueError, match="column index must be an integer"):
                QA.column(j)
        assert np.array_equal(QA.column(np.int64(-1)).digits, QA.column(2).digits)
        # one decode of the matrix is the stack of its columns' decodes, bit for bit
        assert np.array_equal(reconstruct_chunks(cfg, QA), np.concatenate(
            [reconstruct_chunks(cfg, QA.column(j)) for j in range(3)]))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    fixed = pipe(n=8, dither_mode="fixed", dither_ids=np.array([2, 0, 1, 3]))
    rand = pipe(n=8, dither_mode="random", dither_seed=4)
    configs = [
        (pipe(n=8), 3),
        (pipe(n=8, rotate=True, rotation_seed=9), 3),
        (fixed, 3),
        (rand, 3),
        (fixed, 0),
        (rand, 0),
    ]
    for idx, (cfg, cols) in enumerate(configs):
        A = rng.standard_normal((8, cols)) * 1.5
        qm = quantize_matrix(cfg, A)
        path = tmp_path / f"m{idx}.qm"
        save_quantized_matrix(qm, path)
        first = path.read_bytes()
        back = load_quantized_matrix(path)
        assert back.shape == qm.shape
        assert np.array_equal(back.digits, qm.digits)
        assert np.array_equal(back.T, qm.T)
        if qm.norms is None:
            assert back.norms is None
        else:
            assert np.array_equal(back.norms, qm.norms)
        if qm.dither_ids is None:
            assert back.dither_ids is None
        else:
            assert np.array_equal(back.dither_ids, qm.dither_ids)
        save_quantized_matrix(back, path)
        assert path.read_bytes() == first  # byte-identical re-save
        # the reloaded matrix matches its original in every setting the products compare
        lut = build_lut(cfg.params)
        assert matmul_approx(cfg, lut, qm, back).shape == (cols, cols)
        if cols == 0:
            continue
        # identical products through the reloaded matrix
        a = ip_approx(cfg, lut, qm.column(0), qm.column(1))
        b = ip_approx(back.cfg, lut, back.column(0), back.column(1))
        assert a == b


@pytest.mark.parametrize("name, q, nrec", [("a2", 8, 1), ("d4", 5, 2)])
def test_save_load_save_by_record_size(name, q, nrec, tmp_path):
    # a2 q=8 (q^d = 64) packs one-byte records, read back as the indices
    # themselves; d4 q=5 (q^d = 625) two-byte ones, zero-padded when read
    assert pipeline._digit_record_bytes(q, make_lattice(name).d) == nrec
    A = np.random.default_rng(q).standard_normal((16, 5)) * 1.5
    for mode in ("none", "random"):
        cfg = pipe(n=16, q=q, lat=make_lattice(name), dither_mode=mode, dither_seed=8)
        qm = quantize_matrix(cfg, A)
        path = tmp_path / f"{name}-{mode}.nlqm"
        save_quantized_matrix(qm, path)
        first = path.read_bytes()
        back = load_quantized_matrix(path)
        assert back.digits.dtype == qm.digits.dtype and np.array_equal(back.digits, qm.digits)
        assert np.array_equal(back.T, qm.T)
        if mode == "random":
            assert np.array_equal(back.dither_ids, qm.dither_ids)
        save_quantized_matrix(back, path)
        assert path.read_bytes() == first


# NLQM version 2 files of a2 q=8 M=2, n=4, two columns, beta0 0.35: no dither,
# and fixed ids [3, 5].
V2_A2_FILES = {
    "none": "4e4c514d02000000030000000200000004000000020000000800000002000000"
            "555555555555d53f666666666666d63f00000000000000000000000000000000"
            "00000000000000003c00183910383f1800000007",
    "fixed": "4e4c514d02000000030000000200000004000000020000000800000002000000"
             "555555555555d53f666666666666d63f00000000010000000000000000000000"
             "000000000000000003053c0011391038301800000007",
}
V2_A2_INPUT = np.array([[0.3, -2.0], [1.1, 0.05], [-0.4, 40.0], [2.5, -0.7]])


def v2_a2_config(mode):
    kw = {"fixed": {"dither_ids": np.array([3, 5])}}
    return pipe(n=4, q=8, lat=make_lattice("a2"), dither_mode=mode, **kw.get(mode, {}))


@pytest.mark.parametrize("mode", ["none", "fixed"])
def test_version2_changes_only_the_version_word(tmp_path, mode):
    v2 = bytes.fromhex(V2_A2_FILES[mode])
    path = tmp_path / "m.qm"
    save_quantized_matrix(quantize_matrix(v2_a2_config(mode), V2_A2_INPUT), path)
    v3 = path.read_bytes()
    # version 3 is the version 2 layout plus a CRC-32 of it
    assert v3[4] == 3 and v3[-4:] == zlib.crc32(v3[:-4]).to_bytes(4, "little")
    assert v3[:4] + b"\x02" + v3[5:-4] == v2
    # the version 2 file loads to the same matrix and re-saves as version 3
    path.write_bytes(v2)
    save_quantized_matrix(load_quantized_matrix(path), path)
    assert path.read_bytes() == v3


def test_version1_files_are_refused(tmp_path):
    # NLQM version 1 had the version 2 layout, with blake2b random-mode ids
    path = tmp_path / "m.qm"
    for v2 in V2_A2_FILES.values():
        path.write_bytes(bytes.fromhex(v2)[:4] + b"\x01" + bytes.fromhex(v2)[5:])
        with pytest.raises(ValueError, match="unsupported"):
            load_quantized_matrix(path)
    # NLL version 1: two reserved words where version 2 has the scale, then the
    # int64 scaled products, no CRC
    p = HierarchicalParams(make_lattice("d4"), 3, 2)
    head = struct.pack("<8I", int.from_bytes(b"NLL1", "little"), 1, FAMILY_IDS["D"], 4, 3,
                       0, 0, 0)
    path = tmp_path / "t.lut"
    path.write_bytes(head + build_lut(p).values.astype("<i8").tobytes())
    with pytest.raises(ValueError, match="unsupported"):
        load_lut(path, p)


def test_save_refuses_edited_random_ids(tmp_path):
    rng = np.random.default_rng(20)
    qm = quantize_matrix(pipe(n=8, dither_mode="random", dither_seed=3),
                         rng.standard_normal((8, 3)))
    qm.dither_ids = qm.dither_ids.copy()
    qm.dither_ids[2, 1, 0] = (qm.dither_ids[2, 1, 0] + 1) % 4
    with pytest.raises(ValueError, match="dither ids"):
        save_quantized_matrix(qm, tmp_path / "m.qm")


def test_save_refuses_fixed_ids_past_one_byte(tmp_path):
    # the file holds one byte per id digit: 700 used to be written as 188 and
    # load a matrix decoding up to 0.0049 away from this one
    cfg = pipe(n=4, q=1000, M=1, beta0=0.01, lat=make_lattice("z1"), dither_mode="fixed",
               dither_ids=np.array([700]))
    qm = quantize_matrix(cfg, np.random.default_rng(24).standard_normal((4, 3)))
    with pytest.raises(ValueError, match="one byte"):
        save_quantized_matrix(qm, tmp_path / "m.qm")
    assert not (tmp_path / "m.qm").exists()
    # an id digit of 255 still fits
    ok = pipe(n=4, q=1000, M=1, beta0=0.01, lat=make_lattice("z1"), dither_mode="fixed",
              dither_ids=np.array([255]))
    qm = quantize_matrix(ok, np.random.default_rng(24).standard_normal((4, 3)))
    save_quantized_matrix(qm, tmp_path / "ok.qm")
    assert load_quantized_matrix(tmp_path / "ok.qm").cfg.dither_ids.tolist() == [255]


def test_save_refuses_edited_fixed_ids(tmp_path):
    # a fixed-mode file stores the config's id, so edited ids would not load back
    cfg = pipe(n=8, dither_mode="fixed", dither_ids=np.array([1, 0, 3, 2]))
    qm = quantize_matrix(cfg, np.random.default_rng(23).standard_normal((8, 3)))
    save_quantized_matrix(qm, tmp_path / "ok.qm")
    qm.dither_ids = qm.dither_ids.copy()
    qm.dither_ids[1, 0] = [3, 3, 3, 3]
    with pytest.raises(ValueError, match="dither ids"):
        save_quantized_matrix(qm, tmp_path / "m.qm")
    assert not (tmp_path / "m.qm").exists()
    # and an undithered matrix carrying ids is refused too
    plain = quantize_matrix(pipe(n=8), np.ones((8, 2)))
    plain.dither_ids = np.zeros((2, 2, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="dither ids"):
        save_quantized_matrix(plain, tmp_path / "p.qm")


def exact_inputs(n, cols):
    """Inputs with exact float values, so pinned files need no random stream."""
    return ((np.arange(n * cols) * 37 % 101 - 50) / 17.0).reshape(n, cols)


def test_nlqm_files_are_pinned(tmp_path):
    # sha256 of small files in random and fixed mode, as version 2 (the version 3
    # file without its CRC and with version word 2) and as version 3: a change to
    # the dither ids, their points or the encoder shows up here
    pinned = [
        ("a2", 8, 0.05, 8, {"dither_mode": "random", "dither_seed": 11},
         "a07b226bf95ac1ad9e026654c9f0eb4bc7df2e0730babd15d939534b78797442",
         "011aa3f0b3d92131ca9e8ccfd31f75124c16a4759b8b781e43261fa3c50d9f81"),
        ("d4", 4, 0.3, 16, {"dither_mode": "fixed", "dither_ids": np.array([1, 0, 3, 2])},
         "1beccb1e98e35f04500319a52ff46e71be6c7511e181dadba97c73119ec59609",
         "2ef5b9600d2f7ee08b1d0b45950bae21775b80134a41184c51d5a9e1e1b4d120"),
    ]
    for name, q, beta0, n, kw, want_v2, want_v3 in pinned:
        cfg = pipe(n=n, q=q, beta0=beta0, lat=make_lattice(name), **kw)
        qm = quantize_matrix(cfg, exact_inputs(n, 3))
        assert qm.T.any()  # some chunks retried
        path = tmp_path / f"{name}.qm"
        save_quantized_matrix(qm, path)
        v3 = path.read_bytes()
        assert hashlib.sha256(v3).hexdigest() == want_v3
        assert hashlib.sha256(v3[:4] + b"\x02" + v3[5:-4]).hexdigest() == want_v2


def test_nlqm_header_flips_that_keep_the_length_are_refused(tmp_path):
    # Without a checksum both files below loaded as another matrix.
    path = tmp_path / "m.qm"
    # bit 1 of d: a zero d4 q=3 M=1 n=12 matrix has the length of a D6 one
    save_quantized_matrix(quantize_matrix(pipe(n=12, q=3, M=1), np.zeros((12, 1))), path)
    raw = bytearray(path.read_bytes())
    raw[12] ^= 0b10
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="checksum"):
        load_quantized_matrix(path)
    # any n with no columns gives the same length: bit 2 of n turns 12 into 8
    save_quantized_matrix(quantize_matrix(pipe(n=12), np.zeros((12, 0))), path)
    raw = bytearray(path.read_bytes())
    raw[16] ^= 0b100
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="checksum"):
        load_quantized_matrix(path)


def test_load_validates_file(tmp_path, monkeypatch):
    cfg = pipe(n=8)
    rng = np.random.default_rng(19)
    qm = quantize_matrix(cfg, rng.standard_normal((8, 2)))
    path = tmp_path / "m.qm"
    save_quantized_matrix(qm, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.qm"
    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError):
        load_quantized_matrix(bad)

    corrupt = bytearray(raw)
    corrupt[0] ^= 0xFF
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_quantized_matrix(bad)

    corrupt = bytearray(raw)
    corrupt[4] = 4  # version
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_quantized_matrix(bad)

    corrupt[4] = 0
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_quantized_matrix(bad)

    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_quantized_matrix(bad)

    qm.T = qm.T.astype(np.uint16)  # as max_retries > 254 gives
    qm.T[0, 0] = 300  # would not fit the one-byte T records
    with pytest.raises(ValueError):
        save_quantized_matrix(qm, path)

    # z2, q=3: one-byte records hold the values 0..8, so 200 is corrupt
    small = quantize_matrix(pipe(n=2, q=3, lat=make_lattice("z2")), np.zeros((2, 1)))
    save_quantized_matrix(small, path)
    corrupt = bytearray(path.read_bytes()[:-4])  # a valid CRC follows the edit
    assert corrupt[-3:-1] == b"\x00\x00"  # the two layer records, then one T byte
    corrupt[-2] = 200
    bad.write_bytes(_with_crc(bytes(corrupt)))
    with pytest.raises(ValueError, match="out of range"):
        load_quantized_matrix(bad)

    # q^d beyond 2^64 does not fit the 64-bit records
    for name, q in (("z41", 3), ("z28", 5)):
        lat = make_lattice(name)
        big = quantize_matrix(pipe(n=lat.d, q=q, lat=lat), np.zeros((lat.d, 1)))
        with pytest.raises(ValueError, match="64-bit"):
            save_quantized_matrix(big, path)

    # q^d = 2^64 exactly fills the records and still round-trips
    top = quantize_matrix(pipe(n=16, q=16, lat=make_lattice("z16")), np.zeros((16, 2)))
    top.digits = np.full_like(top.digits, 15)
    top.digits[1, 0, 0, 0] = 7
    save_quantized_matrix(top, path)
    assert np.array_equal(load_quantized_matrix(path).digits, top.digits)

    # A corrupt d or q is rejected from the header alone, before the d x d
    # lattice matrices are built.
    def no_lattice(*args):
        raise AssertionError("make_lattice called for a corrupt header")

    monkeypatch.setattr(pipeline, "make_lattice", no_lattice)
    fields = list(pipeline._QM_HEADER.unpack_from(raw))
    for d, q in ((1600, 2), (2**32 - 1, 3), (65, 2), (4, 1), (4, 0)):
        fields[3], fields[6] = d, q
        body = pipeline._QM_HEADER.pack(*fields) + raw[pipeline._QM_HEADER.size:-4]
        bad.write_bytes(_with_crc(body))
        with pytest.raises(ValueError):
            load_quantized_matrix(bad)
