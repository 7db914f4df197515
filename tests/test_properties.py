"""Property tests: NLQM files round-trip, reject truncation and any bit flip
(version 3) or load or raise ValueError after one (version 2); table products
equal decode+GEMM under every config the constructors accept; decode
telescopes; the integer layer chain encodes as re-quantizing every layer does;
the encoder's start-rung bound never passes a row's first fitting rung."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_products, float_chain_encode

from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    QuantizedMatrix,
    ScalingConfig,
    build_lut,
    h_encode_many,
    load_quantized_matrix,
    make_lattice,
    matmul_approx,
    paired_ip_approx,
    quantize_matrix,
    save_quantized_matrix,
)
from hnlq.codec import LAYER_CODEBOOK_MAX, _dither_points, decode_coords_many, q_circ_many
from hnlq.lut import _COMBINE_BLOCK, _with_crc, chunk_sum_dtype
from hnlq.pipeline import DITHER_MODES
from hnlq.scaling import _GAUGE_RTOL, MAX_RETRIES, _need

LATTICES = ("z1", "z2", "a2", "d4")


@st.composite
def pipeline_configs(draw, depths=st.integers(1, 3)):
    """A small pipeline config in any dither mode, of depth M drawn from depths."""
    lat = make_lattice(draw(st.sampled_from(LATTICES)))
    mode = draw(st.sampled_from(DITHER_MODES))
    q = draw(st.integers(3, 6))  # PipelineConfig refuses q = 2
    kw = {}
    if mode == "fixed":
        kw["dither_ids"] = np.array(draw(st.lists(st.integers(0, q - 1), min_size=lat.d,
                                                  max_size=lat.d)))
    if mode == "random":
        kw["dither_seed"] = draw(st.integers(-(2**63), 2**63 - 1))
    return PipelineConfig(
        params=HierarchicalParams(lat, q, draw(depths)),
        scaling=ScalingConfig(beta0=draw(st.floats(0.05, 4.0))),
        n=lat.d * draw(st.integers(1, 3)),
        rotate=draw(st.booleans()),
        rotation_seed=draw(st.integers(0, 2**31)),
        dither_mode=mode,
        **kw,
    )


def gaussian_matrix(draw, cfg, cols):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((cfg.n, cols)) * draw(st.floats(0.1, 10.0))


@st.composite
def quantized_matrices(draw):
    """A small quantized matrix under a random config, in any dither mode."""
    cfg = draw(pipeline_configs())
    return quantize_matrix(cfg, gaussian_matrix(draw, cfg, draw(st.integers(0, 3))))


def spanning_cols(cfg):
    """Least column count c whose matrix, against one of c + 1 columns, takes
    more than one row block of ``lut.chunk_sums``: the block sizes of its
    all-pairs paths, in an integer type and in Python ints."""
    p, K = cfg.params, cfg.chunks
    L = p.M + (cfg.dither_mode != "none")
    exact = chunk_sum_dtype(build_lut(p), L) is not None
    c = 1
    while c <= _COMBINE_BLOCK // (K * (max(c + 1, p.q**p.lat.d) if exact else L * L * (c + 1))):
        c += 1
    return c


@st.composite
def quantized_pairs(draw):
    """(cfg, A, B): two quantized matrices under one config, of 0 to 3 columns
    each or of counts that span more than one row block of the product, at
    depths M up to where chunk sums leave int64 for Python ints."""
    cfg = draw(pipeline_configs(st.integers(1, 3) | st.integers(4, 32)))
    span = draw(st.booleans()) and spanning_cols(cfg)
    counts = (span, span + 1) if span else (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return (cfg, *(quantize_matrix(cfg, gaussian_matrix(draw, cfg, c)) for c in counts))


@pytest.fixture(scope="module")
def nlqm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("nlqm") / "m.nlqm"


def first_cols(Q, k):
    """The first k columns of Q as a matrix."""
    return QuantizedMatrix(Q.cfg, Q.digits[:k], Q.T[:k], None if Q.norms is None else Q.norms[:k],
                           None if Q.dither_ids is None else Q.dither_ids[:k])


@given(pair=quantized_pairs())
def test_products_equal_the_oracle_for_every_accepted_config(pair, nlqm_path):
    cfg, QA, QB = pair
    lut = build_lut(cfg.params)
    G = matmul_approx(cfg, lut, QA, QB)
    L = cfg.params.M + (cfg.dither_mode != "none")
    assert lut.query_count == QA.cols * QB.cols * cfg.chunks * L * L
    # the tolerance of tests/test_pipeline.py::test_matmul_matches_oracle_and_columns
    want = dense_products(cfg, QA, QB)
    assert (np.abs(G - want) <= 1e-6 * np.maximum(1.0, np.abs(want))).all()
    k = min(QA.cols, QB.cols)
    paired = paired_ip_approx(cfg, lut, first_cols(QA, k), first_cols(QB, k))
    assert paired.tobytes() == np.diagonal(G).tobytes()
    paths = [nlqm_path.with_name(f"{side}.nlqm") for side in "ab"]
    for Q, path in zip((QA, QB), paths):
        save_quantized_matrix(Q, path)
    loaded = matmul_approx(cfg, lut, *map(load_quantized_matrix, paths))
    assert loaded.tobytes() == G.tobytes()


@given(qm=quantized_matrices())
def test_nlqm_save_load_save_is_byte_identical(qm, nlqm_path):
    save_quantized_matrix(qm, nlqm_path)
    raw = nlqm_path.read_bytes()
    save_quantized_matrix(load_quantized_matrix(nlqm_path), nlqm_path)
    assert nlqm_path.read_bytes() == raw


@given(qm=quantized_matrices())
def test_every_truncated_nlqm_is_rejected(qm, nlqm_path):
    save_quantized_matrix(qm, nlqm_path)
    raw = nlqm_path.read_bytes()
    for end in range(len(raw)):
        nlqm_path.write_bytes(raw[:end])
        with pytest.raises(ValueError):
            load_quantized_matrix(nlqm_path)


@given(qm=quantized_matrices(), data=st.data())
def test_a_flipped_bit_of_a_version3_nlqm_is_refused(qm, data, nlqm_path):
    save_quantized_matrix(qm, nlqm_path)
    raw = bytearray(nlqm_path.read_bytes())
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    nlqm_path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_quantized_matrix(nlqm_path)


# The three files of the flip measurement: (lattice, q, n, rotate, dither mode).
FLIP_FILES = (("d4", 4, 16, False, "fixed"), ("a2", 8, 8, True, "random"),
              ("z2", 5, 8, False, "none"))
# Header bytes of magic, version, d, n, cols and M: the first two name the
# format, the other four fix the file's length for these files.
LENGTH_FIELDS = set(range(0, 8)) | set(range(12, 24)) | set(range(28, 32))


@given(file=st.sampled_from(FLIP_FILES), cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_a_flipped_nlqm_bit_loads_or_raises_value_error(file, cols, seed, data, nlqm_path):
    name, q, n, rotate, mode = file
    lat = make_lattice(name)
    cfg = PipelineConfig(
        params=HierarchicalParams(lat, q, 2), scaling=ScalingConfig(beta0=0.4), n=n,
        rotate=rotate, dither_mode=mode, dither_seed=3,
        dither_ids=np.ones(lat.d, dtype=np.int64) if mode == "fixed" else None,
    )
    A = np.random.default_rng(seed).standard_normal((n, cols))
    save_quantized_matrix(quantize_matrix(cfg, A), nlqm_path)
    raw = bytearray(nlqm_path.read_bytes()[:-4])  # version 2: no CRC
    raw[4] = 2
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    nlqm_path.write_bytes(bytes(raw))
    try:
        load_quantized_matrix(nlqm_path)
    except ValueError:
        return
    assert bit // 8 not in LENGTH_FIELDS


def test_a_rotate_flag_other_than_0_or_1_is_refused(nlqm_path):
    cfg = PipelineConfig(params=HierarchicalParams(make_lattice("z2"), 5, 2),
                         scaling=ScalingConfig(beta0=0.4), n=8, rotate=True)
    save_quantized_matrix(quantize_matrix(cfg, np.ones((8, 2))), nlqm_path)
    raw = bytearray(nlqm_path.read_bytes()[:-4])
    raw[48] = 3  # the rotate flag, a uint32 after the two doubles
    nlqm_path.write_bytes(_with_crc(bytes(raw)))
    with pytest.raises(ValueError, match="rotate flag"):
        load_quantized_matrix(nlqm_path)


@pytest.mark.parametrize("gathered", [True, False])
@given(name=st.sampled_from(LATTICES), data=st.data())
def test_decode_telescopes(gathered, name, data):
    # reconstruction = nearest point - coarse term, with and without the cached codebook
    lat = make_lattice(name)
    q_bound = math.floor(LAYER_CODEBOOK_MAX ** (1 / lat.d) + 1e-9)
    assert q_bound**lat.d <= LAYER_CODEBOOK_MAX < (q_bound + 1) ** lat.d
    qs = st.integers(2, q_bound) if gathered else st.integers(q_bound + 1, 2 * q_bound)
    p = HierarchicalParams(lat, data.draw(qs), data.draw(st.integers(1, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((64, lat.d)) * data.draw(st.floats(0.1, 1.0)) * p.q**p.M
    digits, overload = h_encode_many(p, X)
    coarse = q_circ_many(p, X, p.M)
    assert np.array_equal(decode_coords_many(p, digits), lat.nearest_coords(X) - coarse)
    assert np.array_equal(overload, coarse.any(axis=-1))


@given(name=st.sampled_from(LATTICES + ("z3", "d3", "d8")), data=st.data())
def test_integer_chain_matches_float_chain(name, data):
    # q up to 16 puts q^d on both sides of the gather bound for every d > 3
    lat = make_lattice(name)
    p = HierarchicalParams(lat, data.draw(st.integers(2, 16)), data.draw(st.integers(1, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spread = data.draw(st.floats(0.01, 3.0)) * p.q**p.M
    C = rng.integers(-3 * p.q**p.M, 3 * p.q**p.M + 1, (32, lat.d))
    div = data.draw(st.sampled_from([1, 2, p.q]))
    X = np.concatenate([rng.standard_normal((32, lat.d)) * spread, lat.point_of(C) / div])
    digits, overload = h_encode_many(p, X)
    want_digits, want_overload = float_chain_encode(p, X)
    assert np.array_equal(digits, want_digits)
    assert np.array_equal(overload, want_overload)


@given(name=st.sampled_from(LATTICES + ("d3", "d8")), data=st.data())
def test_the_start_bound_never_passes_the_first_fitting_rung(name, data):
    # The per-direction bound a row's start rung and jump come from is a
    # necessary condition for fitting: at no row does it name a rung past the
    # first one at which quantizing the row succeeds.  Rows are Gaussian and
    # codewords scaled onto a rung, where the bound is tightest; q ranges
    # past the cached layer codebook of d8 (q^8 > 2^14 from q = 4).
    lat = make_lattice(name)
    q, M = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 3))
    p = HierarchicalParams(lat, q, M)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = rng.integers(0, q, lat.d) if data.draw(st.booleans()) else None
    cfg = ScalingConfig(beta0=data.draw(st.floats(0.01, 2.0)))
    cw = lat.point_of(decode_coords_many(p, rng.integers(0, q, (16, M, lat.d))))
    X = np.concatenate([rng.standard_normal((16, lat.d)) * data.draw(st.floats(0.1, 3.0)) * q**M,
                        cw * cfg.scale(data.draw(st.integers(0, 30)))])
    z = 0.0 if ids is None else _dither_points(p, ids)
    first = np.full(len(X), MAX_RETRIES + 1)
    for t in range(MAX_RETRIES, -1, -1):
        first[~h_encode_many(p, X / cfg.scale(t) - z)[1]] = t
    need = _need(p._fit_weights[ids is not None], X)
    assert (np.searchsorted(cfg._rungs * (1 + _GAUGE_RTOL), need) <= first).all()
