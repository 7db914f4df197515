"""Property tests: NLQM files round-trip and reject truncation; decode telescopes;
the integer layer chain encodes as re-quantizing every layer does."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import float_chain_encode

from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    ScalingConfig,
    h_encode_many,
    load_quantized_matrix,
    make_lattice,
    quantize_matrix,
    save_quantized_matrix,
)
from hnlq.codec import LAYER_CODEBOOK_MAX, decode_coords_many, q_circ_many
from hnlq.pipeline import DITHER_MODES

LATTICES = ("z1", "z2", "a2", "d4")


@st.composite
def quantized_matrices(draw):
    """A small quantized matrix under a random config, in any dither mode."""
    lat = make_lattice(draw(st.sampled_from(LATTICES)))
    mode = draw(st.sampled_from(DITHER_MODES))
    # q = 2 puts dither points on the cell boundary, where a dithered zero never encodes.
    q = draw(st.integers(2 if mode == "none" else 3, 6))
    kw = {}
    if mode == "fixed":
        kw["dither_ids"] = np.array(draw(st.lists(st.integers(0, q - 1), min_size=lat.d,
                                                  max_size=lat.d)))
    if mode == "random":
        kw["dither_seed"] = draw(st.integers(-(2**63), 2**63 - 1))
    cfg = PipelineConfig(
        params=HierarchicalParams(lat, q, draw(st.integers(1, 3))),
        scaling=ScalingConfig(beta0=draw(st.floats(0.05, 4.0))),
        n=lat.d * draw(st.integers(1, 3)),
        rotate=draw(st.booleans()),
        rotation_seed=draw(st.integers(0, 2**31)),
        dither_mode=mode,
        **kw,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((cfg.n, draw(st.integers(0, 3)))) * draw(st.floats(0.1, 10.0))
    return quantize_matrix(cfg, A)


@pytest.fixture(scope="module")
def nlqm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("nlqm") / "m.nlqm"


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
    lat = make_lattice(name, scale=data.draw(st.sampled_from([1.0, 0.37, 2.5])))
    p = HierarchicalParams(lat, data.draw(st.integers(2, 16)), data.draw(st.integers(1, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spread = data.draw(st.floats(0.01, 3.0)) * p.q**p.M * lat.scale
    C = rng.integers(-3 * p.q**p.M, 3 * p.q**p.M + 1, (32, lat.d))
    div = data.draw(st.sampled_from([1, 2, p.q]))
    X = np.concatenate([rng.standard_normal((32, lat.d)) * spread, lat.point_of(C) / div])
    digits, overload = h_encode_many(p, X)
    want_digits, want_overload = float_chain_encode(p, X)
    assert np.array_equal(digits, want_digits)
    assert np.array_equal(overload, want_overload)
