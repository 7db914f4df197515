"""Single-layer nested-lattice codes: digit grids, encode, decode."""

import numpy as np
import pytest

from conftest import oracle_nearest
from hnlq import HierarchicalParams, h_encode_many
from hnlq.voronoi import digit_grid, vc_decode_many
from hnlq.lattices import in_scaled_voronoi_many


def one_layer_encode(lat, r, X):
    """A Voronoi code's encoder: the one-layer hierarchical code's digits and overload."""
    digits, overload = h_encode_many(HierarchicalParams(lat, r, 1), X)
    return digits[..., 0, :], overload


def test_params_validation(z2):
    # the nesting ratio is an integer >= 2
    digits = np.array([[3, 1]])
    assert np.array_equal(vc_decode_many(z2, 4, digits), [[-1, 1]])
    for r in (1, 0, 2.5):
        with pytest.raises(ValueError, match="nesting ratio"):
            vc_decode_many(z2, r, np.zeros((1, 2), dtype=np.int64))


def test_digit_grid_order_and_shape():
    got = digit_grid(3, 2)
    want = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2]]
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # row index reads as a base-q number, first coordinate most significant
    assert np.array_equal(digit_grid(2, 3)[4], [1, 0, 0])
    assert digit_grid(4, 3).shape == (64, 3)


def test_scalar_code_examples(z1):
    digits, overload = one_layer_encode(z1, 4, np.array([1.3]))
    assert np.array_equal(digits, [1])
    assert not overload
    assert np.array_equal(z1.point_of(vc_decode_many(z1, 4, np.array([1]))), [1.0])
    # 3 decodes to -1: the coset representative nearest the origin
    assert np.array_equal(z1.point_of(vc_decode_many(z1, 4, np.array([3]))), [-1.0])
    digits, overload = one_layer_encode(z1, 4, np.array([2.8]))
    assert np.array_equal(digits, [3])
    assert overload
    digits, overload = one_layer_encode(z1, 4, np.array([0.0]))
    assert np.array_equal(digits, [0])
    assert not overload


def test_codebook_lies_in_scaled_cell(z2, d4):
    for lat, r in ((z2, 3), (d4, 3)):
        coords = vc_decode_many(lat, r, digit_grid(r, lat.d))
        pts = lat.point_of(coords)
        assert pts.shape == (r**lat.d, lat.d)
        assert in_scaled_voronoi_many(lat, pts, float(r)).all()
        # distinct codewords: the code is a full set of coset representatives
        assert len({tuple(row) for row in coords}) == r**lat.d


def test_codewords_reencode_to_themselves(z2, d4):
    for lat, r in ((z2, 3), (d4, 3)):
        grid = digit_grid(r, lat.d)
        for row, coords in zip(grid, vc_decode_many(lat, r, grid)):
            digits, overload = one_layer_encode(lat, r, lat.point_of(coords))
            assert not overload
            assert np.array_equal(digits, row)


def test_encode_decode_consistency(z2, d4):
    rng = np.random.default_rng(42)
    for lat, r in ((z2, 4), (d4, 3)):
        X = rng.standard_normal((500, lat.d)) * 2.0
        for x in X:
            digits, overload = one_layer_encode(lat, r, x)
            near = oracle_nearest(lat, x)
            assert np.array_equal(digits, np.mod(near, r))
            dec = vc_decode_many(lat, r, digits)
            assert overload == bool((dec != near).any())
            if not overload:
                assert np.allclose(lat.point_of(dec), lat.point_of(near), atol=1e-12)


def test_decode_many_matches_scalar(d4):
    # one digit row of shape (d,) decodes as the same row of a batch
    grid = digit_grid(3, 4)
    batch = vc_decode_many(d4, 3, grid)
    single = np.stack([vc_decode_many(d4, 3, row) for row in grid])
    assert np.array_equal(batch, single)


def test_digit_validation(z2):
    with pytest.raises(ValueError):
        vc_decode_many(z2, 3, np.array([[3, 0]]))  # digit out of range
    with pytest.raises(ValueError):
        vc_decode_many(z2, 3, np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        vc_decode_many(z2, 3, np.array([[0.0, 0.0]]))  # float digits
    with pytest.raises(ValueError):
        vc_decode_many(z2, 3, np.array([[0, 0, 0]]))  # wrong dimension
    with pytest.raises(ValueError):
        one_layer_encode(z2, 3, np.zeros(3))
