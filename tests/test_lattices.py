"""Nearest-point decoders, coordinate maps, and Voronoi membership."""

import math
import re

import numpy as np
import pytest

from conftest import oracle_nearest, second_moment
from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    ScalingConfig,
    default_tie_breaker,
    make_lattice,
    quantize_vector,
)
from hnlq.lattices import FAMILY_IDS, in_scaled_voronoi_many


def test_make_lattice_names():
    assert make_lattice("z1").name == "Z1"
    assert make_lattice("z", 2).name == "Z2"
    assert make_lattice("D4").name == "D4"
    assert make_lattice("a2").name == "A2"
    # suffix and explicit d must agree when both are given
    assert make_lattice("z3", 3).d == 3
    with pytest.raises(ValueError):
        make_lattice("z3", 4)
    with pytest.raises(ValueError):
        make_lattice("z")  # no dimension anywhere


def test_make_lattice_rejects_unsupported():
    with pytest.raises(ValueError):
        make_lattice("e8")
    with pytest.raises(ValueError):
        make_lattice("a3")
    with pytest.raises(ValueError):
        make_lattice("d1")
    with pytest.raises(ValueError):
        make_lattice("z0")


def test_family_ids_are_frozen():
    # the binary headers encode these; changing them breaks old files
    assert FAMILY_IDS == {"Z": 1, "D": 2, "A": 3}


def test_generator_inverse(any_lat):
    assert np.allclose(any_lat.G @ any_lat.G_inv, np.eye(any_lat.d), atol=1e-12)
    with pytest.raises(ValueError):
        any_lat.G[0, 0] = 99.0  # arrays are frozen


def test_tie_breaker_values():
    got = default_tie_breaker(3)
    want = np.mod(1e-7 * np.arange(1, 4) * math.pi, 1e-6)
    assert np.array_equal(got, want)
    assert got.min() > 0
    assert got.max() < 1e-6
    assert len(np.unique(default_tie_breaker(8))) == 8


def nearest_point(lat, x):
    return lat.point_of(lat.nearest_coords(x))


def test_origin_quantizes_to_zero(any_lat):
    c = any_lat.nearest_coords(np.zeros(any_lat.d))
    assert not c.any()
    assert np.allclose(any_lat.point_of(c), 0.0)


def test_z2_plain_rounding(z2):
    c = z2.nearest_coords(np.array([0.4, -1.2]))
    assert np.array_equal(c, [0, -1])
    assert np.array_equal(z2.point_of(c), [0.0, -1.0])


def test_d4_parity_repair(d4):
    # naive rounding gives (1,0,0,0), odd sum; the repair flips the worst
    # coordinate back and lands on the origin
    assert np.allclose(nearest_point(d4, np.array([0.6, 0.0, 0.0, 0.0])), 0.0)
    assert np.allclose(nearest_point(d4, np.array([0.6, 0.55, 0.0, 0.0])), [1.0, 1.0, 0.0, 0.0])


def test_a2_prefers_hex_neighbor(a2):
    # (0.5, 0.5) is closer to the basis point (0.5, sqrt(3)/2) than to
    # either of the Z2-style candidates (0,0) / (1,0)
    assert np.allclose(nearest_point(a2, np.array([0.5, 0.5])), [0.5, math.sqrt(3.0) / 2.0])


def test_a2_two_coset_rounding_matches_bruteforce(a2):
    # far from the origin, and on the bisectors between the two cosets'
    # nearest points, where the 3x3 enumeration of the oracle decides
    rng = np.random.default_rng(102)
    X = np.concatenate([rng.standard_normal((200, 2)) * s for s in (100.0, 1e6)])
    h = math.sqrt(3.0) / 2.0
    mids = np.array([[0.25, h / 2], [0.75, h / 2], [0.5, 0.0], [0.0, h]])  # equidistant points
    X = np.concatenate([X, mids + rng.integers(-5, 5, size=(4, 1)) * [[1.0, 2 * h]]])
    got = a2.nearest_coords(X)
    for x, c in zip(X, got):
        assert np.array_equal(c, oracle_nearest(a2, x))


def test_nearest_matches_bruteforce(any_lat):
    rng = np.random.default_rng(101)
    for sigma in (0.7, 3.0):
        X = rng.standard_normal((300, any_lat.d)) * sigma
        got = any_lat.nearest_coords(X)
        for x, c in zip(X, got):
            assert np.array_equal(c, oracle_nearest(any_lat, x))


def test_nearest_on_constructed_ties(any_lat):
    # midpoints of facets; the tie-break must land implementation and
    # oracle on the same side
    d = any_lat.d
    ties = [
        np.full(d, 0.5),
        np.full(d, -0.5),
        np.arange(d) + 0.5,
        np.full(d, 1.5),
    ]
    for x in ties:
        assert np.array_equal(
            any_lat.nearest_coords(x), oracle_nearest(any_lat, x)
        )


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_nearest_coords_in_a_narrower_type(any_lat, dtype):
    # the int64 coordinates in dtype, ties included, for every family and shape
    rng = np.random.default_rng(103)
    d = any_lat.d
    X = np.concatenate([rng.standard_normal((300, d)) * s for s in (0.7, 3.0, 2000.0)]
                       + [np.floor(rng.uniform(-50, 50, (100, d))) + 0.5,
                          np.array([np.full(d, 0.5), np.full(d, -0.5), np.arange(d) + 0.5])])
    if any_lat.family == "A":  # the equidistant points between the two cosets
        h = math.sqrt(3.0) / 2.0
        X = np.concatenate([X, [[0.25, h / 2], [0.75, h / 2], [0.5, 0.0], [0.0, h]]])
    want = any_lat.nearest_coords(X)
    for shape in (X.shape, (1, len(X), d)):
        got = any_lat.nearest_coords(X.reshape(shape), dtype=dtype)
        assert got.dtype == dtype and np.array_equal(got.reshape(want.shape), want)
    assert np.array_equal(any_lat.nearest_coords(X[0], dtype=dtype), want[0])


def test_batched_decode_equals_scalar(any_lat):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, any_lat.d)) * 2.0
    batch = any_lat.nearest_coords(X)
    single = np.stack([any_lat.nearest_coords(x) for x in X])
    assert np.array_equal(batch, single)
    # higher-rank shapes pass through unchanged
    cube = any_lat.nearest_coords(X.reshape(8, 5, any_lat.d))
    assert np.array_equal(cube.reshape(40, any_lat.d), batch)


def test_gram_is_an_integer_matrix_times_one_factor():
    # G^T G = u B with B integral: u = 1 for Z and D, 1/2 for A_2
    for name in ("z2", "d4", "d8", "a2"):
        lat = make_lattice(name)
        B, u = lat.integer_gram
        assert B.dtype == np.int64
        assert u == 1 / (2 if name == "a2" else 1)
        assert np.abs(lat.G.T @ lat.G - u * B).max() <= 1e-12


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "d2", "d3", "d4", "d8", "a2"])
def test_gauge_is_the_least_scale_of_the_cell_holding_x(name):
    lat = make_lattice(name)
    X = np.random.default_rng(11).standard_normal((300, lat.d)) * 3
    g = lat.gauge(X)
    assert g.shape == (300,)
    assert in_scaled_voronoi_many(lat, X, 1.0).tolist() == (g < 1).tolist()
    assert in_scaled_voronoi_many(lat, X / g[:, None], 1.0 + 1e-3).all()
    assert not in_scaled_voronoi_many(lat, X / g[:, None], 1.0 - 1e-3).any()
    assert lat.gauge(X.reshape(3, 100, lat.d)).shape == (3, 100)
    assert lat.gauge(X[0]).shape == ()


def test_gauge_values(z1, d4, a2):
    assert z1.gauge(np.array([[0.5], [-1.25]])).tolist() == [1.0, 2.5]
    # D4 cell: |x_i| + |x_j| <= 1, with vertices at e_i and (1/2, 1/2, 1/2, 1/2)
    assert d4.gauge(np.array([[1.0, 0, 0, 0], [0.5, -0.5, 0.5, 0.5], [0.3, -2, 1, 0]])).tolist() == [
        1.0, 1.0, 3.0]
    # the hexagon has facets at distance 1/2 and vertices at distance 1/sqrt(3)
    assert np.allclose(a2.gauge(np.array([[0.5, 0.0], [0.0, 1 / math.sqrt(3.0)]])), 1.0)
    assert np.isinf(d4.gauge(np.array([1e308, 1e308, 0, 0])))


def test_dimension_mismatch_raises(d4):
    with pytest.raises(ValueError):
        d4.nearest_coords(np.zeros(3))


def test_coords_roundtrip(z3, d4, a2):
    # a lattice point is its own nearest point: its generator coordinates come back
    assert np.array_equal(z3.nearest_coords(np.array([2.0, -1.0, 5.0])), [2, -1, 5])
    c = d4.nearest_coords(np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.array_equal(d4.point_of(c), [0.0, 0.0, 1.0, 1.0])
    p = a2.point_of(np.array([3, -2]))
    assert np.array_equal(a2.nearest_coords(p), [3, -2])


def test_point_of_is_exact_on_integer_lattices(d4):
    rng = np.random.default_rng(11)
    C = rng.integers(-50, 50, size=(100, 4))
    P = d4.point_of(C)
    assert np.array_equal(P, np.rint(P))
    assert np.array_equal(d4.nearest_coords(P), C)


def test_in_scaled_voronoi_examples(z1, d4):
    assert in_scaled_voronoi_many(z1, np.array([0.49]), 1.0)
    assert not in_scaled_voronoi_many(z1, np.array([0.51]), 1.0)
    # 2.6/4 = 0.65 rounds to 1, so the point sits outside 4 cells
    assert not in_scaled_voronoi_many(z1, np.array([2.6]), 4.0)
    assert in_scaled_voronoi_many(z1, np.array([2.6]), 6.0)
    x = np.full(4, 0.4)
    assert in_scaled_voronoi_many(d4, x, 1.0) == (not oracle_nearest(d4, x).any())
    with pytest.raises(ValueError):
        in_scaled_voronoi_many(z1, np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        in_scaled_voronoi_many(z1, np.array([0.0]), -2.0)


def test_vector_entry_points_name_the_expected_shape(d4):
    p = HierarchicalParams(d4, 3, 2)
    cfg = PipelineConfig(params=p, scaling=ScalingConfig(beta0=0.5), n=8)
    for bad in (np.zeros(9), np.zeros((1, 8)), 0.0):
        want = f"expected shape (8,), got {np.shape(bad)}"
        with pytest.raises(ValueError, match=re.escape(want)):
            quantize_vector(cfg, bad)


def test_in_scaled_voronoi_many_consistent(any_lat):
    rng = np.random.default_rng(23)
    X = rng.standard_normal((120, any_lat.d)) * 1.5
    for s in (1.0, 2.5):
        got = in_scaled_voronoi_many(any_lat, X, s)
        assert got.dtype == bool
        assert got.shape == (120,)
        for x, g in zip(X, got):  # one row of shape (d,) as the same row of a batch
            assert g == in_scaled_voronoi_many(any_lat, x, s)


def test_second_moment_z_is_one_twelfth(z1, z2):
    for lat in (z1, z2):
        est, se = second_moment(lat, 200_000, seed=5)
        assert abs(est - 1.0 / 12.0) <= 3.0 * se


def test_second_moment_deterministic(z2):
    assert second_moment(z2, 1000, seed=7)[0] == second_moment(z2, 1000, seed=7)[0]
    assert second_moment(z2, 1000, seed=7)[0] != second_moment(z2, 1000, seed=8)[0]


def test_second_moment_d4_below_cubic():
    # the checkerboard cell is rounder than the cube of equal volume:
    # sigma^2(D4) < 2^(2/4) / 12
    est, se = second_moment(make_lattice("d4"), 100_000, seed=1)
    assert est + 3 * se < 2.0 ** 0.5 / 12.0
