"""Hierarchical codec: digit layers, reconstruction, coarse quantization chain."""

import numpy as np
import pytest

from conftest import enumerate_codebook, float_chain_encode, int64_encode, oracle_nearest
from hnlq import (
    HierarchicalParams,
    Lattice,
    UnencodableError,
    h_encode_many,
    make_lattice,
    nesting_radius_ratio,
    outer_nesting_ratio,
    reduced_nesting_ratio,
    verify_sandwich,
)
from hnlq.codec import (
    ENUMERATION_GUARD,
    LAYER_CODEBOOK_MAX,
    _dither_points,
    _layer_coords,
    decode_coords_many,
    layer_codebook_coords,
    q_circ_many,
)
from hnlq import codec, scaling
from hnlq.lattices import in_scaled_voronoi_many
from hnlq.scaling import ScalingConfig, decode_scaled_many, encode_scaled_many
from hnlq.voronoi import digit_grid, vc_decode_many


def test_params_validation(z2):
    p = HierarchicalParams(z2, 4, 2)
    assert p.bits_per_dim == 4.0
    assert p.codebook_size == 4**4
    with pytest.raises(ValueError):
        HierarchicalParams(z2, 1, 2)
    with pytest.raises(ValueError):
        HierarchicalParams(z2, 3, 0)
    with pytest.raises(ValueError):
        HierarchicalParams(z2, 3.5, 2)
    # a bool equals 0 or 1 as an int: True used to construct as M = 1
    q_rule, m_rule = "q must be an integer >= 2", "M must be an integer >= 1"
    for q, M, rule in ((4, True, m_rule), (4, np.True_, m_rule), (True, 2, q_rule),
                       (np.True_, 2, q_rule)):
        with pytest.raises(ValueError, match=f"^{rule}, got "):
            HierarchicalParams(z2, q, M)


def decode(p, digits, t=None):
    """Reconstruction of digits (..., M, d) from the coarsest t layers (default all)."""
    layers = None if t is None else slice(p.M - t, p.M)
    return p.lat.point_of(decode_coords_many(p, np.asarray(digits, dtype=np.int64), layers))


def test_scalar_encode_traces(z1):
    p = HierarchicalParams(z1, 3, 2)
    digits, overload = h_encode_many(p, np.array([3.7]))
    assert np.array_equal(digits, [[1], [1]])
    assert not overload
    digits, overload = h_encode_many(p, np.array([5.3]))
    assert np.array_equal(digits, [[2], [2]])
    assert overload
    digits, overload = h_encode_many(p, np.zeros(1))
    assert not digits.any()
    assert not overload


def test_scalar_decode_traces(z1):
    p = HierarchicalParams(z1, 3, 2)
    assert np.array_equal(decode(p, [[1], [1]]), [4.0])  # 1 + 3*1
    assert np.array_equal(decode(p, [[2], [2]]), [-4.0])  # -1 + 3*(-1)
    assert np.array_equal(decode(p, [[0], [0]]), [0.0])


def test_partial_decode_trace(z1):
    p = HierarchicalParams(z1, 3, 2)
    digits, _ = h_encode_many(p, np.array([3.7]))
    assert np.array_equal(decode(p, digits, 1), [3.0])  # coarsest layer
    assert np.array_equal(decode(p, digits, 2), decode(p, digits))


def test_q_circ_traces(z1):
    p = HierarchicalParams(z1, 3, 2)
    assert np.array_equal(z1.point_of(q_circ_many(p, np.array([3.7]), 0)), [4.0])
    assert np.array_equal(z1.point_of(q_circ_many(p, np.array([5.3]), 2)), [9.0])
    assert np.array_equal(z1.point_of(q_circ_many(p, np.zeros(1), 3)), [0.0])
    with pytest.raises(ValueError):
        q_circ_many(p, np.zeros(1), -1)


def test_digit_shape_and_range(d4):
    p = HierarchicalParams(d4, 3, 2)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 4)) * 2
    digits, overload = h_encode_many(p, X)
    assert digits.shape == (50, 2, 4)
    assert overload.shape == (50,)
    assert digits.min() >= 0 and digits.max() < 3
    bad = digits[0].copy()
    bad[0, 0] = 3
    with pytest.raises(ValueError):
        decode_coords_many(p, bad)
    with pytest.raises(ValueError):
        decode_coords_many(p, digits[0].astype(float))
    with pytest.raises(ValueError):
        decode_coords_many(p, digits[0][:1])  # wrong layer count


def test_encode_many_matches_scalar(any_lat):
    # one row of shape (d,) encodes as the same row of a batch
    p = HierarchicalParams(any_lat, 3, 2)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((60, any_lat.d)) * 1.5
    digits, overload = h_encode_many(p, X)
    for x, db, ob in zip(X, digits, overload):
        row_digits, row_overload = h_encode_many(p, x)
        assert np.array_equal(row_digits, db)
        assert row_overload.shape == () and row_overload == ob


def test_telescoping_identity(any_lat):
    # reconstruction always equals the fine point minus the coarse chain,
    # overloaded or not; zero tolerance in coordinates
    rng = np.random.default_rng(5)
    for q, M in ((2, 1), (3, 2), (4, 3)):
        p = HierarchicalParams(any_lat, q, M)
        X = rng.standard_normal((400, any_lat.d)) * (q**M / 3.0)
        digits, overload = h_encode_many(p, X)
        recon = decode_coords_many(p, digits)
        fine = any_lat.nearest_coords(X)
        coarse = q_circ_many(p, X, M)
        assert np.array_equal(recon, fine - coarse)
        assert np.array_equal(overload, coarse.any(axis=-1))


CHAIN_LATTICES = {name: make_lattice(name)
                  for name in ("z1", "z2", "z16", "d2", "d3", "d4", "d8", "a2")}
CHAIN_QS = (2, 3, 4, 5, 8, 16)


@pytest.mark.parametrize("lat", CHAIN_LATTICES.values(), ids=CHAIN_LATTICES.keys())
def test_integer_chain_matches_float_chain(lat):
    # exact digits and overload flags against re-quantizing every layer, on
    # Gaussian rows up to 3 q^M and on lattice points over 1, 2 and q (cell facets)
    cached = {q**m.d <= LAYER_CODEBOOK_MAX for m in CHAIN_LATTICES.values() for q in CHAIN_QS}
    assert cached == {True, False}  # the grid runs the gather and the per-row decode
    rng = np.random.default_rng(43)
    for q in CHAIN_QS:
        for M in (1, 2, 3, 4):
            p = HierarchicalParams(lat, q, M)
            spread = q**M
            C = rng.integers(-3 * q**M, 3 * q**M + 1, (40, lat.d))
            X = np.concatenate(
                [rng.standard_normal((40, lat.d)) * s * spread for s in (0.05, 0.3, 1.0, 3.0)]
                + [lat.point_of(C) / div for div in (1, 2, q)]
            )
            digits, overload = h_encode_many(p, X)
            want_digits, want_overload = float_chain_encode(p, X)
            assert np.array_equal(digits, want_digits), (q, M)
            assert np.array_equal(overload, want_overload), (q, M)


def test_encode_runs_the_quantizer_once_per_call(monkeypatch):
    # with the layer codebook cached, later layers are integer steps: one call
    calls = []
    nearest = Lattice.nearest_coords

    def counted(self, x, **kw):
        calls.append(len(np.asarray(x)))
        return nearest(self, x, **kw)

    rng = np.random.default_rng(44)
    for name, q, M in (("z1", 3, 4), ("a2", 8, 2), ("d4", 4, 3), ("d8", 3, 2)):
        p = HierarchicalParams(make_lattice(name), q, M)
        assert layer_codebook_coords(p) is p._layer_codebook  # cached before counting
        X = rng.standard_normal((200, p.lat.d)) * q**M
        monkeypatch.setattr(Lattice, "nearest_coords", counted)
        calls.clear()
        digits, overload = h_encode_many(p, X)
        assert calls == [200]
        h_encode_many(p, X[0])
        assert len(calls) == 2
        monkeypatch.undo()
        assert np.array_equal(digits, float_chain_encode(p, X)[0])


@pytest.mark.parametrize("name", ["z2", "d4", "a2"])
def test_huge_inputs_overload_as_the_float_chain(name, monkeypatch):
    # Overload flags agree at any magnitude, so the retry loop retries the same
    # rows and settles on, or gives up at, the same T.  (The digits of rows that
    # already overload may differ past about 1e9, where the float chain's
    # tie-breaker falls below float resolution.)
    lat = make_lattice(name)
    p = HierarchicalParams(lat, 3, 2)
    rng = np.random.default_rng(45)
    with np.errstate(invalid="ignore"):  # int64 casts of |x| > 2^63
        for mag in (1e10, 1e12, 1e15, 1e19, 1e30, 1e100, 1e300):
            X = rng.standard_normal((60, lat.d)) * mag
            assert np.array_equal(h_encode_many(p, X)[1], float_chain_encode(p, X)[1]), mag
            for alpha in (1.0 / 3.0, 17.0):  # 2^(alpha T) up to about 1e6, or past 1e300
                cfg = ScalingConfig(beta0=1.0, alpha=alpha)
                outcomes = []
                for encode in (h_encode_many, float_chain_encode):
                    monkeypatch.setattr(scaling, "h_encode_many", encode)
                    try:
                        outcomes.append(encode_scaled_many(p, cfg, X))
                    except UnencodableError as err:
                        outcomes.append(str(err))
                monkeypatch.undo()
                got, want = outcomes
                if isinstance(want, str):
                    assert got == want, (mag, alpha)
                else:
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _largest_top(p, dtype):
    """The largest max |X| at which h_encode_many works in dtype or narrower, by bisection."""
    lo, hi = 0.0, 2.0**40
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        if codec._coord_dtype(p, mid).itemsize <= np.dtype(dtype).itemsize:
            lo = mid
        else:
            hi = mid
    return lo


def _encodes_as_int64(p, X, cfg, monkeypatch):
    """h_encode_many of X, and encode_scaled_many's digits and T, equal the int64 chain's."""
    got, want = h_encode_many(p, X), int64_encode(p, X)
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    ladders = []
    for encode in (h_encode_many, int64_encode):
        monkeypatch.setattr(scaling, "h_encode_many", encode)
        ladders.append(encode_scaled_many(p, cfg, X))
    monkeypatch.undo()
    (digits, T), (want_digits, want_T) = ladders
    assert np.array_equal(digits, want_digits) and np.array_equal(T, want_T)
    assert T.any()  # the retry loop ran


@pytest.mark.parametrize("name, q, M", [("z2", 4, 2), ("a2", 8, 2), ("d4", 4, 3), ("d8", 3, 2)])
def test_narrow_coordinates_encode_as_int64(name, q, M, monkeypatch):
    # Just below and just above the int16 and int32 thresholds of the type
    # bound: rows at the bound in every sign pattern, half-integer ties and
    # random rows give the int64 chain's digits, overload flags and T.
    p = HierarchicalParams(make_lattice(name), q, M)
    d = p.lat.d
    signs = 2.0 * digit_grid(2, d) - 1
    rng = np.random.default_rng(48)
    cfg = ScalingConfig(beta0=1.0, alpha=1.0)  # rungs up to 2^60, past the int32 threshold
    for narrow, wide in ((np.int16, np.int32), (np.int32, np.int64)):
        top = _largest_top(p, narrow)
        for mag, dtype in ((top, narrow), (np.nextafter(top, np.inf), wide)):
            assert codec._coord_dtype(p, mag) == dtype
            ties = np.floor(rng.uniform(1 - mag, mag - 1, (50, d))) + 0.5
            X = np.concatenate([signs * mag, ties, rng.uniform(-mag, mag, (100, d))])
            assert np.abs(X).max() == mag
            _encodes_as_int64(p, X, cfg, monkeypatch)


def test_uncached_codebooks_encode_in_int64(monkeypatch):
    # q^d = 65,536 > LAYER_CODEBOOK_MAX: no cached codebook, so int64 at any input
    p = HierarchicalParams(make_lattice("d4"), 16, 1)
    assert p._layer_codebook is None and codec._coord_dtype(p, 1.0) == np.int64
    X = np.random.default_rng(49).standard_normal((300, 4)) * 40
    _encodes_as_int64(p, X, ScalingConfig(beta0=1.0), monkeypatch)


def test_exactness_iff_no_overload(d4):
    p = HierarchicalParams(d4, 3, 2)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((500, 4)) * 3.0
    digits, overload = h_encode_many(p, X)
    recon = decode_coords_many(p, digits)
    fine = np.stack([oracle_nearest(d4, x) for x in X])
    eq = (recon == fine).all(axis=-1)
    assert (~overload == eq).all()
    assert overload.any() and (~overload).any()  # both outcomes exercised


def test_layer_points_live_in_single_layer_code(z2):
    p = HierarchicalParams(z2, 3, 3)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 2)) * 6
    digits, _ = h_encode_many(p, X)
    for m in range(3):
        pts = z2.point_of(vc_decode_many(z2, 3, digits[:, m]))
        assert in_scaled_voronoi_many(z2, pts, 3.0).all()


def test_single_layer_matches_voronoi_code(any_lat):
    # the Voronoi code's encoder: digits of the nearest point mod r, overload
    # when they decode to another point
    p = HierarchicalParams(any_lat, 4, 1)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((300, any_lat.d)) * 2
    near = any_lat.nearest_coords(X)
    want = np.mod(near, 4)
    digits, overload = h_encode_many(p, X)
    assert np.array_equal(digits[:, 0], want)
    assert np.array_equal(overload, (vc_decode_many(any_lat, 4, want) != near).any(axis=-1))
    assert np.array_equal(decode_coords_many(p, digits), vc_decode_many(any_lat, 4, want))


def test_partial_decode_sums_coarse_layers(d4):
    p = HierarchicalParams(d4, 3, 3)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((80, 4)) * 4
    digits, _ = h_encode_many(p, X)
    for db in digits:
        full = decode_coords_many(p, db)
        parts = [
            decode_coords_many(p, db, layers=slice(m, m + 1)) for m in range(3)
        ]
        assert np.array_equal(full, parts[0] + parts[1] + parts[2])
        for t in (1, 2, 3):
            got = decode_coords_many(p, db, layers=slice(3 - t, 3))
            want = sum(parts[3 - t :])
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name, q, M", [("d4", 4, 3), ("a2", 8, 4), ("z1", 3, 5), ("z16", 16, 2)])
def test_horner_decode_is_the_sum_over_layers(name, q, M):
    # decode_coords_many sums q^m times layer m's rows by Horner's rule, one
    # gather per layer: every slice of layers gives the int64 sum of the terms
    # q^m * rows_m, with and without the cached codebook (z16 q=16 has none).
    lat = make_lattice(name)
    p = HierarchicalParams(lat, q, M)
    assert (p._layer_codebook is None) == (name == "z16")
    D = np.random.default_rng(44).integers(0, q, (5, 7, M, lat.d)).astype(np.uint8)
    reps = vc_decode_many(lat, q, D)
    slices = [None, slice(0, 1), slice(1, None), slice(None, None, 2), slice(None, None, -1),
              slice(M - 1, 0, -2), slice(2, 2), slice(-2, None)]
    for layers in slices:
        want = np.zeros((5, 7, lat.d), dtype=np.int64)
        for m in range(M)[layers if layers is not None else slice(None)]:
            want += q**m * reps[..., m, :]
        got = decode_coords_many(p, D, layers)
        assert got.dtype == np.int64 and np.array_equal(got, want), layers


@pytest.mark.parametrize("name, q, low", [("d4", 4, 0.75), ("z2", 8, 0.75), ("a2", 8, 0.875)])
def test_layer_codebook_support_along_each_relevant_vector(name, q, low):
    # S_v, the max over layer codebook points r of 2 <r, v> / |v|^2, for each
    # signed relevant vector v (24 for d4, 6 for a2, 4 for z2): low q on one
    # side of each pair +-v and q on the other, where the gauge bound allows
    # q (1 + g(eps)) on both.
    lat = make_lattice(name)
    p = HierarchicalParams(lat, q, 2)
    S = p._supports
    pts = lat.point_of(layer_codebook_coords(p))
    assert S.shape == (len(lat._signed_weights),) == ({"d4": 24, "a2": 6, "z2": 4}[name],)
    assert np.abs(S - (pts @ lat._signed_weights.T).max(axis=0)).max() <= 1e-12
    pairs = np.sort(S.reshape(2, -1), axis=0) / q
    assert np.allclose(pairs[0], low, rtol=0, atol=1e-12) and np.allclose(pairs[1], 1.0)
    with pytest.raises(ValueError):
        S[0] = 0.0
    assert HierarchicalParams(make_lattice("d8"), 4, 1)._supports is None  # 4^8 > 2^14


def test_layer_codebook_order(z2):
    p = HierarchicalParams(z2, 2, 1)
    got = layer_codebook_coords(p)
    # rows follow the digit grid: (0,0),(0,1),(1,0),(1,1) reduced mod 2L
    assert np.array_equal(got, [[0, 0], [0, -1], [-1, 0], [-1, -1]])
    # the params object caches it once, read-only
    assert layer_codebook_coords(p) is got
    with pytest.raises(ValueError):
        got[0, 0] = 5


# q^d on both sides of the gather bound LAYER_CODEBOOK_MAX = 2^14.  No q = 2:
# it puts dither points on the cell boundary, where a dithered zero never encodes.
GATHER_CASES = [
    ("z1", (3, 5, 2**14, 2**14 + 1)),
    ("z2", (3, 128, 129)),
    ("a2", (3, 8, 128, 129)),
    ("d4", (3, 4, 11, 12)),
]


@pytest.mark.parametrize("name, qs", GATHER_CASES)
def test_layer_decode_gathers_the_direct_decode(name, qs):
    lat = make_lattice(name)
    rng = np.random.default_rng(41)
    cfg = ScalingConfig(beta0=16.0)
    assert min(q**lat.d for q in qs) <= LAYER_CODEBOOK_MAX < max(q**lat.d for q in qs)
    for q in qs:
        p = HierarchicalParams(lat, q, 2)
        D = rng.integers(0, q, (300, 2, lat.d))
        reps = vc_decode_many(lat, q, D)
        coords = reps[:, 0] + q * reps[:, 1]
        assert np.array_equal(_layer_coords(p, D), reps)
        assert np.array_equal(decode_coords_many(p, D), coords)
        assert np.array_equal(layer_codebook_coords(p), vc_decode_many(lat, q, digit_grid(q, lat.d)))
        ids = D[:, 0]
        Z = lat.point_of(reps[:, 0]) / q
        for row, z in zip(ids[:20], Z):
            assert np.array_equal(_dither_points(p, row), z)
        # dithered encode and decode see the same dither points
        X = rng.standard_normal((300, lat.d))
        digits, T = encode_scaled_many(p, cfg, X, dither_ids=ids)
        assert not T.any()
        assert np.array_equal(digits, h_encode_many(p, X / cfg.beta0 - Z)[0])
        recon = lat.point_of(decode_coords_many(p, digits)) + Z
        got = decode_scaled_many(p, cfg, digits, T, dither_ids=ids)
        assert np.array_equal(got, np.asarray(cfg.scale(T))[:, None] * recon)
        # malformed digits fail the same way with and without the gather
        bad_digits = (D.astype(float), np.full((1, lat.d), q), np.full((1, lat.d), -1),
                      D[..., :1] if lat.d > 1 else np.zeros((1, 2), dtype=int))
        for bad in bad_digits:
            with pytest.raises(ValueError):
                _layer_coords(p, bad)
            with pytest.raises(ValueError):
                decode_coords_many(p, bad)
        with pytest.raises(ValueError):
            _dither_points(p, np.full(lat.d, q))


def test_enumerate_scalar_codebooks(z1):
    pts = np.sort(enumerate_codebook(HierarchicalParams(z1, 3, 1)).ravel())
    assert np.array_equal(pts, [-1, 0, 1])
    pts = np.sort(enumerate_codebook(HierarchicalParams(z1, 3, 2)).ravel())
    assert np.array_equal(pts, np.arange(-4, 5))


def test_enumerate_guard():
    p = HierarchicalParams(make_lattice("z2"), 4, 7)  # 4^14 > 2^24
    assert p.codebook_size > ENUMERATION_GUARD
    with pytest.raises(ValueError):
        verify_sandwich(p)


def test_enumerate_hexagonal_constellation(a2):
    p = HierarchicalParams(a2, 4, 3)
    coords = enumerate_codebook(p)
    assert coords.shape == (4096, 2)
    assert len({tuple(c) for c in coords}) == 4096
    rep = verify_sandwich(p)
    assert rep.inner_ok and rep.outer_ok and rep.distinct


def test_nesting_ratio_values():
    assert nesting_radius_ratio(4, 2) == 0.25
    assert abs(nesting_radius_ratio(3, 3) - (1 - 3 ** (-2)) / 2) < 1e-15
    assert nesting_radius_ratio(5, 1) == 0.0  # M=1: no slack
    assert reduced_nesting_ratio(4, 2) == 12  # q(q-1)
    assert reduced_nesting_ratio(3, 2) == 6
    assert reduced_nesting_ratio(3, 3) == 15
    assert reduced_nesting_ratio(2, 4) == 2
    assert outer_nesting_ratio(4, 2) == 20  # q^M (1 + ratio) = 16 * 1.25
    assert outer_nesting_ratio(3, 3) == 39
    assert outer_nesting_ratio(5, 1) == 5


@pytest.mark.parametrize("name", ["z2", "a2", "d4"])
def test_codewords_lie_in_outer_ratio_times_the_cell(name):
    # The bound the retry ladder skips rungs by: every codeword has gauge at
    # most B (1 + g(eps)), B = outer_nesting_ratio(q, M).
    lat = make_lattice(name)
    eta = float(lat.gauge(lat.eps))
    for q, M in ((3, 1), (3, 2), (4, 2), (2, 3)):
        params = HierarchicalParams(lat, q, M)
        g = lat.gauge(lat.point_of(enumerate_codebook(params)))
        assert g.max() <= outer_nesting_ratio(q, M) * (1 + eta) * (1 + 1e-12)


def test_sandwich_reports(z2, d4):
    rep = verify_sandwich(HierarchicalParams(z2, 4, 2))
    assert rep.inner_ok and rep.outer_ok and rep.distinct
    assert rep.r_qM == 0.25
    assert rep.codebook_size == 4**4
    rep = verify_sandwich(HierarchicalParams(d4, 3, 2))
    assert rep.inner_ok and rep.outer_ok and rep.distinct


@pytest.mark.parametrize("name,q,M", [("d6", 3, 1), ("d8", 2, 2), ("z6", 3, 2), ("z8", 2, 2)])
def test_sandwich_holds_past_four_dimensions(name, q, M):
    # Codeword keys once took 14 bits per coordinate: past 63 bits from d = 5,
    # so from d = 6 distinct codewords shared keys.
    rep = verify_sandwich(HierarchicalParams(make_lattice(name), q, M))
    assert rep.inner_ok and rep.outer_ok and rep.distinct


def test_sandwich_reports_a_repeated_codeword(d4, monkeypatch):
    real = codec._iter_codebook_coords

    def one_row_repeated(params):
        chunks = [c.copy() for c in real(params)]
        chunks[1][0] = chunks[0][0]
        yield from chunks

    monkeypatch.setattr(codec, "_iter_codebook_coords", one_row_repeated)
    assert not verify_sandwich(HierarchicalParams(d4, 3, 2)).distinct


def test_sandwich_refuses_keys_past_int64():
    # d16 q=2: 16 coordinates of 4 bits each need 64 bits.
    with pytest.raises(ValueError, match="int64 key"):
        verify_sandwich(HierarchicalParams(make_lattice("d16"), 2, 1))


def test_sandwich_collapses_at_depth_one(z2):
    # with one layer the region slack is zero and the codebook is exactly
    # the single-layer code
    p = HierarchicalParams(z2, 3, 1)
    rep = verify_sandwich(p)
    assert rep.r_qM == 0.0
    assert rep.inner_ok and rep.outer_ok
    cb = {tuple(c) for c in enumerate_codebook(p)}
    single = {tuple(c) for c in vc_decode_many(z2, 3, digit_grid(3, 2))}
    assert cb == single
