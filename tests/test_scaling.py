"""Retry-ladder scaling, dithering, and empirical rate accounting."""

import math

import numpy as np
import pytest

from conftest import full_grid_beta0, full_ladder_encode
from hnlq import (
    HierarchicalParams,
    Lattice,
    PipelineConfig,
    ScalingConfig,
    UnencodableError,
    empirical_rate,
    h_encode_many,
    make_lattice,
    outer_nesting_ratio,
    quantize_matrix,
)
from hnlq import bench, codec, scaling
from hnlq.codec import (
    LAYER_CODEBOOK_MAX,
    _dither_points,
    _dither_rows,
    _layer_coords,
    decode_coords_many,
)
from hnlq.lattices import in_scaled_voronoi_many
from hnlq.scaling import decode_scaled_many, encode_scaled_many, entropy_bits
from hnlq.voronoi import digit_grid


def test_config_validation():
    cfg = ScalingConfig(beta0=0.5)
    assert cfg.alpha == 1.0 / 3.0
    assert cfg.max_retries == 60
    with pytest.raises(ValueError):
        ScalingConfig(beta0=0.0)
    with pytest.raises(ValueError):
        ScalingConfig(beta0=-1.0)
    with pytest.raises(ValueError):
        ScalingConfig(beta0=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ScalingConfig(beta0=1.0, max_retries=-1)
    # A rung that is not a finite float, or a budget that is not an integer.
    for bad in ({"beta0": math.inf}, {"beta0": 1.0, "alpha": math.inf},
                {"beta0": 1.0, "max_retries": 2.5}, {"beta0": 1e300, "alpha": 1.0},
                {"beta0": 1.0, "alpha": np.float64(20.0)}):
        with pytest.raises(ValueError):
            ScalingConfig(**bad)
    # True > 0 and is an Integral, so each of these used to construct
    rules = {"beta0": "a positive number", "alpha": "a positive number",
             "max_retries": "an integer >= 0"}
    for name in ("beta0", "alpha", "max_retries"):
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match=f"^{name} must be {rules[name]}, got "):
                ScalingConfig(**{"beta0": 0.5, name: flag})


def test_three_retries_double_the_scale():
    # alpha = 1/3: the third retry multiplies beta0 by exactly 2
    cfg = ScalingConfig(beta0=0.7, alpha=1.0 / 3.0)
    assert cfg.scale(0) == 0.7
    assert cfg.scale(3) == 2.0 * 0.7
    assert cfg.scale(6) == 4.0 * 0.7


def test_configs_with_equal_fields_share_one_ladder():
    # Rung t is the float scale(t) gives for the Python int t.  Configs whose
    # (beta0, alpha, max_retries) are equal and of the same types share one
    # read-only ladder: calibration builds a new config per candidate.
    a, b = ScalingConfig(beta0=0.37), ScalingConfig(beta0=0.37)
    assert a._rungs is b._rungs and a._rungs.shape == (61,)
    assert all(a._rungs[t] == a.scale(t) for t in range(61))
    with pytest.raises(ValueError):
        a._rungs[0] = 1.0
    for other in (ScalingConfig(beta0=0.37, alpha=np.float32(1.0 / 3.0)),
                  ScalingConfig(beta0=0.37, max_retries=7), ScalingConfig(beta0=np.float64(0.37))):
        assert other._rungs is not a._rungs
        assert [float(r) for r in other._rungs] == [float(other.scale(t))
                                                    for t in range(other.max_retries + 1)]


def test_scalar_retry_trace(z1):
    # x=5.3 overloads the 9-point scalar codebook at beta=1 but fits after
    # one shrink: 5.3/2^(1/3) quantizes to 4
    p = HierarchicalParams(z1, 3, 2)
    cfg = ScalingConfig(beta0=1.0, alpha=1.0 / 3.0)
    digits, T = encode_scaled_many(p, cfg, np.array([5.3]))
    assert T == 1
    assert not h_encode_many(p, np.array([5.3]) / cfg.scale(int(T)))[1]
    assert np.array_equal(z1.point_of(decode_coords_many(p, digits)), [4.0])
    out = decode_scaled_many(p, cfg, digits, T)
    assert np.allclose(out, [2.0 ** (1.0 / 3.0) * 4.0], atol=1e-12)
    assert abs(out[0] - 5.0397) < 1e-3


def test_zero_needs_no_retries(d4):
    p = HierarchicalParams(d4, 3, 2)
    cfg = ScalingConfig(beta0=0.5)
    digits, T = encode_scaled_many(p, cfg, np.zeros(4))
    assert T == 0
    assert not digits.any()
    assert np.allclose(decode_scaled_many(p, cfg, digits, T), 0.0)


def test_retry_count_is_minimal(d4):
    p = HierarchicalParams(d4, 3, 2)
    cfg = ScalingConfig(beta0=0.3, alpha=1.0 / 3.0)
    rng = np.random.default_rng(77)
    X = rng.standard_normal((400, 4))
    digits, T = encode_scaled_many(p, cfg, X)
    assert (T >= 0).all() and T.max() > 0  # ladder actually used
    for x, t in zip(X, T):
        if t == 0:
            continue
        _, ov = h_encode_many(p, x[None] / cfg.scale(t - 1))
        assert bool(ov[0])  # one step earlier still overloads


def test_unencodable_when_budget_exhausted(z1):
    p = HierarchicalParams(z1, 2, 1)
    cfg = ScalingConfig(beta0=1e-3, alpha=0.01, max_retries=5)
    with pytest.raises(UnencodableError):
        encode_scaled_many(p, cfg, np.array([1e6]))


def retry_every_row(params, cfg, X, dither_ids=None):
    """The retry ladder that quantizes every overloading row at every pass,
    each row less its dither point (one id (d,) for every row, or one per row)."""
    Z = np.zeros_like(X)
    if dither_ids is not None:
        Z[:] = _dither_points(params, dither_ids)
    digits = np.zeros((len(X), params.M, params.lat.d), dtype=np.int64)
    T = np.zeros(len(X), dtype=np.int64)
    active = np.arange(len(X))
    for t in range(cfg.max_retries + 1):
        # int64 casts of |x| / scale >= 2^63; x / scale past the float range
        with np.errstate(invalid="ignore", over="ignore"):
            digits[active], ov = h_encode_many(params, X[active] / cfg.scale(t) - Z[active])
        T[active] = t
        active = active[ov]
        if not active.size:
            return digits, T
    return f"{active.size} vector(s) still overload after {cfg.max_retries} retries"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["z2", "a2", "d4", "d8"])
def test_encoding_is_the_every_row_ladder(name):
    # Start rungs from int64 reach and the per-direction bound's jump after
    # the first pass may change neither digits, T nor the error text of
    # quantizing every overloading row at every rung.  Rows sit below the ladder (fit at
    # rung 0), inside it, past its top rung and past int64 reach, undithered
    # and with one id for every row or one id per row.  d8 q = 4, 8 has no
    # cached layer codebook, so there the bound is the outer-inclusion one.
    lat = make_lattice(name)
    rng = np.random.default_rng([47, lat.d])
    for q in (2, 3, 4, 8):
        for M in (1, 2, 3):
            p = HierarchicalParams(lat, q, M)
            cfg = ScalingConfig(beta0=0.2)
            # row norms about q^M beta0 2^(t / 3): rung t = -6 .. 56 inside the ladder
            t = rng.uniform(-6, 56, 40)
            gauss = rng.standard_normal((40, lat.d))
            inside = gauss * (0.5 * q**M * cfg.scale(t))[:, None]
            past = gauss[:3] * q**M * cfg.scale(66.0)
            for ids in (None, rng.integers(0, q, lat.d), rng.integers(0, q, (43, lat.d))):
                for X in (inside, np.concatenate([inside, past])):
                    want = retry_every_row(p, cfg, X, None if ids is None else ids[:len(X)])
                    got = _outcome(lambda: encode_scaled_many(
                        p, cfg, X, None if ids is None else ids[:len(X)]))
                    assert _same_outcome(got, want), (q, M, ids)
            for mag in (1e19, 1e300):
                for alpha in (1.0 / 3.0, 17.0):
                    cfg = ScalingConfig(beta0=1.0, alpha=alpha)
                    X = gauss * mag
                    assert _same_outcome(_outcome(lambda: encode_scaled_many(p, cfg, X)),
                                         retry_every_row(p, cfg, X))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["d4", "a2", "z2"])
def test_rows_past_int64_overload_unquantized(name, monkeypatch):
    # A row whose lattice coordinates would leave int64 overloads at that scale
    # without a quantizer call, so nothing warns, and encoding settles on the
    # same T and digits as quantizing it, or fails with the same error.
    lat = make_lattice(name)
    p = HierarchicalParams(lat, 3, 2)
    rng = np.random.default_rng(46)
    calls = []
    nearest = Lattice.nearest_coords
    monkeypatch.setattr(Lattice, "nearest_coords",
                        lambda s, x, **kw: calls.append(1) or nearest(s, x, **kw))
    for mag in (1e19, 1e300):
        X = rng.standard_normal((60, lat.d)) * mag
        for alpha in (1.0 / 3.0, 17.0):
            cfg = ScalingConfig(beta0=1.0, alpha=alpha)
            pipe = PipelineConfig(params=p, scaling=cfg, n=6 * lat.d)

            def via_matrix():
                qm = quantize_matrix(pipe, X.reshape(10, -1).T)
                return qm.digits.reshape(X.shape[0], p.M, lat.d), qm.T.reshape(-1)

            want = retry_every_row(p, cfg, X)
            calls.clear()
            for encode in (lambda: encode_scaled_many(p, cfg, X), via_matrix):
                try:
                    digits, T = encode()
                except UnencodableError as err:
                    assert str(err) == want, (mag, alpha)
                else:
                    assert np.array_equal(digits, want[0]) and np.array_equal(T, want[1])
            if mag == 1e300 and alpha < 1:
                assert isinstance(want, str) and calls == []  # no pass could succeed


@pytest.mark.filterwarnings("error")
def test_passes_with_no_row_in_range_are_skipped(monkeypatch):
    # At 1e300 and alpha 17 most passes have every remaining row past int64;
    # such a pass calls no encoder, and the outcome is the reference ladder's.
    p = HierarchicalParams(make_lattice("d4"), 3, 2)
    X = np.random.default_rng(46).standard_normal((60, 4)) * 1e300
    cfg = ScalingConfig(beta0=1.0, alpha=17.0)
    want = retry_every_row(p, cfg, X)
    rows = []
    encode = scaling.h_encode_many
    monkeypatch.setattr(scaling, "h_encode_many", lambda p, X: rows.append(len(X)) or encode(p, X))
    try:
        got = encode_scaled_many(p, cfg, X)
    except UnencodableError as err:
        got = str(err)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert rows and min(rows) > 0
    assert len(rows) < 10  # one pass per scale at which some row is in range


def test_only_rows_that_overload_their_start_are_bounded(monkeypatch):
    # encode_scaled_many bounds (scaling._need) exactly the rows that
    # overload at their start rung, dithered or not, once each; a pilot
    # bounds its rows once, when it is made, and mse bounds none.
    p = HierarchicalParams(make_lattice("d4"), 4, 2)
    cfg = ScalingConfig(beta0=0.3)
    X = np.random.default_rng(48).standard_normal((2000, 4))
    bounded, need = [], scaling._need
    monkeypatch.setattr(scaling, "_need", lambda W, X: bounded.append(X.copy()) or need(W, X))
    for ids in (None, np.array([1, 0, 2, 3])):
        Z = 0.0 if ids is None else _dither_points(p, ids)
        _, ov = h_encode_many(p, X / cfg.scale(0) - Z)
        assert 0 < ov.sum() < len(X)
        bounded.clear()
        encode_scaled_many(p, cfg, X, ids)
        assert len(bounded) == 1 and np.array_equal(bounded[0], X[ov])
    pilot = scaling._Pilot(p, X, 2)
    assert len(bounded) == 2 and np.array_equal(bounded[1], X)

    def refused(W, X):
        raise AssertionError("_Pilot.mse bounded rows")

    monkeypatch.setattr(scaling, "_need", refused)
    for cfgs in ([cfg], [cfg, ScalingConfig(beta0=0.05)]):
        assert all(T.any() for _, T in pilot.mse(cfgs))


def _outcome(encode):
    try:
        return encode()
    except UnencodableError as err:
        return str(err)


def _same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,s", [
    ("z1", 1.0), ("z2", 1.0), ("z16", 1.0), ("d2", 1.0), ("d3", 1.0), ("d4", 1.0),
    ("d8", 1.0), ("a2", 1.0), ("d4", 0.37),
])
def test_start_rungs_keep_the_full_ladder_outcome(name, s):
    # Starting rows past their int64 and gauge rungs must give the digits, T
    # and error text of trying every rung in turn: on Gaussian rows, on
    # codewords and on points of B V's boundary at a known rung (the rows the
    # gauge bound is tightest on), and on rows at 1e19 and 1e300.  Every base
    # step is multiplied by s, so s = 0.37 runs ladders of off-grid steps.
    lat = make_lattice(name)
    rng = np.random.default_rng([5, lat.d, int(s * 100)])
    for q in (3, 4, 8, 16):
        for M in (1, 2, 3, 4):
            p = HierarchicalParams(lat, q, M)
            B = outer_nesting_ratio(q, M)
            gauss = rng.standard_normal((24, lat.d))
            cw = lat.point_of(decode_coords_many(p, rng.integers(0, q, (12, M, lat.d))))
            g = lat.gauge(cw)
            edge = cw[g > 0] * (B / g[g > 0])[:, None]
            for beta0, t0 in ((0.01, 4), (0.3, 0)):
                cfg = ScalingConfig(beta0=beta0 * s)
                X = np.concatenate([gauss, cw * cfg.scale(t0), edge * cfg.scale(t0)])
                fixed = rng.integers(0, q, lat.d)
                per_row = rng.integers(0, q, (len(X), lat.d))
                for ids in (None, fixed, per_row):
                    want = _outcome(lambda: full_ladder_encode(p, cfg, X, ids))
                    got = _outcome(lambda: encode_scaled_many(p, cfg, X, dither_ids=ids))
                    assert _same_outcome(got, want), (q, M, beta0, ids)
            for mag in (1e19, 1e300):
                for alpha in (1.0 / 3.0, 17.0):
                    cfg = ScalingConfig(beta0=s, alpha=alpha)
                    X = gauss * mag
                    want = _outcome(lambda: full_ladder_encode(p, cfg, X))
                    assert _same_outcome(_outcome(lambda: encode_scaled_many(p, cfg, X)), want)


@pytest.mark.filterwarnings("error")
def test_every_rung_of_an_accepted_ladder_is_a_finite_float():
    # alpha = 20: 2^(alpha t) leaves the float range from t = 52 on, so the
    # default 60 retries are refused and 51 (top rung 2^1020) are accepted.
    # There rows encode as on the full ladder, and a row past the top rung
    # raises UnencodableError.
    with pytest.raises(ValueError, match="max_retries"):
        ScalingConfig(beta0=1.0, alpha=20.0)
    p = HierarchicalParams(make_lattice("d4"), 3, 2)
    cfg = ScalingConfig(beta0=1.0, alpha=20.0, max_retries=51)
    X = np.random.default_rng(3).standard_normal((20, 4))
    assert _same_outcome(encode_scaled_many(p, cfg, X), full_ladder_encode(p, cfg, X))
    Y = np.concatenate([X, [[1.7e308, -1.7e308, 1.7e308, 0.0]]])
    for encode in (full_ladder_encode, encode_scaled_many):
        with pytest.raises(UnencodableError, match="1 vector"):
            encode(p, cfg, Y)


def test_calibration_skips_rungs_that_must_overload(monkeypatch):
    # d4 q=4 M=1 at seed 7, scoring all 24 grid candidates: trying every rung
    # encodes 963,215 pilot rows (8,000 x 24 = 192,000 first passes); the
    # gauge jump encoded 450,675, the per-direction bound before and after
    # the first pass 270,423.  calibrate_beta0 scores the 9 coarse ones on
    # the first 500 rows in one stacked encode and 10 on the whole pilot
    # (106,845).
    rows = []
    encode = scaling.h_encode_many
    monkeypatch.setattr(scaling, "h_encode_many", lambda p, X: rows.append(len(X)) or encode(p, X))
    params = HierarchicalParams(make_lattice("d4"), 4, 1)
    full_grid_beta0("hierarchical", params, seed=7)
    full = sum(rows)
    assert 192_000 <= full <= 0.3 * 963_215
    rows.clear()
    bench.calibrate_beta0("hierarchical", params, seed=7)
    assert 9 * 500 + 10 * 8_000 <= sum(rows) < full


def test_dither_point_values(z1):
    p = HierarchicalParams(z1, 4, 1)
    assert np.array_equal(_dither_points(p, np.array([0])), [0.0])
    assert np.array_equal(_dither_points(p, np.array([1])), [0.25])
    assert np.array_equal(_dither_points(p, np.array([3])), [-0.25])
    with pytest.raises(ValueError):
        _dither_points(p, np.array([4]))


def test_dither_points_stay_in_base_cell(d4, a2):
    for lat in (d4, a2):
        p = HierarchicalParams(lat, 3, 2)
        for row in digit_grid(3, lat.d):
            z = _dither_points(p, row)
            assert in_scaled_voronoi_many(lat, z, 1.0)


def test_dither_shifts_the_encoder_input(d4):
    p = HierarchicalParams(d4, 4, 2)
    cfg = ScalingConfig(beta0=0.6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    ids = np.array([1, 3, 0, 2])
    digits, T = encode_scaled_many(p, cfg, x, dither_ids=ids)
    z = _dither_points(p, ids)
    dg, ov = h_encode_many(p, x[None] / cfg.scale(int(T)) - z)
    assert not ov[0]
    assert np.array_equal(digits, dg[0])
    # decoding adds the dither back before rescaling
    out = decode_scaled_many(p, cfg, digits, T, dither_ids=ids)
    want = cfg.scale(int(T)) * (d4.point_of(decode_coords_many(p, digits)) + z)
    assert np.allclose(out, want, atol=1e-12)


def test_dither_id_broadcast(d4):
    p = HierarchicalParams(d4, 4, 2)
    cfg = ScalingConfig(beta0=0.6)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 4))
    ids = np.array([1, 3, 0, 2])
    d1, t1 = encode_scaled_many(p, cfg, X, dither_ids=ids)
    d2, t2 = encode_scaled_many(p, cfg, X, dither_ids=np.tile(ids, (30, 1)))
    assert np.array_equal(d1, d2)
    assert np.array_equal(t1, t2)
    with pytest.raises(ValueError):
        encode_scaled_many(p, cfg, X, dither_ids=np.tile(ids, (29, 1)))
    # One (d,) id has its point computed once and broadcast; the same id on
    # every row gathers it per row (or computes it, above LAYER_CODEBOOK_MAX).
    for name, q in (("d4", 4), ("a2", 8), ("d8", 4), ("z16", 16)):
        lat = make_lattice(name)
        p = HierarchicalParams(lat, q, 2)
        cfg = ScalingConfig(beta0=0.3)
        X = rng.standard_normal((5, 7, lat.d)) * 0.15 * q**2
        one = np.arange(1, lat.d + 1) % q
        every = np.broadcast_to(one, (5, 7, lat.d)).copy()
        d1, t1 = encode_scaled_many(p, cfg, X, dither_ids=one)
        d2, t2 = encode_scaled_many(p, cfg, X, dither_ids=every)
        assert np.array_equal(d1, d2) and np.array_equal(t1, t2)
        assert t1.any()
        assert np.array_equal(decode_scaled_many(p, cfg, d1, t1, dither_ids=one),
                              decode_scaled_many(p, cfg, d1, t1, dither_ids=every))


@pytest.mark.parametrize("name, q", [("z2", 5), ("a2", 8), ("d4", 4), ("d8", 3)])
def test_dither_point_table_is_the_per_row_points(name, q):
    lat = make_lattice(name)
    p = HierarchicalParams(lat, q, 2)
    table = p._dither_table
    assert table is p._dither_table and table.shape == (q**lat.d, lat.d)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    grid = digit_grid(q, lat.d)
    rows = np.random.default_rng(25).choice(len(grid), 40)
    for i in rows:  # one row at a time, so no batched product is shared
        want = lat.point_of(_layer_coords(p, grid[i])) / q
        assert np.array_equal(table[i], want)
        assert np.array_equal(_dither_points(p, grid[i]), want)
    batch = lat.point_of(_layer_coords(p, grid[rows])) / q
    assert np.array_equal(table[rows], batch)
    points = _dither_rows(lat.d, (40,), grid[rows], lambda i: _dither_points(p, i))
    assert np.array_equal(points(...), batch)


def test_dither_points_above_the_codebook_cache(monkeypatch):
    # d8 q=4 has 4^8 > LAYER_CODEBOOK_MAX ids: no table, points per row
    lat = make_lattice("d8")
    p = HierarchicalParams(lat, 4, 2)
    assert 4**8 > LAYER_CODEBOOK_MAX and p._dither_table is None
    ids = np.random.default_rng(26).integers(0, 4, (30, 8))
    calls = []
    real = codec.vc_decode_many
    monkeypatch.setattr(codec, "vc_decode_many", lambda *a: calls.append(1) or real(*a))
    got = _dither_rows(8, (30,), ids, lambda i: _dither_points(p, i))(...)
    assert calls == [1]
    want = np.array([lat.point_of(real(lat, 4, row)) / 4 for row in ids])
    assert np.array_equal(got, want)
    assert np.array_equal(_dither_points(p, ids[3]), want[3])


def test_batch_decode_matches_scalar(d4):
    p = HierarchicalParams(d4, 3, 2)
    cfg = ScalingConfig(beta0=0.4)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((50, 4))
    digits, T = encode_scaled_many(p, cfg, X)
    batch = decode_scaled_many(p, cfg, digits, T)
    for i in range(50):  # one row of shape (d,) as the same row of a batch
        row_digits, row_T = encode_scaled_many(p, cfg, X[i])
        assert row_T.shape == () and row_T == T[i]
        assert np.array_equal(batch[i], decode_scaled_many(p, cfg, row_digits, row_T))


def test_decode_refuses_a_bad_retry_count(d4):
    # T must be a non-negative integer per row: a short T would broadcast over
    # every row, -1 or 0.5 would decode at rungs no encoder gives
    p = HierarchicalParams(d4, 4, 2)
    cfg = ScalingConfig(beta0=0.4)
    digits, T = encode_scaled_many(p, cfg, np.random.default_rng(10).standard_normal((6, 4)))
    for bad in (T[:1], np.array(0), T[:, None], np.full(6, -1), T.astype(np.float64),
                np.full(6, 0.5), np.zeros(6, dtype=bool)):
        with pytest.raises(ValueError, match="T must"):
            decode_scaled_many(p, cfg, digits, bad)
    assert np.array_equal(decode_scaled_many(p, cfg, digits, T.astype(np.int64)),
                          decode_scaled_many(p, cfg, digits, T))
    with pytest.raises(ValueError, match="T must"):
        decode_scaled_many(p, cfg, digits[0], T[:1])  # one row takes T of shape ()
    assert decode_scaled_many(p, cfg, digits[0], int(T[0])).shape == (4,)


def test_encode_refuses_another_trailing_axis_before_encoding(d4, monkeypatch):
    p = HierarchicalParams(d4, 4, 2)
    calls = []
    monkeypatch.setattr(scaling, "h_encode_many", lambda *a: calls.append(1))
    for shape in ((6, 8), (6, 2), (4, 1), ()):
        with pytest.raises(ValueError, match="d = 4"):
            encode_scaled_many(p, ScalingConfig(beta0=0.4), np.ones(shape))
    assert calls == []


def test_encoding_is_deterministic(d4):
    p = HierarchicalParams(d4, 3, 2)
    cfg = ScalingConfig(beta0=0.3)
    x = np.array([1.7, -0.4, 2.2, 0.9])
    a_digits, a_T = encode_scaled_many(p, cfg, x)
    b_digits, b_T = encode_scaled_many(p, cfg, x)
    assert a_T == b_T
    assert np.array_equal(a_digits, b_digits)


def test_entropy_bits():
    assert entropy_bits([4]) == 0.0
    assert entropy_bits([2, 2]) == 1.0
    assert entropy_bits([1, 1, 1, 1]) == 2.0
    assert abs(entropy_bits([3, 1]) - (2.0 - 0.75 * math.log2(3))) < 1e-12
    with pytest.raises(ValueError):
        entropy_bits([])


def test_empirical_rate_values():
    p = HierarchicalParams(make_lattice("d4"), 4, 2)
    assert empirical_rate(p, [0] * 100) == 4.0  # M log2 q exactly
    assert empirical_rate(p, [0] * 50 + [1] * 50) == 4.25
    assert empirical_rate(p, [3] * 10) == 4.0  # any point mass is free
    p3 = HierarchicalParams(make_lattice("z1"), 3, 2)
    assert empirical_rate(p3, [0, 0, 0]) == 2.0 * math.log2(3.0)
    with pytest.raises(ValueError):
        empirical_rate(p, [])


def test_empirical_rate_lower_bound(d4):
    p = HierarchicalParams(d4, 3, 2)
    rng = np.random.default_rng(12)
    T = rng.integers(0, 4, size=200)
    assert empirical_rate(p, T) >= p.bits_per_dim


def test_retry_histograms_count_alike_in_every_type():
    # np.bincount for unsigned types of up to 2 bytes, np.unique otherwise:
    # the same values, counts and order, so the same rate and CSV histogram
    T = np.random.default_rng(13).integers(0, 300, size=(50, 40)) ** 2 // 1500
    vals, counts = np.unique(T, return_counts=True)
    p = HierarchicalParams(make_lattice("d4"), 3, 2)
    for t in (np.uint8, np.uint16, np.uint32, np.int64):
        got = scaling._retry_histogram(T.astype(t))
        assert np.array_equal(got[0], vals) and np.array_equal(got[1], counts)
        assert empirical_rate(p, T.astype(t)) == empirical_rate(p, T.tolist())
        assert bench._histogram(T.astype(t)) == dict(zip(vals.tolist(), counts.tolist()))
