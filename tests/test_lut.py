"""Inner-product lookup tables: construction, decoding sums, serialization."""

import struct
import zlib

import numpy as np
import pytest

from conftest import lut_ip
from hnlq import (
    HierarchicalParams,
    InnerProductLUT,
    PipelineConfig,
    ScalingConfig,
    build_lut,
    digits_to_index,
    index_to_digits,
    ip_approx,
    load_lut,
    make_lattice,
    quantize_vector,
    save_lut,
)
from hnlq import voronoi
from hnlq.codec import _dither_points, decode_coords_many, layer_codebook_coords
from hnlq.voronoi import LAYER_CODEBOOK_MAX, digit_dtype, digit_grid


def digits_of(digits):
    return np.array(digits, dtype=np.int64)


def random_digits(rng, q, M, d, n):
    """n digit arrays (M, d), one draw each."""
    return [rng.integers(0, q, size=(M, d)) for _ in range(n)]


def point(p, digits):
    """The reconstruction of digits (M, d) as a vector."""
    return p.lat.point_of(decode_coords_many(p, digits))


def test_digit_indexing():
    assert digits_to_index(np.array([1, 2]), 3) == 5
    assert digits_to_index(np.array([0, 0, 0]), 4) == 0
    assert digits_to_index(np.array([3, 3]), 4) == 15
    idx = digits_to_index(np.array([[1, 2], [2, 0]]), 3)
    assert np.array_equal(idx, [5, 6])
    assert np.array_equal(index_to_digits(5, 3, 2), [1, 2])
    for i in range(27):
        assert digits_to_index(index_to_digits(i, 3, 3), 3) == i
    with pytest.raises(ValueError):
        digits_to_index(np.array([3, 0]), 3)
    with pytest.raises(ValueError):
        index_to_digits(27, 3, 3)
    assert np.array_equal(index_to_digits(np.array([[5, 6]]), 3, 2), [[[1, 2], [2, 0]]])
    assert index_to_digits(np.array([], dtype=np.uint64), 3, 2).shape == (0, 2)
    top = index_to_digits(np.array([2**64 - 1], dtype=np.uint64), 16, 16)
    assert np.array_equal(top, np.full((1, 16), 15))
    for bad in ([-1, 0], [0, 9]):
        with pytest.raises(ValueError):
            index_to_digits(np.array(bad), 3, 2)
    # non-integer indices are refused, not truncated, below and above the table bound
    for bad in (np.array([3.7, 15.99]), np.array([True, False]), 3.0, np.array([1 + 0j])):
        for q, d in ((4, 2), (16, 16)):
            with pytest.raises(ValueError, match="integer"):
                index_to_digits(bad, q, d)


def loop_digits(idx, q, d):
    """Base-q digits of each index by Python divmod, first digit most significant."""
    out = []
    for v in np.asarray(idx).ravel().tolist():
        row = []
        for _ in range(d):
            v, r = divmod(v, q)
            row.append(r)
        out.append(row[::-1])
    return np.array(out, dtype=np.int64).reshape(np.shape(idx) + (d,))


# (q, d) on both sides of LAYER_CODEBOOK_MAX = 2^14: 2^14 and 128^2 gather
# from the digit table, 2^15 and 129^2 unpack by division.
@pytest.mark.parametrize("q, d", [(2, 14), (2, 15), (128, 2), (129, 2)])
def test_digit_table_matches_the_loop(q, d, monkeypatch):
    tables = []
    real = voronoi._digit_table
    monkeypatch.setattr(voronoi, "_digit_table", lambda *a: tables.append(a) or real(*a))
    top = q**d
    rng = np.random.default_rng(q * d)
    for dtype in (np.int64, np.uint64, np.uint16, np.int32):
        idx = np.concatenate([[0, top - 1], rng.integers(0, top, 500)]).astype(dtype)
        got = index_to_digits(idx.reshape(2, -1), q, d)
        assert got.dtype == digit_dtype(q) and got.shape == (2, idx.size // 2, d)
        assert np.array_equal(got.reshape(-1, d), loop_digits(idx, q, d))
        one = index_to_digits(idx[-1], q, d)  # 0-d index: one digit vector
        assert one.shape == (d,) and np.array_equal(one, loop_digits(idx[-1], q, d))
        assert index_to_digits(idx[:0], q, d).shape == (0, d)
        # an index past the end is a ValueError, not numpy's IndexError from the gather
        for bad in (np.array([top], dtype=np.int64), np.array([-1])):
            with pytest.raises(ValueError, match="out of range"):
                index_to_digits(bad, q, d)
    assert bool(tables) == (top <= LAYER_CODEBOOK_MAX)
    # the same digits from the division loop the larger codes take
    monkeypatch.setattr(voronoi, "LAYER_CODEBOOK_MAX", 0)
    idx = rng.integers(0, top, 1000)
    assert np.array_equal(index_to_digits(idx, q, d), loop_digits(idx, q, d))


def test_digit_table_results_are_fresh_arrays():
    table = voronoi._digit_table(3, 2)
    assert not table.flags.writeable and np.array_equal(table, digit_grid(3, 2))
    for idx in (np.array([5, 6]), np.int64(5), 5):
        got = index_to_digits(idx, 3, 2)
        assert got.flags.writeable and not np.shares_memory(got, table)
        got[...] = 0
    assert np.array_equal(voronoi._digit_table(3, 2), digit_grid(3, 2))
    assert np.array_equal(index_to_digits(np.array([5, 6]), 3, 2), [[1, 2], [2, 0]])


def test_digit_indexing_past_int64():
    # q^d > 2^63: indices come back as uint64, never wrapped negative
    assert digits_to_index(np.full(16, 15), 16) == 2**64 - 1
    assert digits_to_index(np.full(16, 8), 16) == 0x8888888888888888
    assert digits_to_index(np.ones(64, dtype=np.int64), 2) == 2**64 - 1
    idx = digits_to_index(np.array([np.full(16, 15), np.full(16, 8), np.arange(16)]), 16)
    assert idx.dtype == np.uint64
    assert idx.tolist() == [2**64 - 1, 0x8888888888888888, 0x0123456789ABCDEF]
    assert np.array_equal(index_to_digits(idx, 16, 16)[1], np.full(16, 8))
    assert digits_to_index(np.full(15, 15), 16) == 2**60 - 1  # q^d <= 2^63 stays int64
    assert digits_to_index(np.array([[1] * 15]), 16).dtype == np.int64
    with pytest.raises(ValueError, match="64 bits"):
        digits_to_index(np.zeros(16, dtype=np.int64), 17)


def test_float_digits_are_refused():
    with pytest.raises(ValueError, match="integers"):
        digits_to_index(np.array([1.0, 2.0]), 3)


def test_build_scalar_table(z1):
    lut = build_lut(HierarchicalParams(z1, 3, 2))
    assert lut.side == 3
    assert lut.values.dtype == np.int64
    assert lut.values.shape == (9,)
    # layer points for digits 0,1,2 are 0,1,-1
    assert lut.values[1 * 3 + 2] == -1
    assert lut.values[1 * 3 + 1] == 1
    assert not lut.values[0::3].any() and not lut.values[:3].any()


def test_table_is_symmetric(d4, a2):
    for lat in (d4, a2):
        p = HierarchicalParams(lat, 3, 2)
        lut = build_lut(p)
        square = lut.values.reshape(lut.side, lut.side)
        assert np.array_equal(square, square.T)
        # exact integers; the factor u (1/2 for A_2) gives the layer points' products
        P = lat.point_of(layer_codebook_coords(p))
        assert np.abs(lat.integer_gram[1] * lut.values - (P @ P.T).ravel()).max() <= 1e-12


# NLL version 2 of z1 q = 3: magic "NLL1", version 2, family 1, d 1, q 3, value
# type 0, the float64 slot 1.0, the nine int64 products of the points 0, 1, -1,
# then the CRC-32.
Z1_Q3_NLL = bytes.fromhex(
    "4e4c4c31" "02000000" "01000000" "01000000" "03000000" "00000000" "000000000000f03f"
    + "0000000000000000" * 4 + "0100000000000000" "ffffffffffffffff"
    + "0000000000000000" "ffffffffffffffff" "0100000000000000"
    + "4cf0fd9d"
)


def test_table_files_are_pinned(tmp_path, z1):
    p = HierarchicalParams(z1, 3, 1)
    save_lut(build_lut(p), tmp_path / "t.lut")
    assert (tmp_path / "t.lut").read_bytes() == Z1_Q3_NLL
    assert load_lut(tmp_path / "t.lut", p).values.tolist() == [0, 0, 0, 0, 1, -1, 0, -1, 1]


def test_every_flipped_bit_of_a_table_file_is_refused(tmp_path, z1):
    p = HierarchicalParams(z1, 3, 2)
    path, bad = tmp_path / "t.lut", tmp_path / "bad.lut"
    save_lut(build_lut(p), path)
    raw = path.read_bytes()
    assert len(raw) == 108  # header 32, 9 int64 values, CRC-32
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad.write_bytes(flipped)
        with pytest.raises(ValueError):
            load_lut(bad, p)
    assert np.array_equal(load_lut(path, p).values, build_lut(p).values)


def test_build_guard():
    with pytest.raises(ValueError):
        build_lut(HierarchicalParams(make_lattice("z8"), 4, 2))  # 4^16 entries


def test_ip_trace(z1):
    p = HierarchicalParams(z1, 3, 2)
    lut = build_lut(p)
    got = lut_ip(lut, digits_of([[1], [1]]), digits_of([[1], [0]]))
    assert got == 4  # 1*1 + 3*0 + 3*1 + 9*0
    assert isinstance(got, int)
    assert lut_ip(lut, digits_of([[1], [1]]), digits_of([[0], [0]])) == 0


def test_ip_matches_direct_reconstruction(d4, z3, a2):
    rng = np.random.default_rng(50)
    for lat, tol in ((d4, 0), (z3, 0), (a2, 1e-9)):
        p = HierarchicalParams(lat, 3, 2)
        lut = build_lut(p)
        for ex, ey in zip(
            random_digits(rng, 3, 2, lat.d, 200),
            random_digits(rng, 3, 2, lat.d, 200),
        ):
            want = float(np.dot(point(p, ex), point(p, ey)))
            got = float(lut_ip(lut, ex, ey))
            if tol == 0:
                assert got == np.rint(want) == want
            else:
                assert abs(got - want) <= tol


def test_ip_symmetry_and_norm(d4):
    p = HierarchicalParams(d4, 4, 2)
    lut = build_lut(p)
    rng = np.random.default_rng(51)
    for ex, ey in zip(
        random_digits(rng, 4, 2, 4, 100), random_digits(rng, 4, 2, 4, 100)
    ):
        assert lut_ip(lut, ex, ey) == lut_ip(lut, ey, ex)
        n2 = lut_ip(lut, ex, ex)
        assert n2 == int(np.rint(np.dot(point(p, ex), point(p, ex))))
        assert n2 >= 0


def test_ip_is_bilinear_in_the_reconstruction(d4):
    p = HierarchicalParams(d4, 3, 2)
    lut = build_lut(p)
    rng = np.random.default_rng(52)
    ex, ey, ey2 = random_digits(rng, 3, 2, 4, 3)
    lhs = lut_ip(lut, ex, ey) + lut_ip(lut, ex, ey2)
    rhs = np.dot(point(p, ex), point(p, ey) + point(p, ey2))
    assert lhs == int(np.rint(rhs))


def test_query_counters(d4):
    p2 = HierarchicalParams(d4, 3, 2)
    lut = build_lut(p2)
    rng = np.random.default_rng(53)
    ex, ey = random_digits(rng, 3, 2, 4, 2)
    assert lut.query_count == 0
    lut_ip(lut, ex, ey)
    assert lut.query_count == 4
    lut_ip(lut, ex, ey, np.array([1, 0, 2, 1]), np.array([0, 2, 1, 0]))
    assert lut.query_count == 4 + 9

    p3 = HierarchicalParams(d4, 3, 3)
    lut3 = build_lut(p3)
    (ex3,) = random_digits(rng, 3, 3, 4, 1)
    lut_ip(lut3, ex3, ex3)
    assert lut3.query_count == 9


def test_each_product_is_one_gather(d4, monkeypatch):
    calls = []

    def counted(self, idx, gather=InnerProductLUT._gather):
        calls.append(idx.size)
        return gather(self, idx)

    monkeypatch.setattr(InnerProductLUT, "_gather", counted)
    p = HierarchicalParams(d4, 3, 3)
    lut = build_lut(p)
    rng = np.random.default_rng(59)
    ex, ey = random_digits(rng, 3, 3, 4, 2)
    lut_ip(lut, ex, ey)
    lut_ip(lut, ex, ey, np.array([1, 0, 2, 1]), np.array([0, 2, 1, 0]))
    assert calls == [9, 16]


def test_dithered_trace(z1):
    p = HierarchicalParams(z1, 4, 1)
    lut = build_lut(p)
    got = lut_ip(lut, digits_of([[1]]), digits_of([[1]]), np.array([1]), np.array([3]))
    assert got == 1.25 * 0.75  # (1 + 1/4) * (1 - 1/4)


def test_dithered_refuses_misshapen_ids(d4):
    lut = build_lut(HierarchicalParams(d4, 3, 2))
    ex, ey = random_digits(np.random.default_rng(56), 3, 2, 4, 2)
    # each side takes one id of shape (d,)
    short, wide = np.array([1, 0, 2]), np.array([[1, 0, 2, 1]] * 2)
    for ids in (short, wide):
        with pytest.raises(ValueError, match="dither ids"):
            lut_ip(lut, ex, ey, ids, ids)


def test_dithered_reduces_to_plain_with_zero_ids(d4):
    p = HierarchicalParams(d4, 3, 2)
    lut = build_lut(p)
    rng = np.random.default_rng(55)
    z0 = np.zeros(4, dtype=np.int64)
    for ex, ey in zip(
        random_digits(rng, 3, 2, 4, 50), random_digits(rng, 3, 2, 4, 50)
    ):
        assert lut_ip(lut, ex, ey, z0, z0) == float(lut_ip(lut, ex, ey))


def test_dithered_matches_direct(d4):
    p = HierarchicalParams(d4, 4, 2)
    lut = build_lut(p)
    rng = np.random.default_rng(56)
    for _ in range(200):
        ex, ey = random_digits(rng, 4, 2, 4, 2)
        idx, idy = rng.integers(0, 4, size=(2, 4))
        zx, zy = _dither_points(p, idx), _dither_points(p, idy)
        want = float(np.dot(point(p, ex) + zx, point(p, ey) + zy))
        assert abs(lut_ip(lut, ex, ey, idx, idy) - want) <= 1e-9


@pytest.mark.parametrize("name", ["d4", "a2"])
def test_one_chunk_dithered_ip_is_ip_approx(name):
    # With beta0 = 1 and no retries, ip_approx of one chunk is the dithered
    # table sum divided by q^2, so the pipeline and one chunk's table read agree exactly.
    lat = make_lattice(name)
    p = HierarchicalParams(lat, 4, 2)
    lut = build_lut(p)
    cfg = PipelineConfig(params=p, scaling=ScalingConfig(beta0=1.0), n=lat.d,
                         dither_mode="random", dither_seed=3)
    rng = np.random.default_rng(60)
    for col in range(40):
        qx = quantize_vector(cfg, rng.uniform(-4, 4, lat.d), col)
        qy = quantize_vector(cfg, rng.uniform(-4, 4, lat.d), col + 40)
        assert qx.T[0, 0] == qy.T[0, 0] == 0
        want = ip_approx(cfg, lut, qx, qy)
        (dx, zx), (dy, zy) = ((v.digits[0, 0], v.dither_ids[0, 0]) for v in (qx, qy))
        got = lut_ip(lut, dx, dy, zx, zy)
        assert got == want


def test_save_load_roundtrip(tmp_path, d4, a2):
    for lat in (d4, a2):
        p = HierarchicalParams(lat, 3, 2)
        lut = build_lut(p)
        path = tmp_path / f"{lat.name}.lut"
        save_lut(lut, path)
        first = path.read_bytes()
        back = load_lut(path, p)
        assert back.values.dtype == lut.values.dtype
        assert np.array_equal(back.values, lut.values)
        save_lut(back, path)
        assert path.read_bytes() == first  # byte-identical re-save
        rng = np.random.default_rng(58)
        for ex, ey in zip(
            random_digits(rng, 3, 2, lat.d, 50),
            random_digits(rng, 3, 2, lat.d, 50),
        ):
            assert lut_ip(back, ex, ey) == lut_ip(lut, ex, ey)


def test_load_validates_header(tmp_path, d4, z2):
    p = HierarchicalParams(d4, 3, 2)
    path = tmp_path / "t.lut"
    save_lut(build_lut(p), path)
    raw = bytearray(path.read_bytes())

    with pytest.raises(ValueError):
        load_lut(path, HierarchicalParams(z2, 3, 2))  # family mismatch
    with pytest.raises(ValueError):
        load_lut(path, HierarchicalParams(d4, 4, 2))  # q mismatch

    bad = tmp_path / "bad.lut"
    bad.write_bytes(raw[:20])
    with pytest.raises(ValueError):
        load_lut(bad, p)  # truncated

    corrupt = bytearray(raw)
    corrupt[0] ^= 0xFF
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_lut(bad, p)  # magic

    corrupt = bytearray(raw)
    corrupt[4] = 9
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_lut(bad, p)  # version

    corrupt = bytearray(raw)
    corrupt[20] = 7
    bad.write_bytes(corrupt)
    with pytest.raises(ValueError):
        load_lut(bad, p)  # value type

    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_lut(bad, p)  # length mismatch

    body = raw[:24] + struct.pack("<d", 2.0) + raw[32:-4]
    bad.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="slot"):
        load_lut(bad, p)  # a valid checksum over a float slot other than 1.0
