"""End-to-end acceptance gate.

Each test here checks one item of the package's acceptance checklist at
its stated tolerance and prints a single PASS/FAIL line (run with -s to
see them).  Tolerances and runtime bounds are asserted, never loosened:
a failure here means the implementation does not meet its contract.
"""

import math
import time

import numpy as np
import pytest

from conftest import lut_ip, second_moment
from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    ScalingConfig,
    build_lut,
    h_encode_many,
    ip_approx,
    load_lut,
    load_quantized_matrix,
    make_lattice,
    quantize_matrix,
    save_lut,
    save_quantized_matrix,
    verify_sandwich,
)
from hnlq.bench import (
    ExperimentConfig,
    check_exactness,
    gamma_rate_gap,
    run_dr_ip,
    run_dr_vector,
    shannon_rate_gap,
)
from hnlq.codec import decode_coords_many, q_circ_many
from hnlq.scaling import entropy_bits
from hnlq.voronoi import vc_decode_many


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num}] {label:<46} {status}  {detail}")
    assert ok, f"acceptance check {num} failed: {detail}"


@pytest.fixture(scope="module")
def vector_sweep():
    cfg = ExperimentConfig(
        lattice="d4", qs=(3, 4, 5, 6), ms=(2,), samples=1000,
        alpha=1.0 / 3.0, beta0="auto", seed=0,
    )
    t0 = time.perf_counter()
    points = run_dr_vector(cfg)
    return points, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ip_sweep():
    cfg = ExperimentConfig(
        lattice="d4", schemes=("hierarchical",), qs=(4,), ms=(1, 2, 3),
        n=512, samples=500, alpha=1.0 / 3.0, beta0="auto", seed=0,
        dither="fixed",
    )
    t0 = time.perf_counter()
    points = run_dr_ip(cfg)
    return points, time.perf_counter() - t0


def test_01_encode_decode_exactness():
    """Reconstruction equals the nearest point iff the coarse chain vanishes.

    Four lattices, both bases, all depths, 10^4 Gaussian inputs each with
    spreads chosen so overload occurs and also does not; all comparisons in
    exact integer coordinates.
    """
    t0 = time.perf_counter()
    results = []
    for name in ("z1", "z2", "a2", "d4"):
        lat = make_lattice(name)
        for q in (3, 4):
            for M in (1, 2, 3):
                rep = check_exactness(HierarchicalParams(lat, q, M), 10_000, seed=0)
                results.append(rep)
    wall = time.perf_counter() - t0
    bad = [r for r in results if not (r["ok"] and r["both_outcomes"])]
    report(
        1,
        "encode-decode exactness (integer-exact)",
        not bad and wall < 60.0,
        f"{len(results)} configs x 10000 samples, {wall:.1f}s"
        + (f", failing: {bad}" if bad else ""),
    )


def test_02_codebook_sandwich():
    """The codebook is bracketed by the two scaled single-layer codes."""
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    ok = True
    for name in ("z2", "a2", "d4"):
        lat = make_lattice(name)
        for q in (3, 4):
            for M in (2, 3):
                rep = verify_sandwich(HierarchicalParams(lat, q, M))
                want = (1.0 - float(q) ** (1 - M)) / (q - 1)
                worst = max(worst, abs(rep.r_qM - want))
                ok = ok and rep.inner_ok and rep.outer_ok and rep.distinct
                checked += 1
    wall = time.perf_counter() - t0
    report(
        2,
        "two-sided codebook bracketing",
        ok and worst <= 1e-12 and wall < 120.0,
        f"{checked} configs, max ratio error {worst:.1e}, {wall:.1f}s",
    )


def test_03_lut_equals_direct_products():
    """Table-driven inner products equal reconstructed ones.

    Integer lattices must agree with zero error undithered over 10^4 pairs,
    within 1e-9 dithered; the table must be read exactly M^2 times per
    plain product and (M+1)^2 times per dithered product.
    """
    rng = np.random.default_rng(len("acceptance"))
    n_pairs = 10_000
    max_plain = 0
    for lat_name, q, M in (("d4", 4, 2), ("z2", 3, 3)):
        lat = make_lattice(lat_name)
        params = HierarchicalParams(lat, q, M)
        lut = build_lut(params)
        dx = rng.integers(0, q, size=(n_pairs, M, lat.d))
        dy = rng.integers(0, q, size=(n_pairs, M, lat.d))
        px = lat.point_of(decode_coords_many(params, dx))
        py = lat.point_of(decode_coords_many(params, dy))
        want = np.einsum("nd,nd->n", px, py)
        for i in range(n_pairs):
            got = lut_ip(lut, dx[i], dy[i])
            max_plain = max(max_plain, abs(got - want[i]))

    max_dith = 0.0
    for q in (3, 4):
        lat = make_lattice("d4")
        params = HierarchicalParams(lat, q, 2)
        lut = build_lut(params)
        dx = rng.integers(0, q, size=(n_pairs, 2, 4))
        dy = rng.integers(0, q, size=(n_pairs, 2, 4))
        idx = rng.integers(0, q, size=(n_pairs, 4))
        idy = rng.integers(0, q, size=(n_pairs, 4))
        zx = lat.point_of(vc_decode_many(lat, q, idx)) / q
        zy = lat.point_of(vc_decode_many(lat, q, idy)) / q
        px = lat.point_of(decode_coords_many(params, dx)) + zx
        py = lat.point_of(decode_coords_many(params, dy)) + zy
        want = np.einsum("nd,nd->n", px, py)
        for i in range(n_pairs):
            got = lut_ip(lut, dx[i], dy[i], idx[i], idy[i])
            max_dith = max(max_dith, abs(got - want[i]))

    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    lut = build_lut(params)
    e = np.zeros((2, 4), dtype=np.int64)
    lut_ip(lut, e, e)
    plain_reads = lut.query_count
    lut_ip(lut, e, e, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    dith_reads = lut.query_count - plain_reads

    report(
        3,
        "table lookups equal direct inner products",
        max_plain == 0 and max_dith <= 1e-9 and plain_reads == 4 and dith_reads == 9,
        f"undithered err {max_plain}, dithered err {max_dith:.2e}, "
        f"reads {plain_reads}/{dith_reads} per product",
    )


def test_04_vector_distortion_rate(vector_sweep):
    """Distortion-rate of the layered scheme against the Gaussian bound.

    Checks, on the shared 1000-sample sweep (base scale auto-calibrated):
    every layered point is within 0.65 bits of the bound; the layered
    scheme beats the reduced-ratio single-layer code at every base; and its
    distortion stays within 1.15x of the full single-layer code, applied
    to the geometric mean of the per-base ratios (each printed below).
    """
    points, wall = vector_sweep
    hier = {p.q: p for p in points if p.scheme == "hierarchical"}
    vor = {p.q: p for p in points if p.scheme == "voronoi"}
    red = {p.q: p for p in points if p.scheme == "voronoi-reduced"}

    gaps = {q: shannon_rate_gap(p.rate_bits, p.distortion) for q, p in hier.items()}
    beats_reduced = {q: hier[q].distortion < red[q * (q - 1)].distortion for q in hier}
    ratios = {q: hier[q].distortion / vor[q**2].distortion for q in hier}
    geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))

    detail = (
        "gap bits " + ", ".join(f"q={q}: {g:.3f}" for q, g in sorted(gaps.items()))
        + " | ratio vs single-layer "
        + ", ".join(f"q={q}: {r:.3f}" for q, r in sorted(ratios.items()))
        + f" | geomean {geomean:.3f}, {wall:.1f}s"
    )
    ok = (
        all(g <= 0.65 for g in gaps.values())
        and all(beats_reduced.values())
        and geomean <= 1.15
        and wall < 300.0
    )
    report(4, "vector quantization tracks the Gaussian bound", ok, detail)


def test_05_inner_product_distortion_rate(ip_sweep):
    """Approximate inner products track their distortion bound within 0.75 bits."""
    points, wall = ip_sweep
    gaps = {p.M: gamma_rate_gap(p.rate_bits, p.distortion) for p in points}
    ok = all(g <= 0.75 for g in gaps.values()) and wall < 600.0
    detail = (
        ", ".join(f"M={m}: {g:.3f} bits" for m, g in sorted(gaps.items()))
        + f", n=512, 500 pairs, {wall:.1f}s"
    )
    report(5, "inner-product pipeline tracks its bound", ok, detail)


def test_06_partial_decoding_telescopes():
    """Summing the coarsest t layers reproduces the quantizer-chain difference.

    Checked in exact integer coordinates on 1000 non-overloaded samples per
    configuration for every t.
    """
    rng = np.random.default_rng(6)
    checked = 0
    ok = True
    for name in ("z2", "a2", "d4"):
        lat = make_lattice(name)
        for q in (3, 4):
            for M in (2, 3):
                params = HierarchicalParams(lat, q, M)
                X = rng.standard_normal((1300, lat.d))
                digits, overload = h_encode_many(params, X)
                keep = ~overload
                assert keep.sum() >= 1000, "unexpected overload rate at unit spread"
                X, digits = X[keep][:1000], digits[keep][:1000]
                coarse_m = {
                    m: q_circ_many(params, X, m) for m in range(M + 1)
                }
                for t in range(1, M + 1):
                    part = decode_coords_many(params, digits, layers=slice(M - t, M))
                    want = coarse_m[M - t] - coarse_m[M]
                    ok = ok and np.array_equal(part, want)
                    checked += 1
    report(
        6,
        "coarse-layer decoding telescopes exactly",
        ok,
        f"{checked} (config, t) cases x 1000 samples, integer-exact",
    )


def test_07_rates_recompute_from_histograms(vector_sweep, ip_sweep):
    """Every emitted rate equals M log2 q plus the histogram entropy per dim."""
    worst = 0.0
    count = 0
    for p in vector_sweep[0] + ip_sweep[0]:
        want = p.M * math.log2(p.q) + entropy_bits(p.t_histogram.values()) / p.d
        worst = max(worst, abs(p.rate_bits - want))
        count += 1

    quiet = ExperimentConfig(
        lattice="d4", schemes=("hierarchical",), qs=(3,), ms=(2,),
        samples=50, beta0=9.0, seed=0,
    )
    (point,) = run_dr_vector(quiet)
    exact_nominal = (
        point.t_histogram == {0: 50} and point.rate_bits == 2 * math.log2(3)
    )
    report(
        7,
        "emitted rates recompute from retry histograms",
        worst <= 1e-12 and exact_nominal,
        f"{count} points, max error {worst:.1e}; retry-free rate exact: {exact_nominal}",
    )


def test_08_second_moment_scaling():
    """Scaling the quantizer's step scales the cell's second moment quadratically."""
    d4 = make_lattice("d4")
    base, se_base = second_moment(d4, 200_000, seed=11)
    ok = True
    details = []
    for k, beta in enumerate((0.5, 2.0)):
        # the quantizer every rung of the ladder runs, at step beta
        est, se = second_moment(d4, 200_000, seed=17 + k, beta=beta)
        combined = math.hypot(beta**2 * se_base, se)
        dev = abs(est - beta**2 * base) / combined
        ok = ok and dev <= 4.0
        details.append(f"beta={beta}: {dev:.2f} combined SE")

    for name in ("z1", "z3"):
        est, se = second_moment(make_lattice(name), 200_000, seed=23)
        dev = abs(est - 1.0 / 12.0) / se
        ok = ok and dev <= 3.0
        details.append(f"{name}: {dev:.2f} SE from 1/12")

    report(8, "cell second moment scales quadratically", ok, "; ".join(details))


def test_09_serialization_round_trips(tmp_path):
    """Tables and quantized matrices survive disk byte-exactly, products too."""
    rng = np.random.default_rng(9)
    ok = True
    details = []

    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    lut = build_lut(params)
    lut_path = tmp_path / "t.lut"
    save_lut(lut, lut_path)
    first = lut_path.read_bytes()
    back = load_lut(lut_path, params)
    save_lut(back, lut_path)
    ok = ok and lut_path.read_bytes() == first
    digits = [rng.integers(0, 4, size=(2, 4)) for _ in range(200)]
    same = all(
        lut_ip(lut, a, b) == lut_ip(back, a, b)
        for a, b in zip(digits[::2], digits[1::2])
    )
    ok = ok and same
    details.append(f"table bytes stable, {len(digits) // 2} products identical: {same}")

    for tag, kw in (
        ("plain", {}),
        ("rotated", {"rotate": True, "rotation_seed": 3}),
        ("dithered", {"dither_mode": "fixed", "dither_ids": np.ones(4, dtype=np.int64)}),
    ):
        cfg = PipelineConfig(
            params=params, scaling=ScalingConfig(beta0=0.35), n=16, **kw
        )
        qm = quantize_matrix(cfg, rng.standard_normal((16, 4)))
        qm_path = tmp_path / f"{tag}.qm"
        save_quantized_matrix(qm, qm_path)
        blob = qm_path.read_bytes()
        back_qm = load_quantized_matrix(qm_path)
        save_quantized_matrix(back_qm, qm_path)
        stable = qm_path.read_bytes() == blob
        same_ip = all(
            ip_approx(cfg, lut, qm.column(i), qm.column(j))
            == ip_approx(back_qm.cfg, lut, back_qm.column(i), back_qm.column(j))
            for i in range(4)
            for j in range(4)
        )
        ok = ok and stable and same_ip
        details.append(f"{tag}: bytes {stable}, products {same_ip}")

    report(9, "binary round trips are byte-exact", ok, "; ".join(details))
