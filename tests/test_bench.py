"""Benchmark harness: reference curves, sweeps, CSV contract, CLI."""

import csv
import gc
import io
import json
import math
import re
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import full_grid_beta0
from hnlq import HierarchicalParams, ScalingConfig, bench, load_lut, make_lattice, scaling
from hnlq.bench import (
    CSV_COLUMNS,
    DEFAULT_BETA0_GRID,
    ExperimentConfig,
    SCHEMES,
    _vector_mse,
    calibrate_beta0,
    check_exactness,
    effective_params,
    empirical_rate,
    gamma_distortion,
    gamma_rate_gap,
    points_to_csv,
    run_dr_ip,
    run_dr_vector,
    shannon_distortion,
    shannon_rate_gap,
    verify_lemmas,
)
from hnlq.cli import main
from hnlq.errors import UnencodableError
from hnlq.scaling import entropy_bits


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    return [dict(zip(CSV_COLUMNS, r)) for r in rows[1:]]


def test_reference_curves():
    assert shannon_distortion(1.0) == 0.25
    assert shannon_distortion(2.0) == 2.0**-4
    assert gamma_distortion(1.0) == 0.4375  # 2/4 - 1/16
    for rate in (0.95, 1.5, 2.0, 4.0):
        assert abs(shannon_rate_gap(rate, shannon_distortion(rate))) < 1e-12
        assert abs(gamma_rate_gap(rate, gamma_distortion(rate))) < 1e-12
    with pytest.raises(ValueError):
        gamma_rate_gap(2.0, 0.0)
    with pytest.raises(ValueError):
        gamma_rate_gap(2.0, 1.0)


def test_effective_params():
    lat = make_lattice("d4")
    base = HierarchicalParams(lat, 4, 2)
    assert effective_params("hierarchical", base) is base
    vor = effective_params("voronoi", base)
    assert (vor.q, vor.M) == (16, 1)
    red = effective_params("voronoi-reduced", base)
    assert (red.q, red.M) == (12, 1)  # q^M minus the geometric tail
    red32 = effective_params("voronoi-reduced", HierarchicalParams(lat, 3, 2))
    assert (red32.q, red32.M) == (6, 1)
    red21 = effective_params("voronoi-reduced", HierarchicalParams(lat, 2, 1))
    assert (red21.q, red21.M) == (2, 1)  # floored at the smallest legal ratio
    with pytest.raises(ValueError):
        effective_params("bogus", base)


def test_experiment_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(beta0="fast")
    with pytest.raises(ValueError, match="samples"):
        ExperimentConfig(samples=0)
    # n=0 used to calibrate first, n=-4 fail in numpy, n=8.0, samples=2.5 and samples=True
    # raise TypeError (a bool is an Integral)
    for name, bad in (("n", 0), ("n", -4), ("n", 8.0), ("samples", 2.5), ("samples", -1),
                      ("n", True), ("samples", True), ("samples", False)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
            ExperimentConfig(**{name: bad})
    for seed in (-1, 1.5, True, False):
        with pytest.raises(ValueError, match="^seed"):
            ExperimentConfig(seed=seed)
    with pytest.raises(ValueError, match="dither"):
        ExperimentConfig(dither="bogus")
    # ms=(True,) ran as M = 1, alpha=True wrote True into the CSV's alpha
    # column and beta0=True ran as beta0 1.0
    rules = {"ms": "an integer >= 1", "qs": "an integer >= 2", "alpha": "a positive number",
             "beta0": "a positive number"}
    for name, bad in (("ms", (True,)), ("ms", (2, np.True_)), ("qs", (True,)),
                      ("alpha", True), ("alpha", np.True_), ("beta0", True), ("beta0", False)):
        with pytest.raises(ValueError, match=f"^{name} must be {rules[name]}, got "):
            ExperimentConfig(**{name: bad})
    # refused where they enter, before any calibration or sampling runs
    for seed in (-1, True):
        with pytest.raises(ValueError, match="seed"):
            calibrate_beta0("hierarchical", HierarchicalParams(make_lattice("d4"), 4, 2), seed=seed)
    with pytest.raises(ValueError, match="seed"):
        main(["dr-ip", "--seed", "-1", "--n", "8", "--m", "1", "--samples", "4"])
    assert ExperimentConfig(beta0="auto").beta0 == "auto"
    # run_dr_ip passes seed as a rotation_seed and dither_seed as a dither_seed,
    # both int64 fields of PipelineConfig: refused by name before any calibration
    with pytest.raises(ValueError, match="^seed"):
        ExperimentConfig(seed=2**63)
    for seed in (2**63, -(2**63) - 1, 0.5, True, False):
        with pytest.raises(ValueError, match="^dither_seed"):
            ExperimentConfig(dither_seed=seed)
    cfg = ExperimentConfig(seed=2**63 - 1, dither_seed=-(2**63))
    assert (cfg.seed, cfg.dither_seed) == (2**63 - 1, -(2**63))

    def calibrated(*args, **kw):
        raise AssertionError("calibrated before refusing the seed")

    monkeypatch.setattr(bench, "calibrate_beta0", calibrated)
    argv = ["dr-ip", "--q", "4", "--m", "1", "--n", "16", "--samples", "4"]
    with pytest.raises(ValueError, match="^seed"):
        main(argv + ["--seed", str(2**63)])
    with pytest.raises(ValueError, match="^dither_seed"):
        main(argv + ["--dither", "random", "--dither-seed", str(2**63)])
    with pytest.raises(ValueError, match="^n must"):
        main(["dr-ip", "--q", "4", "--m", "1", "--n", "0", "--samples", "4"])


def test_vector_mse_of_zero_input():
    eff = HierarchicalParams(make_lattice("d4"), 3, 2)
    scfg = ScalingConfig(beta0=0.5)
    dist, T = _vector_mse(eff, scfg, np.zeros((20, 4)))
    assert dist == 0.0
    assert not T.any()


def test_dr_vector_structure():
    cfg = ExperimentConfig(
        lattice="d4", qs=(3,), ms=(2,), samples=80, beta0=0.6, seed=1
    )
    points = run_dr_vector(cfg)
    assert [p.scheme for p in points] == list(SCHEMES)
    by_scheme = {p.scheme: p for p in points}
    assert all(p.lattice == "D4" and p.d == 4 for p in points)
    assert (by_scheme["hierarchical"].q, by_scheme["hierarchical"].M) == (3, 2)
    assert (by_scheme["voronoi"].q, by_scheme["voronoi"].M) == (9, 1)
    assert (by_scheme["voronoi-reduced"].q, by_scheme["voronoi-reduced"].M) == (6, 1)
    for p in points:
        assert p.beta0 == 0.6
        assert p.distortion > 0
        assert p.rate_bits >= p.M * math.log2(p.q) - 1e-12
        assert p.ref == shannon_distortion(p.rate_bits)
        assert sum(p.t_histogram.values()) == 80


def test_rate_recomputes_from_histogram():
    cfg = ExperimentConfig(
        lattice="d4", qs=(3, 4), ms=(1, 2), samples=60, beta0=0.4, seed=3
    )
    for p in run_dr_vector(cfg):
        want = p.M * math.log2(p.q) + entropy_bits(p.t_histogram.values()) / p.d
        assert abs(p.rate_bits - want) < 1e-12


def test_generous_scale_never_retries():
    cfg = ExperimentConfig(
        lattice="d4", qs=(3,), ms=(2,), samples=50, beta0=9.0, seed=5,
        schemes=("hierarchical",),
    )
    (p,) = run_dr_vector(cfg)
    assert p.t_histogram == {0: 50}
    assert p.rate_bits == 2 * math.log2(3)  # exactly M log2 q


def test_csv_is_deterministic():
    cfg = ExperimentConfig(lattice="d4", qs=(3,), ms=(2,), samples=40, beta0=0.5)
    a = points_to_csv(run_dr_vector(cfg))
    b = points_to_csv(run_dr_vector(cfg))
    assert a == b
    rows = parse_csv(a)
    assert len(rows) == 3
    for row in rows:
        hist = json.loads(row["overload_T_histogram"])
        assert sum(hist.values()) == int(row["samples"]) == 40
        # floats round-trip exactly through the shortest-repr cells
        assert float(row["rate_bits"]) >= float(row["M"]) * math.log2(float(row["q"])) - 1e-12


def test_write_csv_matches_text(tmp_path):
    # the CLI writes a sweep's --out file as points_to_csv's text, byte for byte
    cfg = ExperimentConfig(lattice="z2", qs=(3,), ms=(1,), samples=25, beta0=0.5)
    points = run_dr_vector(cfg)
    path = tmp_path / "out.csv"
    assert main(["dr-vector", "--lattice", "z2", "--q", "3", "--m", "1", "--samples", "25",
                 "--beta0", "0.5", "--out", str(path)]) == 0
    assert path.read_bytes().decode() == points_to_csv(points)


def test_dr_ip_structure():
    cfg = ExperimentConfig(
        lattice="d4", schemes=("hierarchical",), qs=(4,), ms=(1,),
        n=8, samples=30, beta0=0.4, seed=2, dither="fixed",
    )
    (p,) = run_dr_ip(cfg)
    assert (p.q, p.M) == (4, 1)
    assert p.distortion >= 0
    assert p.ref == gamma_distortion(p.rate_bits)
    # retry counts pool both sides of every pair: 2 vectors, K=2 chunks
    assert sum(p.t_histogram.values()) == 2 * 30 * 2


def test_dr_ip_dither_modes_run():
    for dither in ("none", "random"):
        cfg = ExperimentConfig(
            lattice="d4", schemes=("hierarchical",), qs=(4,), ms=(1,),
            n=8, samples=10, beta0=0.4, dither=dither,
        )
        (p,) = run_dr_ip(cfg)
        assert math.isfinite(p.distortion)


def test_dr_ip_rejects_bad_n():
    cfg = ExperimentConfig(lattice="d4", qs=(4,), ms=(1,), n=10, beta0=0.4)
    with pytest.raises(ValueError):
        run_dr_ip(cfg)


def test_default_grid_shape():
    assert len(DEFAULT_BETA0_GRID) == 24
    assert DEFAULT_BETA0_GRID[0] == 0.05
    assert DEFAULT_BETA0_GRID[-1] == 2.0
    assert all(b < c for b, c in zip(DEFAULT_BETA0_GRID, DEFAULT_BETA0_GRID[1:]))


def test_calibration_refuses_a_bad_grid_point_before_scoring(monkeypatch):
    # The grid is fixed, so only alpha can make a grid point's ladder bad:
    # refused before any candidate is scored.
    def scored(pilot, cfgs):
        raise AssertionError("scored a candidate before refusing alpha")

    monkeypatch.setattr(scaling._Pilot, "mse", scored)
    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    with pytest.raises(ValueError, match="^alpha must be a positive number"):
        calibrate_beta0("hierarchical", params, alpha=0.0)
    for flag in (True, np.True_):  # used to return a pick
        with pytest.raises(ValueError, match="^alpha must be a positive number, got "):
            calibrate_beta0("hierarchical", params, alpha=flag)
    # 2.0 * 2^(20 * 60), the top rung of the grid's largest point, leaves the float range
    with pytest.raises(ValueError, match="leaves the float range"):
        calibrate_beta0("hierarchical", params, alpha=20.0)


def test_q2_is_refused_before_any_cell_runs(monkeypatch):
    # Undithered q = 2 codes reconstruct almost every input as 0: dr-vector
    # --q 2 --m 3 read distortion 1.026 on z2 and 1.023 on d4 at 3 bits.
    # Every scheme that runs q = 2 is refused by name, before calibrating.
    def calibrated(*args, **kw):
        raise AssertionError("calibrated a q = 2 cell")

    for schemes, ms in ((("hierarchical",), (3,)), (("voronoi-reduced",), (2, 3)),
                        (("voronoi",), (1, 2)), (SCHEMES, (3,))):
        with pytest.raises(ValueError, match="^qs holds q = 2"):
            ExperimentConfig(schemes=schemes, qs=(4, 2), ms=ms)
    assert ExperimentConfig(schemes=("voronoi",), qs=(2,), ms=(2, 3)).qs == (2,)  # q = 4, 8
    lat = make_lattice("d4")
    for scheme, q, M in (("hierarchical", 2, 3), ("voronoi-reduced", 2, 2), ("voronoi", 2, 1)):
        with pytest.raises(ValueError, match=f"^scheme '{scheme}' at q = {q}, M = {M} runs q = 2"):
            calibrate_beta0(scheme, HierarchicalParams(lat, q, M))
    monkeypatch.setattr(bench, "calibrate_beta0", calibrated)
    for name in ("z2", "d4", "a2"):
        with pytest.raises(ValueError, match="q = 2"):
            main(["dr-vector", "--lattice", name, "--q", "2", "--m", "3"])


def test_calibrate_picks_an_interior_optimum(monkeypatch):
    """The selected scale must beat both grid extremes on the pilot score.

    The score charges rate as well as error, so a tiny scale (whose raw
    error is small but whose retry entropy is huge) cannot win, and neither
    can a huge scale with coarse granular error.
    """
    monkeypatch.setattr(bench, "_PILOT_ROWS", 2000)
    params = HierarchicalParams(make_lattice("d4"), 4, 2)
    got = calibrate_beta0("hierarchical", params)
    assert got in DEFAULT_BETA0_GRID
    assert got not in (DEFAULT_BETA0_GRID[0], DEFAULT_BETA0_GRID[-1])

    rng = np.random.default_rng([0, 0xB0])
    X = rng.standard_normal((2000, 4))

    def score(b0):
        scfg = ScalingConfig(beta0=b0, alpha=1.0 / 3.0, max_retries=60)
        dist, T = _vector_mse(params, scfg, X)
        return empirical_rate(params, T) + 0.5 * math.log2(dist)

    assert score(got) < score(DEFAULT_BETA0_GRID[0])
    assert score(got) < score(DEFAULT_BETA0_GRID[-1])


def test_calibration_extends_the_grid_at_high_rate():
    # z2 q=8 M=3 (9 bits/dim): the best beta0 lies far below the grid's 0.05.
    # Stopping at the grid floor costs 2.9 bits of rate gap on this sweep.
    params = HierarchicalParams(make_lattice("z2"), 8, 3)
    got = calibrate_beta0("hierarchical", params, seed=7)
    assert got < DEFAULT_BETA0_GRID[0]
    rng = np.random.default_rng([7, 0xB0])
    X = rng.standard_normal((8000, 2))

    def score(b0):
        dist, T = _vector_mse(params, ScalingConfig(beta0=b0), X)
        return empirical_rate(params, T) + 0.5 * math.log2(dist)

    ratio = DEFAULT_BETA0_GRID[1] / DEFAULT_BETA0_GRID[0]
    assert score(got) < min(score(got * ratio**3), score(got / ratio**3))  # an interior valley
    cfg = ExperimentConfig(lattice="z2", schemes=("hierarchical",), qs=(8,), ms=(3,),
                           samples=20_000, seed=7)
    (p,) = run_dr_vector(cfg)
    assert p.beta0 == got
    assert shannon_rate_gap(p.rate_bits, p.distortion) < 1.0


def test_calibration_grid_grows_at_its_own_ratio(monkeypatch):
    # A cell whose argmin sits on an end is scored at one more point past
    # that end per step, at the end's own ratio, and a cell whose argmin is
    # interior scores only grid points: the coarse pass (every third point
    # and the last) in one stacked encode of the pilot's first 500 rows, then
    # on the whole pilot, one per encode, the window three steps either side
    # of its best, widened by three steps while the window's best sits on its
    # edge.
    seen, grid = [], DEFAULT_BETA0_GRID
    mse = scaling._Pilot.mse
    monkeypatch.setattr(scaling._Pilot, "mse", lambda pilot, cfgs: seen.append(
        (len(pilot.X), [c.beta0 for c in cfgs])) or mse(pilot, cfgs))
    monkeypatch.setattr(bench, "_PILOT_ROWS", 2000)
    coarse = [grid[i] for i in [*range(0, 22, 3), 23]]
    # z2 q=8 M=3: the coarse best is the floor, so the window is its first four points
    got = calibrate_beta0("hierarchical", HierarchicalParams(make_lattice("z2"), 8, 3))
    assert seen[:5] == [(500, coarse)] + [(2000, [grid[i]]) for i in range(4)]
    ends = [grid[1], grid[0]]
    for _ in seen[5:]:
        ends.append(ends[-1] * (ends[-1] / ends[-2]))
    assert len(seen) > 5 and seen[5:] == [(2000, [b]) for b in ends[2:]]
    full = [b for _, (b,) in seen[1:]]
    assert got in full and min(full) < got < max(full)
    seen.clear()
    calibrate_beta0("hierarchical", HierarchicalParams(make_lattice("d4"), 4, 2))
    window, widened = [*range(3, 10)], [10, 11, 12]
    assert seen == [(500, coarse)] + [(2000, [grid[i]]) for i in window + widened]


# Picks on a 2,000-row pilot from before the candidates of one call shared
# a pilot's bound and work arrays: (lattice, q, M, seed) -> beta0.
CELL_BETA0 = {("d4", 4, 1, 3): 0.764013974483503, ("d4", 4, 2, 0): 0.1803882569877585,
              ("d4", 4, 3, 1): 0.05, ("a2", 8, 2, 2): 0.05869820039221152,
              ("z2", 8, 3, 4): 0.007296466915076014, ("d8", 3, 2, 5): 0.34263158170901736}


def _calibrate_cell(cell):
    name, q, M, seed = cell
    return calibrate_beta0("hierarchical", HierarchicalParams(make_lattice(name), q, M),
                           seed=seed)


def test_concurrent_calibrations_keep_their_picks(monkeypatch):
    # Every call owns its pilot's work arrays: three threads calibrating the
    # cells at once, switching often, pick what one thread picks.
    monkeypatch.setattr(bench, "_PILOT_ROWS", 2000)
    cells = list(CELL_BETA0) * 2
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(_calibrate_cell, cell) for cell in cells]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == [CELL_BETA0[cell] for cell in cells]


# Candidates each cell of the test below scores on its whole 1,500-row pilot.
WHOLE_PILOT_CANDIDATES = {("hierarchical", "d4", 4, 1): 10, ("hierarchical", "d4", 4, 3): 6,
                          ("hierarchical", "a2", 8, 2): 4, ("hierarchical", "z2", 8, 3): 18,
                          ("voronoi", "d4", 4, 2): 10}


@pytest.mark.parametrize("scheme, name, q, M", [
    ("hierarchical", "d4", 4, 1), ("hierarchical", "d4", 4, 3), ("hierarchical", "a2", 8, 2),
    ("hierarchical", "z2", 8, 3), ("voronoi", "d4", 4, 2),  # q^M = 16 > the cached codebook
])
def test_calibration_pilot_scores_as_encode_and_decode(scheme, name, q, M, monkeypatch):
    # Each candidate's (MSE, T) from the pilot's work arrays, stacked or
    # alone, equals that of encode_scaled_many then decode_scaled_many bit for
    # bit, as do a candidate whose rows climb tens of rungs and, raising the
    # same error, one whose rows still overload at the top rung.  No array the
    # pilot, the encoder or the decoder returns shares memory with a work
    # array, and the arrays go when the call returns.
    refs, calls, mse = [], [], scaling._Pilot.mse

    def same(got, cfg, pilot):
        dist, T = got
        want_dist, want_T = _vector_mse(pilot.params, cfg, pilot.X)
        return dist == want_dist and T.dtype == want_T.dtype and np.array_equal(T, want_T)

    def checked(pilot, cfgs):
        calls.append((len(pilot.X), [c.beta0 for c in cfgs]))
        got = mse(pilot, cfgs)
        for cfg, one in zip(cfgs, got):
            assert same(one, cfg, pilot) and same(mse(pilot, [cfg])[0], cfg, pilot)
            digits, T_ref = scaling.encode_scaled_many(pilot.params, cfg, pilot.X)
            Xhat = scaling.decode_scaled_many(pilot.params, cfg, digits, T_ref)
            work = [pilot._work, pilot._rung, pilot._bound]
            outs = (one[1], digits, T_ref, Xhat)
            assert not any(np.shares_memory(out, w) for out in outs for w in work)
        refs.append(weakref.ref(pilot))
        return got

    monkeypatch.setattr(scaling._Pilot, "mse", checked)
    monkeypatch.setattr(bench, "_PILOT_ROWS", 1500)
    calibrate_beta0(scheme, HierarchicalParams(make_lattice(name), q, M), seed=9)
    gc.collect()
    # the 9 coarse candidates in one stacked encode of the first 500 rows, then
    # on the whole pilot each candidate once, one per encode; both pilots go
    (coarse_rows, coarse), *window = calls
    betas = [b for _, (b,) in window]
    assert (coarse_rows, len(coarse)) == (500, 9) and {n for n, _ in window} == {1500}
    full = WHOLE_PILOT_CANDIDATES[scheme, name, q, M]
    assert len(betas) == len(set(betas)) == full and all(ref() is None for ref in refs)
    eff = effective_params(scheme, HierarchicalParams(make_lattice(name), q, M))
    X = np.random.default_rng(9).standard_normal((300, eff.lat.d))
    pilot = scaling._Pilot(eff, X, 2)
    (_, T), _ = checked(pilot, [ScalingConfig(1e-3, alpha=0.2), ScalingConfig(0.5)])
    assert T.max() >= 15
    ok, lost = ScalingConfig(0.5, max_retries=10), ScalingConfig(1e-6, max_retries=10)
    with pytest.raises(UnencodableError) as alone:
        _vector_mse(eff, lost, X)
    for cfgs in ([lost], [ok, lost]):
        with pytest.raises(UnencodableError, match=f"^{re.escape(str(alone.value))}$"):
            mse(pilot, cfgs)


def _memoized_pilot(monkeypatch):
    """Patch scaling._Pilot.mse to score each (pilot, config) once per test,
    and return the list of (pilot rows, configs) it is called with."""
    memo, calls, mse = {}, [], scaling._Pilot.mse

    def memoized(pilot, cfgs):
        calls.append((len(pilot.X), cfgs))
        keys = [(pilot.params, pilot.X.tobytes(), c) for c in cfgs]
        new = {k: c for k, c in zip(keys, cfgs) if k not in memo}
        if new:
            memo.update(zip(new, mse(pilot, list(new.values()))))
        return [memo[k] for k in keys]

    monkeypatch.setattr(scaling._Pilot, "mse", memoized)
    return calls


# (scheme, lattice, q, M): the hierarchical cells of the dr-ip-d4, amm-d4 and
# store-a2 benchmark workloads, and a spread of lattices, rates and schemes.
BENCH_CELLS = [("hierarchical", "d4", 4, 1), ("hierarchical", "d4", 4, 2),
               ("hierarchical", "d4", 4, 3), ("hierarchical", "a2", 8, 2)]
SPREAD_CELLS = [("hierarchical", "z2", 8, 3),  # the grid grows below its floor
                ("hierarchical", "z2", 3, 1), ("voronoi", "z2", 5, 2),
                ("hierarchical", "a2", 5, 1), ("voronoi-reduced", "a2", 3, 3),
                ("voronoi", "d4", 3, 2), ("voronoi-reduced", "d4", 5, 3),
                ("hierarchical", "d4", 8, 1), ("hierarchical", "d8", 3, 2),
                ("voronoi", "d8", 3, 1), ("voronoi-reduced", "d8", 4, 2)]


@pytest.mark.parametrize("cells, pilot_n, seeds", [
    (BENCH_CELLS, 8000, (0, 1, 29, 1101, 9401)), (SPREAD_CELLS, 2000, (1,)),
    ([("voronoi-reduced", "d8", 4, 2)], 8000, (1,)),  # a window of 2 steps misses it
], ids=["bench-cells", "spread", "narrow-window"])
def test_coarse_to_fine_keeps_the_full_grid_pick(cells, pilot_n, seeds, monkeypatch):
    # Exact float equality with scoring every grid point (tests/conftest.py).
    # The two searches share one memoized scorer, so each config scores once.
    _memoized_pilot(monkeypatch)
    monkeypatch.setattr(bench, "_PILOT_ROWS", pilot_n)
    for scheme, name, q, M in cells:
        params = HierarchicalParams(make_lattice(name), q, M)
        for seed in seeds:
            got = calibrate_beta0(scheme, params, seed=seed)
            assert got == full_grid_beta0(scheme, params, pilot_n, seed=seed), (name, q, M, seed)


def test_calibration_scores_fewer_candidates(monkeypatch):
    # The dr-ip-d4 sweep's cells: 10 / 10 / 6 candidates on the whole pilot,
    # where the full grid scores 24 / 24 / 26, after the 9 coarse ones in one
    # stacked encode of its first 500 rows; each beta0 scored once per pilot.
    calls = _memoized_pilot(monkeypatch)
    for M in (1, 2, 3):
        calls.clear()
        calibrate_beta0("hierarchical", HierarchicalParams(make_lattice("d4"), 4, M))
        (rows, coarse), *window = calls
        assert (rows, len(coarse)) == (500, 9) and all(n == 8000 for n, _ in window)
        betas = [c.beta0 for _, (c,) in window]
        assert len(betas) == len(set(betas)) <= 10, M


def test_exactness_check_reports_shape():
    rep = check_exactness(HierarchicalParams(make_lattice("z1"), 3, 2), 600, seed=0)
    assert rep["ok"]
    assert rep["both_outcomes"]
    assert rep["samples"] == 600
    assert 0 < rep["n_overload"] < 600
    for key in ("exact_iff_coarse_zero", "overload_flag_matches", "telescoping_identity"):
        assert rep[key] is True


def test_verify_lemmas_passes_small():
    rep = verify_lemmas(lattices=("z1",), qs=(3,), ms=(1, 2), samples=400)
    assert rep["all_ok"]
    assert len(rep["results"]) == 2
    for entry in rep["results"]:
        assert entry["ok"]
        assert entry["exactness"]["ok"]
        q, M = entry["q"], entry["M"]
        sand = entry["sandwich"]
        assert sand["inner_ok"] and sand["outer_ok"] and sand["distinct"]
        assert abs(sand["r_qM"] - (1 - q ** (1 - M)) / (q - 1)) < 1e-15


def test_verify_lemmas_catches_a_broken_decoder(monkeypatch):
    import hnlq.bench as bench

    real = bench.codec.decode_coords_many

    def sign_flipped_finest_layer(params, digits, layers=None):
        out = real(params, digits, layers)
        if layers is None:
            out = out - 2 * real(params, digits, slice(0, 1))
        return out

    monkeypatch.setattr(bench.codec, "decode_coords_many", sign_flipped_finest_layer)
    rep = bench.check_exactness(HierarchicalParams(make_lattice("z1"), 3, 2), 400, 0)
    assert not rep["ok"]
    full = bench.verify_lemmas(lattices=("z1",), qs=(3,), ms=(2,), samples=300)
    assert not full["all_ok"]


def test_cli_dr_vector(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main([
        "dr-vector", "--q", "3", "--samples", "40",
        "--beta0", "0.6", "--out", str(out),
    ])
    assert rc == 0
    rows = parse_csv(out.read_text())
    assert {r["scheme"] for r in rows} == set(SCHEMES)
    # stdout mode
    rc = main(["dr-vector", "--q", "3", "--samples", "20", "--beta0", "0.6",
               "--scheme", "hierarchical"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith(",".join(CSV_COLUMNS))


def test_cli_dr_ip(tmp_path):
    out = tmp_path / "ip.csv"
    rc = main([
        "dr-ip", "--lattice", "d4", "--n", "8", "--q", "4", "--m", "1",
        "--samples", "12", "--beta0", "0.4", "--out", str(out),
    ])
    assert rc == 0
    (row,) = parse_csv(out.read_text())
    assert row["scheme"] == "hierarchical"
    assert row["q"] == "4"


def test_cli_calibrate(tmp_path):
    out = tmp_path / "cal.csv"
    rc = main([
        "calibrate", "--q", "4", "--m", "2", "--out", str(out),
    ])
    assert rc == 0
    header, line = out.read_text().strip().split("\n")
    assert header == "scheme,lattice,q,M,beta0"
    scheme, lattice, q, M, b0 = line.split(",")
    assert (scheme, lattice, q, M) == ("hierarchical", "D4", "4", "2")
    assert float(b0) in DEFAULT_BETA0_GRID


def test_cli_calibrate_prints_the_sweeps_beta0(tmp_path):
    cell = ["--lattice", "d4", "--q", "8", "--m", "2"]
    cal, sweep = tmp_path / "cal.csv", tmp_path / "v.csv"
    assert main(["calibrate", *cell, "--out", str(cal)]) == 0
    (row,) = csv.DictReader(io.StringIO(cal.read_text()))
    assert row["beta0"] == "0.0425907435542388"
    assert main(["dr-vector", *cell, "--scheme", "hierarchical", "--samples", "20",
                 "--out", str(sweep)]) == 0
    (point,) = parse_csv(sweep.read_text())
    assert point["beta0"] == row["beta0"]


def test_cli_verify_lemmas(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "verify-lemmas", "--lattice", "z1", "--q", "3", "--m", "1", "2",
        "--samples", "300", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    assert len(report["results"]) == 2


def test_cli_verify_lemmas_skips_the_sandwich_past_int64_keys(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify-lemmas", "--lattice", "d16", "--q", "2", "--m", "1",
               "--samples", "300", "--out", str(out)])
    assert rc == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["sandwich"] is None and entry["ok"]


def test_cli_build_lut(tmp_path, capsys):
    out = tmp_path / "d4q3.lut"
    rc = main(["build-lut", "--lattice", "d4", "--q", "3", "--out", str(out)])
    assert rc == 0
    assert "6561 entries" in capsys.readouterr().out
    from hnlq import build_lut

    params = HierarchicalParams(make_lattice("d4"), 3, 1)
    assert np.array_equal(load_lut(out, params).values, build_lut(params).values)


def test_cli_rejects_bad_usage():
    with pytest.raises(SystemExit) as e:
        main(["bogus-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["dr-vector", "--beta0", "fast"])
    assert e.value.code == 2


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hnlq.cli", "verify-lemmas", "--lattice", "z1",
         "--q", "3", "--m", "1", "--samples", "200"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_ok"] is True
