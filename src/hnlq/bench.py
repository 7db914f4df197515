"""Distortion-rate experiments and closed-form reference curves.

Two experiment families: direct vector quantization of i.i.d. Gaussian
sources against the 2^(-2R) Gaussian distortion-rate bound, and approximate
inner products of Gaussian vector pairs against the corresponding
inner-product limit 2 * 2^(-2R) - 2^(-4R).  Both report empirical rates
that include the entropy of the overload retry counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .codec import (
    HierarchicalParams,
    h_encode_many,
    q_circ_many,
    reduced_nesting_ratio,
    verify_sandwich,
)
from .lattices import _integer, _positive, make_lattice
from .lut import build_lut
from .pipeline import DITHER_MODES, PipelineConfig, paired_ip_approx, quantize_matrix
from .pipeline import ip_approx  # noqa: F401  (perfbench's tracer wraps this name)
from .scaling import (
    ScalingConfig,
    _Pilot,
    _retry_histogram,
    decode_scaled_many,
    empirical_rate,
    encode_scaled_many,
)

__all__ = [
    "SCHEMES",
    "CSV_COLUMNS",
    "DEFAULT_BETA0_GRID",
    "ExperimentConfig",
    "DRPoint",
    "effective_params",
    "calibrate_beta0",
    "run_dr_vector",
    "run_dr_ip",
    "check_exactness",
    "verify_lemmas",
    "shannon_distortion",
    "gamma_distortion",
    "shannon_rate_gap",
    "gamma_rate_gap",
    "points_to_csv",
]

SCHEMES = ("hierarchical", "voronoi", "voronoi-reduced")

DEFAULT_BETA0_GRID = tuple(float(b) for b in np.geomspace(0.05, 2.0, 24))
# Most points calibrate_beta0 adds past the ends of its grid, 96 ratio steps:
# at the default grid's ratio, down to about 1e-8.
GRID_EXTENSION_LIMIT = 96
# calibrate_beta0's coarse pass scores every third grid point, and its window
# reaches three grid steps either side of their best, to the neighbouring
# coarse points.  A window of two steps missed the full grid's pick in one of
# 378 cells (d8 q=4 M=2 voronoi-reduced, seed 1); three missed none.
_COARSE_STRIDE = 3
# Gaussian rows of calibrate_beta0's pilot.
_PILOT_ROWS = 8000
# The coarse pass scores its points on the pilot's first _COARSE_ROWS rows,
# all in one stacked encode; only the window is scored on the whole pilot.
# The d4 q=4 M=1-3 calibrations took 49.2 ms in all against 69.3 ms with the
# coarse pass on all 8,000 rows; 250 rows (48.6 ms) and 1,000 were no better.
_COARSE_ROWS = 500

CSV_COLUMNS = [
    "scheme",
    "lattice",
    "d",
    "q",
    "M",
    "beta0",
    "alpha",
    "rate_bits",
    "distortion",
    "shannon_or_gamma_ref",
    "overload_T_histogram",
    "samples",
    "seed",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the benchmark commands.

    ``beta0`` is either a number or the string "auto", which calibrates a
    base scale per scheme and parameter cell on a deterministic pilot.
    """

    lattice: str = "d4"
    schemes: tuple[str, ...] = SCHEMES
    qs: tuple[int, ...] = (3, 4, 5, 6)
    ms: tuple[int, ...] = (2,)
    n: int = 512
    samples: int = 1000
    alpha: float = 1.0 / 3.0
    beta0: float | str = "auto"
    seed: int = 0
    dither: str = "fixed"
    dither_seed: int = 0
    rotate: bool = False

    def __post_init__(self):
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if self.beta0 != "auto":
            _positive("beta0", self.beta0)
        # The rules of the constructors these fields feed, before any cell runs.
        for q in self.qs:
            _integer("qs", q, 2)
        for m in self.ms:
            _integer("ms", m, 1)
        _positive("alpha", self.alpha)
        _integer("n", self.n, 1)
        _integer("samples", self.samples, 1)
        # The cells that run q = 2 (effective_params), which calibrate_beta0 refuses.
        for s in self.schemes:
            if 2 in self.qs and (s != "voronoi" or 1 in self.ms):
                raise ValueError(f"qs holds q = 2, which scheme {s!r} runs as q = 2, whose "
                                 "undithered codes reconstruct almost every input as 0")
        # run_dr_ip hands seed to PipelineConfig as rotation_seed and dither_seed
        # as dither_seed, both int64 fields: refuse them here, before calibrating.
        _integer("seed", self.seed, 0, 2**63)
        _integer("dither_seed", self.dither_seed, -(2**63), 2**63)
        if self.dither not in DITHER_MODES:
            raise ValueError(f"dither must be one of {DITHER_MODES}, got {self.dither!r}")


@dataclass(frozen=True)
class DRPoint:
    """One emitted distortion-rate point.

    q and M describe the codec actually run, so the rate always recomputes
    as M log2 q + H(T)/d from the histogram; reduced-ratio rows therefore
    record their ratio in the q column with M = 1.
    """

    scheme: str
    lattice: str
    d: int
    q: int
    M: int
    beta0: float
    alpha: float
    rate_bits: float
    distortion: float
    ref: float
    t_histogram: dict[int, int]
    samples: int
    seed: int


def shannon_distortion(rate_bits: float) -> float:
    """Gaussian distortion-rate bound per dimension."""
    return 2.0 ** (-2.0 * rate_bits)


def gamma_distortion(rate_bits: float) -> float:
    """Inner-product distortion bound 2*2^(-2R) - 2^(-4R), valid for R > 0.906."""
    u = 2.0 ** (-2.0 * rate_bits)
    return 2.0 * u - u * u


def shannon_rate_gap(rate_bits: float, distortion: float) -> float:
    """Horizontal distance (bits) from a measured point to the Gaussian bound."""
    return rate_bits + 0.5 * math.log2(distortion)


def gamma_rate_gap(rate_bits: float, distortion: float) -> float:
    """Horizontal distance (bits) to the inner-product bound.

    Inverts 2u - u^2 = D at u = 1 - sqrt(1 - D), the branch with u in (0,1).
    """
    if not 0 < distortion < 1:
        raise ValueError("distortion must be in (0, 1) to invert the bound")
    u = 1.0 - math.sqrt(1.0 - distortion)
    return rate_bits + 0.5 * math.log2(u)


def effective_params(scheme: str, params: HierarchicalParams) -> HierarchicalParams:
    """Map a scheme name onto the codec that actually runs.

    The single-layer comparison codes replace (q, M) by (q^M, 1); the
    reduced variant shrinks the ratio to q^M (1 - r_qM), an exact integer,
    floored at 2.
    """
    if scheme == "hierarchical":
        return params
    if scheme == "voronoi":
        return HierarchicalParams(params.lat, params.q**params.M, 1)
    if scheme == "voronoi-reduced":
        r = max(2, reduced_nesting_ratio(params.q, params.M))
        return HierarchicalParams(params.lat, r, 1)
    raise ValueError(f"unknown scheme {scheme!r}")


def _vector_mse(params, scfg, X):
    digits, T = encode_scaled_many(params, scfg, X)
    Xhat = decode_scaled_many(params, scfg, digits, T)
    err = X - Xhat
    return float(np.einsum("ij,ij->i", err, err).mean() / params.lat.d), T


def calibrate_beta0(
    scheme: str,
    params: HierarchicalParams,
    *,
    alpha: float = 1.0 / 3.0,
    seed: int = 0,
) -> float:
    """Search ``DEFAULT_BETA0_GRID``, coarse to fine, for the base scale of a
    deterministic pilot of ``_PILOT_ROWS`` Gaussian rows.

    Each candidate is scored by its pilot rate gap: the empirical rate
    (retry entropy included) plus half the log of the pilot MSE.  Raw MSE
    is the wrong objective here; shrinking the base scale keeps lowering
    the error while the retry mechanism silently buys that accuracy with
    rate, so the argmin runs off to the bottom of the grid.  The gap
    charges for those bits.  Scores are smoothed over adjacent points
    before the argmin so pilot noise cannot wander along the flat valley;
    ties resolve to the smaller candidate.

    The smoothed score has one valley, and its wiggles lie on a plateau well
    above it, so a bracketing search finds the full grid's argmin from fewer
    candidates.  A coarse pass scores every ``_COARSE_STRIDE``-th grid point
    and the last on the pilot's first ``_COARSE_ROWS`` rows, in one stacked
    encode (``scaling._Pilot``), only to place the window: ``_COARSE_STRIDE``
    grid steps either side of their smoothed argmin.  The window is scored
    on the whole pilot, one candidate per encode, and widens by as many
    steps on a side while its smoothed argmin sits on that edge.  Once the
    window reaches an end of the grid its smoothed scores are the full
    grid's there, from the same three scores summed in the same order.  Each
    ``beta0`` is scored at most once per call on each pilot; a bad alpha is
    refused before any is scored.

    The best scale shrinks like q^-M, so at high rate it can fall off the
    grid: while the argmin is the first or last point, the grid grows by one
    point past that end at the end's own ratio, up to
    ``GRID_EXTENSION_LIMIT`` points.  A cell whose argmin is interior keeps
    its pick.  A scheme that runs q = 2 (``effective_params``) is refused:
    its undithered codes reconstruct almost every input as 0.
    """
    _integer("seed", seed, 0)
    grid = list(DEFAULT_BETA0_GRID)
    ScalingConfig(beta0=grid[-1], alpha=alpha)  # the top rung of the largest point is finite
    eff = effective_params(scheme, params)
    if eff.q == 2:
        raise ValueError(f"scheme {scheme!r} at q = {params.q}, M = {params.M} runs q = 2, "
                         "whose undithered codes reconstruct almost every input as 0")
    rng = np.random.default_rng([seed, 0xB0])
    X = rng.standard_normal((_PILOT_ROWS, eff.lat.d))

    def gaps(pilot, idx):
        """Pilot rate gaps of the grid points idx, scored in one stacked encode."""
        scored = pilot.mse([ScalingConfig(beta0=grid[i], alpha=alpha) for i in idx])
        return [empirical_rate(eff, T) + 0.5 * math.log2(dist) for dist, T in scored]

    def argmin(idx, s):
        """Grid index of the smallest smoothed score s over the grid indices idx."""
        smoothed = [sum(s[max(0, k - 1) : k + 2]) / len(s[max(0, k - 1) : k + 2])
                    for k in range(len(s))]
        return idx[min(range(len(idx)), key=lambda k: (smoothed[k], k))]

    step = _COARSE_STRIDE
    coarse = sorted({*range(0, len(grid), step), len(grid) - 1})
    # Each pilot's work arrays are sized once, and freed when it is dropped.
    best = argmin(coarse, gaps(_Pilot(eff, X[:_COARSE_ROWS], len(coarse)), coarse))
    lo, hi = max(0, best - step), min(len(grid) - 1, best + step)
    pilot, scores = _Pilot(eff, X), {}
    added = 0
    while True:
        for i in range(lo, hi + 1):
            if grid[i] not in scores:
                (scores[grid[i]],) = gaps(pilot, [i])
        best = argmin(range(lo, hi + 1), [scores[grid[i]] for i in range(lo, hi + 1)])
        if best == lo > 0:
            lo = max(0, lo - step)
            continue
        if best == hi < len(grid) - 1:
            hi = min(len(grid) - 1, hi + step)
            continue
        if 0 < best < len(grid) - 1 or added == GRID_EXTENSION_LIMIT:
            return grid[best]
        end, inner = (0, 1) if best == 0 else (-1, -2)
        grid.insert(0 if best == 0 else len(grid), grid[end] * (grid[end] / grid[inner]))
        added, hi = added + 1, hi + 1


def _histogram(T: np.ndarray) -> dict[int, int]:
    vals, counts = _retry_histogram(T)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def _dr_point(cfg: ExperimentConfig, scheme: str, base: HierarchicalParams, measure, ref):
    """One sweep cell: choose beta0, ``measure(eff, scfg) -> (distortion, T)``, emit a point."""
    eff = effective_params(scheme, base)
    if cfg.beta0 == "auto":
        b0 = calibrate_beta0(scheme, base, alpha=cfg.alpha, seed=cfg.seed)
    else:
        b0 = float(cfg.beta0)
    dist, T = measure(eff, ScalingConfig(beta0=b0, alpha=cfg.alpha))
    rate = empirical_rate(eff, T)
    return DRPoint(
        scheme=scheme,
        lattice=eff.lat.name,
        d=eff.lat.d,
        q=eff.q,
        M=eff.M,
        beta0=b0,
        alpha=cfg.alpha,
        rate_bits=rate,
        distortion=dist,
        ref=ref(rate),
        t_histogram=_histogram(T),
        samples=cfg.samples,
        seed=cfg.seed,
    )


def run_dr_vector(cfg: ExperimentConfig) -> list[DRPoint]:
    """Distortion-rate sweep for direct vector quantization.

    For every (q, M) cell all schemes see the same Gaussian sample, drawn
    from a substream keyed by the seed and the cell, so scheme comparisons
    are paired.
    """
    lat = make_lattice(cfg.lattice)
    points = []
    for q in cfg.qs:
        for M in cfg.ms:
            base = HierarchicalParams(lat, q, M)
            rng = np.random.default_rng([cfg.seed, q, M])
            X = rng.standard_normal((cfg.samples, lat.d))
            for scheme in cfg.schemes:
                points.append(_dr_point(
                    cfg, scheme, base, lambda eff, scfg: _vector_mse(eff, scfg, X),
                    shannon_distortion,
                ))
    return points


def run_dr_ip(cfg: ExperimentConfig) -> list[DRPoint]:
    """Distortion-rate sweep for approximate inner products.

    Pairs of length-n Gaussian vectors are quantized through the product
    pipeline and their lookup inner products compared with the exact ones;
    distortion is the mean squared error over pairs divided by n.  All
    (q, M) cells see the same pairs.
    """
    lat = make_lattice(cfg.lattice)
    d = lat.d
    if cfg.n % d:
        raise ValueError("n must be a multiple of the lattice dimension")
    rng = np.random.default_rng([cfg.seed, 0x1B])
    X = rng.standard_normal((cfg.n, cfg.samples))
    Y = rng.standard_normal((cfg.n, cfg.samples))
    exact = np.einsum("ij,ij->j", X, Y)

    def measure(eff, scfg):
        pipe = PipelineConfig(
            params=eff,
            scaling=scfg,
            n=cfg.n,
            rotate=cfg.rotate,
            rotation_seed=cfg.seed,
            dither_mode=cfg.dither,
            dither_ids=np.ones(d, dtype=np.int64) if cfg.dither == "fixed" else None,
            dither_seed=cfg.dither_seed,
        )
        lut = build_lut(eff)
        QX = quantize_matrix(pipe, X)
        QY = quantize_matrix(pipe, Y)
        approx = paired_ip_approx(pipe, lut, QX, QY)
        dist = float(((exact - approx) ** 2).mean() / cfg.n)
        return dist, np.concatenate([QX.T.ravel(), QY.T.ravel()])

    points = []
    for q in cfg.qs:
        for M in cfg.ms:
            base = HierarchicalParams(lat, q, M)
            for scheme in cfg.schemes:
                points.append(_dr_point(cfg, scheme, base, measure, gamma_distortion))
    return points


def check_exactness(
    params: HierarchicalParams, n_samples: int = 10_000, seed: int = 0
) -> dict:
    """Exactness check of the encode-decode identity on random inputs.

    Draws Gaussian inputs at three spreads (the largest comparable to the
    codebook extent, forcing overloads) and verifies, in exact integer
    coordinates, that the reconstruction equals the nearest lattice point
    exactly when the M-fold coarsened quantization vanishes, that the
    overload flag matches that event, and that reconstruction always equals
    nearest point minus coarse term.
    """
    _integer("n_samples", n_samples, 1)
    _integer("seed", seed, 0)
    lat, q, M = params.lat, params.q, params.M
    rng = np.random.default_rng([seed, q, M])
    per = n_samples // 3 + 1
    spread = float(q**M)
    X = np.concatenate(
        [
            sigma * rng.standard_normal((per, lat.d))
            for sigma in (0.5, 0.25 * spread, spread)
        ]
    )[:n_samples]
    digits, overload = h_encode_many(params, X)
    dec = codec.decode_coords_many(params, digits)
    nn = lat.nearest_coords(X)
    coarse = q_circ_many(params, X, M)
    eq_decode = (dec == nn).all(axis=1)
    eq_zero = (coarse == 0).all(axis=1)
    telescopes = bool((dec == nn - coarse).all())
    flags_match = bool(((~overload) == eq_zero).all())
    exact_match = bool((eq_decode == eq_zero).all())
    n_overload = int(overload.sum())
    return {
        "lattice": lat.name,
        "q": q,
        "M": M,
        "samples": int(X.shape[0]),
        "n_overload": n_overload,
        "both_outcomes": bool(0 < n_overload < X.shape[0]),
        "exact_iff_coarse_zero": exact_match,
        "overload_flag_matches": flags_match,
        "telescoping_identity": telescopes,
        "ok": exact_match and flags_match and telescopes,
    }


def verify_lemmas(
    lattices=("z2", "a2", "d4"),
    qs=(3, 4),
    ms=(1, 2, 3),
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Machine-readable pass/fail report for the codec identities.

    For every configuration runs the exactness check and, when the codebook
    fits the guard and int64 keys, the two-sided inclusion check.
    """
    _integer("samples", samples, 1)
    results = []
    all_ok = True
    for name in lattices:
        lat = make_lattice(name)
        for q in qs:
            for M in ms:
                params = HierarchicalParams(lat, q, M)
                entry = {"lattice": lat.name, "q": q, "M": M}
                exact = check_exactness(params, samples, seed)
                entry["exactness"] = exact
                ok = exact["ok"]
                if params.codebook_size <= codec.ENUMERATION_GUARD and codec._key_layout(params):
                    rep = verify_sandwich(params)
                    entry["sandwich"] = {
                        "inner_ok": rep.inner_ok,
                        "outer_ok": rep.outer_ok,
                        "r_qM": rep.r_qM,
                        "codebook_size": rep.codebook_size,
                        "distinct": rep.distinct,
                    }
                    ok = ok and rep.inner_ok and rep.outer_ok and rep.distinct
                else:
                    entry["sandwich"] = None
                entry["ok"] = ok
                all_ok = all_ok and ok
                results.append(entry)
    return {"all_ok": all_ok, "results": results}


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def points_to_csv(points: list[DRPoint]) -> str:
    """Render points as deterministic CSV text.

    Floats use shortest round-trip formatting and the histogram is embedded
    as canonical JSON, so identical runs produce identical bytes.
    """
    rows = [",".join(CSV_COLUMNS)]
    for p in points:
        hist = json.dumps({str(k): p.t_histogram[k] for k in sorted(p.t_histogram)},
                          separators=(",", ":"))
        cells = [
            p.scheme,
            p.lattice,
            _fmt(p.d),
            _fmt(p.q),
            _fmt(p.M),
            _fmt(p.beta0),
            _fmt(p.alpha),
            _fmt(p.rate_bits),
            _fmt(p.distortion),
            _fmt(p.ref),
            '"' + hist.replace('"', '""') + '"',
            _fmt(p.samples),
            _fmt(p.seed),
        ]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
