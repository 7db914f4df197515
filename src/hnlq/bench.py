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
import numbers
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
from .lattices import make_lattice
from .lut import build_lut
from .pipeline import DITHER_MODES, PipelineConfig, paired_ip_approx, quantize_matrix
from .pipeline import ip_approx  # noqa: F401  (perfbench's tracer wraps this name)
from .scaling import (
    ScalingConfig,
    _Pilot,
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
        if isinstance(self.beta0, str) and self.beta0 != "auto":
            raise ValueError("beta0 must be a number or 'auto'")
        for name, v in (("n", self.n), ("samples", self.samples)):
            if not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        # run_dr_ip hands seed to PipelineConfig as rotation_seed and dither_seed
        # as dither_seed, both int64 fields: refuse them here, before calibrating.
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be an integer in [0, 2^63), got {self.seed!r}")
        if not isinstance(self.dither_seed, numbers.Integral) or not (
                -(2**63) <= self.dither_seed < 2**63):
            raise ValueError(
                f"dither_seed must be an integer in [-2^63, 2^63), got {self.dither_seed!r}")
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


def _vector_mse(params, scfg, X, dither_ids=None):
    digits, T = encode_scaled_many(params, scfg, X, dither_ids=dither_ids)
    Xhat = decode_scaled_many(params, scfg, digits, T, dither_ids=dither_ids)
    err = X - Xhat
    return float(np.einsum("ij,ij->i", err, err).mean() / params.lat.d), T


def calibrate_beta0(
    scheme: str,
    params: HierarchicalParams,
    pilot_n: int = 8000,
    grid=DEFAULT_BETA0_GRID,
    *,
    alpha: float = 1.0 / 3.0,
    seed: int = 0,
) -> float:
    """Grid-search the base scale on a deterministic Gaussian pilot.

    Each candidate is scored by its pilot rate gap: the empirical rate
    (retry entropy included) plus half the log of the pilot MSE.  Raw MSE
    is the wrong objective here; shrinking the base scale keeps lowering
    the error while the retry mechanism silently buys that accuracy with
    rate, so the argmin runs off to the bottom of the grid.  The gap
    charges for those bits.  Scores are smoothed over adjacent grid points
    before the argmin so pilot noise cannot wander along the flat valley;
    ties resolve to the smaller candidate.

    The best scale shrinks like q^-M, so at high rate it can fall off the
    grid: while the argmin is the first or last point, the grid grows by one
    point past that end at the end's own ratio, up to
    ``GRID_EXTENSION_LIMIT`` points.  A cell whose argmin is interior keeps
    its pick.
    """
    grid = sorted(float(b) for b in grid)
    if not grid:
        raise ValueError("empty beta0 grid")
    if pilot_n < 1:
        raise ValueError("pilot_n must be at least 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    eff = effective_params(scheme, params)
    rng = np.random.default_rng([seed, 0xB0])
    # The candidates share the pilot's bound and work arrays, freed on return.
    pilot = _Pilot(eff, rng.standard_normal((pilot_n, eff.lat.d)))

    def score(b):
        dist, T = pilot.mse(ScalingConfig(beta0=b, alpha=alpha))
        return empirical_rate(eff, T) + 0.5 * math.log2(dist)

    scores = [score(b) for b in grid]
    for added in range(GRID_EXTENSION_LIMIT + 1):
        smoothed = [
            sum(scores[max(0, i - 1) : i + 2]) / len(scores[max(0, i - 1) : i + 2])
            for i in range(len(scores))
        ]
        best = min(range(len(grid)), key=lambda i: (smoothed[i], i))
        end, inner = (0, 1) if best == 0 else (-1, -2)
        if (0 < best < len(grid) - 1 or len(grid) < 2 or grid[end] == grid[inner]
                or added == GRID_EXTENSION_LIMIT):
            break
        b = grid[end] * (grid[end] / grid[inner])
        at = 0 if best == 0 else len(grid)
        grid.insert(at, b)
        scores.insert(at, score(b))
    return grid[best]


def _histogram(T: np.ndarray) -> dict[int, int]:
    vals, counts = np.unique(np.asarray(T, dtype=np.int64), return_counts=True)
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
