"""Shared fixtures, a brute-force nearest-point decoder and reference encoders.

The closed-form decoders in the package are checked against an explicit
candidate search over a box guaranteed to contain the minimizer.  The
search applies the same deterministic tie-break offset as the production
code so the two agree everywhere, including on constructed ties.  The
encoder's integer layer chain is checked against re-quantizing every layer
and against the same chain in int64, and the per-row retry ladder against
trying every rung in turn.  The paper's identities are read through the
package's internals: one chunk's table inner product, the codebook
enumeration and the cell's second moment.  The base-scale calibration's
coarse-to-fine search is checked against scoring the whole grid.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from hnlq import ScalingConfig, UnencodableError, h_encode_many, make_lattice
from hnlq.bench import DEFAULT_BETA0_GRID, GRID_EXTENSION_LIMIT, effective_params
from hnlq.codec import _dither_points, _iter_codebook_coords, _layer_coords
from hnlq.lut import chunk_sums
from hnlq.scaling import _Pilot, empirical_rate
from hnlq.voronoi import digit_dtype

# Property tests draw the same examples on every run unless a run asks for
# another profile (``--hypothesis-profile=default`` draws fresh ones).
settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.load_profile("ci")


def _offset_grid(d: int, radius: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def oracle_nearest(lat, x) -> np.ndarray:
    """Integer coordinates of the nearest lattice point, by enumeration."""
    x = np.asarray(x, dtype=float)
    y = x + lat.eps
    if lat.family == "Z":
        cand = np.rint(y).astype(np.int64) + _offset_grid(lat.d, 1)
        pts = cand.astype(float)
        coords = cand
    elif lat.family == "D":
        cand = np.rint(y).astype(np.int64) + _offset_grid(lat.d, 2)
        cand = cand[cand.sum(axis=1) % 2 == 0]
        pts = cand.astype(float)
        # generator coordinates solved exactly per candidate point
        coords = np.rint(pts @ lat.G_inv.T).astype(np.int64)
    else:
        coords = np.rint(lat.G_inv @ y).astype(np.int64) + _offset_grid(2, 3)
        pts = coords @ lat.G.T
    best = int(np.argmin(((y - pts) ** 2).sum(axis=1)))
    return coords[best]


def float_chain_encode(params, X):
    """Reference encoder: run the nearest-point quantizer on every layer.

    Layer m + 1 quantizes lambda_m / q in floating point, and overload is a
    non-zero quantization of lambda_{M-1} / q: M + 1 quantizer calls.
    """
    lat, q = params.lat, params.q
    g = np.asarray(X, dtype=np.float64)
    digits = []
    for _ in range(params.M):
        c = lat.nearest_coords(g)
        digits.append(c % q)
        g = lat.point_of(c) / q
    return np.stack(digits, axis=-2), lat.nearest_coords(g).any(axis=-1)


def int64_encode(params, X):
    """Reference encoder: the integer layer chain in int64 throughout.

    One int64 nearest point, then per layer the digits c mod q and
    c = (c - rep) / q, rep the int64 layer codebook row of the digits;
    overload is a non-zero c.  Digits come in ``digit_dtype(q)``.
    """
    q = params.q
    c = params.lat.nearest_coords(np.asarray(X, dtype=np.float64))
    digits = []
    for _ in range(params.M):
        b = c % q
        digits.append(b.astype(digit_dtype(q)))
        c = (c - _layer_coords(params, b)) // q
    return np.stack(digits, axis=-2), c.any(axis=-1)


def full_ladder_encode(params, cfg, X, dither_ids=None):
    """Reference retry ladder: try rung 0, 1, ... for every overloading row.

    Each pass encodes every row still overloading at scale beta0 2^(alpha t),
    except rows whose lattice coordinates could leave int64 there, which
    overload at that scale unquantized.  Returns (digits, T) or raises the
    same errors as ``encode_scaled_many``.
    """
    X = np.asarray(X, dtype=np.float64)
    flatX = X.reshape(-1, params.lat.d)
    top = np.abs(flatX).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("cannot encode non-finite values")
    # one id (d,) or per-row ids (..., d): the points broadcast to the rows
    Z = None if dither_ids is None else np.broadcast_to(_dither_points(params, dither_ids), X.shape)
    flatZ = None if Z is None else Z.reshape(-1, params.lat.d)
    reach = 2.0**62 / float(np.abs(params.lat.G_inv).sum(axis=1).max())
    mag = np.abs(flatX).max(axis=-1)
    with np.errstate(over="ignore"):
        lost = np.count_nonzero(mag >= reach * cfg.scale(np.float64(cfg.max_retries)))
    if lost:
        raise UnencodableError(f"{lost} vector(s) still overload after {cfg.max_retries} retries")
    n = flatX.shape[0]
    digits = np.zeros((n, params.M, params.lat.d), dtype=np.int64)
    T = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for t in range(cfg.max_retries + 1):
        beta = cfg.scale(t)
        run = active[mag[active] < reach * beta]
        if run.size:
            sub = flatX[run] / beta
            if flatZ is not None:
                sub = sub - flatZ[run]
            dg, ov = h_encode_many(params, sub)
            digits[run] = dg
            T[run] = t
            active = np.setdiff1d(active, run[~ov], assume_unique=True)
        if active.size == 0:
            break
    if active.size:
        raise UnencodableError(
            f"{active.size} vector(s) still overload after {cfg.max_retries} retries"
        )
    return digits.reshape(X.shape[:-1] + (params.M, params.lat.d)), T.reshape(X.shape[:-1])


@lru_cache
def _gram_factor(family, d):
    """``Lattice.integer_gram``'s u of the lattice a table was built for."""
    return make_lattice(f"{family}{d}").integer_gram[1]


def lut_ip(lut, dx, dy, zx=None, zy=None):
    """Inner product of the reconstructions of digit arrays dx, dy (M, d), read
    from the table as sum_(i, j) q^(i+j) LUT[x_i, y_j] by ``lut.chunk_sums``.

    Without dither ids the exact sum times the lattice factor u: a Python int
    for Z_d and D_n, a float for A_2.  With ids zx, zy (d,) each side gains
    them as layer 0, and the exact sum over (M + 1)^2 entries is divided by
    q^2, then multiplied by u: the float steps of ``pipeline._products``.
    """
    x, y = ((np.asarray(b)[None, None], None if z is None else np.asarray(z)[None, None])
            for b, z in ((dx, zx), (dy, zy)))
    ((_, C),) = chunk_sums(lut, x, y, False)
    total = int(C[0, 0])
    u = _gram_factor(lut.family, lut.d)
    if zx is not None:
        return float(total) / lut.q**2 * u
    return total * int(u) if float(u).is_integer() else total * u


def full_grid_beta0(scheme, params, pilot_n=8000, grid=DEFAULT_BETA0_GRID, *,
                    alpha=1.0 / 3.0, seed=0):
    """``bench.calibrate_beta0`` by scoring every grid point, then growing the
    grid past an end while the smoothed argmin sits on it: the search the
    coarse-to-fine one replaced, whose picks it keeps."""
    grid = sorted(float(b) for b in grid)
    eff = effective_params(scheme, params)
    rng = np.random.default_rng([seed, 0xB0])
    pilot = _Pilot(eff, rng.standard_normal((pilot_n, eff.lat.d)))

    def score(b):
        ((dist, T),) = pilot.mse([ScalingConfig(beta0=b, alpha=alpha)])
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


def enumerate_codebook(params):
    """All q^(dM) codebook coordinates, one row per digit combination."""
    return np.concatenate(list(_iter_codebook_coords(params)), axis=0)


def second_moment(lat, num_samples, seed, beta=1.0):
    """(estimate, standard error of the mean) of the per-dimension second
    moment of the quantizer x -> beta Q(x / beta), on points uniform over
    beta G [0, 1)^d: at beta = 1, the Voronoi cell's, by Monte Carlo."""
    rng = np.random.default_rng(seed)
    U = rng.random((num_samples, lat.d)) @ (beta * lat.G).T
    Z = U - beta * lat.point_of(lat.nearest_coords(U / beta))
    v = np.einsum("ij,ij->i", Z, Z) / lat.d
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(num_samples))


def traced_peak_mib(fn):
    """(fn(), the tracemalloc peak of the call above what was live before it, in MiB)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def z1():
    return make_lattice("z1")


@pytest.fixture(scope="session")
def z2():
    return make_lattice("z2")


@pytest.fixture(scope="session")
def z3():
    return make_lattice("z3")


@pytest.fixture(scope="session")
def d4():
    return make_lattice("d4")


@pytest.fixture(scope="session")
def a2():
    return make_lattice("a2")


@pytest.fixture(scope="session", params=["z1", "z2", "a2", "d4"])
def any_lat(request):
    return make_lattice(request.param)
