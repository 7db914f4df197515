"""Shared fixtures, a brute-force nearest-point decoder and a reference encoder.

The closed-form decoders in the package are checked against an explicit
candidate search over a box guaranteed to contain the minimizer.  The
search applies the same deterministic tie-break offset as the production
code so the two agree everywhere, including on constructed ties.  The
encoder's integer layer chain is checked against re-quantizing every layer.
"""

import numpy as np
import pytest
from hypothesis import settings

from hnlq import make_lattice

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
    y = x / lat.scale + lat.eps
    if lat.family == "Z":
        cand = np.rint(y).astype(np.int64) + _offset_grid(lat.d, 1)
        pts = cand.astype(float)
        coords = cand
    elif lat.family == "D":
        cand = np.rint(y).astype(np.int64) + _offset_grid(lat.d, 2)
        cand = cand[cand.sum(axis=1) % 2 == 0]
        pts = cand.astype(float)
        # generator coordinates solved exactly per candidate point
        G0_inv = lat.G_inv * lat.scale
        coords = np.rint(pts @ G0_inv.T).astype(np.int64)
    else:
        G0 = lat.G / lat.scale
        G0_inv = lat.G_inv * lat.scale
        coords = np.rint(G0_inv @ y).astype(np.int64) + _offset_grid(2, 3)
        pts = coords @ G0.T
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
