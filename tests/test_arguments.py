"""One argument rule everywhere: an integer is a non-bool Integral in range, a
positive number a non-bool Real > 0, and every refusal is a ValueError whose
message starts with the argument's name."""

import math
import re

import numpy as np
import pytest

from hnlq import (
    HierarchicalParams,
    PipelineConfig,
    ScalingConfig,
    make_lattice,
    quantize_matrix,
    quantize_vector,
)
from hnlq.bench import ExperimentConfig, check_exactness, verify_lemmas
from hnlq.codec import q_circ_many
from hnlq.lattices import in_scaled_voronoi_many

D4 = make_lattice("d4")
PARAMS = HierarchicalParams(D4, 4, 2)
SCALING = ScalingConfig(beta0=0.5)


def pipeline(**kw):
    return PipelineConfig(**{"params": PARAMS, "scaling": SCALING, "n": 8, **kw})


# (argument name, call): each call used to raise TypeError or OverflowError,
# or to accept its argument.
PROBES = {
    "q-none": ("q", lambda: HierarchicalParams(D4, None, 2)),
    "q-float": ("q", lambda: HierarchicalParams(D4, 4.0, 2)),
    "M-inf": ("M", lambda: HierarchicalParams(D4, 4, math.inf)),
    "beta0-str": ("beta0", lambda: ScalingConfig(beta0="1")),
    "beta0-none": ("beta0", lambda: ScalingConfig(beta0=None)),
    "beta0-complex": ("beta0", lambda: ScalingConfig(beta0=1 + 0j)),
    "rotation_seed-bool": ("rotation_seed", lambda: pipeline(rotation_seed=True)),
    "dither_seed-bool": ("dither_seed", lambda: pipeline(dither_seed=True)),
    "n-bool": ("n", lambda: pipeline(n=True)),
    "seed-bool": ("seed", lambda: ExperimentConfig(seed=True)),
    "col-bool": ("col", lambda: quantize_vector(pipeline(), np.ones(8), col=True)),
    "column-bool": ("column index",
                    lambda: quantize_matrix(pipeline(), np.ones((8, 3))).column(True)),
    "d-float": ("d", lambda: make_lattice("d", 4.5)),
    "d-bool": ("d", lambda: make_lattice("z", True)),
    "d-bool-suffixed": ("d", lambda: make_lattice("z1", True)),
    "a3": ("d", lambda: make_lattice("a3")),
    "m-float": ("m", lambda: q_circ_many(PARAMS, np.ones((2, 4)), 1.5)),
    "s-str": ("s", lambda: in_scaled_voronoi_many(D4, np.ones((2, 4)), "1")),
    "n_samples-zero": ("n_samples", lambda: check_exactness(PARAMS, 0)),
    "samples-float": ("samples", lambda: verify_lemmas(samples=2.5)),
    "qs-float": ("qs", lambda: ExperimentConfig(qs=(4.5,))),
    "ms-zero": ("ms", lambda: ExperimentConfig(ms=(0,))),
    "alpha-str": ("alpha", lambda: ExperimentConfig(alpha="x")),
    "beta0-negative": ("beta0", lambda: ExperimentConfig(beta0=-1.0)),
}


@pytest.mark.parametrize("name, call", PROBES.values(), ids=PROBES.keys())
def test_a_bad_argument_is_a_value_error_that_names_it(name, call):
    # pytest.raises(ValueError) lets a TypeError or OverflowError through, failing the test
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call()


def test_column_bounds_stay_an_index_error_and_col_stays_unbounded():
    cfg = pipeline(dither_mode="random", dither_seed=3)
    X = np.random.default_rng(0).standard_normal((8, 3))
    Q = quantize_matrix(cfg, X)
    with pytest.raises(IndexError):
        Q.column(3)
    # col is taken mod 2^64, so any integer is a column
    far, near = quantize_vector(cfg, X[:, 1], col=2**64 + 1), Q.column(1)
    assert np.array_equal(far.dither_ids, near.dither_ids)
    assert np.array_equal(far.digits, near.digits) and np.array_equal(far.T, near.T)
