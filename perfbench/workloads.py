"""The three benchmark workloads, driven through hnlq's public API.

Each workload class makes its inputs from the seed and has:

- ``setup()``: table build and ``beta0`` calibration, timed as ``setup_s``;
- ``iterate()``: one iteration, returning its outputs and stage times
  (keys ending in ``_s``);
- ``check(out)``: the list of failed output checks.  The first checked
  iteration becomes the reference that later ones must reproduce exactly,
  since every iteration sees the same inputs;
- ``corrupt(out)``: spoils one output so that ``check`` must fail;
- ``metrics(stages)``: workload metrics, name -> (value, unit).

Calls go through module attributes (``pipeline.quantize_matrix``, not a
name imported once) so that the traced run can wrap them.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from time import perf_counter

import numpy as np

from hnlq import bench, cli, lut, pipeline, scaling
from hnlq.codec import HierarchicalParams
from hnlq.lattices import make_lattice

# The inner-product rate gap the acceptance suite allows.
MAX_IP_RATE_GAP_BITS = 0.75
# matmul_approx must match the decode+GEMM oracle to this relative error.
ORACLE_RTOL = 1e-9
# Coarse quality ceilings, two to three times the values measured when the
# benchmark was defined (0.10 and 0.019), so that a change that wrecks
# accuracy (say, every chunk quantizing to zero) fails loudly even when its
# outputs are self-consistent.
MAX_AMM_REL_FRO_ERR = 0.2
MAX_STORE_REL_RECON_ERR = 0.05


def _frac_diff(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _same_matrix(a: pipeline.QuantizedMatrix, b: pipeline.QuantizedMatrix) -> bool:
    if (a.dither_ids is None) != (b.dither_ids is None):
        return False
    return (
        np.array_equal(a.digits, b.digits)
        and np.array_equal(a.T, b.T)
        and (a.dither_ids is None or np.array_equal(a.dither_ids, b.dither_ids))
    )


class AmmD4:
    """Quantize A and B, then approximate A^T B from the d4 table."""

    name = "amm-d4"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n, self.cols = (64, 16) if smoke else (1024, 128)
        rng = np.random.default_rng([seed, 0xA4])
        self.A = rng.standard_normal((self.n, self.cols))
        self.B = rng.standard_normal((self.n, self.cols))
        self.params = HierarchicalParams(make_lattice("d4"), 4, 2)
        K, M = self.n // 4, self.params.M
        self.reads_per_iter = self.cols * self.cols * K * M * M
        self.ref = None

    def setup(self) -> None:
        self.lut = lut.build_lut(self.params)
        beta0 = bench.calibrate_beta0("hierarchical", self.params, seed=self.seed)
        self.cfg = pipeline.PipelineConfig(
            params=self.params, scaling=scaling.ScalingConfig(beta0=beta0), n=self.n
        )

    def iterate(self) -> dict:
        t0 = perf_counter()
        QA = pipeline.quantize_matrix(self.cfg, self.A)
        QB = pipeline.quantize_matrix(self.cfg, self.B)
        t1 = perf_counter()
        reads = self.lut.query_count
        G = pipeline.matmul_approx(self.cfg, self.lut, QA, QB)
        t2 = perf_counter()
        return {
            "QA": QA, "QB": QB, "G": G, "reads": self.lut.query_count - reads,
            "quantize_s": t1 - t0, "matmul_s": t2 - t1,
        }

    def decode(self, Q: pipeline.QuantizedMatrix) -> np.ndarray:
        """Dense (n, cols) reconstruction of a quantized matrix."""
        X = scaling.decode_scaled_many(self.params, self.cfg.scaling, Q.digits, Q.T)
        return X.reshape(Q.cols, self.n).T

    def oracle(self, out: dict) -> np.ndarray:
        """The dense baseline: decode both matrices, then one GEMM."""
        return self.decode(out["QA"]).T @ self.decode(out["QB"])

    def check(self, out: dict) -> list[str]:
        errs = []
        if out["reads"] != self.reads_per_iter:
            errs.append(f"lut reads {out['reads']} != {self.reads_per_iter}")
        if self.ref is None:
            G_oracle = self.oracle(out)
            exact = self.A.T @ self.B
            self.ref = {
                "QA": out["QA"], "QB": out["QB"], "G_oracle": G_oracle,
                "rel_fro_err": _frac_diff(out["G"], exact),
                "rate_bits": scaling.empirical_rate(
                    self.params, np.concatenate([out["QA"].T.ravel(), out["QB"].T.ravel()])
                ),
            }
            if not self.ref["rel_fro_err"] <= MAX_AMM_REL_FRO_ERR:
                errs.append(f"rel_fro_err {self.ref['rel_fro_err']} > {MAX_AMM_REL_FRO_ERR}")
        elif not (_same_matrix(out["QA"], self.ref["QA"])
                  and _same_matrix(out["QB"], self.ref["QB"])):
            errs.append("quantized A or B differs from the first iteration")
        gap = _frac_diff(out["G"], self.ref["G_oracle"])
        if not gap <= ORACLE_RTOL:
            errs.append(f"table product differs from decode+GEMM by {gap:.3e} relative")
        return errs

    def corrupt(self, out: dict) -> None:
        out["G"][0, 0] += 1.0

    def metrics(self, stages):
        return {
            "quantize_entries_per_s":
                (2 * self.n * self.cols / np.median(stages["quantize_s"]), "1/s"),
            "matmul_outputs_per_s": (self.cols**2 / np.median(stages["matmul_s"]), "1/s"),
            "rel_fro_err": (self.ref["rel_fro_err"], "frac"),
            "rate_bits": (self.ref["rate_bits"], "bits"),
        }


class StoreA2:
    """Quantize with random dither, save, load, decode every column."""

    name = "store-a2"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n, self.cols = (64, 32) if smoke else (1024, 256)
        rng = np.random.default_rng([seed, 0xA2])
        self.X = rng.standard_normal((self.n, self.cols))
        self.params = HierarchicalParams(make_lattice("a2"), 8, 2)
        self.path = workdir / f"store-a2-{seed}.nlqm"
        self.ref = None

    def setup(self) -> None:
        beta0 = bench.calibrate_beta0("hierarchical", self.params, seed=self.seed)
        self.cfg = pipeline.PipelineConfig(
            params=self.params, scaling=scaling.ScalingConfig(beta0=beta0), n=self.n,
            dither_mode="random", dither_seed=self.seed,
        )

    def iterate(self) -> dict:
        t0 = perf_counter()
        Q = pipeline.quantize_matrix(self.cfg, self.X)
        t1 = perf_counter()
        pipeline.save_quantized_matrix(Q, self.path)
        t2 = perf_counter()
        L = pipeline.load_quantized_matrix(self.path)
        t3 = perf_counter()
        D = scaling.decode_scaled_many(
            L.cfg.params, L.cfg.scaling, L.digits, L.T, dither_ids=L.dither_ids
        )
        t4 = perf_counter()
        return {
            "Q": Q, "loaded": L, "decoded": D, "file_bytes": self.path.stat().st_size,
            "quantize_s": t1 - t0, "save_s": t2 - t1, "load_s": t3 - t2, "decode_s": t4 - t3,
        }

    def check(self, out: dict) -> list[str]:
        errs = []
        Q, L = out["Q"], out["loaded"]
        if self.ref is None:
            decoded = scaling.decode_scaled_many(
                self.params, self.cfg.scaling, Q.digits, Q.T, dither_ids=Q.dither_ids
            )
            X_hat = decoded.reshape(Q.cols, self.n).T
            self.ref = {
                "Q": Q, "decoded": decoded, "file_bytes": out["file_bytes"],
                "recon_mse_per_dim": float(np.mean((X_hat - self.X) ** 2)),
                "rel_recon_err": _frac_diff(X_hat, self.X),
                "rate_bits": scaling.empirical_rate(self.params, Q.T),
            }
            if not self.ref["rel_recon_err"] <= MAX_STORE_REL_RECON_ERR:
                errs.append(
                    f"relative reconstruction error {self.ref['rel_recon_err']} "
                    f"> {MAX_STORE_REL_RECON_ERR}"
                )
        elif not _same_matrix(Q, self.ref["Q"]):
            errs.append("quantized matrix differs from the first iteration")
        if not _same_matrix(L, Q):
            errs.append("loaded matrix differs from the saved one (digits, T or dither ids)")
        c, lc = self.cfg, L.cfg
        if (lc.n, lc.scaling.beta0, lc.scaling.alpha, lc.dither_mode, lc.dither_seed) != (
            c.n, c.scaling.beta0, c.scaling.alpha, c.dither_mode, c.dither_seed
        ):
            errs.append("loaded config differs from the saved one")
        if not np.array_equal(out["decoded"], self.ref["decoded"]):
            errs.append("decode of the loaded matrix differs from the in-memory decode")
        return errs

    def corrupt(self, out: dict) -> None:
        L = out["loaded"]
        L.digits[0, 0, 0, 0] = (L.digits[0, 0, 0, 0] + 1) % self.params.q

    def metrics(self, stages):
        entries = self.n * self.cols
        restore = np.add(stages["load_s"], stages["decode_s"])
        return {
            "quantize_entries_per_s": (entries / np.median(stages["quantize_s"]), "1/s"),
            "restore_entries_per_s": (entries / np.median(restore), "1/s"),
            "recon_mse_per_dim": (self.ref["recon_mse_per_dim"], "1"),
            "stored_bits_per_entry": (8 * self.ref["file_bytes"] / entries, "bits"),
            "rate_bits": (self.ref["rate_bits"], "bits"),
        }


class DrIpD4:
    """The inner-product distortion-rate sweep, through the CLI in-process."""

    name = "dr-ip-d4"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.ms = (1, 2) if smoke else (1, 2, 3)
        self.path = workdir / f"dr-ip-d4-{seed}.csv"
        self.argv = [
            "dr-ip", "--lattice", "d4", "--q", "4", "--m", *map(str, self.ms),
            "--n", "64" if smoke else "512", "--dither", "fixed",
            "--seed", str(seed), "--out", str(self.path),
        ] + (["--samples", "20"] if smoke else [])
        self.lat = make_lattice("d4")
        self.ref = None

    def setup(self) -> None:
        self.lut = lut.build_lut(HierarchicalParams(self.lat, 4, 1))
        for M in self.ms:
            bench.calibrate_beta0("hierarchical", HierarchicalParams(self.lat, 4, M),
                                  seed=self.seed)

    def iterate(self) -> dict:
        rc = cli.main(self.argv)
        return {"rc": rc, "csv": self.path.read_bytes()}

    def check(self, out: dict) -> list[str]:
        errs = []
        if out["rc"] != 0:
            errs.append(f"cli exit status {out['rc']}")
        if self.ref is None:
            rows = list(csv.DictReader(io.StringIO(out["csv"].decode())))
            gaps = {
                int(r["M"]): bench.gamma_rate_gap(float(r["rate_bits"]), float(r["distortion"]))
                for r in rows
            }
            self.ref = {
                "csv": out["csv"],
                "gap_max": max(gaps.values()),
                "rate_bits": float(next(r for r in rows if r["M"] == "2")["rate_bits"]),
            }
            if sorted(gaps) != list(self.ms):
                errs.append(f"csv rows for M={sorted(gaps)}, expected {list(self.ms)}")
            for M, gap in gaps.items():
                if not gap <= MAX_IP_RATE_GAP_BITS:
                    errs.append(f"rate gap {gap:.3f} bits at M={M} > {MAX_IP_RATE_GAP_BITS}")
        elif out["csv"] != self.ref["csv"]:
            errs.append("csv differs from the first iteration at the same seed")
        return errs

    def corrupt(self, out: dict) -> None:
        out["csv"] = out["csv"].replace(b"hierarchical", b"hierarchicaL", 1)

    def metrics(self, stages):
        return {
            "ip_rate_gap_bits.max": (self.ref["gap_max"], "bits"),
            "rate_bits": (self.ref["rate_bits"], "bits"),
        }


WORKLOADS = {w.name: w for w in (AmmD4, StoreA2, DrIpD4)}
