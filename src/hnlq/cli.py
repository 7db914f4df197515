"""Command-line benchmark driver.

Subcommands: dr-vector (vector quantization sweep), dr-ip (inner-product
sweep), calibrate (base-scale grid search), verify-lemmas (codec identity
report as JSON) and build-lut (write a lookup table to disk).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    DEFAULT_BETA0_GRID,
    ExperimentConfig,
    SCHEMES,
    calibrate_beta0,
    points_to_csv,
    run_dr_ip,
    run_dr_vector,
    verify_lemmas,
)
from .codec import HierarchicalParams
from .lattices import make_lattice
from .lut import build_lut, save_lut

FULL_SAMPLES = 5000


def _beta0(text: str):
    return text if text == "auto" else float(text)


def _common_flags(p: argparse.ArgumentParser, *, samples: int):
    p.add_argument("--lattice", default="d4",
                   help="lattice tag: z<d>, d<n> or a2 (default d4)")
    p.add_argument("--q", type=int, nargs="+", default=None, help="base(s) q")
    p.add_argument("--m", type=int, nargs="+", default=None, help="depth(s) M")
    p.add_argument("--samples", type=int, default=samples,
                   help=f"sample count (default {samples})")
    p.add_argument("--full", action="store_true",
                   help=f"use the full sample count of {FULL_SAMPLES}")
    p.add_argument("--alpha", type=float, default=1.0 / 3.0,
                   help="scale growth exponent (default 1/3)")
    p.add_argument("--beta0", type=_beta0, default="auto",
                   help="base scale, a number or 'auto' (default auto)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bench",
                                 description="lattice quantization benchmarks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dr-vector", help="vector quantization distortion-rate sweep")
    _common_flags(p, samples=1000)
    p.add_argument("--scheme", nargs="+", choices=SCHEMES, default=list(SCHEMES),
                   help="schemes to run (default all)")

    p = sub.add_parser("dr-ip", help="approximate inner-product distortion-rate sweep")
    _common_flags(p, samples=500)
    p.add_argument("--scheme", nargs="+", choices=SCHEMES, default=["hierarchical"],
                   help="schemes to run (default hierarchical)")
    p.add_argument("--n", type=int, default=512, help="vector length (default 512)")
    p.add_argument("--dither", choices=["none", "fixed", "random"], default="fixed",
                   help="dither mode (default fixed)")
    p.add_argument("--dither-seed", type=int, default=0)
    p.add_argument("--rotate", action="store_true",
                   help="apply a shared random rotation before chunking")

    p = sub.add_parser("calibrate", help="grid-search the base scale beta0")
    _common_flags(p, samples=500)
    p.add_argument("--scheme", choices=SCHEMES, default="hierarchical")

    p = sub.add_parser("verify-lemmas", help="codec identity report (JSON)")
    p.add_argument("--lattice", nargs="+", default=["z2", "a2", "d4"])
    p.add_argument("--q", type=int, nargs="+", default=[3, 4])
    p.add_argument("--m", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("build-lut", help="build and save an inner-product table")
    p.add_argument("--lattice", default="d4")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--out", required=True)
    return ap


def _experiment_config(args, *, dr_ip: bool) -> ExperimentConfig:
    if dr_ip:
        qs = tuple(args.q) if args.q else (4,)
        ms = tuple(args.m) if args.m else (1, 2, 3)
    else:
        qs = tuple(args.q) if args.q else (3, 4, 5, 6)
        ms = tuple(args.m) if args.m else (2,)
    return ExperimentConfig(
        lattice=args.lattice,
        schemes=tuple(args.scheme) if isinstance(args.scheme, list) else (args.scheme,),
        qs=qs,
        ms=ms,
        n=getattr(args, "n", 512),
        samples=args.samples,
        alpha=args.alpha,
        beta0=args.beta0,
        seed=args.seed,
        dither=getattr(args, "dither", "none"),
        dither_seed=getattr(args, "dither_seed", 0),
        rotate=getattr(args, "rotate", False),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "full", False):
        args.samples = FULL_SAMPLES

    if args.command == "dr-vector":
        cfg = _experiment_config(args, dr_ip=False)
        _emit(points_to_csv(run_dr_vector(cfg)), args.out)
        return 0

    if args.command == "dr-ip":
        cfg = _experiment_config(args, dr_ip=True)
        _emit(points_to_csv(run_dr_ip(cfg)), args.out)
        return 0

    if args.command == "calibrate":
        lat = make_lattice(args.lattice)
        qs = args.q or [4]
        ms = args.m or [2]
        lines = []
        for q in qs:
            for M in ms:
                b0 = calibrate_beta0(
                    args.scheme,
                    HierarchicalParams(lat, q, M),
                    pilot_n=args.samples,
                    grid=DEFAULT_BETA0_GRID,
                    alpha=args.alpha,
                    seed=args.seed,
                )
                lines.append(f"{args.scheme},{lat.name},{q},{M},{b0!r}")
        _emit("scheme,lattice,q,M,beta0\n" + "\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "verify-lemmas":
        report = verify_lemmas(
            lattices=args.lattice, qs=tuple(args.q), ms=tuple(args.m),
            samples=args.samples, seed=args.seed,
        )
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
        return 0 if report["all_ok"] else 1

    if args.command == "build-lut":
        lat = make_lattice(args.lattice)
        params = HierarchicalParams(lat, args.q, 1)
        lut = build_lut(params)
        save_lut(lut, args.out)
        entries = lut.values.size
        sys.stdout.write(
            f"wrote {args.out}: {lat.name} q={args.q}, {entries} entries, {lut.nbytes} bytes\n"
        )
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
