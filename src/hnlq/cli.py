"""Command-line benchmark driver.

Subcommands: dr-vector (vector quantization sweep), dr-ip (inner-product
sweep), calibrate (the base scale a sweep's --beta0 auto picks),
verify-lemmas (codec identity report as JSON) and build-lut (write a lookup
table to disk).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import (
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


def _beta0(text: str):
    return text if text == "auto" else float(text)


def _cell_flags(p: argparse.ArgumentParser, *, qs, ms, schemes):
    """Flags naming the parameter cells and the ladder, shared by the sweeps and calibrate."""
    p.add_argument("--lattice", default="d4",
                   help="lattice tag: z<d>, d<n> or a2 (default d4)")
    p.add_argument("--q", dest="qs", type=int, nargs="+", default=qs,
                   help=f"base(s) q (default {' '.join(map(str, qs))})")
    p.add_argument("--m", dest="ms", type=int, nargs="+", default=ms,
                   help=f"depth(s) M (default {' '.join(map(str, ms))})")
    p.add_argument("--scheme", dest="schemes", nargs="+", choices=SCHEMES, default=schemes,
                   help=f"schemes to run (default {' '.join(schemes)})")
    p.add_argument("--alpha", type=float, default=1.0 / 3.0,
                   help="scale growth exponent (default 1/3)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _sweep_flags(p: argparse.ArgumentParser, *, samples: int, **cells):
    _cell_flags(p, **cells)
    p.add_argument("--samples", type=int, default=samples,
                   help=f"sample count (default {samples})")
    p.add_argument("--beta0", type=_beta0, default="auto",
                   help="base scale, a number or 'auto' (default auto)")


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
    _sweep_flags(p, samples=1000, qs=[3, 4, 5, 6], ms=[2], schemes=list(SCHEMES))

    p = sub.add_parser("dr-ip", help="approximate inner-product distortion-rate sweep")
    _sweep_flags(p, samples=500, qs=[4], ms=[1, 2, 3], schemes=["hierarchical"])
    p.add_argument("--n", type=int, default=512, help="vector length (default 512)")
    p.add_argument("--dither", choices=["none", "fixed", "random"], default="fixed",
                   help="dither mode (default fixed)")
    p.add_argument("--dither-seed", type=int, default=0)
    p.add_argument("--rotate", action="store_true",
                   help="apply a shared random rotation before chunking")

    p = sub.add_parser("calibrate", help="the base scale beta0 that a sweep's --beta0 auto picks")
    _cell_flags(p, qs=[4], ms=[2], schemes=["hierarchical"])

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


def _experiment_config(args) -> ExperimentConfig:
    """The sweep's config from every ExperimentConfig field the subcommand has a flag for."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items() if k in names}
    return ExperimentConfig(**kw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "dr-vector":
        _emit(points_to_csv(run_dr_vector(_experiment_config(args))), args.out)
        return 0

    if args.command == "dr-ip":
        _emit(points_to_csv(run_dr_ip(_experiment_config(args))), args.out)
        return 0

    if args.command == "calibrate":
        # The call a sweep's --beta0 auto makes for each cell (bench._dr_point).
        lat = make_lattice(args.lattice)
        lines = []
        for scheme in args.schemes:
            for q in args.qs:
                for M in args.ms:
                    b0 = calibrate_beta0(scheme, HierarchicalParams(lat, q, M),
                                         alpha=args.alpha, seed=args.seed)
                    lines.append(f"{scheme},{lat.name},{q},{M},{b0!r}")
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
