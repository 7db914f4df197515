"""Alternated benchmark pairs of two checkouts, written as BENCH_<name>.json.

    python3 tools/bench_pairs.py BASE CHANGE --name pr30 --workloads store-a2 \
        --seeds 1101 1102 1103 --seconds 30

BASE and CHANGE are the roots of two checkouts of this repository, such as
a ``git clone`` of the parent commit and one of the change.  For every
workload and seed, each side runs ``perfbench/run.py --trace 0`` once in its
own checkout: one pair.  The side that runs first alternates from pair to
pair, so drift over the session falls on both sides alike.  Each run's last
line of output is the benchmark's result object, and its ``# machine`` line
the machine block.

The output file holds, per workload and end-to-end metric, each side's
median and quartiles over the pairs and the number of pairs the change won
(strictly better, in the direction BENCHMARK.json gives); every pair's raw
values; the seeds and run length; the machine block; both commits; and each
side's line counts of ``src/hnlq/*.py``, as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def commit_of(root: Path) -> str:
    """HEAD of the checkout, with "-dirty" when its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def src_lines(root: Path) -> dict:
    """``wc -l src/hnlq/*.py``: newlines per file and in total."""
    files = {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src/hnlq").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result object, machine block) of one untraced run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root.name} {workload} seed {seed}: no output, exit "
                         f"{proc.returncode}\n{proc.stderr}")
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), {})
    return json.loads(lines[-1]), machine


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--name", required=True, help="output is BENCH_<name>.json")
    ap.add_argument("--workloads", nargs="+", default=["amm-d4", "store-a2", "dr-ip-d4"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1101, 1111)),
                    help="one pair per seed and workload")
    ap.add_argument("--seconds", type=float, default=30.0, help="run length of every run")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    roots = dict(zip(SIDES, (args.base.resolve(), args.change.resolve())))
    better = {m["name"]: m["better"] for m in
              json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {
        "name": args.name, "seeds": args.seeds, "seconds": args.seconds,
        "order": "base runs first in even-numbered pairs (counting from 0), change in odd",
        "sides": {s: {"dir": r.name, "commit": commit_of(r), "src_lines": src_lines(r)}
                  for s, r in roots.items()},
        "machine": {}, "workloads": {},
    }
    k = 0
    for w in args.workloads:
        pairs = []
        for seed in args.seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, report["machine"] = run_once(roots[side], w, seed, args.seconds)
                pair[side] = {"correct": result["correct"], "failed": result["failed"],
                              "attempted": result["attempted"],
                              "metrics": {m: v["value"] for m, v in result["metrics"].items()}}
            pairs.append(pair)
            print(f"{w} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m} {pair['base']['metrics'][m]:.4g} -> {pair['change']['metrics'][m]:.4g}"
                for m in pair["change"]["metrics"]), flush=True)
            k += 1
        metrics = {}
        for m in pairs[0]["change"]["metrics"]:
            vals = {s: [p[s]["metrics"][m] for p in pairs] for s in SIDES}
            sign = -1 if better.get(m, "lower") == "lower" else 1
            metrics[m] = {
                "better": better.get(m, "lower"),
                **{s: summary(vals[s]) for s in SIDES},
                "change_wins": sum(sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"])),
                "pairs": len(pairs),
            }
        report["workloads"][w] = {"metrics": metrics, "pairs": pairs}
    out = args.out_dir / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
