"""Run the benchmark over many seeds, for one checkout or several.

    python3 bench/collect.py --seeds 101-110 --out-dir results \
        [--side parent:../parent-checkout --side change:.] [--traced]

Each side is a checkout with this benchmark in it; its runs are appended
to ``<out-dir>/<name>.jsonl``.  For every seed and workload the sides run
one after the other, and the order alternates from seed to seed, so that
drift in the machine's speed does not favour one side.  --traced adds one
traced run per workload and side, on the first seed.  Feed two of the
files to compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root: Path, out: Path, workload: str, seed: int, seconds: int, trace: int) -> str:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--results", str(out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run the benchmark over many seeds")
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    ap.add_argument("--side", action="append", default=[],
                    help="NAME:CHECKOUT (repeatable; default this:.)")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    sides = []
    for spec in args.side or [f"this:{ROOT}"]:
        name, _, path = spec.partition(":")
        sides.append((name, Path(path).resolve()))
    out_dir = Path(args.out_dir).resolve()
    os.makedirs(out_dir, exist_ok=True)
    workloads = inputs.WORKLOADS

    seeds = parse_seeds(args.seeds)
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for name, root in order:
                line = run_one(root, out_dir / f"{name}.jsonl", workload, seed, seconds, 0)
                print(f"{name} {workload} seed {seed}: {line}", flush=True)
    if args.traced:
        for workload in workloads:
            for name, root in sides:
                line = run_one(root, out_dir / f"{name}.jsonl", workload, seeds[0], seconds, 1)
                print(f"{name} {workload} seed {seeds[0]} traced: {line[:200]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
