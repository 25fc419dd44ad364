"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold records that ``run.py --results`` appended (collect.py
writes them for many seeds).  For each workload and each end-to-end metric
of BENCHMARK.json it prints both sides' median and quartiles, the pairs the
change won, and a verdict by the ten-pair rule:

gain         at least 10 pairs, the change wins at least 9/10 of them
             (ties count for neither side), and the medians differ by more
             than the parent's interquartile range;
regression   the change's median is worse than the parent's by more than
             the metric's bound;
unresolved   either side's interquartile range, as a share of its median,
             is wider than the bound, unless every change run beats every
             parent run;
no change    none of the above.

Runs pair up by workload and seed, so both sides should be run on the same
seeds; a claim should also hold on seeds not used while writing the change.
Times are in reference seconds (see speed.py), which only stand in for a
steady machine when both runs of a pair saw about the same speed: each
pair's ratio of calibration-kernel medians is listed, and a pair whose
kernel medians differ by more than KERNEL_LIMIT times is left out of every
verdict, on both sides.  Beside each rescaled time, the raw time of the
same runs gets a verdict of its own, with the same bound.
Failed tasks are compared too: a gain does not count when the change fails
more tasks than the parent.  Per-layer medians of traced runs are listed
side by side, without verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_LIMIT = 1.25
RAW = {"wall_s": "wall_raw_s", "setup_s": "setup_raw_s"}  # rescaled -> raw


def load(path: str):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better: str, bound: float):
    """(verdict, pairs won) by the ten-pair rule.

    ``pairs`` holds (parent value, change value) of runs on the same seed.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound and not all_better:
        return "unresolved", wins
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "gain", wins
    if sign * (cm - pm) > bound * abs(pm):
        return "regression", wins
    return "no change", wins


def _value(rec, name):
    return rec["raw"].get(name) if name in RAW.values() else rec["metrics"].get(name)


def compare(parent_recs, change_recs, spec) -> int:
    bad = 0
    workloads = sorted({r["workload"] for r in parent_recs + change_recs})
    for wl in workloads:
        side = {}
        for name, recs in (("parent", parent_recs), ("change", change_recs)):
            side[name] = {r["seed"]: r for r in recs if r["workload"] == wl and not r["trace"]}
        paired = sorted(set(side["parent"]) & set(side["change"]))
        print(f"== {wl}: {len(side['parent'])} parent runs, {len(side['change'])} change runs, "
              f"{len(paired)} pairs")
        print("   seed  kernel median parent -> change (ratio)")
        seeds = []
        for s in paired:
            kp = side["parent"][s]["raw"]["kernel_median_s"]
            kc = side["change"][s]["raw"]["kernel_median_s"]
            ratio = kc / kp
            kept = 1 / KERNEL_LIMIT <= ratio <= KERNEL_LIMIT
            seeds += [s] * kept
            print(f"   {s:>4}  {kp:.3e} -> {kc:.3e} ({ratio:.2f})"
                  f"{'' if kept else f'  left out: speeds differ by more than {KERNEL_LIMIT}x'}")
        runs = {k: [v[s] for s in seeds] for k, v in side.items()}
        failed = {k: sum(r["failed"] for r in v) for k, v in runs.items()}
        attempted = {k: sum(r["attempted"] for r in v) for k, v in runs.items()}
        print(f"   {len(seeds)} pairs kept; tasks failed: parent {failed['parent']}/"
              f"{attempted['parent']}, change {failed['change']}/{attempted['change']}")
        more_failures = failed["change"] > failed["parent"]
        bad += more_failures
        print(f"   {'metric':<12} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
              f"{'wins':>7}  verdict")
        for m in spec["end_to_end"]:
            for name in (m["name"], RAW.get(m["name"])):
                if name is None:
                    continue
                pairs = [(_value(p, name), _value(c, name))
                         for p, c in zip(runs["parent"], runs["change"])
                         if _value(p, name) is not None and _value(c, name) is not None]
                if not pairs:
                    print(f"   {name:<12} no pairs")
                    continue
                pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
                v, wins = verdict(pv, cv, pairs, m["better"], m["bound"])
                if v == "gain" and more_failures:
                    v = "gain void: more failed tasks"
                if name == m["name"]:
                    bad += v == "regression"
                else:
                    v += " (raw; no gate)"
                fmt = "{:.4g}/{:.4g}/{:.4g}"
                print(f"   {name:<12} {fmt.format(*quartiles(pv)):>30} "
                      f"{fmt.format(*quartiles(cv)):>30} "
                      f"{wins:>3}/{len(pairs):<3}  {v} (bound {m['bound']:g})")
        traced = {k: [r for r in recs if r["workload"] == wl and r["trace"]]
                  for k, recs in (("parent", parent_recs), ("change", change_recs))}
        if traced["parent"] and traced["change"]:
            print("   per-layer medians (traced runs), parent -> change:")
            for name in traced["parent"][0]["metrics"]:
                pv = [r["metrics"][name] for r in traced["parent"] if name in r["metrics"]]
                cv = [r["metrics"][name] for r in traced["change"] if name in r["metrics"]]
                if pv and cv:
                    print(f"     {name:<38} {statistics.median(pv):>12.5g} -> "
                          f"{statistics.median(cv):<12.5g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of benchmark results")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
