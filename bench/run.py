"""nemlab benchmark: run one workload, check its certificates, print metrics.

    python3 bench/run.py --workload {collapse,dense-trace,sweep} --seed N \
        --seconds S --trace {0,1} [--results FILE]

Run it from the root of a checkout; nemlab is imported from ``src/`` of
that checkout.  Each repetition of the workload runs in its own fresh
Python process with the BLAS thread pools pinned to one thread and
NEMLAB_WORKERS unset.  Repetitions start until S seconds have passed.

--trace 0 reports the end-to-end metrics: median wall_s, setup_s (over
several set-ups) and peak_rss_mb.  --trace 1 runs one untraced repetition
and then traced ones, and reports the per-layer metrics of the median
traced repetition; the spans are kept under .bench_run/spans/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --results the full record (inputs,
environment, every task's gates and certificate values, every
repetition) is appended to FILE as one JSON line; compare.py reads those.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_ONLY_PROCESSES = 3
CHILD_TIMEOUT_S = 170.0     # the whole run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _child_env():
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env.pop("NEMLAB_WORKERS", None)
    return env


class Runner:
    """Starts workload processes one at a time and collects their records."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def child(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        rep_dir = self.workdir / f"p{self.count:02d}"
        out = rep_dir.with_suffix(".json")
        log = rep_dir.with_suffix(".log")
        cmd = [sys.executable, str(BENCH / "workload.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--workdir", str(rep_dir), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(log, "w") as fh:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                                    env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:   # timed out, or this process is stopping
                    proc.kill()
                    proc.wait()
        if code == 0 and out.exists():
            with open(out) as fh:
                return json.load(fh)
        with open(log) as fh:
            tail = fh.read()[-2000:]
        return {"error": f"workload process exit {code}", "log_tail": tail}


def _median(values):
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    deadline = started + CHILD_TIMEOUT_S
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    load_start = _loadavg()
    runner = Runner(workload, seed, workdir, deadline)
    setups, reps, baseline = [], [], []
    try:
        if trace:
            baseline.append(runner.child(0))
        else:
            setups = [runner.child(0, setup_only=True) for _ in range(SETUP_ONLY_PROCESSES)]
        while True:
            t0 = time.monotonic()
            reps.append(runner.child(trace))
            last = time.monotonic() - t0
            now = time.monotonic()
            if now - started >= seconds or now + 1.5 * last > deadline:
                break
        if trace:
            spans_dir = RUN_DIR / "spans"
            spans_dir.mkdir(exist_ok=True)
            for k, rep in enumerate(reps):
                if "spans_file" in rep:
                    dest = spans_dir / f"{workload}-seed{seed}-rep{k}.csv"
                    shutil.move(rep["spans_file"], dest)
                    rep["spans_file"] = str(dest.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [r for r in baseline + reps if "error" not in r]
    attempted = sum(len(r["tasks"]) for r in measured)
    failed = sum(not t["ok"] for r in measured for t in r["tasks"])
    # a workload process that died counts every task of its repetition
    broken_reps = len(baseline) + len(reps) - len(measured)
    per_rep = len(inputs.make_tasks(workload, seed))
    attempted += per_rep * broken_reps
    failed += per_rep * broken_reps
    broken_setups = sum("error" in r for r in setups)
    correct = broken_setups == 0 and failed == 0 and attempted > 0

    timed = [r for r in reps if "error" not in r]
    raw = {}
    if trace:
        untraced = _median([r["wall_s"] for r in baseline if "error" not in r])
        metrics = {}
        if timed:
            names = timed[0]["per_layer"]
            # the median traced repetition by wall time, so that every
            # per-layer value comes from one and the same repetition
            mid = sorted(timed, key=lambda r: r["wall_s"])[(len(timed) - 1) // 2]
            metrics = {name: mid["per_layer"][name] for name in names}
            if untraced is not None:
                metrics["trace.overhead_s"] = mid["wall_s"] - untraced
    else:
        metrics = {
            "wall_s": _median([r["wall_s"] for r in timed]),
            "setup_s": _median([r["setup_s"] for r in setups + timed if "error" not in r]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
        raw = {
            "wall_raw_s": _median([r["wall_raw_s"] for r in timed]),
            "setup_raw_s": _median([r["setup_raw_s"] for r in setups + timed if "error" not in r]),
            "kernel_median_s": _median([r["kernel_median_s"] for r in timed]),
        }

    env_child = next((r["environment"] for r in setups + baseline + reps
                      if "environment" in r), {})
    environment = {
        **env_child,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "pinned_threads": {name: "1" for name in PINNED_THREADS},
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "started_utc": started_utc,
        "elapsed_s": time.monotonic() - started,
        "environment": environment,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "setups": setups,
        "untraced": baseline,
        "reps": reps,
    }


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".self_s", "s"), ("_s", "s"), (".us_per_step", "us"),
                         (".ns_per_node_step", "ns"), (".ms_per_sample", "ms"),
                         (".bytes", "B"), (".share", "ratio"), (".coverage", "ratio"),
                         (".step_efficiency", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _summary(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{len(rec['reps'])} repetition(s) in {rec['elapsed_s']:.1f} s")
    for name, value in rec["metrics"].items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    for name, value in rec["raw"].items():
        if value is not None:
            print(f"  ({name} = {value:.6g} s, at the machine's speed during the run)")
    print(f"  tasks_attempted = {rec['attempted']}  tasks_failed = {rec['failed']}")
    # every failed task, and the tasks of the first repetition (at most 4)
    first = True
    for r in rec["untraced"] + rec["reps"]:
        if "error" in r:
            print(f"  repetition failed: {r['error']}\n{r['log_tail']}")
            continue
        shown = [t for t in r["tasks"] if not t["ok"]]
        if first:
            shown = r["tasks"][:4] + [t for t in shown if t not in r["tasks"][:4]]
            if len(r["tasks"]) > 4:
                print(f"  ({len(r['tasks']) - 4} more tasks per repetition; "
                      "--results records them all)")
            first = False
        for t in shown:
            gates = " ".join(f"{g}={'pass' if ok else 'FAIL'}" for g, ok in t["gates"].items())
            print(f"  [{'PASS' if t['ok'] else 'FAIL'}] {t['name']}: {gates} "
                  f"{t.get('error', '')}{json.dumps(t['certificates'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nemlab benchmark (one workload)")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="append the full JSON record to this file")
    args = ap.parse_args(argv)

    # a stop request still kills and waits for the running workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "nemlab" / "__init__.py").is_file():
        print(f"no nemlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    rec = run(args.workload, args.seed, args.seconds, args.trace)
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    _summary(rec)
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in rec["metrics"].items()}
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
