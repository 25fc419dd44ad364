"""One repetition of one workload, in a fresh process (started by run.py).

    python3 bench/workload.py --workload W --seed N --trace 0|1 \
        --workdir DIR --out FILE --t-spawn T [--setup-only]

Set-up is everything from process start (the parent's clock reading T,
taken just before it started this process) to the first call into nemlab:
interpreter start, imports of numpy, scipy and nemlab, and writing the
seeded config documents.  The moment numpy is up splits off the part of
set-up that speed.py rescales set-up by.  The wall window runs from that
first call to the last certificate checked, with the speed sampler on.
The record written to FILE holds both times, the peak RSS of this process,
and every task with its gates and certificate values.  A task fails when
a gate fails, a CLI exit code is not 0, or nemlab raises; the failure is
recorded, not raised.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

T_ENV = time.perf_counter()  # the interpreter and numpy are up

import nemlab  # noqa: E402
import scipy  # noqa: E402  (nemlab imported it; here for its version)
from nemlab import cli, config, traceio, verifier  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

ENERGY_TOL = 1e-3
_FLOAT = r"[-+0-9.eE]+|inf|nan"


def _floats(pattern: str, text: str):
    """Certificate values from a CLI report line; None when absent."""
    m = re.search(pattern, text)
    if m is None:
        return None
    return [float(tok) for tok in re.findall(_FLOAT, m.group(1))]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _energy_certs(rep) -> dict:
    return {
        "energy_margin_candidate": rep.tol - rep.max_violation_candidate,
        "energy_margin_reference": rep.tol - rep.max_violation_reference,
    }


def run_uniqueness(task: dict, cfg_path: str, workdir: str) -> tuple:
    levels = ",".join(str(n) for n in task["levels"])
    manifest = os.path.join(workdir, f"{task['name']}-manifest.json")
    code, out = _cli(["uniqueness", "-c", cfg_path, "--levels", levels,
                      "--manifest", manifest])
    certs = {
        "orders": _floats(r"orders=\[([^\]]*)\]", out),
        "sup_entropy": _floats(r"sup_entropy=\[([^\]]*)\]", out),
        "order_floor": 1.8,
    }
    return {"exit_0": code == 0}, certs


def run_gronwall(task: dict, cfg_path: str, workdir: str) -> tuple:
    trace_path = os.path.join(workdir, f"{task['name']}.csv")
    rewrite_path = os.path.join(workdir, f"{task['name']}-rewrite.csv")
    manifest = os.path.join(workdir, f"{task['name']}-manifest.json")
    code, out = _cli(["gronwall", "-c", cfg_path, "-o", trace_path,
                      "--manifest", manifest])
    trace = traceio.read_trace(trace_path)
    energy = verifier.check_energy(trace, tol=ENERGY_TOL)
    traceio.write_trace(trace, rewrite_path)
    c_h = _floats(r"minimal_c_h=(\S+)", out)
    certs = {
        "minimal_c_h": c_h[0] if c_h else None,
        "samples": len(trace),
        "sup_entropy": float(numpy.max(trace.entropy)),
        "trace_bytes": os.path.getsize(trace_path),
        **_energy_certs(energy),
    }
    gates = {
        "exit_0": code == 0,
        "energy": energy.passes,
        "rewrite_identical": filecmp.cmp(trace_path, rewrite_path, shallow=False),
    }
    return gates, certs


def run_twin(task: dict, cfg_text: str) -> tuple:
    cfg = config.parse_config(cfg_text)
    trace = verifier.run_twin(cfg)
    rep = verifier.check_gronwall(trace, cfg.gronwall)
    # recorded, not gated: GL twins at this size miss the energy
    # inequality at tol 1e-3 (criterion 7 gates Gronwall only)
    energy = verifier.check_energy(trace, tol=ENERGY_TOL)
    certs = {
        "minimal_c_h": rep.minimal_c_h,
        "sup_entropy": float(numpy.max(trace.entropy)),
        "amplitude": task["config"]["perturbation"]["amplitude"],
        "mode": task["config"]["perturbation"]["mode"],
        **_energy_certs(energy),
    }
    return {"gronwall": rep.passes}, certs


def run_task(task: dict, cfg_path: str, cfg_text: str, workdir: str) -> dict:
    rec = {"name": task["name"], "kind": task["kind"]}
    t0 = time.perf_counter()
    try:
        if task["kind"] == "uniqueness":
            gates, certs = run_uniqueness(task, cfg_path, workdir)
        elif task["kind"] == "gronwall":
            gates, certs = run_gronwall(task, cfg_path, workdir)
        else:
            gates, certs = run_twin(task, cfg_text)
    except Exception as exc:  # a failed task is counted, not fatal
        rec.update(ok=False, gates={}, certificates={},
                   error=f"{type(exc).__name__}: {exc}",
                   traceback=traceback.format_exc(), seconds=time.perf_counter() - t0)
        return rec
    rec.update(ok=all(gates.values()), gates=gates, certificates=certs,
               seconds=time.perf_counter() - t0)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", required=True, type=float)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(nemlab.__file__).resolve().parent != SRC / "nemlab":
        print(f"imported nemlab from {nemlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    tasks = inputs.make_tasks(args.workload, args.seed)
    texts, paths = [], []
    for i, task in enumerate(tasks):
        text = json.dumps(task["config"], indent=2, sort_keys=True)
        path = os.path.join(args.workdir, f"{i:02d}-{task['name']}.json")
        with open(path, "w") as fh:
            fh.write(text)
        texts.append(text)
        paths.append(path)

    t_first = time.perf_counter()
    setup_raw_s = t_first - args.t_spawn
    record = {
        "setup_s": speed.setup_reference_seconds(setup_raw_s, T_ENV - args.t_spawn),
        "setup_raw_s": setup_raw_s,
        "setup_env_raw_s": T_ENV - args.t_spawn,
    }
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        with speed.SpeedSampler() as sampler:
            with tracing.traced(tracer) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                results = [run_task(task, path, text, args.workdir)
                           for task, path, text in zip(tasks, paths, texts)]
                t1 = time.perf_counter()
        kernels = [k for _, _, k in sampler.samples]
        wall_s = sampler.reference_seconds(t0, t1)
        record.update(
            wall_s=wall_s,
            wall_raw_s=t1 - t0 - sampler.handler_seconds(t0, t1),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            kernel_samples=len(kernels),
            kernel_median_s=statistics.median(kernels),
            kernel_min_s=min(kernels),
            kernel_max_s=max(kernels),
            tasks=results,
        )
        if tracer is not None:
            # spans in reference seconds, like wall_s; the sampler's own
            # time drops out of every span it interrupted
            record["per_layer"] = tracing.per_layer_metrics(
                tracer, wall_s, sampler.reference_seconds)
            spans_path = os.path.join(args.workdir, "spans.csv")
            tracer.write_spans(spans_path)
            record["spans_file"] = spans_path
            record["span_count"] = len(tracer.spans)
    record["environment"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nemlab": nemlab.__version__,
        "NEMLAB_WORKERS_unset": "NEMLAB_WORKERS" not in os.environ,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
