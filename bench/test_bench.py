"""Self-test of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q

Checks the computed step rule against a count of IMEX steps, that tracing
puts back every function it replaced, the self-time and speed-normalisation
arithmetic, the ten-pair rule and the pairs compare.py leaves out, the
seeded inputs, that the metrics run.py
prints are the ones BENCHMARK.json declares, with the same units, and that
run.py refuses to run without the nemlab sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import nemlab  # noqa: E402
from nemlab import cli, config, dynamics, traceio, verifier  # noqa: E402
from nemlab.constitutive import Params, System  # noqa: E402
from nemlab.grid import Grid1D  # noqa: E402

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def _twin_config(n=17, dt=1e-3, t_end=0.013, interval=0.004, n_ref=None):
    return verifier.ExperimentConfig(
        params=Params(system=System.GL),
        grid_reference=Grid1D(n_ref or n, 0.0, 1.0),
        grid_candidate=Grid1D(n, 0.0, 1.0),
        dt_reference=dt,
        dt_candidate=dt,
        t_end=t_end,
        initial_preset="gl-smooth",
        perturbation=verifier.Perturbation(amplitude=1e-3, mode=2),
        sample_interval=interval,
    )


# (t_end, dt, sample_interval): windows that dt does not divide, a last
# window clipped at t_end, sampling after every step, and the collapse
# level spacing 0.4*dx^2 against a 0.005 cadence
TRIPLES = [
    (0.013, 1e-3, 0.004),
    (0.01, 3e-4, 0.0035),
    (0.005, 7e-4, None),
    (0.02, 0.4 * (1.0 / 32) ** 2, 0.005),
    (0.0123, 1.1e-3, 0.0123),
]


@pytest.mark.parametrize("t_end, dt, interval", TRIPLES)
def test_step_rule_counts_advance_calls(monkeypatch, t_end, dt, interval):
    advanced = []
    original = dynamics._advance

    def counting(*args, **kwargs):
        advanced.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_advance", counting)
    params = Params(system=System.GL)
    grid = Grid1D(17, 0.0, 1.0)
    init = verifier.make_initial_data("gl-smooth", grid, params)
    bc = dynamics.BoundarySpec.for_system(System.GL, init.d0)
    samples = []
    dynamics.evolve(init, t_end, dt, params, grid, bc,
                    observer=lambda st, t: samples.append(t), sample_interval=interval)
    steps, windows = tracing.evolve_windows(t_end, dt, interval)
    assert steps == len(advanced)
    assert windows + 1 == len(samples)
    assert max(advanced) <= dt * (1.0 + 1e-12)


def _nemlab_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "nemlab" or name.startswith("nemlab."))
            for attr, value in list(vars(mod).items())}


def test_wrappers_restore_what_they_replaced():
    before = _nemlab_bindings()
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as patches:
        spanned = {p[2].__module__.split(".")[-1] + "." + p[2].__name__ for p in patches}
        assert spanned == set(tracing.SPANNED)
        for mod, attr, original in patches:
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped_original__ is original
        # the names other modules imported are wrapped too
        assert nemlab.verifier.evolve is not before[("nemlab.verifier", "evolve")]
        assert cli.write_trace is not before[("nemlab.cli", "write_trace")]
    assert _nemlab_bindings() == before


def test_wrappers_restored_after_an_exception():
    before = _nemlab_bindings()
    with pytest.raises(verifier.VerifierError):
        with tracing.traced(tracing.Tracer()):
            verifier.make_initial_data("no-such-preset", Grid1D(9), Params())
    assert _nemlab_bindings() == before


def test_self_time_subtracts_direct_children():
    # the clock is read at entry and exit of each wrapper, in call order:
    # cli.main [0, 10] holds run_twin [1, 7], which holds energy [2, 3]
    # and energy [4, 6]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("functionals.energy", lambda: None)
    mid = tracer.wrap("verifier.run_twin", lambda: (inner(), inner()))
    outer = tracer.wrap("cli.main", mid)
    outer()
    times = tracer.layer_times()
    assert times["functionals.energy"]["calls"] == 2
    assert times["functionals.energy"]["self_s"] == 1.0 + 2.0
    assert times["verifier.run_twin"]["total_s"] == 6.0
    assert times["verifier.run_twin"]["self_s"] == 6.0 - 3.0
    assert times["cli.main"]["self_s"] == 10.0 - 6.0
    assert tracer.covered_s() == 10.0


def test_traced_twin_counts_steps_samples_and_rows(tmp_path):
    cfg = _twin_config(n_ref=33)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        trace = verifier.run_twin(cfg)
        traceio.write_trace(trace, str(tmp_path / "t.csv"))
        traceio.read_trace(str(tmp_path / "t.csv"))
    wall = sum(e - s for _, s, e, p in tracer.spans if p < 0)
    m = tracing.per_layer_metrics(tracer, wall)
    steps, windows = tracing.evolve_windows(cfg.t_end, 1e-3, 0.004)
    assert m["dynamics.evolve.calls"] == 2
    assert m["dynamics.steps"] == 2 * steps
    assert m["dynamics.node_steps"] == steps * (17 + 33)
    assert m["verifier.samples"] == len(trace) == windows + 1
    assert m["functionals.remainder.calls"] == len(trace)
    assert m["traceio.rows"] == 2 * len(trace)
    assert m["traceio.bytes"] == 2 * (tmp_path / "t.csv").stat().st_size
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_inputs_are_a_function_of_the_seed():
    for wl in inputs.WORKLOADS:
        assert inputs.make_tasks(wl, 7) == inputs.make_tasks(wl, 7)
    for wl in ("dense-trace", "sweep"):
        assert inputs.make_tasks(wl, 7) != inputs.make_tasks(wl, 8)
    assert len(inputs.make_tasks("sweep", 1)) == 32
    for wl in inputs.WORKLOADS:
        for task in inputs.make_tasks(wl, 3):
            config.parse_config(json.dumps(task["config"]))


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "bench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run._unit(name) for name in run.END_TO_END_UNITS}
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        verifier.run_twin(_twin_config())
    per_layer = set(tracing.per_layer_metrics(tracer, 1.0)) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._unit(name) for name in per_layer}


def test_speed_normalisation_rescales_each_stretch():
    sampler = speed.SpeedSampler()
    k = speed.KERNEL_REF_S
    # kernel samples (start, end, kernel_s); the window [1, 4] holds the
    # stretches [1, 2] and [3, 4], each between samples reading k and 2k
    sampler.samples = [(0.0, 1.0, k), (2.0, 3.0, 2.0 * k), (4.0, 5.0, k)]
    assert sampler.reference_seconds(1.0, 4.0) == pytest.approx(2.0 / 1.5)
    assert sampler.handler_seconds(0.5, 4.5) == pytest.approx(2.0)
    assert speed.setup_reference_seconds(0.6, 0.2) == pytest.approx(3.0 * speed.ENV_REF_S)


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(period_s=0.01) as sampler:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_ten_pair_rule():
    parent = [10.0 + 0.1 * i for i in range(10)]

    def judge(change):
        return compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.15)

    assert judge([p - 1.0 for p in parent]) == ("gain", 10)
    assert judge([p * 1.2 for p in parent])[0] == "regression"
    assert judge([5.0, 15.0] * 5)[0] == "unresolved"
    assert judge(list(parent)) == ("no change", 0)


def _record(seed, wall_s, kernel_s):
    return {"workload": "sweep", "seed": seed, "trace": 0, "attempted": 32, "failed": 0,
            "metrics": {"wall_s": wall_s},
            "raw": {"wall_raw_s": wall_s * kernel_s / speed.KERNEL_REF_S,
                    "kernel_median_s": kernel_s}}


def test_compare_leaves_out_pairs_at_different_speeds(capsys):
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.15}]}
    k = speed.KERNEL_REF_S
    parent = [_record(s, 10.0 + 0.01 * s, k) for s in range(12)]
    change = [_record(s, 9.0 + 0.01 * s, k) for s in range(10)]
    change += [_record(s, 20.0, 2.0 * k) for s in (10, 11)]  # loaded, left out
    assert compare.compare(parent, change, spec) == 0
    out = capsys.readouterr().out
    assert out.count("left out") == 2
    assert "10 pairs kept" in out
    lines = {line.split()[0]: line for line in out.splitlines() if "/10" in line}
    assert lines["wall_s"].endswith("gain (bound 0.15)")
    assert "gain (raw; no gate)" in lines["wall_raw_s"]
