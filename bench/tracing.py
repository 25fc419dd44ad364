"""Span tracing of nemlab's module boundaries from outside the package.

The traced run wraps public functions of the package modules by replacing
the name in every nemlab module that holds it: the defining module (so
intra-module callers such as ``run_twin -> make_initial_data`` are seen)
and each module that imported it by name (``nemlab.verifier.evolve``,
``nemlab.cli.write_trace``, ...).  The originals are put back when the
``traced`` block exits, whatever happens inside it.

Spans (name, start, end, parent) are kept in memory; a span's self time is
its duration minus the time its direct child spans cover.  ``grid`` and
``constitutive`` are leaf kernels called many times per step; their cost
stays inside the spans of their callers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import math
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Span names are "<module>.<function>" within the nemlab package.
SPANNED = (
    "cli.main",
    "config.parse_config",
    "verifier.make_initial_data",
    "verifier.run_twin",
    "verifier.restrict_state",
    "verifier.check_uniqueness",
    "verifier.check_gronwall",
    "verifier.check_energy",
    "dynamics.evolve",
    "functionals.energy",
    "functionals.dissipation",
    "functionals.mass",
    "functionals.relative_entropy",
    "functionals.remainder",
    "traceio.write_trace",
    "traceio.read_trace",
)
LAYERS = ("cli", "config", "verifier", "dynamics", "functionals", "traceio")


def evolve_windows(t_end: float, dt: float, sample_interval: Optional[float]) -> Tuple[int, int]:
    """(steps, windows) that ``dynamics.evolve`` takes, computed.

    This restates the window rule of evolve's docstring: the run is cut
    into sample windows of length sample_interval (dt when None), the last
    one clipped at t_end, and each window takes the fewest steps of size at
    most dt that divide it evenly.
    """
    if t_end == 0.0:
        return 0, 0
    interval = sample_interval if sample_interval is not None else dt
    t, k, steps = 0.0, 0, 0
    while t < t_end - 1e-12 * max(t_end, 1.0):
        k += 1
        t_next = min(k * interval, t_end)
        steps += max(1, int(math.ceil((t_next - t) / dt - 1e-12)))
        t = t_next
    return steps, k


Duration = Callable[[float, float], float]


def _elapsed(start: float, end: float) -> float:
    return end - start


class Tracer:
    """Records spans and per-call counters; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []        # [name, start, end, parent index]
        self._open: List[int] = []
        self.evolve_calls: List[Tuple[float, float, Optional[float], int]] = []
        self.trace_rows = 0
        self.trace_bytes = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        sig = inspect.signature(fn) if after else None
        spans, opened, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, opened[-1] if opened else -1])
            opened.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def layer_times(self, duration: Duration = _elapsed) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        length = [duration(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += length[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPANNED
        }
        for i, (name, _, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += length[i]
            rec["self_s"] += length[i] - child[i]
        return out

    def covered_s(self, duration: Duration = _elapsed) -> float:
        """Time covered by top-level spans (spans never overlap here)."""
        return sum(duration(start, end) for _, start, end, parent in self.spans if parent < 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start", "end", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow((i, name, repr(start), repr(end), parent))


def _after_evolve(tracer: Tracer, a: dict, result) -> None:
    tracer.evolve_calls.append(
        (a["t_end"], a["dt"], a["sample_interval"], a["grid"].n_nodes)
    )


def _after_write_trace(tracer: Tracer, a: dict, result) -> None:
    tracer.trace_rows += len(a["trace"])
    tracer.trace_bytes += os.path.getsize(a["path"])


def _after_read_trace(tracer: Tracer, a: dict, result) -> None:
    tracer.trace_rows += len(result)
    tracer.trace_bytes += os.path.getsize(a["path"])


_AFTER = {
    "dynamics.evolve": _after_evolve,
    "traceio.write_trace": _after_write_trace,
    "traceio.read_trace": _after_read_trace,
}


def _nemlab_modules() -> List:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nemlab" or name.startswith("nemlab."))]


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every SPANNED function; returns the patches for ``restore``."""
    homes = {layer: importlib.import_module(f"nemlab.{layer}") for layer in LAYERS}
    modules = _nemlab_modules()
    patches: List[Tuple[object, str, object]] = []
    for span in SPANNED:
        modname, fname = span.split(".")
        original = getattr(homes[modname], fname)
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return patches


def restore(patches: List[Tuple[object, str, object]]) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[List[Tuple[object, str, object]]]:
    """Install the wrappers for the duration of the block."""
    patches = install(tracer)
    try:
        yield patches
    finally:
        restore(patches)


def per_layer_metrics(tracer: Tracer, wall_s: float,
                      duration: Duration = _elapsed) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (see README.md).

    ``duration(start, end)`` measures each span in the same unit as wall_s.
    """
    lt = tracer.layer_times(duration)

    def self_s(name: str) -> float:
        return lt[name]["self_s"]

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in lt.items() if k.split(".")[0] == layer)

    steps = node_steps = 0
    requested = 0.0
    for t_end, dt, interval, n_nodes in tracer.evolve_calls:
        s, _ = evolve_windows(t_end, dt, interval)
        steps += s
        node_steps += s * n_nodes
        requested += t_end / dt
    evolve_self = self_s("dynamics.evolve")
    samples = lt["verifier.restrict_state"]["calls"]
    functionals_self = layer_self("functionals")
    covered = tracer.covered_s(duration)

    return {
        "dynamics.evolve.calls": lt["dynamics.evolve"]["calls"],
        "dynamics.evolve.self_s": evolve_self,
        "dynamics.steps": steps,
        "dynamics.node_steps": node_steps,
        "dynamics.us_per_step": 1e6 * evolve_self / steps if steps else 0.0,
        "dynamics.ns_per_node_step": 1e9 * evolve_self / node_steps if node_steps else 0.0,
        "dynamics.step_efficiency": requested / steps if steps else 0.0,
        "dynamics.share": layer_self("dynamics") / wall_s,
        "functionals.remainder.calls": lt["functionals.remainder"]["calls"],
        "functionals.remainder.self_s": self_s("functionals.remainder"),
        "functionals.relative_entropy.self_s": self_s("functionals.relative_entropy"),
        "functionals.energy.self_s": self_s("functionals.energy"),
        "functionals.dissipation.self_s": self_s("functionals.dissipation"),
        "functionals.mass.self_s": self_s("functionals.mass"),
        "functionals.ms_per_sample": 1e3 * functionals_self / samples if samples else 0.0,
        "functionals.share": functionals_self / wall_s,
        "verifier.samples": samples,
        "verifier.restrict_state.calls": lt["verifier.restrict_state"]["calls"],
        "verifier.restrict_state.self_s": self_s("verifier.restrict_state"),
        "verifier.restrict_state.share": self_s("verifier.restrict_state") / wall_s,
        "verifier.make_initial_data.self_s": self_s("verifier.make_initial_data"),
        "verifier.run_twin.self_s": self_s("verifier.run_twin"),
        "verifier.check_uniqueness.self_s": self_s("verifier.check_uniqueness"),
        "verifier.check_gronwall.self_s": self_s("verifier.check_gronwall"),
        "verifier.check_energy.self_s": self_s("verifier.check_energy"),
        "traceio.write_trace.self_s": self_s("traceio.write_trace"),
        "traceio.read_trace.self_s": self_s("traceio.read_trace"),
        "traceio.rows": tracer.trace_rows,
        "traceio.bytes": tracer.trace_bytes,
        "config.parse_config.self_s": self_s("config.parse_config"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - covered,
        "trace.coverage": covered / wall_s,
    }
