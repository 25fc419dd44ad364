"""Command-line surface.

Subcommands:
    simulate    evolve the candidate trajectory alone and write its trace
    twin        run a twin experiment and write the full entropy trace
    gronwall    twin + Gronwall certification (exit 1 on failure)
    uniqueness  zero-perturbation entropy-collapse study over refinements
    energy      twin + per-sample-pair energy-inequality audit
    suite       a named battery of checks (gl-smoke, sphere-smoke, full)

gronwall, uniqueness and energy run the suite's own (config, trace path or
levels) -> (ok, detail) checks and report `[PASS|FAIL] <command>: <detail>`.

Exit codes are the process-level contract: 0 all requested checks passed,
1 a check failed, 2 configuration/usage error (including an experiment the
verifier rejects), 3 solver or numerical abort (including a functional or
constitutive law rejecting its input).  An error prints one line naming
its cause on stderr, never a traceback.  Every
command writes a machine-readable JSON manifest next to its outputs; the
human-readable report goes to stdout.

A suite runs its experiments one after another in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import ConfigError, canonical_text, parse_config
from .constitutive import ConstitutiveError, Params, System
from .dynamics import BoundarySpec, SolverError, evolve
from .functionals import EnergyWindow, FunctionalError, mass, sphere_defect
from .grid import Grid1D, GridError
from .traceio import write_columns, write_trace
from .verifier import (
    ExperimentConfig,
    Perturbation,
    VerifierError,
    check_energy,
    check_gronwall,
    check_uniqueness,
    make_initial_data,
    run_twin,
)

# The interpreter's builtin SHA-256, as random.py takes its sha512:
# importing hashlib loads OpenSSL's libcrypto, about 3.5 MB resident in
# every process, for the one digest a manifest takes
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

try:
    import resource
except ImportError:  # not on Windows
    resource = None

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_ABORT = 3

# error type -> (exit code, stderr prefix); a suite task records every
# error but ConfigError (an unwritable output, which stops the battery with
# exit 2) as its failed check's detail, with the same prefix
_ERRORS = {
    ConfigError: (EXIT_CONFIG_ERROR, "config error"),
    VerifierError: (EXIT_CONFIG_ERROR, "invalid experiment"),
    SolverError: (EXIT_SOLVER_ABORT, "solver abort"),
    FunctionalError: (EXIT_SOLVER_ABORT, "numerical abort"),
    ConstitutiveError: (EXIT_SOLVER_ABORT, "numerical abort"),
}
_TASK_ERRORS = tuple(kind for kind in _ERRORS if kind is not ConfigError)


def _error_line(exc: Exception) -> Tuple[int, str]:
    """Exit code and `prefix: message` line of an error listed in _ERRORS."""
    code, prefix = next(v for kind, v in _ERRORS.items() if isinstance(exc, kind))
    return code, f"{prefix}: {exc}"


def _gamma_regime(gamma: float) -> str:
    if gamma > 1.5:
        return "gamma > 3/2 (weak-existence range)"
    return "1 < gamma <= 3/2 (uniqueness-only range)"


def _digest(text: str) -> str:
    return sha256(canonical_text(text).encode()).hexdigest()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@contextlib.contextmanager
def _file_access(what: str):
    """Report an OSError, or a config that is not UTF-8, raised in the block
    as `config error: cannot <what>: <reason>`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {what}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot {what}: {exc}") from None


def _load_config(path: str) -> Tuple[ExperimentConfig, str]:
    # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
    with _file_access(f"read config {path}"), open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text), text


# ---------------------------------------------------------------------------
# Subcommands: simulate and twin print their own report line; gronwall,
# uniqueness and energy run the suite's checks; _run_config does the rest
# ---------------------------------------------------------------------------


def _finish(command: str, digest_text: str, gamma: float, t0: float,
            checks: Dict[str, bool], outputs: List[str], manifest_path: str,
            traces: Sequence[str] = ()) -> int:
    """Write the manifest, the machine-readable record of one command
    invocation; print the trace and manifest paths; return the exit code.
    Its peak_rss_mb is the process's resident high-water mark so far in
    MiB, so in a suite, or after other commands in the same process, it
    also covers what ran before; it is left out where the resource module
    does not exist."""
    passes = all(checks.values())
    manifest = dict(command=command, config_sha256=_digest(digest_text), version=__version__,
                    gamma_regime=_gamma_regime(gamma), duration_seconds=time.monotonic() - t0,
                    checks=checks, outputs=outputs, passes=passes)
    if resource is not None:  # ru_maxrss is in KiB on Linux, in bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifest["peak_rss_mb"] = peak / (2 ** 20 if sys.platform == "darwin" else 1024)
    with _file_access(f"write {manifest_path}"), open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for path in traces:
        print(f"trace: {path}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK if passes else EXIT_CHECK_FAILED


def _probe_writable(path: str) -> None:
    """Fail before the run, not after it, on an output path that cannot be
    written: open it for append and remove it again if the probe made it."""
    existed = os.path.exists(path)
    with _file_access(f"write {path}"), open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _run_config(args) -> int:
    """Load the config, probe the output paths, run the command on the trace
    path (uniqueness: the levels), report a check's result and write the manifest."""
    cfg, text = _load_config(args.config)
    trace = getattr(args, "output", None)  # uniqueness writes no trace
    for path in (trace, args.manifest):
        if path is not None:
            _probe_writable(path)
    t0 = time.monotonic()
    arg = trace if trace is not None else _parse_levels(args.levels, cfg.grid_candidate)
    result = _CONFIG_COMMANDS[args.command](cfg, arg)
    checks: Dict[str, bool] = {}
    if result is not None:
        checks[args.command] = result[0]
        _report(args.command, *result)
    outputs = [] if trace is None else [trace]
    return _finish(args.command, text, cfg.params.gamma, t0, checks, outputs, args.manifest,
                   traces=outputs)


def _simulate(cfg: ExperimentConfig, path: str) -> None:
    params = cfg.params
    grid = cfg.grid_candidate
    init = make_initial_data(cfg.initial_preset, grid, params, cfg.perturbation)
    bc = BoundarySpec.for_system(params.system, init.d0)
    window = EnergyWindow(grid, params, "candidate")
    times: List[float] = []
    masses: List[float] = []
    defects: List[float] = []

    def record(st, t):
        window.add(st, t)
        times.append(t)
        masses.append(mass(st))
        if params.system is System.SPHERE:
            defects.append(sphere_defect(st))

    try:
        evolve(
            init, cfg.t_end, cfg.dt_candidate, params, grid, bc,
            observer=record,
            sample_interval=cfg.resolved_sample_interval(),
            density_floor=cfg.density_floor,
        )
    finally:
        window.flush()  # the last partial window, also on an error (see run_twin)
    cols = dict(t=times, energy_candidate=window.energy, dissipation_candidate=window.dissipation,
                mass_candidate=masses)
    if defects:
        cols["sphere_defect"] = defects
    with _file_access(f"write {path}"):
        write_columns(cols, path)

    masses = np.asarray(cols["mass_candidate"])
    drift = float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
    energies = np.asarray(cols["energy_candidate"])
    print(
        f"simulate: {len(cols['t'])} samples to t={cfg.t_end}; "
        f"E {energies[0]:.6g} -> {energies[-1]:.6g}; mass drift {drift:.2e}"
    )


def _written_twin(cfg: ExperimentConfig, path: str):
    trace = run_twin(cfg)
    with _file_access(f"write {path}"):
        write_trace(trace, path)
    return trace


def _twin(cfg: ExperimentConfig, path: str) -> None:
    trace = _written_twin(cfg, path)
    sup_e = float(np.max(trace.entropy))
    print(
        f"twin: {len(trace)} samples to t={cfg.t_end}; "
        f"entropy {trace.entropy[0]:.6e} -> sup {sup_e:.6e}"
    )


def _parse_levels(levels_arg: str, base: Grid1D) -> List[int]:
    if levels_arg:
        try:
            levels = [int(tok) for tok in levels_arg.split(",")]
        except ValueError:
            raise ConfigError(
                f"--levels must be comma-separated integers: {levels_arg!r}"
            )
    else:
        levels = [k * (base.n_nodes - 1) + 1 for k in (1, 2, 4)]
    try:
        for n in levels:
            Grid1D(n, base.x_min, base.x_max)  # every level's grid must be valid
    except GridError as exc:
        raise ConfigError(f"--levels: {exc}") from None
    return levels


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def _suite_config(system: System, n: int, t_end: float, dt: float,
                  amplitude: float = 0.0, n_ref: Optional[int] = None,
                  dt_ref: Optional[float] = None,
                  interval: Optional[float] = None) -> ExperimentConfig:
    return ExperimentConfig(
        params=Params(system=system),
        grid_reference=Grid1D(n_ref or n, 0.0, 1.0),
        grid_candidate=Grid1D(n, 0.0, 1.0),
        dt_reference=dt_ref or dt,
        dt_candidate=dt,
        t_end=t_end,
        initial_preset=f"{system.value}-smooth",
        perturbation=Perturbation(amplitude=amplitude, mode=2),
        sample_interval=interval,
    )


def _check_twin_floor(cfg: ExperimentConfig, trace_path: str) -> Tuple[bool, str]:
    trace = _written_twin(cfg, trace_path)
    sup_e = float(np.max(trace.entropy))
    masses = trace.mass_candidate
    drift = float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
    ok = sup_e <= 1e-12 and drift <= 1e-12
    detail = f"sup_entropy={sup_e:.3e} mass_drift={drift:.3e}"
    if cfg.params.system is System.SPHERE:
        defect = float(np.max(trace.sphere_defect))
        ok = ok and defect <= 1e-10
        detail += f" unit_defect={defect:.3e}"
    e_rep = check_energy(trace)
    ok = ok and e_rep.passes
    detail += f" energy_viol={max(e_rep.max_violation_candidate, e_rep.max_violation_reference):.3e}"
    return ok, detail


def _check_gronwall_cert(cfg: ExperimentConfig, trace_path: str) -> Tuple[bool, str]:
    gron = cfg.gronwall
    rep = check_gronwall(_written_twin(cfg, trace_path), gron)
    checked_at = "" if gron.c_h is None else f" (checked at c_h={gron.c_h:g})"
    return rep.passes, (f"minimal_c_h={rep.minimal_c_h:.6g} worst_time={rep.worst_time:.6g} "
                        f"slack={gron.slack:g}{checked_at}")


def _check_energy(cfg: ExperimentConfig, trace_path: str) -> Tuple[bool, str]:
    rep = check_energy(_written_twin(cfg, trace_path))
    first = rep.first_violation_time
    return rep.passes, (f"max_violation candidate={rep.max_violation_candidate:.3e} "
                        f"reference={rep.max_violation_reference:.3e} tol={rep.tol:g} "
                        f"first_violation={'none' if first is None else format(first, '.6g')}")


def _check_collapse(cfg: ExperimentConfig, levels: Sequence[int]) -> Tuple[bool, str]:
    rep = check_uniqueness(cfg, levels)
    sups = " ".join(f"{s:.3e}" for s in rep.sup_entropy)
    orders = " ".join(f"{o:.2f}" for o in rep.orders)
    return rep.passes, f"levels={list(levels)} sup_entropy=[{sups}] orders=[{orders}]"


# a suite task: (name, check, config, trace path or refinement levels)
_SuiteTask = Tuple[str, Callable[..., Tuple[bool, str]], ExperimentConfig, Any]


def _suite_task(task: _SuiteTask) -> Tuple[str, Optional[bool], str]:
    """One suite experiment.

    Returns (name, ok, detail); ok is None when the check raised, and the
    detail is then its error line."""
    name, check, cfg, arg = task
    try:
        ok, detail = check(cfg, arg)
    except _TASK_ERRORS as exc:
        return name, None, _error_line(exc)[1]
    return name, ok, detail


_SMOKE = {
    "gl-smoke": System.GL,
    "sphere-smoke": System.SPHERE,
}


def _suite_tasks(preset: str, outdir: str) -> List[_SuiteTask]:
    def tp(name: str) -> str:
        return os.path.join(outdir, f"{name}.csv")

    tasks: List[_SuiteTask] = []
    if preset == "full":
        kappa, levels, n_ref = 0.4, [65, 129, 257], 1025
        for system in (System.GL, System.SPHERE):
            name = system.value
            tasks.append((f"{name}-identical-twin", _check_twin_floor,
                          _suite_config(system, 257, 0.2, 5e-5, interval=1e-3),
                          tp(f"full-{name}-identical-twin")))
            tasks.append((f"{name}-gronwall", _check_gronwall_cert,
                          _suite_config(system, 257, 0.1, 0.4 / 256**2, amplitude=1e-3),
                          tp(f"full-{name}-gronwall")))
            # the reference step also scales with its own dx^2; the factor 4
            # keeps its error well below the finest candidate level at a
            # quarter of the cost
            tasks.append((f"{name}-collapse", _check_collapse,
                          _suite_config(system, levels[0], 0.1, kappa / (levels[0] - 1) ** 2,
                                        n_ref=n_ref, dt_ref=4.0 * kappa / (n_ref - 1) ** 2),
                          levels))
    else:  # a smoke preset: argparse's choices reject any other name
        system = _SMOKE[preset]
        tasks.append((f"{system.value}-identical-twin", _check_twin_floor,
                      _suite_config(system, 97, 0.05, 2e-4),
                      tp(f"{preset}-identical-twin")))
        tasks.append((f"{system.value}-gronwall", _check_gronwall_cert,
                      _suite_config(system, 97, 0.05, 2e-4, amplitude=1e-3),
                      tp(f"{preset}-gronwall")))
    return tasks


def _cmd_suite(args) -> int:
    outdir = args.output_dir
    with _file_access(f"write {outdir}"):
        os.makedirs(outdir, exist_ok=True)
    tasks = _suite_tasks(args.preset, outdir)
    t0 = time.monotonic()
    results = [_suite_task(t) for t in tasks]

    checks: Dict[str, bool] = {}
    outputs: List[str] = []
    for (*_, arg), (name, ok, detail) in zip(tasks, results):
        checks[name] = bool(ok)
        _report(name, ok, detail)
        if ok is not None and isinstance(arg, str):
            outputs.append(arg)  # a check that returned read its written trace
    return _finish(
        f"suite --preset {args.preset}", json.dumps({"preset": args.preset}), 2.0, t0,
        checks, sorted(outputs), os.path.join(outdir, f"{args.preset}-manifest.json"),
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nemlab",
        description="Twin-experiment laboratory for compressible "
        "liquid-crystal flows with relative-entropy certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_output=True):
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        if needs_output:
            p.add_argument("-o", "--output", default="trace.csv", help="trace CSV path")
        p.add_argument("--manifest", default="manifest.json", help="manifest JSON path")

    add_common(sub.add_parser("simulate", help="single candidate trajectory"))
    add_common(sub.add_parser("twin", help="twin experiment trace"))
    add_common(sub.add_parser("gronwall", help="twin + Gronwall certification"))
    p_u = sub.add_parser("uniqueness", help="entropy collapse under refinement")
    add_common(p_u, needs_output=False)
    p_u.add_argument(
        "--levels", default="",
        help="comma-separated candidate node counts (default: 3 dyadic levels "
        "from grid_candidate.n)",
    )
    add_common(sub.add_parser("energy", help="twin + energy-inequality audit"))
    p_s = sub.add_parser("suite", help="named battery of checks")
    p_s.add_argument(
        "--preset", required=True, choices=sorted(_SMOKE) + ["full"],
        help="battery to run",
    )
    p_s.add_argument("--output-dir", default=".", help="directory for outputs")
    return parser


# command -> run(cfg, trace path or refinement levels): simulate and twin
# print their own line and return None, the checks return (ok, detail)
_CONFIG_COMMANDS: Dict[str, Callable[..., Optional[Tuple[bool, str]]]] = {
    "simulate": _simulate,
    "twin": _twin,
    "gronwall": _check_gronwall_cert,
    "uniqueness": _check_collapse,
    "energy": _check_energy,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize unknown input to 2
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        return _run_config(args)
    except tuple(_ERRORS) as exc:
        code, line = _error_line(exc)
        print(line, file=sys.stderr)
        return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
