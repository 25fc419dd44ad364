"""Twin-experiment orchestration and certification checks.

A twin experiment evolves a reference trajectory (playing the strong
solution: fine grid, smooth data) and a candidate trajectory (playing the
finite-energy competitor: coarser grid and/or perturbed data) from the same
initial preset, then records the relative entropy, the Gronwall coefficient
and every remainder integral along the way.  The checks certify the
uniqueness mechanism numerically:

    check_energy      - each trajectory dissipates: E(t_{k+1}) + int D dt
                        <= E(t_k) up to a tolerance.
    check_gronwall    - the entropy stays below
                        (E(0) + slack) * exp(c_h * int h_hat dt)
                        and reports the minimal admissible c_h, which
                        has a closed form.
    check_uniqueness  - with identical initial data, sup_t entropy collapses
                        under candidate-grid refinement at the expected order
                        (quadratic functional of a convergent field error).
                        It evaluates the relative entropy only.

Candidate and reference live on different grids in general; the reference
is restricted to the candidate grid by local 4-point (cubic Lagrange)
interpolation, which reproduces nodal values exactly when the grids
coincide, so identical twins stay bit-identical.  On nested grids, where
every candidate node is a reference node, the restriction is a gather of
those nodes, bit for bit the 4-point sum.

Memory model: one engine, _pair_samples, pairs the candidates of
run_twin (one) and check_uniqueness (one per level) with a reference
evolved once.  A candidate sharing the reference's grid and dt runs in
lockstep: it joins the reference's batched evolve, and each sample pair
goes to the row callback as it is produced, so nothing is restricted for
it.  Every other candidate is streamed: evolve's lazy form hands out its
samples one window at a time, and at each reference sample every streamed
candidate is advanced to the same time and paired with the reference
sample, restricted once per candidate grid; the suspended trajectories
are closed on every exit.  No sample outlives its pairing, so a twin
holds O(n) floats per trajectory (its workspace, the sample and its
restriction, and evolve's implicit matrices: about 3 n floats for each
of the two most recently used window step sizes) plus its trace
columns, held once: the returned arrays wrap the packed doubles the
rows were appended to (tracemalloc, GL, 513 reference and 257 candidate
nodes, 2001 samples: a 1.8 MB peak, where copying the columns at the end
took 2.0 MB and storing every restricted reference sample 22.8 MB);
check_uniqueness holds one workspace per level and the per-level entropy
lists.  No grid may exceed MAX_NODES nodes: ExperimentConfig and
check_uniqueness refuse one before anything is allocated.  At the bound
a 2-sample lockstep twin peaks at 52 MiB (GL) and 47 MiB (SPHERE), about
420 floats per node, by tracemalloc.
A process holds more than its runs: after `import numpy` its resident
memory (ru_maxrss) is about 27 MB, 14 MB of them the interpreter, and
nemlab's modules with the stdlib modules they import add about 1.5 MB,
3 MB where their bytecode is compiled at import (Python 3.11, numpy 2.4,
x86-64 Linux).  The solves use numpy's own LAPACK, so importing nemlab
maps no second BLAS (dynamics says how).
run_twin's reference energies and dissipations take one EnergyWindow:
ENERGY_WINDOW (8) samples copied into one buffer and evaluated by one
stacked pass when it is full, O(ENERGY_WINDOW * n_reference) floats with
the pass's scratch whatever the sample count.  Every certificate row
takes one path: run_twin keeps its pairs in a pending window (each pair
a view of one read-only sample of both members, 10 n floats) and
evaluates the window with one remainder call.  A lockstep twin's window
holds ENERGY_WINDOW pairs and is evaluated right after the reference
energies of the same samples, as the row's fixed cost of some 150 numpy
calls is paid once per window; a streamed twin's holds one pair
(bench/test_bench.py counts one call per streamed sample).  The call's
scratch peaks at about 140 n floats per sample (tracemalloc: 0.86 MB
for a GL window at n = 97) and is freed when it returns; run_twin's
closures form no reference cycle, which would keep its buffers alive
until the cyclic collector runs.  Results are kept as columns of packed
doubles: the per-term columns of EntropyTrace.terms take O(samples *
terms) floats (a few dozen terms), not one object per sample.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constitutive import Params, System
from .dynamics import (
    DEFAULT_DENSITY_FLOOR,
    BoundarySpec,
    InitialData,
    SolverError,
    State,
    evolve,
)
from .functionals import (
    ENERGY_WINDOW,
    QUARTETS,
    EnergyWindow,
    NonFiniteError,
    RemainderBreakdown,
    StatePair,
    relative_entropy,
    remainder,
)
from .grid import Grid1D, GridError

MAX_SAMPLES = 10_000
# IMEX steps of one run, t_end / dt summed over its trajectories; the
# largest config of the battery, the suites and the benchmark is criterion
# 6's collapse study: 65,536 reference steps plus 21,504 over its levels
MAX_STEPS = 1_000_000
# nodes of one grid: 16 times the finest grid of the battery, the suites
# and the benchmark, criterion 6's 1025-node reference (16 * 1024 + 1)
MAX_NODES = 16_385
_ORDER_FLOOR = 1.8  # the least observed order a convergence check accepts
_SHOWN_LEVELS = 10  # the refinement levels an error message lists


class VerifierError(ValueError):
    """Invalid experiment configuration or trace."""


def _check_step_count(t_end: float, dt: float, name: str) -> None:
    """Raise VerifierError unless dt > 0 and the step count t_end / dt are finite."""
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_end / dt)):
        raise VerifierError(f"t_end / {name} is not a finite float")


def _check_step_budget(t_end: float, dts: Sequence[float], what: str) -> None:
    """Raise VerifierError if trajectories with step sizes dts take more
    than MAX_STEPS steps to t_end together."""
    steps = sum(t_end / dt for dt in dts)
    if steps > MAX_STEPS:
        raise VerifierError(f"{what} take {steps:.6g} steps (t_end / dt summed), "
                            f"more than MAX_STEPS = {MAX_STEPS}")


def _check_nodes(n: int, name: str) -> None:
    """Raise VerifierError if a grid of n nodes is beyond MAX_NODES."""
    if n > MAX_NODES:
        raise VerifierError(f"{name} must be at most MAX_NODES = {MAX_NODES}, got {n}")


# ---------------------------------------------------------------------------
# Initial presets and perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Single-mode perturbation of the initial density and director.

    The mode shape respects each system's boundary compatibility: node-
    pinned (sine) shapes for Dirichlet runs, zero-slope (cosine) shapes for
    Neumann runs; the director is renormalized after perturbing when the
    unit constraint applies.  Amplitude 0 is the unperturbed twin.
    """

    amplitude: float = 0.0
    mode: int = 1

    def __post_init__(self):
        # NaN, +-inf and an integer beyond the float range fail this test
        if not abs(self.amplitude) <= sys.float_info.max:
            raise VerifierError(f"perturbation.amplitude must be finite, got {self.amplitude}")
        if self.amplitude < 0:
            raise VerifierError(f"perturbation.amplitude must be >= 0, got {self.amplitude}")
        # an integer, a numpy one too but not a bool, as Grid1D takes a node
        # count: a fractional mode gives a SPHERE shape whose slope at the
        # walls is not zero
        mode = self.mode
        if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) or mode < 1:
            raise VerifierError(f"perturbation.mode must be a positive integer, got {self.mode!r}")
        try:
            phase = 2.0 * math.pi * self.mode  # the GL mode shape's sine argument
        except OverflowError:  # an integer beyond the float range
            phase = math.inf
        if not math.isfinite(phase):
            raise VerifierError("perturbation.mode is too large: 2*pi*mode is not a finite float")


PRESET_SYSTEMS = {
    "gl-smooth": System.GL,
    "sphere-smooth": System.SPHERE,
}


def _check_preset(preset: str, system: System) -> None:
    """Raise VerifierError unless preset names an initial preset of system."""
    if preset not in PRESET_SYSTEMS:
        known = ", ".join(sorted(PRESET_SYSTEMS))
        raise VerifierError(f"initial_preset: unknown preset {preset!r}; known presets: {known}")
    if PRESET_SYSTEMS[preset] is not system:
        raise VerifierError(f"initial_preset {preset!r} requires system "
                            f"{PRESET_SYSTEMS[preset].value}, not {system.value}")


def make_initial_data(
    preset: str,
    grid: Grid1D,
    params: Params,
    perturbation: Optional[Perturbation] = None,
) -> InitialData:
    """Construct a named smooth initial datum, optionally perturbed.

    gl-smooth:     rho = 1 + 0.1 sin(2 pi s), u = 0.05 sin(pi s) * bump,
                   d = normalize(1, 0.3 sin(2 pi s), 0); u is set to
                   exact zeros at the walls.
    sphere-smooth: same rho and u; d = (cos phi, sin phi, 0) with
                   phi = 0.5 cos(pi s), zero-slope at the walls.

    s is the unit-interval coordinate.  Construction is a deterministic
    function of its arguments: equal grids and equal perturbations give
    bit-identical fields.  VerifierError rejects a preset of another
    system, a perturbation that drives the density nonpositive, (then) a
    perturbed SPHERE director too large to normalize and any datum
    InitialData rejects.
    """
    system = params.system
    _check_preset(preset, system)
    x = grid.nodes()
    s = (x - grid.x_min) / grid.length
    rho = 1.0 + 0.1 * np.sin(2.0 * np.pi * s)
    u = 0.05 * np.sin(np.pi * s) * (4.0 * s * (1.0 - s))
    u[0] = u[-1] = 0.0  # the last node may lie an ulp past x_max, where the bump is not 0
    if system is System.GL:
        d = np.stack([np.ones_like(s), 0.3 * np.sin(2.0 * np.pi * s), np.zeros_like(s)])
        d = d / np.sqrt(np.sum(d * d, axis=0))
    else:
        phi = 0.5 * np.cos(np.pi * s)
        d = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(s)])

    if perturbation is not None and perturbation.amplitude != 0.0:
        eps, m = perturbation.amplitude, perturbation.mode
        if system is System.GL:
            shape = np.sin(2.0 * np.pi * m * s)
            shape[0] = 0.0   # pinned walls stay bit-exact under perturbation
            shape[-1] = 0.0
        else:
            shape = np.cos(np.pi * m * s)  # zero slope at the Neumann walls
        rho = rho + eps * shape
        if np.min(rho) <= 0.0:
            raise VerifierError("perturbation drove the initial density nonpositive")
        d = d + eps * shape * np.array([0.0, 0.0, 1.0])[:, None]
        if system is System.SPHERE:
            with np.errstate(over="ignore"):
                norm = np.sqrt(np.sum(d * d, axis=0))
            if not np.all(np.isfinite(norm)):
                raise VerifierError(f"perturbation.amplitude {eps:g} is too large to "
                                    f"normalize the SPHERE director")
            d = d / norm

    try:
        return InitialData(grid, rho, u, d)
    except ValueError as exc:
        raise VerifierError(f"initial_preset {preset!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GronwallConfig:
    """Calibration knobs of the Gronwall certificate.

    c_h None means auto-calibrate: the check passes when a finite minimal
    multiplier exists.  slack is the additive floor for runs starting from
    zero entropy.  The dissipation fraction spent on absorbing each
    quadratic difference term only changes the unknown constants that c_h
    already absorbs, so it is not a knob.
    """

    c_h: Optional[float] = None
    slack: float = 0.0

    def __post_init__(self):
        for name in ("c_h", "slack"):
            value = getattr(self, name)
            if value is not None and not abs(value) <= sys.float_info.max:  # as Perturbation
                raise VerifierError(f"gronwall.{name} must be finite, got {value}")
        if self.c_h is not None and not self.c_h > 0:
            raise VerifierError(f"gronwall.c_h must be positive, got {self.c_h}")
        if self.slack < 0:
            raise VerifierError(f"gronwall.slack must be >= 0, got {self.slack}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one twin experiment.

    Neither grid may have more than MAX_NODES nodes, the step sizes,
    t_end, the resolved sample interval and density_floor must be finite
    and positive, so must t_end / dt of each trajectory, the preset must
    belong to params.system and the run may take at most MAX_STEPS steps
    (both trajectories together) and MAX_SAMPLES samples; construction
    raises VerifierError naming the first rule broken, before anything
    of the run is allocated (memory model above).
    """

    params: Params
    grid_reference: Grid1D
    grid_candidate: Grid1D
    dt_reference: float
    dt_candidate: float
    t_end: float
    initial_preset: str
    perturbation: Perturbation = Perturbation()
    sample_interval: Optional[float] = None
    gronwall: GronwallConfig = GronwallConfig()
    density_floor: float = DEFAULT_DENSITY_FLOOR

    def __post_init__(self):
        if (
            self.grid_reference.x_min != self.grid_candidate.x_min
            or self.grid_reference.x_max != self.grid_candidate.x_max
        ):
            raise VerifierError("reference and candidate grids must share endpoints")
        for name in ("grid_reference", "grid_candidate"):
            _check_nodes(getattr(self, name).n_nodes, f"{name}.n")
        interval = self.resolved_sample_interval()
        for name, value in (
            ("dt_reference", self.dt_reference),
            ("dt_candidate", self.dt_candidate),
            ("t_end", self.t_end),
            ("sample_interval", interval),
            ("density_floor", self.density_floor),
        ):
            if not (math.isfinite(value) and value > 0):
                raise VerifierError(f"{name} must be finite and positive, got {value!r}")
        for name in ("dt_reference", "dt_candidate"):
            _check_step_count(self.t_end, getattr(self, name), name)
        _check_step_budget(self.t_end, (self.dt_reference, self.dt_candidate),
                           "the reference and candidate")
        _check_preset(self.initial_preset, self.params.system)
        if self.t_end / interval > MAX_SAMPLES:
            raise VerifierError(
                f"sample_interval yields more than {MAX_SAMPLES} samples over t_end"
            )

    def resolved_sample_interval(self) -> float:
        """Configured sampling cadence, defaulting to 50 samples per run."""
        if self.sample_interval is not None:
            return self.sample_interval
        return self.t_end / 50.0


# ---------------------------------------------------------------------------
# Interpolation bridge
# ---------------------------------------------------------------------------


class _Stencil(NamedTuple):
    """The 4-point stencil of each of m target nodes: source indices (4, m)
    and Lagrange weights (4, m).  On nested grids, where every target node
    is a source node and its weights are exactly one 1 and three zeros,
    nodes is the slice of those source nodes; else it is None."""

    idx: np.ndarray
    weights: np.ndarray
    nodes: Optional[slice]


@functools.lru_cache(maxsize=64)
def _cubic_stencil(grid_from: Grid1D, grid_to: Grid1D) -> _Stencil:
    """The restriction stencil of (grid_from, grid_to), cached per pair."""
    pos = (grid_to.nodes() - grid_from.x_min) / grid_from.dx
    j = np.clip(np.floor(pos).astype(int), 1, grid_from.n_nodes - 3)
    t = pos - j
    idx = np.stack((j - 1, j, j + 1, j + 2))
    weights = np.stack((-t * (t - 1.0) * (t - 2.0) / 6.0, (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                        -t * (t + 1.0) * (t - 2.0) / 2.0, t * (t + 1.0) * (t - 1.0) / 6.0))
    idx.flags.writeable = weights.flags.writeable = False  # shared by every call
    # nested: every position is an exact integer, so t is 0 (-1, 2 at the
    # walls) and the weights are exact 0s and a 1 on the node at pos
    step = (grid_from.n_nodes - 1) // (grid_to.n_nodes - 1)
    nested = step >= 1 and (pos == step * np.arange(grid_to.n_nodes)).all()
    return _Stencil(idx, weights, slice(0, grid_from.n_nodes, step) if nested else None)


# -0.0 is the least float64 as an int64, and the one finite value a gather
# and the weighted sum with weights of exactly 0 and 1 can disagree on
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def _restrict(fields: Sequence[np.ndarray], stencil: _Stencil) -> np.ndarray:
    """Local 4-point cubic Lagrange interpolation of the rows of fields,
    float arrays stacked in order as np.concatenate stacks them, onto
    another grid, by the stencil of the grid pair.

    Operates along the last axis, so a stack of fields restricts in one
    call.  Target points that coincide bitwise with source nodes
    reproduce the nodal values exactly (the Lagrange weights evaluate to
    exact 0/1).  On nested grids every target node is such a point, and
    finite values are gathered from their source nodes into the stack, one
    copy, instead of summed: the four weighted values give the same bits,
    except that their sum may turn a -0.0 into +0.0 (numpy's sum starts
    from +0.0), so values whose gather holds a -0.0 take the weighted sum.
    """
    idx, weights, nodes = stencil
    if nodes is not None:
        out = np.concatenate([field[..., nodes] for field in fields])
        if out.view(np.int64).min() != _NEGATIVE_ZERO:
            return out
    # the four weighted values summed
    return (np.concatenate(fields)[..., idx] * weights).sum(axis=-2)


def restrict_state(state: State, grid_to: Grid1D, system: System) -> State:
    """Restrict a state to another grid; identity when grids coincide.

    The stacked (rho, u, d0, d1, d2) rows restrict in one _restrict call
    by the grid pair's cached stencil; on nested grids it copies only the
    gathered nodes.  For the SPHERE system the interpolated director is
    renormalized (the interpolant leaves the unit sphere at the
    interpolation-error level, well below the entropy scales being
    measured).  On nested grids the rows are gathered from the
    state's finite entries, and the result is wrapped without checking
    them again; otherwise the interpolated rows are checked as State
    checks any arrays.
    """
    if state.grid == grid_to:
        return state
    stencil = _cubic_stencil(state.grid, grid_to)
    out = _restrict((state.rho[None], state.u[None], state.d), stencil)
    d = out[2:]
    if system is System.SPHERE:
        d /= np.sqrt((d * d).sum(axis=0))
    if stencil.nodes is None:
        return State(grid_to, out[0], out[1], d)
    out.flags.writeable = False  # before the views are taken, which keep their own flag
    return State._wrap(grid_to, out[0], out[1], out[2:])


# ---------------------------------------------------------------------------
# Entropy trace
# ---------------------------------------------------------------------------

@dataclass
class EntropyTrace:
    """Time series of every certified quantity for one twin experiment.

    Every np.ndarray field is a sample column, declared in file order
    (TRACE_COLUMNS).  Remainder columns of the inactive system and (for
    GL runs) the sphere_defect column are NaN; everything else, the sample
    times included, must be finite, and the times strictly increasing.
    `terms` holds one column per named remainder integral, per h_hat norm
    factor (prefixed h_) and the reorganization mismatch; it is in-memory
    only, so a trace read back from CSV has none.
    """

    system: System
    times: np.ndarray
    entropy: np.ndarray
    h_hat: np.ndarray
    energy_candidate: np.ndarray
    energy_reference: np.ndarray
    dissipation_candidate: np.ndarray
    dissipation_reference: np.ndarray
    r_d: np.ndarray
    r_c: np.ndarray
    r_bar_d: np.ndarray
    r_bar_c: np.ndarray
    r_1d: np.ndarray
    r_1c: np.ndarray
    r_1c_a: np.ndarray
    r_1c_b: np.ndarray
    mass_candidate: np.ndarray
    sphere_defect: np.ndarray
    terms: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name in TRACE_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self)
        inactive = {name for quartet in QUARTETS.values() for name in quartet}
        inactive -= set(QUARTETS[self.system])
        if self.system is System.GL:
            inactive.add("sphere_defect")
        columns = [(name, getattr(self, name)) for name in TRACE_COLUMNS]
        for name, col in columns + list(self.terms.items()):
            if np.shape(col) != (n,):
                raise VerifierError(f"column {name} has wrong length")
            if name not in inactive and not np.all(np.isfinite(col)):
                raise VerifierError(f"column {name} contains non-finite entries")
        if np.any(np.diff(self.times) <= 0):
            raise VerifierError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.shape[0])


TRACE_COLUMNS = tuple(f.name for f in fields(EntropyTrace) if f.type == "np.ndarray")


_COUNT_MISMATCH = "reference and candidate produced different sample counts"


Row = Callable[[int, float, StatePair], None]


def _joins(config: ExperimentConfig, grid: Grid1D, dt: float) -> bool:
    """Whether a candidate on grid with step dt joins the reference's
    evolve in _pair_samples (lockstep): both equal the reference's."""
    return grid == config.grid_reference and dt == config.dt_reference


def _tag(exc: SolverError, tags: Sequence[str]) -> None:
    """Prefix a solver abort with the trajectory it came from, tags[i] for
    member i, once: a streamed candidate's abort keeps its own tag as it
    passes through the reference's evolve."""
    if getattr(exc, "trajectory", None) is None:
        exc.trajectory = " and ".join(tags) if exc.member is None else tags[exc.member]
        exc.args = (f"{exc.trajectory} trajectory: {exc}",)


def _pair_samples(
    config: ExperimentConfig,
    candidates: Sequence[Tuple[InitialData, float]],
    row: Row,
    on_reference: Optional[Callable[[State, float], None]] = None,
) -> None:
    """Pair every candidate with one reference, sample by sample.

    candidates holds (initial datum, dt) pairs.  The reference is evolved
    once, from the unperturbed preset on config.grid_reference with
    config.dt_reference, and each of its samples goes to
    on_reference(state, t).
    A candidate with the reference's grid and dt joins that evolve as a
    further member and is paired as each sample is produced.  Every other
    candidate is streamed: its evolve starts at the reference's first
    sample, in the lazy form, and at each reference sample it is advanced
    one sample window; the reference sample, restricted once per candidate
    grid, is paired with it.  Candidate i's pair at time t goes to
    row(i, t, pair); sample counts and times must match.  A solver abort
    is tagged with the name of the trajectory that failed (the reference
    or a candidate); an error raised evaluating a pair propagates
    unchanged.  The earliest sample's error wins: at one sample the
    reference's restriction comes first, then on_reference and the joined
    pairs, then the streamed candidates in order, which are paired also
    when on_reference or a joined pair raised, and whose error then
    propagates instead.
    """
    params = config.params
    floor = config.density_floor

    def run(inits: Tuple[InitialData, ...], dt: float, **observer):
        # the observer form with an observer, else the lazy one
        bcs = [BoundarySpec.for_system(params.system, init.d0) for init in inits]
        return evolve(inits, config.t_end, dt, params, inits[0].grid, bcs,
                      sample_interval=config.resolved_sample_interval(), density_floor=floor,
                      **observer)

    def stream(init: InitialData, dt: float):
        # a streamed candidate's samples: its evolve starts at the first next()
        try:
            yield from run((init,), dt)
        except SolverError as exc:
            _tag(exc, ("candidate",))
            raise

    joined = [i for i, (init, dt) in enumerate(candidates) if _joins(config, init.grid, dt)]
    streams = [(i, stream(*candidates[i])) for i in range(len(candidates)) if i not in joined]
    grids = list(dict.fromkeys(candidates[i][0].grid for i, _ in streams))

    def observe_reference(states: Tuple[State, ...], t: float) -> None:
        reference = states[0]
        restricted = {grid: restrict_state(reference, grid, params.system) for grid in grids}
        try:
            if on_reference is not None:
                on_reference(reference, t)
            for i, st in zip(joined, states[1:]):
                row(i, t, StatePair(st, reference, rho_lower=floor))
        finally:  # also when the reference's side raised
            for i, samples in streams:
                sample = next(samples, None)
                if sample is None:
                    raise VerifierError(_COUNT_MISMATCH)
                (candidate,), t_c = sample
                if abs(t - t_c) > 1e-9 * max(1.0, config.t_end):
                    raise VerifierError(f"sample time mismatch: {t} vs {t_c}")
                row(i, t, StatePair(candidate, restricted[candidate.grid], rho_lower=floor))

    try:
        try:
            run((make_initial_data(config.initial_preset, config.grid_reference, params),)
                + tuple(candidates[i][0] for i in joined),
                config.dt_reference, observer=observe_reference)
        except SolverError as exc:
            _tag(exc, ("reference",) + ("candidate",) * len(joined))
            raise
        if any(next(samples, None) is not None for _, samples in streams):
            raise VerifierError(_COUNT_MISMATCH)
    finally:
        for _, samples in streams:
            samples.close()


def run_twin(config: ExperimentConfig) -> EntropyTrace:
    """Evolve reference and candidate and record the full entropy trace.

    The reference runs unperturbed on its own grid; the candidate starts
    from the (optionally perturbed) preset on the candidate grid.  The two
    are paired by _pair_samples: in lockstep through one batched step when
    they share grid and dt, else with the candidate advanced one sample
    window at each reference sample, which is restricted to the candidate
    grid.  Either way the pair functionals are
    evaluated on the candidate grid, the single-state quantities (energy,
    dissipation, mass) on each trajectory's own.  Each sample's
    certificate row (`remainder`) fills one row of every candidate and
    pair column and of the per-term columns; the reference's energy and
    dissipation come from an EnergyWindow, one stacked derivative pass per
    window of samples.  Every pair joins a pending window, evaluated by
    one `remainder` call: a lockstep twin's holds ENERGY_WINDOW pairs and
    is evaluated right after the same samples' reference energies, a
    streamed twin's holds one, evaluated as the pair is formed.  Solver
    aborts propagate with the trajectory tag attached; errors evaluating a
    pair propagate untagged, except that a NonFiniteError gets the time
    of the pair it names (its `sample`) added to its message.  The error
    of the earliest sample wins: at one sample a reference energy comes
    before the row, and the pairs of a pending window are evaluated before
    a later abort or energy error propagates.  No pair is evaluated twice.
    """
    params = config.params
    system = params.system
    # columns of packed doubles; a row appends its values to `columns` in
    # order, and the first row adds the per-term columns to it
    cols: Dict[str, array] = {name: array("d") for name in TRACE_COLUMNS}
    columns = [cols[name] for name in ("times", "entropy", "h_hat", "energy_candidate",
                                       "dissipation_candidate", "mass_candidate",
                                       "sphere_defect", *QUARTETS[system])]
    terms: Dict[str, array] = {}
    reference = EnergyWindow(config.grid_reference, params, "reference")
    reached = -math.inf  # the time of the latest sample a row was evaluated at
    size = ENERGY_WINDOW if _joins(config, config.grid_candidate, config.dt_candidate) else 1
    window: List[Tuple[float, StatePair]] = []  # pairs not yet evaluated, at most size

    def record(t: float, br: RemainderBreakdown) -> None:
        if not terms:
            terms.update((name, array("d")) for name in (
                *br.terms, *["h_" + k for k in br.h_terms], "reorg_mismatch"))
            columns.extend(terms.values())
        defect = math.nan if br.sphere_defect is None else br.sphere_defect  # GL: NaN
        for col, v in zip(columns, (t, br.entropy, br.h_hat, br.energy, br.dissipation, br.mass,
                                    defect, *br.quartet.values(), *br.terms.values(),
                                    *br.h_terms.values(), br.reorg_mismatch)):
            col.append(v)

    def flush() -> None:
        # one call for the pending pairs; an error's `sample` (default 0) names its pair
        nonlocal reached
        pending, window[:] = window[:], []
        if not pending:
            return
        try:
            rows = remainder([pair for _, pair in pending], params)
        except ValueError as exc:
            reached = pending[getattr(exc, "sample", 0)][0]
            if isinstance(exc, NonFiniteError):
                exc.args = (f"{exc} at t={reached:.6g}",)
            raise
        reached = pending[-1][0]
        for (t, _), br in zip(pending, rows):
            record(t, br)

    def row(i: int, t: float, pair: StatePair) -> None:
        window.append((t, pair))
        if len(window) == size:  # lockstep: the reference's window was flushed at this sample
            flush()

    cand_init = make_initial_data(
        config.initial_preset, config.grid_candidate, params, config.perturbation
    )
    try:
        _pair_samples(config, [(cand_init, config.dt_candidate)], row, reference.add)
    finally:
        # the pending pairs, then the last partial window of reference
        # energies, also when the run raised: an earlier pair's error comes
        # first, and a reference value beyond the float range up to the
        # sample a row reached comes before that
        try:
            flush()
        finally:
            reference.flush(until=reached)
    cols["energy_reference"] = reference.energy
    cols["dissipation_reference"] = reference.dissipation
    # the columns wrap their packed doubles, not copies; a column no sample
    # filled (the inactive system's remainders, the sphere defect of GL) is
    # NaN throughout
    n = len(cols["times"])
    return EntropyTrace(
        system=system,
        terms={name: np.frombuffer(v) for name, v in terms.items()},
        **{name: np.frombuffer(v) if v else np.full(n, np.nan) for name, v in cols.items()},
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class GronwallReport:
    """Outcome of the Gronwall certification on one trace."""

    passes: bool
    minimal_c_h: float
    worst_time: float


def check_gronwall(trace: EntropyTrace, config: GronwallConfig) -> GronwallReport:
    """Certify entropy(tau) <= (entropy(0) + slack) * exp(c_h * int h_hat).

    The time integral H of h_hat uses trapezoid quadrature on the sample
    times, and E_0 = entropy(0) + slack.  Since h_hat >= 0 the bound is
    monotone in c_h, so it holds exactly for c_h >= minimal_c_h, where

        minimal_c_h = max_k log(E_k/E_0)/H_k

    over the samples with E_k > E_0(1 + 1e-12): 0 when there are none,
    inf when one of them has E_0 = 0 or H_k = 0.  worst_time is the sample
    at which that maximum is taken.  When config.c_h is given, the report
    passes iff c_h >= minimal_c_h; when auto-calibrating (c_h None) it
    passes iff minimal_c_h is finite.
    """
    if len(trace) == 0:
        raise VerifierError("empty trace")
    ent = trace.entropy
    times = trace.times
    h = trace.h_hat
    h_int = np.concatenate(
        ([0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(times)))
    )
    e0 = float(ent[0] + config.slack)

    # the multiplier each sample individually requires
    required = np.zeros_like(ent)
    for k in range(1, len(ent)):
        if ent[k] <= e0 * (1.0 + 1e-12):
            continue
        if e0 == 0.0 or h_int[k] == 0.0:
            required[k] = np.inf
        else:
            # logs taken apart and a float (not numpy) quotient: E_k/E_0
            # beyond the float range still gives a finite multiplier, and a
            # multiplier beyond it becomes inf without an overflow warning
            required[k] = (math.log(ent[k]) - math.log(e0)) / float(h_int[k])
    worst = int(np.argmax(required))
    minimal = float(required[worst])

    passes = math.isfinite(minimal) if config.c_h is None else minimal <= config.c_h
    return GronwallReport(passes=passes, minimal_c_h=minimal, worst_time=float(times[worst]))


@dataclass
class EnergyReport:
    """Per-sample-pair energy-inequality audit for both trajectories."""

    passes: bool
    tol: float
    max_violation_candidate: float
    max_violation_reference: float
    first_violation_time: Optional[float]


def check_energy(trace: EntropyTrace, tol: float = 1e-3) -> EnergyReport:
    """Verify E(t_{k+1}) + int_{t_k}^{t_{k+1}} D dt <= E(t_k) * (1 + tol).

    The dissipation integral uses trapezoid quadrature on the sampled
    rates; the violation margin is (E_next + int D - E) / E per sample
    pair, for both trajectories in one (2, K-1) pass (rows candidate,
    reference).  A one-sample trace has no pair and reports 0.0 for both.
    """
    if len(trace) == 0:
        raise VerifierError("empty trace")
    e = np.array((trace.energy_candidate, trace.energy_reference))
    d = np.array((trace.dissipation_candidate, trace.dissipation_reference))
    diss_int = 0.5 * (d[:, 1:] + d[:, :-1]) * np.diff(trace.times)
    viol = (e[:, 1:] + diss_int - e[:, :-1]) / np.maximum(e[:, :-1], 1e-300)
    max_c, max_r = viol.max(axis=1).tolist() if len(trace) > 1 else (0.0, 0.0)
    bad = np.nonzero((viol > tol).any(axis=0))[0]
    return EnergyReport(passes=max_c <= tol and max_r <= tol, tol=tol,
                        max_violation_candidate=max_c, max_violation_reference=max_r,
                        first_violation_time=float(trace.times[bad[0] + 1]) if bad.size else None)


@dataclass
class UniquenessReport:
    """Entropy-collapse study over dyadically refined candidate grids."""

    passes: bool
    levels: List[int]
    sup_entropy: List[float]
    orders: List[float]


def _level_text(n) -> str:
    """A refinement level as message text; an integer of more than 1,000
    digits by its size only, as str() refuses one of over 4,300."""
    if isinstance(n, int) and not -10**1000 < n < 10**1000:
        return f"<an integer of about {int(abs(n).bit_length() * math.log10(2)) + 1} digits>"
    return str(n)


def check_uniqueness(
    config: ExperimentConfig,
    refinement_levels: Sequence[int],
) -> UniquenessReport:
    """Zero-perturbation collapse: sup_t entropy vs candidate resolution.

    Each level runs the unperturbed candidate on a grid with the given
    node count, with dt scaled proportionally to dx^2 from
    config.dt_candidate (anchored at config.grid_candidate), so the
    first-order time error refines at the same rate as the second-order
    space error.  One _pair_samples call, the pairing run_twin uses,
    evolves the reference once on config.grid_reference and pairs every
    level with it sample by sample; a level on the reference's grid and
    dt joins the reference's evolve.  Each level's sup is taken over the
    relative entropy of its pairs; energies and remainders are not
    evaluated.  The levels must be at least 3 strictly increasing node
    counts, each a valid Grid1D on the candidate's domain, whose finest dt
    leaves t_end / dt a finite float, and the reference and the levels may
    take at most MAX_STEPS steps together, and the finest level at most
    MAX_NODES nodes, or VerifierError, naming the level where one is at
    fault, is raised before anything runs.  Passing
    requires every observed order to reach _ORDER_FLOOR (1.8); a level whose
    entropy is identically zero gives an infinite order.  An entropy beyond
    the float range raises NonFiniteError once every level is paired, for
    the earliest such sample and, among its levels, the coarsest.
    """
    if len(refinement_levels) < 3:
        raise VerifierError("need at least 3 refinement levels")
    if any(a >= b for a, b in zip(refinement_levels, refinement_levels[1:])):
        shown = [*map(_level_text, refinement_levels[:_SHOWN_LEVELS])]
        if len(refinement_levels) > _SHOWN_LEVELS:
            shown.append("...")
        raise VerifierError(
            f"refinement levels must be strictly increasing node counts, "
            f"got [{', '.join(shown)}]"
        )
    params = config.params
    base = config.grid_candidate
    kappa = config.dt_candidate / base.dx**2
    grids = []
    for n in refinement_levels:
        try:
            grids.append(Grid1D(n, base.x_min, base.x_max))
        except GridError as exc:
            raise VerifierError(f"refinement level {_level_text(n)}: {exc}") from None
    dts = [kappa * g.dx**2 for g in grids]
    _check_step_count(config.t_end, dts[-1], f"dt of level {refinement_levels[-1]}")
    _check_step_budget(config.t_end, [config.dt_reference, *dts], "the reference and the levels")
    _check_nodes(refinement_levels[-1], "the finest refinement level")
    entropy: List[List[float]] = [[] for _ in grids]
    overflows: List[Tuple[float, int]] = []  # (t, level index) of each non-finite entropy

    def row(i: int, t: float, pair: StatePair) -> None:
        # no error before every level is paired: a later level may abort
        # earlier in time
        entropy[i].append(relative_entropy(pair, params))
        if not math.isfinite(entropy[i][-1]):
            overflows.append((t, i))

    # no perturbation: the collapse protocol
    levels = [(make_initial_data(config.initial_preset, g, params), dt)
              for g, dt in zip(grids, dts)]
    _pair_samples(config, levels, row)
    if overflows:
        t, i = min(overflows)
        raise NonFiniteError(f"non-finite relative entropy of level {grids[i].n_nodes} at t={t:.6g}")
    sups = [float(np.max(e)) for e in entropy]
    dxs = [g.dx for g in grids]

    orders = []
    for k in range(len(sups) - 1):
        if sups[k + 1] == 0.0:
            orders.append(math.inf)
        elif sups[k] == 0.0:
            orders.append(-math.inf)
        else:
            orders.append(
                math.log(sups[k] / sups[k + 1]) / math.log(dxs[k] / dxs[k + 1])
            )
    passes = all(o >= _ORDER_FLOOR for o in orders)
    return UniquenessReport(passes, list(refinement_levels), sups, orders)
