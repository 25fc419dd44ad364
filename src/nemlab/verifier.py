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
coincide, so identical twins stay bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constitutive import Params, System
from .dynamics import (
    BoundarySpec,
    InitialData,
    SolverOptions,
    State,
    evolve,
)
from .functionals import (
    RemainderBreakdown,
    StatePair,
    dissipation,
    energy,
    mass,
    relative_entropy,
    remainder,
)
from .grid import Grid1D, ScalarField, VectorField3

MAX_SAMPLES = 10_000


class VerifierError(ValueError):
    """Invalid experiment configuration or trace."""


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
        if self.amplitude < 0:
            raise VerifierError("perturbation amplitude must be nonnegative")
        if self.mode < 1:
            raise VerifierError("perturbation mode must be a positive integer")


PRESET_SYSTEMS = {
    "gl-smooth": System.GL,
    "sphere-smooth": System.SPHERE,
}


def make_initial_data(
    preset: str,
    grid: Grid1D,
    params: Params,
    perturbation: Optional[Perturbation] = None,
) -> InitialData:
    """Construct a named smooth initial datum, optionally perturbed.

    gl-smooth:     rho = 1 + 0.1 sin(2 pi s), u = 0.05 sin(pi s) * bump,
                   d = normalize(1, 0.3 sin(2 pi s), 0); the bump pins u
                   to exact zeros at the walls.
    sphere-smooth: same rho and u; d = (cos phi, sin phi, 0) with
                   phi = 0.5 cos(pi s), zero-slope at the walls.

    s is the unit-interval coordinate.  Construction is a deterministic
    function of its arguments: equal grids and equal perturbations give
    bit-identical fields.
    """
    if preset not in PRESET_SYSTEMS:
        known = ", ".join(sorted(PRESET_SYSTEMS))
        raise VerifierError(f"unknown preset {preset!r}; known presets: {known}")
    system = PRESET_SYSTEMS[preset]
    if system is not params.system:
        raise VerifierError(
            f"preset {preset!r} requires system {system.value}, "
            f"params specify {params.system.value}"
        )
    x = grid.nodes()
    s = (x - grid.x_min) / grid.length
    rho = 1.0 + 0.1 * np.sin(2.0 * np.pi * s)
    u = 0.05 * np.sin(np.pi * s) * (4.0 * s * (1.0 - s))
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
            rho = rho + eps * shape
            d = d + eps * shape * np.array([0.0, 0.0, 1.0])[:, None]
        else:
            shape = np.cos(np.pi * m * s)  # zero slope at the Neumann walls
            rho = rho + eps * shape
            d = d + eps * shape * np.array([0.0, 0.0, 1.0])[:, None]
            d = d / np.sqrt(np.sum(d * d, axis=0))
        if np.min(rho) <= 0.0:
            raise VerifierError("perturbation drove the initial density nonpositive")

    return InitialData(
        ScalarField(rho, grid), ScalarField(u, grid), VectorField3(d, grid)
    )


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
        if self.c_h is not None and not self.c_h > 0:
            raise VerifierError(f"c_h must be positive when given, got {self.c_h}")
        if self.slack < 0:
            raise VerifierError(f"slack must be nonnegative, got {self.slack}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one twin experiment."""

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
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if (
            self.grid_reference.x_min != self.grid_candidate.x_min
            or self.grid_reference.x_max != self.grid_candidate.x_max
        ):
            raise VerifierError("reference and candidate grids must share endpoints")
        for name in ("dt_reference", "dt_candidate", "t_end"):
            if not getattr(self, name) > 0:
                raise VerifierError(f"{name} must be positive")
        if self.initial_preset not in PRESET_SYSTEMS:
            known = ", ".join(sorted(PRESET_SYSTEMS))
            raise VerifierError(
                f"unknown preset {self.initial_preset!r}; known presets: {known}"
            )
        if PRESET_SYSTEMS[self.initial_preset] is not self.params.system:
            raise VerifierError(
                f"preset {self.initial_preset!r} does not match system "
                f"{self.params.system.value}"
            )
        interval = self.resolved_sample_interval()
        if interval <= 0:
            raise VerifierError("sample_interval must be positive")
        if self.t_end / interval > MAX_SAMPLES:
            raise VerifierError(
                f"t_end/sample_interval exceeds {MAX_SAMPLES} samples"
            )

    def resolved_sample_interval(self) -> float:
        """Configured sampling cadence, defaulting to 50 samples per run."""
        if self.sample_interval is not None:
            return self.sample_interval
        return self.t_end / 50.0


# ---------------------------------------------------------------------------
# Interpolation bridge
# ---------------------------------------------------------------------------


def cubic_restrict(values: np.ndarray, grid_from: Grid1D, grid_to: Grid1D) -> np.ndarray:
    """Local 4-point cubic Lagrange interpolation onto another grid.

    Operates along the last axis.  Target points that coincide bitwise
    with source nodes reproduce the nodal values exactly (the Lagrange
    weights evaluate to exact 0/1), so the bridge is the identity on
    matching grids.
    """
    if grid_from == grid_to:
        return np.array(values, dtype=float, copy=True)
    x = grid_to.nodes()
    dxf = grid_from.dx
    pos = (x - grid_from.x_min) / dxf
    j = np.clip(np.floor(pos).astype(int), 1, grid_from.n_nodes - 3)
    t = pos - j
    wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w1 = -t * (t + 1.0) * (t - 2.0) / 2.0
    w2 = t * (t + 1.0) * (t - 1.0) / 6.0
    vals = np.asarray(values, dtype=float)
    return (
        vals[..., j - 1] * wm1
        + vals[..., j] * w0
        + vals[..., j + 1] * w1
        + vals[..., j + 2] * w2
    )


def restrict_state(state: State, grid_to: Grid1D, system: System) -> State:
    """Restrict a state to another grid; identity when grids coincide.

    For the SPHERE system the interpolated director is renormalized (the
    interpolant leaves the unit sphere at the interpolation-error level,
    well below the entropy scales being measured).
    """
    if state.grid == grid_to:
        return state
    rho = cubic_restrict(state.rho.values, state.grid, grid_to)
    u = cubic_restrict(state.u.values, state.grid, grid_to)
    d = cubic_restrict(state.d.values, state.grid, grid_to)
    if system is System.SPHERE:
        d = d / np.sqrt(np.sum(d * d, axis=0))
    return State.from_arrays(grid_to, rho, u, d)


# ---------------------------------------------------------------------------
# Entropy trace
# ---------------------------------------------------------------------------

_GL_COLUMNS = ("r_d", "r_c", "r_bar_d", "r_bar_c")
_SPHERE_COLUMNS = ("r_1d", "r_1c", "r_1c_a", "r_1c_b")


@dataclass
class EntropyTrace:
    """Time series of every certified quantity for one twin experiment.

    Remainder columns of the inactive system and (for GL runs) the
    sphere_defect column are NaN; everything else must be finite and the
    sample times strictly increasing.  `breakdowns` keeps the full named
    remainder/diagnostic term maps per sample (in-memory only; the CSV
    serialization carries the fixed column set).
    """

    system: System
    times: np.ndarray
    entropy: np.ndarray
    h_hat: np.ndarray
    energy_candidate: np.ndarray
    energy_reference: np.ndarray
    dissipation_candidate: np.ndarray
    dissipation_reference: np.ndarray
    mass_candidate: np.ndarray
    sphere_defect: np.ndarray
    r_d: np.ndarray
    r_c: np.ndarray
    r_bar_d: np.ndarray
    r_bar_c: np.ndarray
    r_1d: np.ndarray
    r_1c: np.ndarray
    r_1c_a: np.ndarray
    r_1c_b: np.ndarray
    reorg_mismatch: np.ndarray = field(default=None)  # type: ignore[assignment]
    breakdowns: Optional[List["RemainderBreakdown"]] = None

    def __post_init__(self):
        for name in (
            "times", "entropy", "h_hat", "energy_candidate", "energy_reference",
            "dissipation_candidate", "dissipation_reference", "mass_candidate",
            "sphere_defect", "r_d", "r_c", "r_bar_d", "r_bar_c",
            "r_1d", "r_1c", "r_1c_a", "r_1c_b",
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.reorg_mismatch is None:
            self.reorg_mismatch = np.zeros_like(self.times)
        n = self.times.shape[0]
        if n == 0:
            return  # an empty trace is valid (it serializes to a header-only file)
        if np.any(np.diff(self.times) <= 0):
            raise VerifierError("trace times must be strictly increasing")
        active = [
            "entropy", "h_hat", "energy_candidate", "energy_reference",
            "dissipation_candidate", "dissipation_reference", "mass_candidate",
        ]
        active += list(_GL_COLUMNS if self.system is System.GL else _SPHERE_COLUMNS)
        if self.system is System.SPHERE:
            active.append("sphere_defect")
        for name in active:
            col = getattr(self, name)
            if col.shape[0] != n:
                raise VerifierError(f"column {name} has wrong length")
            if not np.all(np.isfinite(col)):
                raise VerifierError(f"column {name} contains non-finite entries")

    def __len__(self) -> int:
        return int(self.times.shape[0])


def _trajectory_samples(
    init: InitialData,
    grid: Grid1D,
    dt: float,
    t_end: float,
    sample_interval: float,
    params: Params,
    options: SolverOptions,
) -> List[Tuple[float, State]]:
    bc = BoundarySpec.for_system(params.system, init.d0)
    samples: List[Tuple[float, State]] = []
    evolve(
        init,
        t_end,
        dt,
        params,
        grid,
        bc,
        observer=lambda st, t: samples.append((t, st)),
        sample_interval=sample_interval,
        options=options,
    )
    return samples


def run_twin(config: ExperimentConfig) -> EntropyTrace:
    """Evolve reference and candidate and record the full entropy trace.

    The reference runs unperturbed on its own grid; the candidate starts
    from the (optionally perturbed) preset on the candidate grid.  At each
    sample time the reference is restricted to the candidate grid and all
    pair functionals are evaluated there; single-state quantities
    (energies, dissipations, mass) are evaluated on each trajectory's own
    grid.  Solver aborts propagate with the trajectory tag attached.
    """
    params = config.params
    interval = config.resolved_sample_interval()

    ref_init = make_initial_data(config.initial_preset, config.grid_reference, params)
    cand_init = make_initial_data(
        config.initial_preset, config.grid_candidate, params, config.perturbation
    )

    try:
        ref_samples = _trajectory_samples(
            ref_init, config.grid_reference, config.dt_reference,
            config.t_end, interval, params, config.solver,
        )
    except Exception as exc:
        exc.args = (f"reference trajectory: {exc}",)
        raise
    try:
        cand_samples = _trajectory_samples(
            cand_init, config.grid_candidate, config.dt_candidate,
            config.t_end, interval, params, config.solver,
        )
    except Exception as exc:
        exc.args = (f"candidate trajectory: {exc}",)
        raise

    return _assemble_trace(config, ref_samples, cand_samples)


def _paired_samples(
    config: ExperimentConfig,
    ref_samples: Sequence[Tuple[float, State]],
    cand_samples: Sequence[Tuple[float, State]],
) -> Iterator[Tuple[float, State, StatePair]]:
    """Yield (time, reference state, pair on the candidate grid) per sample.

    The sample counts and times of the two trajectories must match; the
    reference is restricted to the candidate grid one sample at a time.
    """
    if len(ref_samples) != len(cand_samples):
        raise VerifierError("reference and candidate produced different sample counts")
    for (t_r, st_r), (t_c, st_c) in zip(ref_samples, cand_samples):
        if abs(t_r - t_c) > 1e-9 * max(1.0, config.t_end):
            raise VerifierError(f"sample time mismatch: {t_r} vs {t_c}")
        ref_on_c = restrict_state(st_r, config.grid_candidate, config.params.system)
        yield t_c, st_r, StatePair(st_c, ref_on_c, rho_lower=config.solver.density_floor)


def _assemble_trace(
    config: ExperimentConfig,
    ref_samples: Sequence[Tuple[float, State]],
    cand_samples: Sequence[Tuple[float, State]],
) -> EntropyTrace:
    params = config.params
    system = params.system
    n = len(cand_samples)
    cols: Dict[str, np.ndarray] = {
        name: np.full(n, np.nan)
        for name in (
            "entropy", "h_hat", "energy_candidate", "energy_reference",
            "dissipation_candidate", "dissipation_reference", "mass_candidate",
            "sphere_defect", "r_d", "r_c", "r_bar_d", "r_bar_c",
            "r_1d", "r_1c", "r_1c_a", "r_1c_b", "reorg_mismatch",
        )
    }
    times = np.empty(n)
    breakdowns: List[RemainderBreakdown] = []
    active = _GL_COLUMNS if system is System.GL else _SPHERE_COLUMNS

    pairs = _paired_samples(config, ref_samples, cand_samples)
    for k, (t, st_r, pair) in enumerate(pairs):
        st_c = pair.candidate
        times[k] = t
        cols["entropy"][k] = relative_entropy(pair, params)
        cols["energy_candidate"][k] = energy(st_c, params)
        cols["energy_reference"][k] = energy(st_r, params)
        cols["dissipation_candidate"][k] = dissipation(st_c, params)
        cols["dissipation_reference"][k] = dissipation(st_r, params)
        cols["mass_candidate"][k] = mass(st_c)
        if system is System.SPHERE:
            mag = np.sqrt(np.sum(st_c.d.values**2, axis=0))
            cols["sphere_defect"][k] = float(np.max(np.abs(mag - 1.0)))
        br = remainder(pair, params)
        breakdowns.append(br)
        cols["h_hat"][k] = br.h_hat
        cols["reorg_mismatch"][k] = br.reorg_mismatch
        for name in active:
            cols[name][k] = getattr(br, name)

    return EntropyTrace(system=system, times=times, breakdowns=breakdowns, **cols)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class GronwallReport:
    """Outcome of the Gronwall certification on one trace."""

    passes: bool
    minimal_c_h: float
    worst_time: float
    c_h_used: Optional[float]
    slack: float


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

    if config.c_h is None:
        passes = math.isfinite(minimal)
    else:
        passes = minimal <= config.c_h
    return GronwallReport(
        passes=passes,
        minimal_c_h=minimal,
        worst_time=float(times[worst]),
        c_h_used=config.c_h,
        slack=config.slack,
    )


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
    pair, for both trajectories.
    """
    if len(trace) == 0:
        raise VerifierError("empty trace")
    first_violation = None
    max_viol = {"candidate": -math.inf, "reference": -math.inf}
    for tag, e_col, d_col in (
        ("candidate", trace.energy_candidate, trace.dissipation_candidate),
        ("reference", trace.energy_reference, trace.dissipation_reference),
    ):
        if len(trace) == 1:
            max_viol[tag] = 0.0
            continue
        dt_s = np.diff(trace.times)
        diss_int = 0.5 * (d_col[1:] + d_col[:-1]) * dt_s
        viol = (e_col[1:] + diss_int - e_col[:-1]) / np.maximum(e_col[:-1], 1e-300)
        max_viol[tag] = float(np.max(viol))
        bad = np.nonzero(viol > tol)[0]
        if bad.size:
            t_bad = float(trace.times[bad[0] + 1])
            if first_violation is None or t_bad < first_violation:
                first_violation = t_bad
    passes = (
        max_viol["candidate"] <= tol and max_viol["reference"] <= tol
    )
    return EnergyReport(
        passes=passes,
        tol=tol,
        max_violation_candidate=max_viol["candidate"],
        max_violation_reference=max_viol["reference"],
        first_violation_time=first_violation,
    )


@dataclass
class UniquenessReport:
    """Entropy-collapse study over dyadically refined candidate grids."""

    passes: bool
    exact: bool
    levels: List[int]
    sup_entropy: List[float]
    orders: List[float]


def check_uniqueness(
    config: ExperimentConfig,
    refinement_levels: Sequence[int],
    order_floor: float = 1.8,
) -> UniquenessReport:
    """Zero-perturbation collapse: sup_t entropy vs candidate resolution.

    The reference trajectory is evolved once on config.grid_reference and
    reused across levels.  Each level runs the candidate on a grid with the
    given node count, with dt scaled proportionally to dx^2 from
    config.dt_candidate (anchored at config.grid_candidate), so the
    first-order time error refines at the same rate as the second-order
    space error.  Each level's sup is taken over the relative entropy of
    the paired samples; energies and remainders are not evaluated.
    Passing requires every observed order to reach order_floor; bit-exact
    collapse (entropy identically zero) reports
    exact=True with infinite orders.
    """
    if len(refinement_levels) < 3:
        raise VerifierError("need at least 3 refinement levels")
    config = replace(config, perturbation=Perturbation())  # collapse protocol
    params = config.params
    interval = config.resolved_sample_interval()
    kappa = config.dt_candidate / config.grid_candidate.dx**2

    ref_init = make_initial_data(config.initial_preset, config.grid_reference, params)
    ref_samples = _trajectory_samples(
        ref_init, config.grid_reference, config.dt_reference,
        config.t_end, interval, params, config.solver,
    )

    sups: List[float] = []
    dxs: List[float] = []
    for n in refinement_levels:
        grid_c = Grid1D(n, config.grid_candidate.x_min, config.grid_candidate.x_max)
        dt_c = kappa * grid_c.dx**2
        cand_init = make_initial_data(config.initial_preset, grid_c, params)
        cand_samples = _trajectory_samples(
            cand_init, grid_c, dt_c, config.t_end, interval, params, config.solver,
        )
        level_cfg = replace(config, grid_candidate=grid_c, dt_candidate=dt_c)
        entropy = [
            relative_entropy(pair, params)
            for _, _, pair in _paired_samples(level_cfg, ref_samples, cand_samples)
        ]
        sups.append(float(np.max(entropy)))
        dxs.append(grid_c.dx)

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
    passes = all(o >= order_floor for o in orders)
    exact = all(s == 0.0 for s in sups)  # then every order above is inf
    return UniquenessReport(passes, exact, list(refinement_levels), sups, orders)
