"""Integral functionals for twin-trajectory entropy bookkeeping.

Everything here is an instantaneous spatial integral over one grid:
energies and dissipation rates of a single state, the relative entropy of a
candidate/reference pair, the remainder terms that drive entropy growth,
their reorganized forms, and the Gronwall coefficient h_hat assembled from
the norm factors of the term-by-term estimates.

Vector calculus convention (1D reduction): the velocity is scalar, the
director keeps 3 components, and for 3-vectors A, B and velocity w the
contraction "A . (grad B) w" means w * (dB/dx . A) - the transported
gradient dotted into A.  All products below are written that way.

Remainders are rate densities: the time-integrated expressions appear in
the entropy inequality, but this module evaluates the spatial integrand at
one sample time and leaves time integration to the trace accumulator.
Time derivatives of the reference fields are eliminated through the
reference's own equations of motion (it plays the strong solution, which
satisfies them pointwise), so every remainder is a pure function of the
instantaneous pair.  That also makes the reorganization identities

    r_d + r_c = r_bar_d + r_bar_c         (GL)
    r_1c      = r_1c_a + r_1c_b           (SPHERE)

hold on arbitrary smooth pairs up to O(dx^2) discrete product/chain-rule
and integration-by-parts defects, which is exactly what the refinement
tests quantify.

`remainder` builds a sample's whole certificate row in one pass: one
sign check of the candidate density and one evaluation of each pressure
law, one gradient and one Laplacian call on the stacked (u, d0, d1, d2)
rows of both states (GL's gradient call also takes the reference's
pressure, momentum and Pi' rows), a few stacked director contractions,
one trapezoid call on the stack of every integrand and one max for the
h_hat norms.  Its RemainderBreakdown also carries the pair's relative
entropy and the candidate's energy, dissipation, mass and (SPHERE)
sphere defect, from the same density helpers as the single-value
functionals, bit for bit.  EnergyWindow evaluates one trajectory's
energies and dissipations a window of samples at a time, with one
stacked pass that energy_dissipation runs on a single state.  Values
beyond the float range raise FunctionalError naming the quantity, never
a numpy warning.

Coefficient threading: with the director energy weighted by lam, the
natural weights are mu on viscous terms, lam on director transport
couplings and lam*theta on director relaxation/diffusion differences; at
mu = lam = theta = 1 every formula reduces to its normalized form.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .constitutive import (
    ConstitutiveError,
    Params,
    System,
    _bregman,
    _check_nonneg_rho,
    _power_law,
    bregman_pressure,
    gl_force,
    gl_potential,
    pressure_potential,
)
from .dynamics import DEFAULT_DENSITY_FLOOR, State
from .grid import Grid1D, gradient_array, laplacian_array, trapezoid_array

# Reorganization mismatch beyond this multiple of dx^2 * magnitude-scale
# indicates a formula-level error rather than discretization noise.
REORG_TOL_COEFF = 1e3

# The four remainders of each system, in trace column order: the
# derivation-order split (SPHERE: the density block and the coupling
# sum), then its reorganized counterpart.
QUARTETS: Dict[System, Tuple[str, str, str, str]] = {
    System.GL: ("r_d", "r_c", "r_bar_d", "r_bar_c"),
    System.SPHERE: ("r_1d", "r_1c", "r_1c_a", "r_1c_b"),
}

# Samples per stacked pass of EnergyWindow, chosen by measurement.  CPU
# microseconds per sample (best of 7 runs of 1600 samples, shared 2-vCPU
# x86-64 VM), per-state energy_dissipation, then windows of 2, 4, 8, 16:
#   n = 513  GL 94; 66, 50, 37, 59   SPHERE 77; 54, 37, 30, 45
#   n = 97   GL 70; 45, 26, 17, 12   SPHERE 61; 39, 24, 15, 10
# A window of 8 is faster still, but the pass's temporaries (about 20
# n-node rows per sample) take the tracemalloc peak of a streamed GL twin
# (n 257 to 33, 151 samples) from 490 KB per state through 668 KB at 4 to
# 893 KB at 8, past the 758 KB its memory test allows.
ENERGY_WINDOW = 4


class FunctionalError(ValueError):
    """Invalid input to a functional (grid mismatch, degenerate reference)."""


class NonFiniteError(FunctionalError):
    """A sample's integral left the float range; the caller that knows the
    sample's time adds it to the message."""


@dataclass(frozen=True)
class StatePair:
    """Candidate/reference states on one shared grid.

    The candidate plays the finite-energy trajectory being tested; the
    reference plays the strong trajectory, so its density must stay
    strictly above rho_lower.
    """

    candidate: State
    reference: State
    rho_lower: float = DEFAULT_DENSITY_FLOOR

    def __post_init__(self):
        if self.candidate.grid != self.reference.grid:
            raise FunctionalError("candidate and reference must share one grid")
        low = self.reference.rho.min()
        if low < self.rho_lower:
            raise FunctionalError(
                f"reference density {low:.3e} below lower bound {self.rho_lower:.1e}"
            )
        if not low > 0:  # reachable only with rho_lower <= 0
            raise ConstitutiveError("reference density must be strictly positive")

    @property
    def grid(self) -> Grid1D:
        return self.candidate.grid


@dataclass
class RemainderBreakdown:
    """One certificate row: every remainder integral and h_hat at one sample.

    `quartet` maps the active system's QUARTETS names to their values;
    `terms` maps each named integral (and a few diagnostics, prefixed
    diag_) to its value; `h_terms` maps each norm factor of h_hat to its
    value, and h_hat is their sum; `reorg_mismatch` is the defect of the
    active reorganization identity, which must vanish at O(dx^2) under
    refinement.  `entropy` is the pair's relative entropy; `energy`,
    `dissipation`, `mass` and `sphere_defect` (SPHERE only, else None) are
    the candidate's.
    """

    quartet: Dict[str, float]
    terms: Dict[str, float]
    h_terms: Dict[str, float]
    h_hat: float
    reorg_mismatch: float
    entropy: float
    energy: float
    dissipation: float
    mass: float
    sphere_defect: Optional[float] = None


# ---------------------------------------------------------------------------
# Stacked passes and the densities built on them
# ---------------------------------------------------------------------------


def _derivatives(states: Sequence[State], dx: float,
                 *extra: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient of the states' stacked (u, d0, d1, d2) rows, four rows per
    state, then of the extra rows; and Laplacian of the states' rows past
    the first u: the rows the densities read, with one call of each
    operator.  The stencils act row by row, so the rows left out change no
    bit of the others."""
    rows = np.concatenate([f for s in states for f in (s.u[None], s.d)]
                          + [row[None] for row in extra])
    return gradient_array(rows, dx), laplacian_array(rows[1:4 * len(states)], dx)


def _dots(**pairs: Tuple[np.ndarray, np.ndarray]) -> Dict[str, np.ndarray]:
    """Director contractions, one stacked sum: each keyword names a pair
    (A, B) of (3, n) arrays and maps to the length-n row sum_k A_k B_k."""
    left = np.array([a for a, _ in pairs.values()])
    right = np.array([b for _, b in pairs.values()])
    return dict(zip(pairs, (left * right).sum(axis=1)))


def _unit_defects(d: np.ndarray) -> np.ndarray:
    """max | |d| - 1 | over the nodes of each director of a (..., 3, n) stack."""
    return np.abs(np.sqrt((d**2).sum(axis=-2)) - 1.0).max(axis=-1)


def _state_densities(rho, u, d, grad_u, grad_sq, lap_d, force, pi, params: Params):
    """Energy and dissipation densities of one state or of a stack of them
    (see energy_dissipation): d, lap_d and force (f(d) for GL, else None)
    hold the components on their second-to-last axis, grad_sq is |d_x|^2
    and pi is Pi(rho)."""
    dens = 0.5 * rho * u * u
    dens += pi
    director = 0.5 * grad_sq
    if params.system is System.GL:
        director += gl_potential(d, params)
        resid = lap_d - force
    else:
        resid = lap_d + grad_sq[..., None, :] * d
    resid *= resid
    dsp = params.mu * grad_u * grad_u + params.lam * params.theta * resid.sum(axis=-2)
    return dens + params.lam * director, dsp


def _entropy_density(rho, du, bregman, dgrad_sq, gap_sq, params: Params) -> np.ndarray:
    """The relative-entropy integrand; du = u - u~, bregman is the pressure
    Bregman row, dgrad_sq = |d_x - d~_x|^2 and gap_sq = |d - d~|^2."""
    dens = 0.5 * rho * du * du
    dens = dens + bregman
    dens = dens + 0.5 * params.lam * dgrad_sq
    if params.system is System.SPHERE:
        dens = dens + 0.5 * params.lam * gap_sq
    return dens


# ---------------------------------------------------------------------------
# Single-state functionals
# ---------------------------------------------------------------------------


def _energy_rows(rows: np.ndarray, dx: float, params: Params) -> np.ndarray:
    """Energy and dissipation of the K states whose (rho, u, d0, d1, d2)
    rows are stacked in rows (K, 5, n): a (2, K) array from one gradient,
    one Laplacian and one trapezoid call.  The stencils and the quadrature
    act row by row, so each state's values are those of its own pass."""
    rho, u, d = rows[:, 0], rows[:, 1], rows[:, 2:]
    grad = gradient_array(rows[:, 1:], dx)
    grad_d = np.multiply(grad[:, 1:], grad[:, 1:], out=grad[:, 1:])  # squared in place
    force = gl_force(d, params) if params.system is System.GL else None
    dens = _state_densities(rho, u, d, grad[:, 0], grad_d.sum(axis=-2), laplacian_array(d, dx),
                            force, pressure_potential(rho, params), params)
    return trapezoid_array(np.array(dens), dx)


def energy_dissipation(state: State, params: Params) -> Tuple[float, float]:
    """Energy and dissipation rate of one state, from one derivative pass.

    energy:      integral( rho |u|^2 / 2 + a/(gamma-1) rho^gamma
                           + lam ( |d_x|^2 / 2 [+ F(d) for GL] ) ) dx
    dissipation: integral( mu |u_x|^2 + lam theta |d_xx - f(d)|^2 ) for GL;
                 the SPHERE relaxation residual is d_xx + |d_x|^2 d instead.

    The one-state case of EnergyWindow's stacked pass.
    """
    rows = np.concatenate((state.rho[None], state.u[None], state.d))
    return tuple(_energy_rows(rows[None], state.grid.dx, params)[:, 0].tolist())


class EnergyWindow:
    """The energy and dissipation columns of one trajectory's samples,
    evaluated ENERGY_WINDOW samples at a time.

    add(state, t) copies a sample's (rho, u, d) rows into the window's
    buffer.  A full window, and the partial one left when flush() is
    called at the end of the run, goes through one stacked pass: the pass
    energy_dissipation runs on one state, so every value is bit for bit
    energy_dissipation's.  A value beyond the float range raises
    FunctionalError naming the quantity, the trajectory and the sample
    time, and no numpy warning.  The window holds ENERGY_WINDOW * 5 * n
    floats and the pass's temporaries O(ENERGY_WINDOW * n).
    """

    def __init__(self, grid: Grid1D, params: Params, trajectory: str):
        self.dx, self.params, self.trajectory = grid.dx, params, trajectory
        self.rows = np.empty((ENERGY_WINDOW, 5, grid.n_nodes))
        self.times: List[float] = []  # of the samples in the buffer
        self.energy, self.dissipation = array("d"), array("d")

    def add(self, state: State, t: float) -> None:
        rows = self.rows[len(self.times)]
        rows[0], rows[1], rows[2:] = state.rho, state.u, state.d
        self.times.append(t)
        if len(self.times) == len(self.rows):
            self.flush()

    def flush(self) -> None:
        """Evaluate the samples in the buffer and empty it."""
        times, self.times = self.times, []
        if not times:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            out = _energy_rows(self.rows[:len(times)], self.dx, self.params)
        finite = np.isfinite(out)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=0)))
            which = "energy" if not finite[0, k] else "dissipation"
            raise FunctionalError(f"non-finite {self.trajectory} {which} at t={times[k]:.6g}")
        self.energy.extend(out[0].tolist())
        self.dissipation.extend(out[1].tolist())


def energy(state: State, params: Params) -> float:
    """Total energy: kinetic + pressure potential + weighted director energy."""
    return energy_dissipation(state, params)[0]


def dissipation(state: State, params: Params) -> float:
    """Instantaneous dissipation rate (see energy_dissipation)."""
    return energy_dissipation(state, params)[1]


def mass(state: State) -> float:
    """Total mass integral of the density."""
    return trapezoid_array(state.rho, state.grid.dx)


def sphere_defect(state: State) -> float:
    """Largest departure of the director length from 1: max | |d| - 1 |."""
    return float(_unit_defects(state.d))


# ---------------------------------------------------------------------------
# Pair functionals
# ---------------------------------------------------------------------------


def relative_entropy(pair: StatePair, params: Params) -> float:
    """Distance functional between candidate and reference.

    integral( rho |u - u~|^2 / 2
              + Pi(rho) - Pi'(rho~)(rho - rho~) - Pi(rho~)
              + lam |d_x - d~_x|^2 / 2
              [+ lam |d - d~|^2 / 2 for SPHERE] ) dx

    Nonnegative (each summand is) and zero when the states coincide.  The
    GL variant carries no zeroth-order director gap because the Dirichlet
    pinning lets the gradient gap control it; that gap is still reported,
    as remainder's diag_director_l2_gap term.
    """
    dx = pair.grid.dx
    c, r = pair.candidate, pair.reference
    grad = gradient_array(np.array((c.d, r.d)), dx)
    dgrad = grad[0] - grad[1]
    dd = c.d - r.d
    dot = _dots(dgrad_sq=(dgrad, dgrad), gap_sq=(dd, dd))
    dens = _entropy_density(c.rho, c.u - r.u, bregman_pressure(c.rho, r.rho, params),
                            dot["dgrad_sq"], dot["gap_sq"], params)
    return trapezoid_array(dens, dx)


class _PairFields:
    """Arrays shared by the rows of one sample's quadrature stack.

    The constructor sets each once per sample from one stacked derivative
    pass, after one sign check of the candidate density (StatePair holds
    the reference's above a positive floor); each pressure law is evaluated
    once.  Names ending in _r are the reference's (rho~, u~, d~).  p, p_r
    and pi are P(rho), P(rho~) and Pi(rho), bregman the pressure Bregman
    row, dgrad = d_x - d~_x, dlap = d_xx - d~_xx and e = d - d~.  force and
    force_r hold f(d) and f(d~) for GL and are None for SPHERE, as are
    grad_laws_r, the gradients of p~, rho~ u~ and Pi'(rho~), and flux_r =
    rho~ u~.  stress_div_r = lam * stress_r and g_ref = mu u~_xx -
    stress_div_r.  dot holds the contractions several rows share: stress_r
    = curv~ . d~_x and the squares grad_sq = |d_x|^2, grad_r_sq, lap_r_sq,
    dgrad_sq, gap_sq = |d - d~|^2, force_sq, force_r_sq (GL), d_sq (SPHERE).
    """

    def __init__(self, pair: StatePair, params: Params):
        self.dx = dx = pair.grid.dx
        c, r = pair.candidate, pair.reference
        self.d, self.d_r = d, d_r = c.d, r.d
        self.rho, self.rho_r = rho, rho_r = _check_nonneg_rho(c.rho), r.rho
        self.u, self.u_r = c.u, r.u
        a, gamma = params.a, params.gamma
        pi_coeff = a / (gamma - 1.0)
        self.pi = pi = _power_law(rho, pi_coeff, gamma)
        pi1_r = _power_law(rho_r, a * gamma / (gamma - 1.0), gamma - 1.0)
        self.p_r = p_r = _power_law(rho_r, a, gamma)
        self.bregman = _bregman(pi, pi1_r, _power_law(rho_r, pi_coeff, gamma), rho, rho_r)
        self.force = self.force_r = self.flux_r = None
        laws_r = ()
        if params.system is System.GL:
            self.flux_r = flux_r = rho_r * r.u
            laws_r = (p_r, flux_r, pi1_r)
        # rows (u, d, u~, d~[, p~, rho~ u~, Pi'(rho~)]); lap (d, u~, d~)
        grad, lap = _derivatives((c, r), dx, *laws_r)
        self.grad_u, self.grad_u_r = grad[0], grad[4]
        self.grad_laws_r = grad[8:] if laws_r else None
        self.grad_d, self.grad_d_r = grad_d, grad_d_r = grad[1:4], grad[5:8]
        self.lap_d, self.lap_d_r = lap_d, lap_d_r = lap[:3], lap[4:]
        self.dgrad = dgrad = grad_d - grad_d_r
        self.e = e = d - d_r
        curv_r = lap_d_r
        if params.system is System.GL:
            self.force, self.force_r = force, force_r = gl_force(np.array((d, d_r)), params)
            curv_r = lap_d_r - force_r
            norms = dict(force_sq=(force, force), force_r_sq=(force_r, force_r))
        else:
            norms = dict(d_sq=(d, d))
        self.dot = _dots(stress_r=(curv_r, grad_d_r), grad_sq=(grad_d, grad_d),
                         grad_r_sq=(grad_d_r, grad_d_r), lap_r_sq=(lap_d_r, lap_d_r),
                         dgrad_sq=(dgrad, dgrad), gap_sq=(e, e), **norms)
        self.stress_div_r = params.lam * self.dot["stress_r"]
        self.p = _power_law(rho, a, gamma)
        self.dlap = lap_d - lap_d_r
        self.g_ref = params.mu * lap[3] - self.stress_div_r


# One block of integrands queued for the sample's quadrature stack, each
# with the coefficient its integral is multiplied by.
_Rows = Dict[str, Tuple[float, np.ndarray]]


def _raw_density_terms(f: _PairFields, params: Params) -> _Rows:
    """Velocity/pressure remainder r_d in derivation order (GL only).

    The reference time derivatives d(u~)/dt and d(Pi'(rho~))/dt are
    replaced by the right-hand sides of the reference momentum and
    continuity equations, making the block a function of the
    instantaneous pair.
    """
    du_r = f.u_r - f.u  # u~ - u
    flux_r = f.flux_r
    pi2_r = _power_law(f.rho_r, params.a * params.gamma, params.gamma - 2.0)
    grad_p_r, grad_flux_r, grad_pi1_r = f.grad_laws_r
    dudt_r = (f.g_ref - grad_p_r) / f.rho_r - f.u_r * f.grad_u_r
    dpidt_r = -pi2_r * grad_flux_r
    return {
        "rd_velocity_exchange": (1.0, f.rho * du_r * (dudt_r + f.u * f.grad_u_r)),
        "rd_viscous_exchange": (params.mu, f.grad_u_r * (f.grad_u_r - f.grad_u)),
        "rd_pressure_transport": (
            1.0, (f.rho_r - f.rho) * dpidt_r + grad_pi1_r * (flux_r - f.rho * f.u)
        ),
        "rd_pressure_work": (-1.0, f.grad_u_r * (f.p - f.p_r)),
    }


def _reorganized_density_terms(f: _PairFields, params: Params) -> _Rows:
    """Velocity/pressure remainder in estimate order (r_bar_d, SPHERE's r_1d).

    Regroups the raw block into the convective quadratic, the pressure
    Bregman work and the density-weighted force imbalance.  The
    stress-transport exchange term that migrates between the density and
    coupling blocks is reported by `remainder` as a diagnostic.
    """
    du_r = f.u_r - f.u  # u~ - u
    dp_r = _power_law(f.rho_r, params.a * params.gamma, params.gamma - 1.0)  # P'(rho~)
    bregman_p = f.p - dp_r * (f.rho - f.rho_r) - f.p_r
    return {
        "rbd_convective": (1.0, f.rho * du_r * (-du_r) * f.grad_u_r),
        "rbd_pressure_bregman": (-1.0, f.grad_u_r * bregman_p),
        "rbd_density_weighted_force": (1.0, (f.rho - f.rho_r) / f.rho_r * f.g_ref * du_r),
    }


def _remainder_gl(f: _PairFields, params: Params) -> Dict[str, _Rows]:
    """GL blocks: (r_d, r_c) is the derivation-order split, (r_bar_d,
    r_bar_c) the estimate-order split; their sums agree up to O(dx^2)."""
    lam, th = params.lam, params.theta
    raw, reorg = _raw_density_terms(f, params), _reorganized_density_terms(f, params)

    dforce = f.force - f.force_r
    du = f.u - f.u_r
    dot = _dots(
        transport=(f.lap_d - f.force, f.grad_d),  # d_xx - f(d), the GL curvature
        difference=(f.dlap, f.u * f.grad_d - f.u_r * f.grad_d_r),
        force=(f.dlap, dforce),
        gradient=(f.dlap, f.dgrad),
        curvature=(f.lap_d_r, f.dgrad),
        candidate_force=(f.force, f.dgrad),
        force_gradient=(dforce, f.grad_d_r),
    )
    force_difference = (lam * th, dot["force"])
    coupling = {
        "rc_candidate_transport": (-lam, f.u * dot["transport"]),
        "rc_reference_transport": (lam, f.u_r * dot["transport"]),
        "rc_difference_transport": (lam, dot["difference"]),
        "rc_force_difference": force_difference,
    }
    reorg_coupling = {
        "rbc_force_difference": force_difference,
        "rbc_gradient_transport": (lam, f.u_r * dot["gradient"]),
        "rbc_reference_curvature": (-lam, du * dot["curvature"]),
        "rbc_candidate_force": (lam, du * dot["candidate_force"]),
        "rbc_force_gradient": (lam, du * dot["force_gradient"]),
    }
    return {"r_d": raw, "r_bar_d": reorg, "r_c": coupling, "r_bar_c": reorg_coupling}


def _remainder_sphere(f: _PairFields, params: Params) -> Dict[str, _Rows]:
    """SPHERE blocks r_1d, r_1c, r_1c_a and r_1c_b.

    r_1d is the density/velocity block, already in estimate order; r_1c
    collects the director couplings, split into the part needing
    delta-absorption against the Laplacian-gap dissipation (r_1c_a) and
    the part bounded directly through the entropy (r_1c_b).  The split is
    algebraically exact except for one factored curvature term moved by
    integration by parts, so r_1c = r_1c_a + r_1c_b holds to O(dx^2); the
    two terms carrying the factor (|d~_x| + |d_x|)(|d_x| - |d~_x|) keep
    that factored form.
    """
    lam, th = params.lam, params.theta
    density = _reorganized_density_terms(f, params)

    e, dlap, dgrad = f.e, f.dlap, f.dgrad
    du_r = f.u_r - f.u
    gm = np.sqrt(f.dot["grad_sq"])      # |d_x|
    gm_r = np.sqrt(f.dot["grad_r_sq"])  # |d~_x|
    gm_r2 = gm_r**2
    q = gm**2 * f.d - gm_r2 * f.d_r     # nonlinear reaction gap
    trans_gap = f.u * f.grad_d - f.u_r * f.grad_d_r
    dot = _dots(
        stress_c=(f.lap_d, f.grad_d),
        difference=(dlap, trans_gap),
        laplacian_q=(dlap, q),
        director_q=(e, q),
        director_transport=(e, trans_gap),
        gradient=(dlap, dgrad),
        curvature=(f.lap_d_r, dgrad),
        d_dlap=(f.d, dlap),
        exchange=(e, f.grad_d),
        e_dgrad=(e, dgrad),
        d_e=(f.d, e),
    )

    stress_r = f.dot["stress_r"]  # d~_xx . d~_x: the SPHERE curvature is d~_xx
    coupling = {
        "r1c_stress_transport": (lam, (dot["stress_c"] - stress_r) * du_r),
        "r1c_difference_transport": (lam, dot["difference"]),
        "r1c_nonlinear_laplacian": (-lam * th, dot["laplacian_q"]),
        "r1c_nonlinear_director": (lam * th, dot["director_q"]),
        "r1c_director_transport": (-lam, dot["director_transport"]),
    }
    gap_mag = gm - gm_r
    sum_mag = gm_r + gm
    absorbed = {
        "r1ca_gradient_transport": (lam, f.u_r * dot["gradient"]),
        "r1ca_reference_curvature": (lam, du_r * dot["curvature"]),
        "r1ca_factored_curvature": (-lam * th, sum_mag * dot["d_dlap"] * gap_mag),
        "r1ca_director_exchange": (lam, du_r * dot["exchange"]),
    }
    direct = {
        "r1cb_gradient_director": (-lam, f.u_r * dot["e_dgrad"]),
        "r1cb_factored_director": (lam * th, sum_mag * dot["d_e"] * gap_mag),
        "r1cb_reference_gradient_sq": (lam * th, f.dot["gap_sq"] * gm_r2),
        # the factored-curvature move: integral(|d~_x|^2 e . (dlap)) shifted
        # by parts onto the gradient gap (reference Neumann slope kills the
        # boundary term)
        "r1cb_byparts_cross": (2.0 * lam * th, stress_r * dot["e_dgrad"]),
        "r1cb_byparts_gradient_sq": (lam * th, gm_r2 * f.dot["dgrad_sq"]),
    }
    return {"r_1d": density, "r_1c": coupling, "r_1c_a": absorbed, "r_1c_b": direct}


def remainder(pair: StatePair, params: Params) -> RemainderBreakdown:
    """One certificate row: every remainder integral, both
    reorganizations, h_hat, the relative entropy and the candidate's
    single-state values at one sample.

    The quartet holds the active system's QUARTETS entries; its
    reorganization identity is checked against REORG_TOL_COEFF * dx^2.
    SPHERE requires both directors to be unit length.  The pair's fields
    are built once; every integrand goes into one stack that a single
    trapezoid call integrates.  Values beyond the float range raise
    FunctionalError (see _check_row), not a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _remainder(pair, params)


def _remainder(pair: StatePair, params: Params) -> RemainderBreakdown:
    sphere_def = None
    if params.system is System.SPHERE:
        defects = _unit_defects(np.array((pair.candidate.d, pair.reference.d)))
        for name, defect in zip(("candidate", "reference"), defects.tolist()):
            if defect > 1e-8:
                raise FunctionalError(f"{name} director is not unit length")
        sphere_def = float(defects[0])
    f = _PairFields(pair, params)
    # each block queued in term order, keyed by its QUARTETS name
    blocks = (_remainder_gl if params.system is System.GL else _remainder_sphere)(f, params)
    rows: _Rows = {name: row for block in blocks.values() for name, row in block.items()}
    # reference stress transported by the velocity gap; cancels between the
    # two reorganized blocks
    rows["diag_stress_transport_exchange"] = (1.0, f.stress_div_r * (f.u_r - f.u))
    rows["diag_director_l2_gap"] = (1.0, f.dot["gap_sq"])  # square root taken below

    # past the terms: entropy, the candidate's energy, dissipation, mass; |g~/rho~|^3
    extra = (
        _entropy_density(f.rho, f.u - f.u_r, f.bregman, f.dot["dgrad_sq"], f.dot["gap_sq"],
                         params),
        *_state_densities(f.rho, f.u, f.d, f.grad_u, f.dot["grad_sq"], f.lap_d, f.force, f.pi,
                          params),
        f.rho,
        np.abs(f.g_ref / f.rho_r) ** 3,
    )
    stack = np.array([row for _, row in rows.values()] + list(extra))
    integrals = trapezoid_array(stack, f.dx).tolist()
    terms = {name: c * v for (name, (c, _)), v in zip(rows.items(), integrals)}
    terms["diag_director_l2_gap"] = math.sqrt(terms["diag_director_l2_gap"])
    entropy, energy_c, dissipation_c, mass_c, l3_cubed = integrals[len(rows):]

    # each block sums left to right in the order its rows were queued
    sums = {name: functools.reduce(operator.add, map(terms.__getitem__, block))
            for name, block in blocks.items()}
    quartet = [sums[name] for name in QUARTETS[params.system]]
    lhs = quartet[0] + quartet[1] if params.system is System.GL else quartet[1]
    mismatch = lhs - (quartet[2] + quartet[3])
    h_terms = _gronwall_terms(f, params, l3_cubed)
    out = RemainderBreakdown(
        quartet=dict(zip(QUARTETS[params.system], quartet)), terms=terms, h_terms=h_terms,
        h_hat=float(sum(h_terms.values())), reorg_mismatch=float(mismatch), entropy=entropy,
        energy=energy_c, dissipation=dissipation_c, mass=mass_c, sphere_defect=sphere_def,
    )
    _check_row(out, f.dx, l3_cubed)
    return out


def _check_row(out: RemainderBreakdown, dx: float, l3_cubed: float) -> None:
    """The reorganization identity holds, then every term is finite, then
    (NonFiniteError) the |g~/rho~|^3 integral, h_hat, the entropy and the
    candidate's energy, dissipation and mass."""
    scale = max(1.0, sum(map(abs, out.terms.values())))
    if abs(out.reorg_mismatch) > REORG_TOL_COEFF * dx * dx * scale:
        raise FunctionalError(
            f"remainder reorganization mismatch {out.reorg_mismatch:.3e} exceeds "
            f"{REORG_TOL_COEFF:g}*dx^2 at scale {scale:.3e}; "
            "formula-level inconsistency"
        )
    for name, val in out.terms.items():
        if not math.isfinite(val):
            raise FunctionalError(f"non-finite remainder term {name}")
    if not math.isfinite(l3_cubed):
        raise NonFiniteError("non-finite |g~/rho~|^3 integral")
    for name, val in (("Gronwall coefficient", out.h_hat), ("relative entropy", out.entropy),
                      ("candidate energy", out.energy), ("candidate dissipation", out.dissipation),
                      ("candidate mass", out.mass)):
        if not math.isfinite(val):
            raise NonFiniteError(f"non-finite {name}")


# ---------------------------------------------------------------------------
# Gronwall coefficient
# ---------------------------------------------------------------------------


def _gronwall_terms(f: _PairFields, params: Params, l3_cubed: float) -> Dict[str, float]:
    """The norm factors of h_hat, the integrable growth-rate surrogate.

    Each term is the norm factor multiplying the entropy in one of the
    absorption estimates, taken with unit prefactor; every unknown
    analytic constant (embedding constants, delta-splitting constants) is
    deferred to the single calibrated multiplier c_h applied by the
    verifier.  All terms are nonnegative; all vanish on a resting
    reference with a coinciding candidate.  The max-norms come from one
    stacked max; l3_cubed is the integral of |g~/rho~|^3.
    """
    if params.system is System.GL:
        lengths = {"force": "force_sq", "force_r": "force_r_sq"}
    else:
        lengths = {"d": "d_sq", "grad_d": "grad_sq"}
    lengths.update(grad_d_r="grad_r_sq", lap_d_r="lap_r_sq")
    mags = np.array([f.grad_u_r, f.g_ref, f.u_r, *[f.dot[k] for k in lengths.values()]])
    np.abs(mags[:3], out=mags[:3])
    np.sqrt(mags[3:], out=mags[3:])
    inf = dict(zip(("grad_u_r", "g", "u_r", *lengths), mags.max(axis=-1).tolist()))

    terms: Dict[str, float] = {}
    terms["grad_u_ref_inf"] = inf["grad_u_r"]
    terms["g_over_rho_l3_sq"] = _sq(float(np.cbrt(l3_cubed)))
    terms["g_inf"] = inf["g"]
    terms["u_ref_inf_sq"] = _sq(inf["u_r"])

    if params.system is System.GL:
        # size surrogate for the penalization-force Lipschitz bound; the
        # true constant folds into c_h
        terms["force_scale"] = inf["force"] + inf["force_r"]
        terms["curvature_force_inf_sq"] = _sq(inf["lap_d_r"] + inf["force"])
        terms["grad_d_ref_inf_sq"] = _sq(inf["grad_d_r"])
    else:
        d_inf, grad_c_inf, grad_r_inf = inf["d"], inf["grad_d"], inf["grad_d_r"]
        terms["u_ref_inf"] = inf["u_r"]
        terms["lap_d_ref_inf_sq"] = _sq(inf["lap_d_r"])
        terms["grad_d_both_inf_sq_d_inf_sq"] = (_sq(grad_r_inf) + _sq(grad_c_inf)) * _sq(d_inf)
        terms["grad_d_cand_inf_sq"] = _sq(grad_c_inf)
        terms["d_inf_grad_sum"] = d_inf * (grad_r_inf + grad_c_inf)
        terms["grad_d_ref_inf_sq"] = _sq(grad_r_inf)
    return terms


def _sq(x: float) -> float:
    """x ** 2 of a float; inf beyond the float range, where ** raises OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf
