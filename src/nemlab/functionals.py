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

`remainder` builds a sample's whole certificate row in one pass
(_PairFields): one gradient and one Laplacian call on the stacked rows of
both states, each density power taken once, one summed block of director
products for every contraction (SPHERE takes a second for the rows that
read |d_x|), then every integrand written with out= into its row of one
stack for a single trapezoid call; the term table is built once per
parameter set (_layout).  Its RemainderBreakdown also carries the pair's
relative entropy and the candidate's energy, dissipation, mass and
(SPHERE) sphere defect, from the same density helpers as the single-value
functionals, bit for bit.  EnergyWindow evaluates one trajectory's
energies and dissipations a window of samples at a time, with one stacked
pass that energy_dissipation runs on a single state.  Values beyond the
float range raise FunctionalError naming the quantity, never a numpy
warning.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def _contract(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
              stacked: Sequence[Tuple[np.ndarray, np.ndarray]] = ()) -> np.ndarray:
    """Director contractions in one stacked sum: row k is sum_i A_i B_i of
    the k-th pair (A, B) of (3, n) arrays; each pair of (2, 3, n) stacks in
    stacked gives two rows, ahead of the pairs' rows."""
    first = 2 * len(stacked)
    prod = np.empty((first + len(pairs),) + pairs[0][0].shape)
    for k, (a, b) in enumerate(stacked):
        np.multiply(a, b, out=prod[2 * k:2 * k + 2])
    for k, (a, b) in enumerate(pairs, first):
        np.multiply(a, b, out=prod[k])
    return prod.sum(axis=1)


def _unit_defects(lengths: np.ndarray) -> np.ndarray:
    """max | |d| - 1 | over the nodes of each row of director lengths |d|."""
    return np.abs(lengths - 1.0).max(axis=-1)


def _residual(d, lap_d, grad_sq, force):
    """The director relaxation residual of one state or a stack of them:
    d_xx - f(d) for GL (force f(d)), d_xx + |d_x|^2 d for SPHERE (None)."""
    return lap_d - force if force is not None else lap_d + grad_sq[..., None, :] * d


def _state_densities(rho, u, d, grad_u, grad_sq, resid_sq, pi, params: Params,
                     out=(None, None), d_sq=None):
    """Energy and dissipation densities of one state or of a stack of them
    (see energy_dissipation), written to out's arrays when given: d holds
    the components on its second-to-last axis (d_sq, if given, |d|^2),
    grad_sq is |d_x|^2, resid_sq the squared length of the relaxation
    residual (_residual) and pi is Pi(rho)."""
    dens = 0.5 * rho * u * u
    dens += pi
    director = 0.5 * grad_sq
    if params.system is System.GL:
        director += gl_potential(d, params, d_sq)
    dsp = np.add(params.mu * grad_u * grad_u, params.lam * params.theta * resid_sq, out=out[1])
    return np.add(dens, params.lam * director, out=out[0]), dsp


def _entropy_density(rho, du, bregman, dgrad_sq, gap_sq, params: Params,
                     out=None) -> np.ndarray:
    """The relative-entropy integrand, written to out when given; du = u -
    u~, bregman is the pressure Bregman row, dgrad_sq = |d_x - d~_x|^2 and
    gap_sq = |d - d~|^2."""
    dens = 0.5 * rho * du * du
    dens += bregman
    if params.system is System.SPHERE:
        dens += 0.5 * params.lam * dgrad_sq
        return np.add(dens, 0.5 * params.lam * gap_sq, out=out)
    return np.add(dens, 0.5 * params.lam * dgrad_sq, out=out)


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
    grad_sq = grad_d.sum(axis=-2)
    force = gl_force(d, params.sigma0**2) if params.system is System.GL else None
    resid = _residual(d, laplacian_array(d, dx), grad_sq, force)
    resid *= resid
    dens = np.empty((2,) + rho.shape)
    pi = _power_law(_check_nonneg_rho(rho), params.pi_coeff, params.gamma)
    _state_densities(rho, u, d, grad[:, 0], grad_sq, resid.sum(axis=-2), pi, params, out=dens)
    return trapezoid_array(dens, dx)


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
    time, and no numpy warning, if the sample is at or before flush's
    until; the window then keeps its samples.  It holds ENERGY_WINDOW * 5
    * n floats and the pass's temporaries O(ENERGY_WINDOW * n).
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

    def flush(self, until: float = math.inf) -> None:
        """Evaluate the samples in the buffer and, if every value is finite,
        empty it."""
        times = self.times
        if not times:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            out = _energy_rows(self.rows[:len(times)], self.dx, self.params)
        finite = np.isfinite(out)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=0)))
            if times[k] > until:
                return
            which = "energy" if not finite[0, k] else "dissipation"
            raise FunctionalError(f"non-finite {self.trajectory} {which} at t={times[k]:.6g}")
        self.times = []
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
    return float(_unit_defects(np.sqrt((state.d ** 2).sum(axis=-2))))


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
    dgrad_sq, gap_sq = _contract(((dgrad, dgrad), (dd, dd)))
    dens = _entropy_density(c.rho, c.u - r.u, bregman_pressure(c.rho, r.rho, params),
                            dgrad_sq, gap_sq, params)
    return trapezoid_array(dens, dx)


class _PairFields:
    """The arrays one sample's certificate row reads, each set once.

    Names ending in _r are the reference's.  One gradient call takes the
    stacked rows ([p~, rho~ u~, Pi'(rho~)], u, u~, d, d~) and one Laplacian
    call (u~, d, d~); each power of a density is taken once (_power_law's
    power and product).  dgrad, dlap, e, du are the gaps d_x - d~_x, d_xx
    - d~_xx, d - d~, u - u~, and du_r = u~ - u.  One _contract pass sums
    every director product the row reads, those of the (candidate,
    reference) stacks first (the curvatures . d_x, and the squared lengths
    of d, GL's f(d) and d_x), each contraction under its own name; `norms`
    are the rows whose max h_hat reads.  SPHERE's second pass takes the rows that read gm =
    |d_x| and gm_r = |d~_x|.  g_ref = mu u~_xx - lam stress_r.  The checks
    keep their order (SPHERE unit lengths, the candidate density's sign,
    the Bregman round-off) and nothing computed before them raises.
    """

    def __init__(self, pair: StatePair, params: Params):
        self.dx = dx = pair.grid.dx
        c, r = pair.candidate, pair.reference
        self.rho, self.rho_r, self.u, self.u_r = rho, rho_r, u, u_r = c.rho, r.rho, c.u, r.u
        self.d, self.d_r = d, d_r = c.d, r.d
        pow_r, pow1_r = np.power(rho_r, params.gamma), np.power(rho_r, params.gamma - 1.0)
        self.p_r = p_r = pow_r * params.a
        pi1_r = pow1_r * params.pi1_coeff
        laws_r = ()
        if params.system is System.GL:
            self.flux_r = rho_r * u_r
            laws_r = (p_r[None], self.flux_r[None], pi1_r[None])
        rows = np.concatenate((*laws_r, u[None], u_r[None], d, d_r))
        grad, lap = gradient_array(rows, dx), laplacian_array(rows[-7:], dx)
        self.grad_laws_r, self.grad_u, self.grad_u_r = grad[:-8], grad[-8], grad[-7]
        lap_d, lap_d_r = laps = lap[1:].reshape(2, 3, -1)
        dgrad, e, dlap = grad[-6:-3] - grad[-3:], d - d_r, lap_d - lap_d_r
        self.du, self.du_r = u - u_r, u_r - u
        # the (candidate, reference) stacks of d and d_x, and of u d_x, u~ d~_x
        directors, grads = rows[-6:].reshape(2, 3, -1), grad[-6:].reshape(2, 3, -1)
        moved = rows[-8:-6, None] * grads
        trans_gap, (grad_d, grad_d_r) = moved[0] - moved[1], grads
        if params.system is System.GL:
            force, force_r = forces = gl_force(directors, params.sigma0**2)
            dforce = force - force_r
            # the GL curvatures d_xx - f(d) of both states, from their stacks
            curvs = _residual(directors, laps, None, forces)
            resid = curvs[0]
            dots = _contract((
                (lap_d_r, lap_d_r), (dgrad, dgrad), (e, e), (resid, resid), (dlap, trans_gap),
                (dlap, dforce), (dlap, dgrad), (lap_d_r, dgrad), (force, dgrad), (dforce, grad_d_r)),
                stacked=((curvs, grads), (directors, directors), (forces, forces), (grads, grads)))
            self.norms = dots[4:9]
            (self.transport, self.stress_r, self.d_sq, _, _, _, self.grad_sq, _, _, self.dgrad_sq,
             self.gap_sq, self.resid_sq, self.difference, self.force_gap, self.gradient,
             self.curvature, self.candidate_force, self.force_gradient) = dots
        else:
            dots = _contract((
                (lap_d_r, lap_d_r), (dgrad, dgrad), (e, e), (dlap, trans_gap), (e, trans_gap),
                (dlap, dgrad), (lap_d_r, dgrad), (d, dlap), (e, grad_d), (e, dgrad), (d, e)),
                stacked=((laps, grads), (directors, directors), (grads, grads)))
            self.norms, self.d_sq = dots[2:7], None
            lengths = np.sqrt(dots[2:6])  # |d|, |d~|, |d_x|, |d~_x|
            defects = _unit_defects(lengths[:2])
            for name, defect in zip(("candidate", "reference"), defects.tolist()):
                if defect > 1e-8:
                    raise FunctionalError(f"{name} director is not unit length")
            self.sphere_defect = float(defects[0])
            (self.stress_c, self.stress_r, _, _, self.grad_sq, _, _, self.dgrad_sq, self.gap_sq,
             self.difference, self.director_transport, self.gradient, self.curvature, self.d_dlap,
             self.exchange, self.e_dgrad, self.d_e) = dots
            self.gm, self.gm_r = gms = lengths[2:]
            gm_sq = gms * gms
            self.gm_r2 = gm_sq[1]
            scaled = gm_sq[:, None] * directors
            q = scaled[0] - scaled[1]  # nonlinear reaction gap
            resid = _residual(d, lap_d, self.grad_sq, None)
            self.laplacian_q, self.director_q, self.resid_sq = _contract(
                ((dlap, q), (e, q), (resid, resid)))
        _check_nonneg_rho(rho)
        pow_c = np.power(rho, params.gamma)
        self.p, self.pi = pow_c * params.a, pow_c * params.pi_coeff
        self.bregman = _bregman(self.pi, pi1_r, pow_r * params.pi_coeff, rho, rho_r)
        self.dp_r = pow1_r * params.dp_coeff
        self.rho_du_r = rho * self.du_r
        self.stress_div_r = params.lam * self.stress_r
        self.g_ref = params.mu * lap[0] - self.stress_div_r


# Each system's terms in trace column order under their QUARTETS block,
# each with the key of the coefficient (_layout) its integral is multiplied by
_DENSITY_TERMS = "rbd_convective 1, rbd_pressure_bregman -1, rbd_density_weighted_force 1"
_TERMS = {
    System.GL: {
        "r_d": "rd_velocity_exchange 1, rd_viscous_exchange mu, rd_pressure_transport 1, "
               "rd_pressure_work -1",
        "r_bar_d": _DENSITY_TERMS,
        "r_c": "rc_candidate_transport -lam, rc_reference_transport lam, "
               "rc_difference_transport lam, rc_force_difference lam*th",
        "r_bar_c": "rbc_force_difference lam*th, rbc_gradient_transport lam, "
                   "rbc_reference_curvature -lam, rbc_candidate_force lam, rbc_force_gradient lam",
    },
    System.SPHERE: {
        "r_1d": _DENSITY_TERMS,
        "r_1c": "r1c_stress_transport lam, r1c_difference_transport lam, "
                "r1c_nonlinear_laplacian -lam*th, r1c_nonlinear_director lam*th, "
                "r1c_director_transport -lam",
        "r_1c_a": "r1ca_gradient_transport lam, r1ca_reference_curvature lam, "
                  "r1ca_factored_curvature -lam*th, r1ca_director_exchange lam",
        "r_1c_b": "r1cb_gradient_director -lam, r1cb_factored_director lam*th, "
                  "r1cb_reference_gradient_sq lam*th, r1cb_byparts_cross 2lam*th, "
                  "r1cb_byparts_gradient_sq lam*th",
    },
}


@functools.lru_cache(maxsize=64)
def _layout(params: Params):
    """The row's term names and coefficients, in order with the two
    diagnostics last, and each QUARTETS entry's range of terms."""
    lam, th = params.lam, params.theta
    factor = {"1": 1.0, "-1": -1.0, "mu": params.mu, "lam": lam, "-lam": -lam,
              "lam*th": lam * th, "-lam*th": -lam * th, "2lam*th": 2.0 * lam * th}
    terms, ranges = [], {}
    for block, text in _TERMS[params.system].items():
        block_terms = [term.split() for term in text.split(", ")]
        ranges[block] = (len(terms), len(terms) + len(block_terms))
        terms += block_terms
    terms += [("diag_stress_transport_exchange", "1"), ("diag_director_l2_gap", "1")]
    return (tuple(name for name, _ in terms), tuple(factor[key] for _, key in terms),
            tuple(ranges[block] for block in QUARTETS[params.system]))


def _density_rows(f: _PairFields, row: Callable[[], np.ndarray]) -> None:
    """Velocity/pressure remainder in estimate order (r_bar_d, SPHERE's
    r_1d), each integrand written to the next row(): the convective
    quadratic, the pressure Bregman work and the density-weighted force
    imbalance; the stress-transport exchange term that migrates between
    the blocks is a diagnostic of `remainder`."""
    drho = f.rho - f.rho_r
    np.multiply(f.rho_du_r * -f.du_r, f.grad_u_r, out=row())
    np.multiply(f.grad_u_r, f.p - f.dp_r * drho - f.p_r, out=row())
    np.multiply(drho / f.rho_r * f.g_ref, f.du_r, out=row())


def _gl_rows(f: _PairFields, params: Params, row: Callable[[], np.ndarray]) -> None:
    """GL integrands in _TERMS order: (r_d, r_c) is the derivation-order
    split, (r_bar_d, r_bar_c) the estimate-order one; their sums agree up to
    O(dx^2).  r_d replaces d(u~)/dt and d(Pi'(rho~))/dt by the right-hand
    sides of the reference momentum and continuity equations."""
    grad_p_r, grad_flux_r, grad_pi1_r = f.grad_laws_r
    dudt_r = (f.g_ref - grad_p_r) / f.rho_r - f.u_r * f.grad_u_r
    # -Pi''(rho~), its coefficient negated
    dpidt_r = _power_law(f.rho_r, -params.dp_coeff, params.gamma - 2.0) * grad_flux_r
    np.multiply(f.rho_du_r, dudt_r + f.u * f.grad_u_r, out=row())
    np.multiply(f.grad_u_r, f.grad_u_r - f.grad_u, out=row())
    np.add((f.rho_r - f.rho) * dpidt_r, grad_pi1_r * (f.flux_r - f.rho * f.u), out=row())
    np.multiply(f.grad_u_r, f.p - f.p_r, out=row())
    _density_rows(f, row)
    np.multiply(f.u, f.transport, out=row())
    np.multiply(f.u_r, f.transport, out=row())
    row()[:] = f.difference
    row()[:] = f.force_gap  # rc_force_difference, then rbc_force_difference
    row()[:] = f.force_gap
    np.multiply(f.u_r, f.gradient, out=row())
    np.multiply(f.du, f.curvature, out=row())
    np.multiply(f.du, f.candidate_force, out=row())
    np.multiply(f.du, f.force_gradient, out=row())


def _sphere_rows(f: _PairFields, params: Params, row: Callable[[], np.ndarray]) -> None:
    """SPHERE integrands in _TERMS order.

    r_1d is the density/velocity block, already in estimate order; r_1c
    collects the director couplings, split into the part needing
    delta-absorption against the Laplacian-gap dissipation (r_1c_a) and
    the part bounded directly through the entropy (r_1c_b).  The split is
    algebraically exact except for one factored curvature term moved by
    integration by parts, so r_1c = r_1c_a + r_1c_b holds to O(dx^2); the
    two terms carrying the factor (|d~_x| + |d_x|)(|d_x| - |d~_x|) keep
    that factored form.  stress_r is d~_xx . d~_x (curv~ = d~_xx).
    """
    _density_rows(f, row)
    np.multiply(f.stress_c - f.stress_r, f.du_r, out=row())
    for dot in (f.difference, f.laplacian_q, f.director_q, f.director_transport):
        row()[:] = dot
    gap_mag = f.gm - f.gm_r
    sum_mag = f.gm_r + f.gm
    np.multiply(f.u_r, f.gradient, out=row())
    np.multiply(f.du_r, f.curvature, out=row())
    np.multiply(sum_mag * f.d_dlap, gap_mag, out=row())
    np.multiply(f.du_r, f.exchange, out=row())
    np.multiply(f.u_r, f.e_dgrad, out=row())
    np.multiply(sum_mag * f.d_e, gap_mag, out=row())
    np.multiply(f.gap_sq, f.gm_r2, out=row())
    # the factored-curvature move: integral(|d~_x|^2 e . (dlap)) shifted by
    # parts onto the gradient gap (reference Neumann slope kills the
    # boundary term)
    np.multiply(f.stress_r, f.e_dgrad, out=row())
    np.multiply(f.gm_r2, f.dgrad_sq, out=row())


@np.errstate(over="ignore", invalid="ignore")
def remainder(pair: StatePair, params: Params) -> RemainderBreakdown:
    """One certificate row: every remainder integral, both
    reorganizations, h_hat, the relative entropy and the candidate's
    single-state values at one sample.

    The quartet holds the active system's QUARTETS entries; its
    reorganization identity is checked against REORG_TOL_COEFF * dx^2.
    SPHERE requires both directors to be unit length.  The pair's fields
    are built once; every integrand is written to its row of one stack
    that a single trapezoid call integrates.  Values beyond the float
    range raise FunctionalError (see _check_row), not a numpy warning.
    """
    f = _PairFields(pair, params)
    names, coefficients, blocks = _layout(params)
    gl = params.system is System.GL
    stack = np.empty((len(names) + 5, f.rho.shape[0]))
    row = iter(stack).__next__
    (_gl_rows if gl else _sphere_rows)(f, params, row)
    # the diagnostics: the reference stress transported by the velocity gap,
    # which cancels between the two reorganized blocks, and the director gap
    # (its square root taken below)
    np.multiply(f.stress_div_r, f.du_r, out=row())
    row()[:] = f.gap_sq
    # past the terms: entropy, the candidate's energy, dissipation, mass; |g~/rho~|^3
    _entropy_density(f.rho, f.du, f.bregman, f.dgrad_sq, f.gap_sq, params, out=row())
    _state_densities(f.rho, f.u, f.d, f.grad_u, f.grad_sq, f.resid_sq, f.pi, params,
                     out=(row(), row()), d_sq=f.d_sq)
    row()[:] = f.rho
    np.power(np.abs(f.g_ref / f.rho_r), 3, out=row())
    integrals = trapezoid_array(stack, f.dx).tolist()
    values = [c * v for c, v in zip(coefficients, integrals)]
    values[-1] = math.sqrt(values[-1])
    entropy, energy_c, dissipation_c, mass_c, l3_cubed = integrals[len(values):]

    # each block sums left to right in term order
    quartet = [functools.reduce(operator.add, values[a:b]) for a, b in blocks]
    lhs = quartet[0] + quartet[1] if gl else quartet[1]
    mismatch = lhs - (quartet[2] + quartet[3])
    h_terms = _gronwall_terms(f, params, l3_cubed)
    out = RemainderBreakdown(
        quartet=dict(zip(QUARTETS[params.system], quartet)),
        terms=dict(zip(names, values)), h_terms=h_terms,
        h_hat=float(sum(h_terms.values())), reorg_mismatch=float(mismatch), entropy=entropy,
        energy=energy_c, dissipation=dissipation_c, mass=mass_c,
        sphere_defect=None if gl else f.sphere_defect,
    )
    _check_row(out, f.dx, l3_cubed)
    return out


def _check_row(out: RemainderBreakdown, dx: float, l3_cubed: float) -> None:
    """The reorganization identity holds, then every term is finite, then
    (NonFiniteError) the |g~/rho~|^3 integral, h_hat, the entropy and the
    candidate's energy, dissipation and mass."""
    total = sum(map(abs, out.terms.values()))
    scale = max(1.0, total)
    if abs(out.reorg_mismatch) > REORG_TOL_COEFF * dx * dx * scale:
        raise FunctionalError(
            f"remainder reorganization mismatch {out.reorg_mismatch:.3e} exceeds "
            f"{REORG_TOL_COEFF:g}*dx^2 at scale {scale:.3e}; "
            "formula-level inconsistency"
        )
    if not math.isfinite(total):  # else every term is finite
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
    stacked max, the lengths' from their squares (f.norms) before the
    square root; l3_cubed is the integral of |g~/rho~|^3.
    """
    mags = np.abs(np.array((f.grad_u_r, f.g_ref, f.u_r, *f.norms))).max(axis=-1).tolist()
    grad_u_r, g, u_r = mags[:3]
    lengths = [math.sqrt(v) for v in mags[3:]]
    terms: Dict[str, float] = {}
    terms["grad_u_ref_inf"] = grad_u_r
    terms["g_over_rho_l3_sq"] = _sq(float(np.cbrt(l3_cubed)))
    terms["g_inf"] = g
    terms["u_ref_inf_sq"] = _sq(u_r)

    if params.system is System.GL:
        force, force_r, _, grad_r_inf, lap_r_inf = lengths
        # size surrogate for the penalization-force Lipschitz bound; the
        # true constant folds into c_h
        terms["force_scale"] = force + force_r
        terms["curvature_force_inf_sq"] = _sq(lap_r_inf + force)
        terms["grad_d_ref_inf_sq"] = _sq(grad_r_inf)
    else:
        d_inf, _, grad_c_inf, grad_r_inf, lap_r_inf = lengths
        terms["u_ref_inf"] = u_r
        terms["lap_d_ref_inf_sq"] = _sq(lap_r_inf)
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
