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

`remainder` is the one per-sample entry point for the remainders and
h_hat: it builds the pair's derived arrays once, runs the GL or the
SPHERE body, checks the active identity and assembles h_hat from the
same arrays.

Coefficient threading: with the director energy weighted by lam, the
natural weights are mu on viscous terms, lam on director transport
couplings and lam*theta on director relaxation/diffusion differences; at
mu = lam = theta = 1 every formula reduces to its normalized form.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .constitutive import (
    Params,
    System,
    bregman_pressure,
    gl_force,
    gl_potential,
    pressure,
    pressure_derivative,
    pressure_potential,
    pressure_potential_derivative,
    pressure_potential_second_derivative,
)
from .dynamics import DEFAULT_DENSITY_FLOOR, State
from .grid import Grid1D, gradient_array, l3_array, laplacian_array, linf_array, trapezoid_array

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


class FunctionalError(ValueError):
    """Invalid input to a functional (grid mismatch, degenerate reference)."""


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
        if np.min(self.reference.rho.values) < self.rho_lower:
            raise FunctionalError(
                f"reference density {np.min(self.reference.rho.values):.3e} "
                f"below lower bound {self.rho_lower:.1e}"
            )

    @property
    def grid(self) -> Grid1D:
        return self.candidate.grid


@dataclass
class RemainderBreakdown:
    """All named remainder integrals and h_hat at one sample time.

    `quartet` maps the active system's QUARTETS names to their values;
    `terms` maps each named integral (and a few diagnostics, prefixed
    diag_) to its value; `h_terms` maps each norm factor of h_hat to its
    value, and h_hat is their sum; `reorg_mismatch` is the defect of the
    active reorganization identity, which must vanish at O(dx^2) under
    refinement.
    """

    quartet: Dict[str, float]
    terms: Dict[str, float]
    h_terms: Dict[str, float]
    h_hat: float
    reorg_mismatch: float


# ---------------------------------------------------------------------------
# Single-state functionals
# ---------------------------------------------------------------------------


def energy(state: State, params: Params) -> float:
    """Total energy: kinetic + pressure potential + weighted director energy.

    integral( rho |u|^2 / 2 + a/(gamma-1) rho^gamma
              + lam ( |d_x|^2 / 2 [+ F(d) for GL] ) ) dx
    """
    grid = state.grid
    rho = state.rho.values
    u = state.u.values
    d = state.d.values
    grad_d = gradient_array(d, grid.dx)
    dens = 0.5 * rho * u * u
    dens = dens + pressure_potential(rho, params)
    director = 0.5 * np.sum(grad_d * grad_d, axis=0)
    if params.system is System.GL:
        director = director + gl_potential(d, params)
    dens = dens + params.lam * director
    return trapezoid_array(dens, grid.dx)


def dissipation(state: State, params: Params) -> float:
    """Instantaneous dissipation rate.

    integral( mu |u_x|^2 + lam theta |d_xx - f(d)|^2 ) for GL; the SPHERE
    relaxation residual is d_xx + |d_x|^2 d instead.
    """
    grid = state.grid
    u = state.u.values
    d = state.d.values
    grad_u = gradient_array(u, grid.dx)
    lap_d = laplacian_array(d, grid.dx)
    if params.system is System.GL:
        resid = lap_d - gl_force(d, params)
    else:
        grad_d = gradient_array(d, grid.dx)
        resid = lap_d + np.sum(grad_d * grad_d, axis=0) * d
    dens = params.mu * grad_u * grad_u + params.lam * params.theta * np.sum(
        resid * resid, axis=0
    )
    return trapezoid_array(dens, grid.dx)


def mass(state: State) -> float:
    """Total mass integral of the density."""
    return trapezoid_array(state.rho.values, state.grid.dx)


def sphere_defect(state: State) -> float:
    """Largest departure of the director length from 1: max | |d| - 1 |."""
    mag = np.sqrt(np.sum(state.d.values**2, axis=0))
    return float(np.max(np.abs(mag - 1.0)))


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
    pinning lets the gradient gap control it; that gap is still available
    as director_l2_gap for diagnostics.
    """
    grid = pair.grid
    c, r = pair.candidate, pair.reference
    du = c.u.values - r.u.values
    dens = 0.5 * c.rho.values * du * du
    dens = dens + bregman_pressure(c.rho.values, r.rho.values, params)
    dgrad = gradient_array(c.d.values, grid.dx) - gradient_array(r.d.values, grid.dx)
    dens = dens + 0.5 * params.lam * np.sum(dgrad * dgrad, axis=0)
    if params.system is System.SPHERE:
        dd = c.d.values - r.d.values
        dens = dens + 0.5 * params.lam * np.sum(dd * dd, axis=0)
    return trapezoid_array(dens, grid.dx)


def director_l2_gap(pair: StatePair) -> float:
    """L2 norm of d - d~ (diagnostic; not part of the GL entropy)."""
    dd = pair.candidate.d.values - pair.reference.d.values
    return float(np.sqrt(trapezoid_array(np.sum(dd * dd, axis=0), pair.grid.dx)))


@dataclass
class _PairFields:
    """Arrays shared by the remainder bodies and the h_hat assembly.

    Built once per sample.  force and force_r hold f(d) and f(d~) for GL
    and are None for SPHERE.
    """

    dx: float
    rho: np.ndarray
    u: np.ndarray
    d: np.ndarray
    rho_r: np.ndarray
    u_r: np.ndarray
    d_r: np.ndarray
    p: np.ndarray
    p_r: np.ndarray
    grad_u: np.ndarray
    grad_u_r: np.ndarray
    lap_u_r: np.ndarray
    grad_d: np.ndarray
    grad_d_r: np.ndarray
    lap_d: np.ndarray
    lap_d_r: np.ndarray
    force: Optional[np.ndarray]
    force_r: Optional[np.ndarray]
    stress_div_r: np.ndarray  # lam-weighted curvature-force form
    g_ref: np.ndarray         # mu*lap(u~) - stress_div_r

    @classmethod
    def build(cls, pair: StatePair, params: Params) -> "_PairFields":
        grid = pair.grid
        dx = grid.dx
        c, r = pair.candidate, pair.reference
        grad_d_r = gradient_array(r.d.values, dx)
        lap_d_r = laplacian_array(r.d.values, dx)
        force = force_r = None
        curv_r = lap_d_r
        if params.system is System.GL:
            force = gl_force(c.d.values, params)
            force_r = gl_force(r.d.values, params)
            curv_r = lap_d_r - force_r
        stress_div_r = params.lam * np.sum(curv_r * grad_d_r, axis=0)
        lap_u_r = laplacian_array(r.u.values, dx)
        return cls(
            dx=dx,
            rho=c.rho.values,
            u=c.u.values,
            d=c.d.values,
            rho_r=r.rho.values,
            u_r=r.u.values,
            d_r=r.d.values,
            p=pressure(c.rho.values, params),
            p_r=pressure(r.rho.values, params),
            grad_u=gradient_array(c.u.values, dx),
            grad_u_r=gradient_array(r.u.values, dx),
            lap_u_r=lap_u_r,
            grad_d=gradient_array(c.d.values, dx),
            grad_d_r=grad_d_r,
            lap_d=laplacian_array(c.d.values, dx),
            lap_d_r=lap_d_r,
            force=force,
            force_r=force_r,
            stress_div_r=stress_div_r,
            g_ref=params.mu * lap_u_r - stress_div_r,
        )


def _block(terms: Dict[str, float], prefix: str) -> float:
    """Sum of the terms named prefix*, left to right in the order added."""
    return functools.reduce(
        operator.add, (v for k, v in terms.items() if k.startswith(prefix))
    )


def _raw_density_terms(
    f: _PairFields, params: Params, terms: Dict[str, float]
) -> float:
    """Velocity/pressure remainder r_d in derivation order (GL only).

    The reference time derivatives d(u~)/dt and d(Pi'(rho~))/dt are
    replaced by the right-hand sides of the reference momentum and
    continuity equations, making the block a function of the
    instantaneous pair.
    """
    dx = f.dx
    du_r = f.u_r - f.u  # u~ - u

    dudt_r = (f.g_ref - gradient_array(f.p_r, dx)) / f.rho_r - f.u_r * f.grad_u_r

    pi2_r = pressure_potential_second_derivative(f.rho_r, params)
    dpidt_r = -pi2_r * gradient_array(f.rho_r * f.u_r, dx)
    grad_pi1_r = gradient_array(pressure_potential_derivative(f.rho_r, params), dx)

    terms["rd_velocity_exchange"] = trapezoid_array(
        f.rho * du_r * (dudt_r + f.u * f.grad_u_r), dx
    )
    terms["rd_viscous_exchange"] = params.mu * trapezoid_array(
        f.grad_u_r * (f.grad_u_r - f.grad_u), dx
    )
    terms["rd_pressure_transport"] = trapezoid_array(
        (f.rho_r - f.rho) * dpidt_r + grad_pi1_r * (f.rho_r * f.u_r - f.rho * f.u), dx
    )
    terms["rd_pressure_work"] = -trapezoid_array(f.grad_u_r * (f.p - f.p_r), dx)
    return _block(terms, "rd_")


def _reorganized_density_terms(
    f: _PairFields, params: Params, terms: Dict[str, float]
) -> float:
    """Velocity/pressure remainder in estimate order (r_bar_d, SPHERE's r_1d).

    Regroups the raw block into the convective quadratic, the pressure
    Bregman work and the density-weighted force imbalance.  The
    stress-transport exchange term that migrates between the density and
    coupling blocks is reported by `remainder` as a diagnostic.
    """
    dx = f.dx
    du_r = f.u_r - f.u  # u~ - u
    bregman_p = f.p - pressure_derivative(f.rho_r, params) * (f.rho - f.rho_r) - f.p_r
    terms["rbd_convective"] = trapezoid_array(f.rho * du_r * (-du_r) * f.grad_u_r, dx)
    terms["rbd_pressure_bregman"] = -trapezoid_array(f.grad_u_r * bregman_p, dx)
    terms["rbd_density_weighted_force"] = trapezoid_array(
        (f.rho - f.rho_r) / f.rho_r * f.g_ref * du_r, dx
    )
    return _block(terms, "rbd_")


def _remainder_gl(f: _PairFields, params: Params, terms: Dict[str, float]):
    """GL quartet and its mismatch (r_d + r_c) - (r_bar_d + r_bar_c).

    (r_d, r_c) is the derivation-order split, (r_bar_d, r_bar_c) the
    estimate-order split; their sums agree up to O(dx^2).
    """
    dx = f.dx
    lam, th = params.lam, params.theta

    r_d = _raw_density_terms(f, params, terms)
    r_bar_d = _reorganized_density_terms(f, params, terms)

    curv_c = f.lap_d - f.force  # d_xx - f(d), the GL relaxation residual
    dlap = f.lap_d - f.lap_d_r
    dgrad = f.grad_d - f.grad_d_r
    dforce = f.force - f.force_r
    du = f.u - f.u_r

    terms["rc_candidate_transport"] = -lam * trapezoid_array(
        f.u * np.sum(curv_c * f.grad_d, axis=0), dx
    )
    terms["rc_reference_transport"] = lam * trapezoid_array(
        f.u_r * np.sum(curv_c * f.grad_d, axis=0), dx
    )
    terms["rc_difference_transport"] = lam * trapezoid_array(
        np.sum(dlap * (f.u * f.grad_d - f.u_r * f.grad_d_r), axis=0), dx
    )
    terms["rc_force_difference"] = lam * th * trapezoid_array(np.sum(dlap * dforce, axis=0), dx)
    r_c = _block(terms, "rc_")

    terms["rbc_force_difference"] = terms["rc_force_difference"]
    terms["rbc_gradient_transport"] = lam * trapezoid_array(
        f.u_r * np.sum(dlap * dgrad, axis=0), dx
    )
    terms["rbc_reference_curvature"] = -lam * trapezoid_array(
        du * np.sum(f.lap_d_r * dgrad, axis=0), dx
    )
    terms["rbc_candidate_force"] = lam * trapezoid_array(
        du * np.sum(f.force * dgrad, axis=0), dx
    )
    terms["rbc_force_gradient"] = lam * trapezoid_array(
        du * np.sum(dforce * f.grad_d_r, axis=0), dx
    )
    r_bar_c = _block(terms, "rbc_")

    return (r_d, r_c, r_bar_d, r_bar_c), (r_d + r_c) - (r_bar_d + r_bar_c)


def _remainder_sphere(f: _PairFields, params: Params, terms: Dict[str, float]):
    """SPHERE quartet (r_1d, r_1c, r_1c_a, r_1c_b) and its mismatch.

    The mismatch is r_1c - (r_1c_a + r_1c_b).  r_1d is the
    density/velocity block, already in estimate order; r_1c collects the
    director couplings, split into the part needing
    delta-absorption against the Laplacian-gap dissipation (r_1c_a) and
    the part bounded directly through the entropy (r_1c_b).  The split is
    algebraically exact except for one factored curvature term moved by
    integration by parts, so the identity holds to O(dx^2); the two terms
    carrying the factor (|d~_x| + |d_x|)(|d_x| - |d~_x|) keep that
    factored form.
    """
    dx = f.dx
    lam, th = params.lam, params.theta

    r_1d = _reorganized_density_terms(f, params, terms)

    e = f.d - f.d_r
    dlap = f.lap_d - f.lap_d_r
    dgrad = f.grad_d - f.grad_d_r
    du_r = f.u_r - f.u
    gm = np.sqrt(np.sum(f.grad_d**2, axis=0))      # |d_x|
    gm_r = np.sqrt(np.sum(f.grad_d_r**2, axis=0))  # |d~_x|
    q = gm**2 * f.d - gm_r**2 * f.d_r              # nonlinear reaction gap
    trans_gap = f.u * f.grad_d - f.u_r * f.grad_d_r

    stress_c = np.sum(f.lap_d * f.grad_d, axis=0)
    stress_r = np.sum(f.lap_d_r * f.grad_d_r, axis=0)
    terms["r1c_stress_transport"] = lam * trapezoid_array((stress_c - stress_r) * du_r, dx)
    terms["r1c_difference_transport"] = lam * trapezoid_array(
        np.sum(dlap * trans_gap, axis=0), dx
    )
    terms["r1c_nonlinear_laplacian"] = -lam * th * trapezoid_array(
        np.sum(dlap * q, axis=0), dx
    )
    terms["r1c_nonlinear_director"] = lam * th * trapezoid_array(np.sum(e * q, axis=0), dx)
    terms["r1c_director_transport"] = -lam * trapezoid_array(
        np.sum(e * trans_gap, axis=0), dx
    )
    r_1c = _block(terms, "r1c_")

    gap_mag = gm - gm_r
    sum_mag = gm_r + gm
    terms["r1ca_gradient_transport"] = lam * trapezoid_array(
        f.u_r * np.sum(dlap * dgrad, axis=0), dx
    )
    terms["r1ca_reference_curvature"] = lam * trapezoid_array(
        du_r * np.sum(f.lap_d_r * dgrad, axis=0), dx
    )
    terms["r1ca_factored_curvature"] = -lam * th * trapezoid_array(
        sum_mag * np.sum(f.d * dlap, axis=0) * gap_mag, dx
    )
    terms["r1ca_director_exchange"] = lam * trapezoid_array(
        du_r * np.sum(e * f.grad_d, axis=0), dx
    )
    r_1c_a = _block(terms, "r1ca_")

    terms["r1cb_gradient_director"] = -lam * trapezoid_array(
        f.u_r * np.sum(e * dgrad, axis=0), dx
    )
    terms["r1cb_factored_director"] = lam * th * trapezoid_array(
        sum_mag * np.sum(f.d * e, axis=0) * gap_mag, dx
    )
    terms["r1cb_reference_gradient_sq"] = lam * th * trapezoid_array(
        np.sum(e * e, axis=0) * gm_r**2, dx
    )
    # the factored-curvature move: integral(|d~_x|^2 e . (dlap)) shifted by
    # parts onto the gradient gap (reference Neumann slope kills the
    # boundary term)
    terms["r1cb_byparts_cross"] = (
        2.0
        * lam
        * th
        * trapezoid_array(
            np.sum(f.grad_d_r * f.lap_d_r, axis=0) * np.sum(e * dgrad, axis=0), dx
        )
    )
    terms["r1cb_byparts_gradient_sq"] = lam * th * trapezoid_array(
        gm_r**2 * np.sum(dgrad * dgrad, axis=0), dx
    )
    r_1c_b = _block(terms, "r1cb_")

    return (r_1d, r_1c, r_1c_a, r_1c_b), r_1c - (r_1c_a + r_1c_b)


def remainder(pair: StatePair, params: Params) -> RemainderBreakdown:
    """Every remainder integral, both reorganizations and h_hat at one sample.

    The quartet holds the active system's QUARTETS entries; its
    reorganization identity is checked against REORG_TOL_COEFF * dx^2.
    SPHERE requires both directors to be unit length.  The pair's fields
    are built once and shared by the remainder bodies and the h_hat
    assembly.
    """
    if params.system is System.SPHERE:
        for name, st in (("candidate", pair.candidate), ("reference", pair.reference)):
            if sphere_defect(st) > 1e-8:
                raise FunctionalError(f"{name} director is not unit length")
    f = _PairFields.build(pair, params)
    terms: Dict[str, float] = {}
    body = _remainder_gl if params.system is System.GL else _remainder_sphere
    quartet, mismatch = body(f, params, terms)
    # reference stress transported by the velocity gap; cancels between the
    # two reorganized blocks
    terms["diag_stress_transport_exchange"] = trapezoid_array(
        f.stress_div_r * (f.u_r - f.u), f.dx
    )
    terms["diag_director_l2_gap"] = director_l2_gap(pair)
    _check_reorg(mismatch, terms, f.dx)
    h_terms = _gronwall_terms(f, params)
    out = RemainderBreakdown(
        quartet=dict(zip(QUARTETS[params.system], quartet)),
        terms=terms,
        h_terms=h_terms,
        h_hat=float(sum(h_terms.values())),
        reorg_mismatch=float(mismatch),
    )
    _require_finite(out)
    return out


def _check_reorg(mismatch: float, terms: Dict[str, float], dx: float) -> None:
    scale = max(1.0, sum(abs(v) for v in terms.values()))
    if abs(mismatch) > REORG_TOL_COEFF * dx * dx * scale:
        raise FunctionalError(
            f"remainder reorganization mismatch {mismatch:.3e} exceeds "
            f"{REORG_TOL_COEFF:g}*dx^2 at scale {scale:.3e}; "
            "formula-level inconsistency"
        )


def _require_finite(out: RemainderBreakdown) -> None:
    for name, val in out.terms.items():
        if not np.isfinite(val):
            raise FunctionalError(f"non-finite remainder term {name}")
    if not np.isfinite(out.h_hat):
        raise FunctionalError("non-finite Gronwall coefficient")


# ---------------------------------------------------------------------------
# Gronwall coefficient
# ---------------------------------------------------------------------------


def _gronwall_terms(f: _PairFields, params: Params) -> Dict[str, float]:
    """The norm factors of h_hat, the integrable growth-rate surrogate.

    Each term is the norm factor multiplying the entropy in one of the
    absorption estimates, taken with unit prefactor; every unknown
    analytic constant (embedding constants, delta-splitting constants) is
    deferred to the single calibrated multiplier c_h applied by the
    verifier.  All terms are nonnegative; all vanish on a resting
    reference with a coinciding candidate.
    """
    dx = f.dx
    terms: Dict[str, float] = {}

    terms["grad_u_ref_inf"] = linf_array(f.grad_u_r)
    terms["g_over_rho_l3_sq"] = l3_array(f.g_ref / f.rho_r, dx) ** 2
    terms["g_inf"] = linf_array(f.g_ref)
    terms["u_ref_inf_sq"] = linf_array(f.u_r) ** 2

    if params.system is System.GL:
        force_c_inf = linf_array(f.force)
        force_r_inf = linf_array(f.force_r)
        # size surrogate for the penalization-force Lipschitz bound; the
        # true constant folds into c_h
        terms["force_scale"] = force_c_inf + force_r_inf
        terms["curvature_force_inf_sq"] = (linf_array(f.lap_d_r) + force_c_inf) ** 2
        terms["grad_d_ref_inf_sq"] = linf_array(f.grad_d_r) ** 2
    else:
        d_inf = linf_array(f.d)
        grad_c_inf = linf_array(f.grad_d)
        grad_r_inf = linf_array(f.grad_d_r)
        terms["u_ref_inf"] = linf_array(f.u_r)
        terms["lap_d_ref_inf_sq"] = linf_array(f.lap_d_r) ** 2
        terms["grad_d_both_inf_sq_d_inf_sq"] = (
            grad_r_inf**2 + grad_c_inf**2
        ) * d_inf**2
        terms["grad_d_cand_inf_sq"] = grad_c_inf**2
        terms["d_inf_grad_sum"] = d_inf * (grad_r_inf + grad_c_inf)
        terms["grad_d_ref_inf_sq"] = grad_r_inf**2
    return terms
