"""Time integration of the two compressible liquid-crystal systems in 1D.

The state is the triple (rho, u, d): scalar density, scalar velocity and a
3-component director over one uniform grid.  Two couplings are supported:

    GL:     d_t + u d_x = theta (d_xx - f(d)),   director pinned at the
            endpoints to its initial boundary values; momentum carries the
            stress divergence lam * d/dx( |d_x|^2/2 - F(d) ).
    SPHERE: d_t + u d_x = theta (d_xx + |d_x|^2 d), |d| = 1 enforced by
            pointwise renormalization, homogeneous Neumann endpoints;
            stress divergence lam * d/dx( |d_x|^2/2 ).

Scheme: IMEX Euler.  Advection, pressure gradient, director stress and the
director reaction are explicit; the stiff diffusion terms mu*u_xx and
theta*d_xx are implicit via tridiagonal solves, which removes the
dt ~ dx^2 stability constraint of explicit diffusion.  The solves call
LAPACK dgtsv directly on the three diagonals (the director's three
components share one call); a nonzero LAPACK status raises
LinearSolveError, and NaN/inf in the inputs is caught by the end-of-step
finite check rather than by input validation.  Each step evaluates the
director gradient, Laplacian and GL force once and shares them between the
stress divergence and the director predictor.  The continuity
equation advances with a conservative central flux plus half-cell updates
at the walls, so the trapezoid-rule mass telescopes exactly (u = 0 at the
endpoints means zero wall flux).  Advective fluxes are central
(energy-consistent for smooth runs); a small optional artificial viscosity
(default 0) is available for robustness experiments.

Velocity is updated in conservative variables (rho, rho*u) and recovered by
division by the new density, which is safe above the density floor.  A
floor violation means the run has left the strictly-positive-density regime
the verification targets and aborts rather than clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .constitutive import Params, System, gl_force, pressure
from .grid import Grid1D, ScalarField, VectorField3, gradient_array, laplacian_array

DEFAULT_DENSITY_FLOOR = 1e-8
_CFL_NUMBER = 0.4
_TINY_SPEED = 1e-14


class SolverError(RuntimeError):
    """Base class for time-integration aborts."""


class CflError(SolverError):
    """Requested dt exceeds the advective/acoustic stability bound."""


class DensityFloorError(SolverError):
    """Density dropped below the positivity floor."""

    def __init__(self, node: int, value: float, floor: float):
        self.node = node
        self.value = value
        super().__init__(
            f"density {value:.3e} below floor {floor:.1e} at node {node}"
        )


class NonFiniteStateError(SolverError):
    """A state or update produced NaN/inf values."""


class LinearSolveError(SolverError):
    """LAPACK reported a singular or malformed implicit tridiagonal system."""


class DirectorBC(Enum):
    """Boundary handling for the director field."""

    DIRICHLET_D0 = "dirichlet_d0"
    NEUMANN_ZERO = "neumann_zero"


@dataclass(frozen=True)
class BoundarySpec:
    """Director boundary rows; velocity is always no-slip (u = 0).

    Dirichlet runs pin the director endpoints to fixed 3-vectors (the
    initial boundary values); Neumann runs use mirrored ghost nodes, which
    keeps the one-sided treatment second order.
    """

    director_bc: DirectorBC
    d_left: Optional[np.ndarray] = None
    d_right: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.director_bc is DirectorBC.DIRICHLET_D0:
            if self.d_left is None or self.d_right is None:
                raise ValueError("Dirichlet director BC requires pinned endpoint values")
            object.__setattr__(self, "d_left", np.asarray(self.d_left, dtype=float))
            object.__setattr__(self, "d_right", np.asarray(self.d_right, dtype=float))

    @classmethod
    def dirichlet_from(cls, d0: VectorField3) -> "BoundarySpec":
        return cls(DirectorBC.DIRICHLET_D0, d0.values[:, 0].copy(), d0.values[:, -1].copy())

    @classmethod
    def neumann(cls) -> "BoundarySpec":
        return cls(DirectorBC.NEUMANN_ZERO)

    @classmethod
    def for_system(cls, system: System, d0: VectorField3) -> "BoundarySpec":
        if system is System.GL:
            return cls.dirichlet_from(d0)
        return cls.neumann()


def _check_bc_system(bc: BoundarySpec, system: System) -> None:
    expected = (
        DirectorBC.DIRICHLET_D0 if system is System.GL else DirectorBC.NEUMANN_ZERO
    )
    if bc.director_bc is not expected:
        raise ValueError(
            f"director BC {bc.director_bc.value} incompatible with system "
            f"{system.value}: expected {expected.value}"
        )


@dataclass(frozen=True)
class State:
    """Instantaneous solver state (rho, u, d) on one grid.

    States produced by the integrator additionally satisfy rho above the
    density floor and u = 0 at both endpoints; manufactured states used for
    operator tests are free of those constraints.
    """

    rho: ScalarField
    u: ScalarField
    d: VectorField3

    def __post_init__(self):
        if not (self.rho.grid == self.u.grid == self.d.grid):
            raise ValueError("state fields must share one grid")

    @property
    def grid(self) -> Grid1D:
        return self.rho.grid

    @classmethod
    def from_arrays(
        cls, grid: Grid1D, rho: np.ndarray, u: np.ndarray, d: np.ndarray
    ) -> "State":
        return cls(ScalarField(rho, grid), ScalarField(u, grid), VectorField3(d, grid))


@dataclass(frozen=True)
class InitialData:
    """Initial triple with the admissibility constraints checked."""

    rho0: ScalarField
    u0: ScalarField
    d0: VectorField3

    def __post_init__(self):
        if not (self.rho0.grid == self.u0.grid == self.d0.grid):
            raise ValueError("initial fields must share one grid")
        if np.min(self.rho0.values) <= 0.0:
            raise ValueError("initial density must be strictly positive")
        if self.u0.values[0] != 0.0 or self.u0.values[-1] != 0.0:
            raise ValueError("initial velocity must vanish at both endpoints")

    @property
    def grid(self) -> Grid1D:
        return self.rho0.grid

    def as_state(self) -> State:
        return State(self.rho0, self.u0, self.d0)


@dataclass(frozen=True)
class SolverOptions:
    """Integrator policy knobs (not physical constants)."""

    density_floor: float = DEFAULT_DENSITY_FLOOR
    artificial_viscosity: float = 0.0

    def __post_init__(self):
        if not self.density_floor > 0:
            raise ValueError("density floor must be positive")
        if self.artificial_viscosity < 0:
            raise ValueError("artificial viscosity must be nonnegative")


# ---------------------------------------------------------------------------
# Semidiscrete right-hand sides (full-field operators used by tests and by
# the explicit part of the step; endpoint stencils are one-sided so these
# converge at second order everywhere)
# ---------------------------------------------------------------------------


def rhs_continuity(state: State, grid: Grid1D) -> ScalarField:
    """-(rho u)_x, central in the interior, one-sided at the endpoints.

    At interior nodes this equals the conservative central-flux divergence
    -(F_{i+1/2} - F_{i-1/2})/dx with F_{i+1/2} = (rho_i u_i + rho_{i+1} u_{i+1})/2.
    """
    m = state.rho.values * state.u.values
    return ScalarField(-gradient_array(m, grid.dx), grid)


def _gl_force_or_none(d: np.ndarray, params: Params) -> Optional[np.ndarray]:
    return gl_force(d, params) if params.system is System.GL else None


def _stress_contraction(
    grad: np.ndarray, lap: np.ndarray, force: Optional[np.ndarray], lam: float
) -> np.ndarray:
    """lam * (d_xx - f(d)) . d_x from precomputed derivatives (f omitted if None)."""
    curv = lap if force is None else lap - force
    return lam * np.sum(curv * grad, axis=0)


def director_stress_divergence(d: VectorField3, params: Params) -> ScalarField:
    """Divergence of the director stress in 1D, scaled by lam.

    In the continuum the stress divergence d/dx( |d_x|^2/2 - F(d) ) for GL
    (without the F term for SPHERE) equals the curvature-force contraction
    (d_xx - f(d)) . d_x, respectively d_xx . d_x.  The contraction is the
    form evaluated here: products of node-consistent stencils stay
    second-order accurate up to the walls, whereas differentiating the
    assembled stress a second time would drop to first order at the
    endpoint rows.  The conservative form is equivalent to O(dx^2).
    """
    v, dx = d.values, d.grid.dx
    sdiv = _stress_contraction(
        gradient_array(v, dx), laplacian_array(v, dx), _gl_force_or_none(v, params),
        params.lam,
    )
    return ScalarField(sdiv, d.grid)


def rhs_momentum(
    state: State,
    params: Params,
    grid: Grid1D,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
) -> ScalarField:
    """Full momentum rate d(rho u)/dt.

    -(rho u^2)_x - P(rho)_x + mu u_xx - (director stress divergence).
    The viscous term is the one treated implicitly by the integrator.
    """
    rho = state.rho.values
    if np.min(rho) < density_floor:
        node = int(np.argmin(rho))
        raise DensityFloorError(node, float(rho[node]), density_floor)
    u = state.u.values
    adv = -gradient_array(rho * u * u, grid.dx)
    pgrad = -gradient_array(pressure(rho, params), grid.dx)
    visc = params.mu * laplacian_array(u, grid.dx)
    sdiv = director_stress_divergence(state.d, params).values
    return ScalarField(adv + pgrad + visc - sdiv, grid)


def rhs_director(state: State, params: Params, grid: Grid1D) -> VectorField3:
    """Full director rate d(d)/dt with boundary rows honoring the BC.

    GL:     theta (d_xx - f(d)) - u d_x, endpoint rows zero (pinned nodes
            do not move).
    SPHERE: theta (d_xx + |d_x|^2 d) - u d_x with mirrored-ghost endpoint
            stencils (d_x = 0 at the walls).
    The Laplacian is the term treated implicitly by the integrator.
    """
    d = state.d.values
    u = state.u.values
    dx = grid.dx
    out = np.zeros_like(d)
    lap = laplacian_array(d, dx)
    grad = np.zeros_like(d)
    grad[:, 1:-1] = (d[:, 2:] - d[:, :-2]) / (2.0 * dx)

    if params.system is System.GL:
        out[:, 1:-1] = (
            params.theta * (lap[:, 1:-1] - gl_force(d, params)[:, 1:-1])
            - u[1:-1] * grad[:, 1:-1]
        )
        # endpoint rows stay zero: Dirichlet-pinned nodes are stationary
    else:
        react = np.sum(grad * grad, axis=0) * d
        out[:, 1:-1] = (
            params.theta * (lap[:, 1:-1] + react[:, 1:-1]) - u[1:-1] * grad[:, 1:-1]
        )
        # mirrored ghosts: d_x = 0 at the walls kills advection and reaction
        dx2 = dx * dx
        out[:, 0] = params.theta * 2.0 * (d[:, 1] - d[:, 0]) / dx2
        out[:, -1] = params.theta * 2.0 * (d[:, -2] - d[:, -1]) / dx2
    return VectorField3(out, grid)


# ---------------------------------------------------------------------------
# IMEX Euler step
# ---------------------------------------------------------------------------


def _sound_speed_max(rho: np.ndarray, params: Params) -> float:
    rho_max = float(np.max(rho))
    return float(np.sqrt(params.a * params.gamma * rho_max ** (params.gamma - 1.0)))


def _cfl_limit(rho: np.ndarray, u: np.ndarray, dx: float, params: Params) -> float:
    speed = float(np.max(np.abs(u))) + _sound_speed_max(rho, params)
    return _CFL_NUMBER * dx / max(speed, _TINY_SPEED)


def _tridiagonal_solve(
    dl: np.ndarray, diag: np.ndarray, du: np.ndarray, rhs: np.ndarray, what: str
) -> np.ndarray:
    """LAPACK dgtsv on (sub, main, super) diagonals; overwrites all inputs."""
    *_, x, info = dgtsv(
        dl, diag, du, rhs,
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    if info > 0:
        raise LinearSolveError(f"{what} solve: singular matrix (zero pivot in row {info})")
    if info < 0:
        raise LinearSolveError(f"{what} solve: illegal argument {-info} to dgtsv")
    return x


def _solve_velocity(
    rho_new: np.ndarray, m_star: np.ndarray, dt: float, dx: float, mu: float
) -> np.ndarray:
    """Implicit viscous solve: (diag(rho_new) - mu dt D2) u = m_star, u=0 walls."""
    n = rho_new.shape[0]
    s = mu * dt / (dx * dx)
    diag = rho_new + 2.0 * s
    diag[0] = 1.0
    diag[-1] = 1.0
    du = np.full(n - 1, -s)  # A[i, i+1]
    dl = du.copy()           # A[i+1, i]
    du[0] = 0.0              # pinned first row has no right coupling
    dl[-1] = 0.0             # pinned last row has no left coupling
    rhs = m_star.copy()
    rhs[0] = 0.0
    rhs[-1] = 0.0
    u_new = _tridiagonal_solve(dl, diag, du, rhs, "velocity")
    u_new[0] = 0.0
    u_new[-1] = 0.0
    return u_new


def _solve_director(
    d_star: np.ndarray, dt: float, dx: float, theta: float, bc: BoundarySpec
) -> np.ndarray:
    """Implicit diffusion solve per component: (I - theta dt D2_bc) d = d_star."""
    n = d_star.shape[1]
    r = theta * dt / (dx * dx)
    diag = np.full(n, 1.0 + 2.0 * r)
    du = np.full(n - 1, -r)  # A[i, i+1]
    dl = du.copy()           # A[i+1, i]
    rhs = d_star.copy().T    # (n, 3), Fortran order: three right-hand sides

    if bc.director_bc is DirectorBC.DIRICHLET_D0:
        diag[0] = 1.0
        diag[-1] = 1.0
        du[0] = 0.0
        dl[-1] = 0.0
        rhs[0, :] = bc.d_left
        rhs[-1, :] = bc.d_right
    else:
        du[0] = -2.0 * r         # mirrored ghost at the left wall
        dl[-1] = -2.0 * r        # mirrored ghost at the right wall
    d_new = _tridiagonal_solve(dl, diag, du, rhs, "director").T
    if bc.director_bc is DirectorBC.DIRICHLET_D0:
        d_new[:, 0] = bc.d_left
        d_new[:, -1] = bc.d_right
    return d_new


def _advance(
    rho: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    dt: float,
    params: Params,
    grid: Grid1D,
    bc: BoundarySpec,
    options: SolverOptions,
    stats: Optional[dict] = None,
):
    """One IMEX Euler step on raw arrays; returns (rho, u, d) at t + dt."""
    dx = grid.dx
    dt_max = _cfl_limit(rho, u, dx, params)
    if dt > dt_max * (1.0 + 1e-9):
        raise CflError(
            f"dt={dt:.3e} exceeds stability bound {dt_max:.3e} "
            f"({_CFL_NUMBER}*dx over max wave speed)"
        )

    m = rho * u
    av = options.artificial_viscosity

    # --- continuity: conservative central flux, half cells at the walls ---
    flux = 0.5 * (m[:-1] + m[1:])
    if av > 0.0:
        flux = flux - av * (rho[1:] - rho[:-1])
    rho_new = rho.copy()
    rho_new[1:-1] -= (dt / dx) * (flux[1:] - flux[:-1])
    rho_new[0] -= (2.0 * dt / dx) * flux[0]
    rho_new[-1] += (2.0 * dt / dx) * flux[-1]
    if np.min(rho_new) < options.density_floor:
        node = int(np.argmin(rho_new))
        raise DensityFloorError(node, float(rho_new[node]), options.density_floor)

    # --- momentum: explicit transport/pressure/stress, implicit viscosity ---
    mom_flux = 0.5 * (m[:-1] * u[:-1] + m[1:] * u[1:])
    if av > 0.0:
        mom_flux = mom_flux - av * (m[1:] - m[:-1])
    p_vals = pressure(rho, params)
    grad_d = gradient_array(d, dx)
    force = _gl_force_or_none(d, params)
    sdiv = _stress_contraction(grad_d, laplacian_array(d, dx), force, params.lam)
    m_star = m.copy()
    m_star[1:-1] += dt * (
        -(mom_flux[1:] - mom_flux[:-1]) / dx
        - (p_vals[2:] - p_vals[:-2]) / (2.0 * dx)
        - sdiv[1:-1]
    )
    u_new = _solve_velocity(rho_new, m_star, dt, dx, params.mu)

    # --- director: explicit advection + reaction, implicit diffusion ---
    # predictor gradient: central in the interior, 0 at the walls, where
    # pinned (GL) or mirrored (SPHERE) endpoints do not advect
    grad_d[:, 0] = 0.0
    grad_d[:, -1] = 0.0
    if force is not None:
        react = -params.theta * force
    else:
        react = params.theta * np.sum(grad_d * grad_d, axis=0) * d
    d_star = d + dt * (react - u * grad_d)
    d_new = _solve_director(d_star, dt, dx, params.theta, bc)

    if params.system is System.SPHERE:
        nrm = np.sqrt(np.sum(d_new * d_new, axis=0))
        if np.min(nrm) < 0.5:
            raise NonFiniteStateError(
                f"director magnitude collapsed to {np.min(nrm):.3e}; "
                "renormalization is no longer meaningful"
            )
        if stats is not None:
            stats["sphere_renorm_max"] = float(np.max(np.abs(nrm - 1.0)))
        d_new = d_new / nrm

    if not (
        np.all(np.isfinite(rho_new))
        and np.all(np.isfinite(u_new))
        and np.all(np.isfinite(d_new))
    ):
        raise NonFiniteStateError("non-finite values after step")
    return rho_new, u_new, d_new


def step(
    state: State,
    dt: float,
    params: Params,
    grid: Grid1D,
    bc: BoundarySpec,
    options: Optional[SolverOptions] = None,
    stats: Optional[dict] = None,
) -> State:
    """Advance one IMEX Euler step of size dt.

    Raises CflError when dt exceeds the advective/acoustic bound,
    DensityFloorError (with the node index) when positivity is lost,
    LinearSolveError when LAPACK rejects an implicit solve, and
    NonFiniteStateError on NaN/inf.  For the SPHERE system the director is
    renormalized pointwise after the implicit solve; the pre-normalization
    defect is written to stats['sphere_renorm_max'] when a dict is passed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_bc_system(bc, params.system)
    if state.grid != grid:
        raise ValueError("state grid does not match the integration grid")
    options = options or SolverOptions()
    rho, u, d = _advance(
        state.rho.values, state.u.values, state.d.values, dt, params, grid, bc,
        options, stats,
    )
    return State.from_arrays(grid, rho, u, d)


Observer = Callable[[State, float], None]


def evolve(
    init: InitialData,
    t_end: float,
    dt: float,
    params: Params,
    grid: Grid1D,
    bc: BoundarySpec,
    observer: Optional[Observer] = None,
    sample_interval: Optional[float] = None,
    options: Optional[SolverOptions] = None,
) -> State:
    """Integrate from t=0 to t_end, invoking the observer at sample times.

    The observer receives (state, t) at t=0, at every multiple of
    sample_interval, and at t_end.  Within each sample window the step size
    is dt shrunk minimally so the window is an integer number of steps;
    sample times are therefore hit exactly.  sample_interval=None samples
    after every step.  Step errors propagate with the failure time attached.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_bc_system(bc, params.system)
    if init.grid != grid:
        raise ValueError("initial data grid does not match the integration grid")
    if params.system is System.SPHERE:
        mag = np.sqrt(np.sum(init.d0.values**2, axis=0))
        if np.max(np.abs(mag - 1.0)) > 1e-10:
            raise ValueError("SPHERE initial director must be unit length")
    options = options or SolverOptions()

    rho = init.rho0.values.copy()
    u = init.u0.values.copy()
    d = init.d0.values.copy()

    state = State.from_arrays(grid, rho, u, d)
    if observer is not None:
        observer(state, 0.0)
    if t_end == 0.0:
        return state

    interval = sample_interval if sample_interval is not None else dt
    if interval <= 0:
        raise ValueError("sample_interval must be positive")

    t = 0.0
    k = 0
    while t < t_end - 1e-12 * max(t_end, 1.0):
        k += 1
        t_next = min(k * interval, t_end)
        span = t_next - t
        n_sub = max(1, int(np.ceil(span / dt - 1e-12)))
        dt_eff = span / n_sub
        for j in range(n_sub):
            try:
                rho, u, d = _advance(rho, u, d, dt_eff, params, grid, bc, options)
            except SolverError as exc:
                exc.args = (f"at t={t + j * dt_eff:.6g}: {exc}",)
                raise
        t = t_next
        state = State.from_arrays(grid, rho, u, d)
        if observer is not None:
            observer(state, t)
    return state
