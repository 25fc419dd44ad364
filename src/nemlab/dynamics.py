"""Time integration of the two compressible liquid-crystal systems in 1D.

The state is the triple (rho, u, d): scalar density, scalar velocity and a
3-component director over one uniform grid.  State and InitialData hold
the three as read-only float arrays of shapes (n,), (n,) and (3, n),
checked for shape and finite entries once, at construction.  Two
couplings are supported:

    GL:     d_t + u d_x = theta (d_xx - f(d)),   director pinned at the
            endpoints to its initial boundary values; momentum carries the
            stress divergence lam * d/dx( |d_x|^2/2 - F(d) ).
    SPHERE: d_t + u d_x = theta (d_xx + |d_x|^2 d), |d| = 1 enforced by
            pointwise renormalization, homogeneous Neumann endpoints;
            stress divergence lam * d/dx( |d_x|^2/2 ).

A member's BoundarySpec holds only what the system fixes: the GL pins (the
initial director's end columns), None for SPHERE; for_system builds it.

Scheme: IMEX Euler.  Advection, pressure gradient, director stress and the
director reaction are explicit; the stiff diffusion terms mu*u_xx and
theta*d_xx are implicit via tridiagonal solves, which removes the
dt ~ dx^2 stability constraint of explicit diffusion.  The explicit GL
reaction keeps its own bound, dt <= sigma0^2/theta, checked once per call.
The continuity equation advances with a conservative central flux plus
half-cell updates at the walls, so the trapezoid-rule mass telescopes
exactly (u = 0 at the endpoints means zero wall flux).  Advective fluxes
are central (energy-consistent for smooth runs).  The explicit part of a
step is one kernel, _explicit_rates: it returns the interface mass flux,
the interior momentum rate and the director rate that the step multiplies
by dt, and the operator tests call the same kernel.

Members: the step advances B trajectories on one grid at once, with a
leading member axis (rho, u: (B, n); d: (B, 3, n)) and each GL member's
own pins.  Both implicit matrices are symmetric positive definite once the
wall couplings move to the right-hand side (mu, theta > 0, density above
its floor), so LAPACK solves them by L D L^T without pivoting: velocity by
one dptsv call on a block-diagonal system whose off-diagonals vanish at
the block joints and the wall rows (right-hand sides 0); director by one
dpttrs call with 3B right-hand sides on the matrix every member and
component share, which evolve factors by dpttrf once per step size and
keeps with the velocity off-diagonal.  GL moves the pinned walls' coupling
r pins (r = theta dt/dx^2) into the right-hand sides of rows 1 and n - 2;
SPHERE halves its mirrored-ghost wall rows and their right-hand sides,
exact in binary floating point.  evolve builds one workspace per call (its
buffers depend on B and n only); the step, its kernel and both solves
read the state from it and write into it: the explicit rates, both
right-hand sides (each solved in place) and the new state.  The kernel
runs on flat member-major views of the workspace, as the cost at small n
is the count of numpy calls and the iteration over strided views: each
stencil, the stacked mass and momentum flux sum and their difference are
one contiguous call over every row of every member, and the wall rows of
all members one strided call each.  The entries of those flat results
that straddle two rows are scratch, finite on a finite state, and reach no
value the step keeps (_Workspace says how); with the solves' zero block
couplings, a member's states are bit-identical to its own run alone.  Each check (CFL bound,
density floor, sphere collapse, end-of-step finite values) names the first
failing member in exc.member; a nonzero LAPACK status raises
LinearSolveError.  NaN/inf in rho or u makes the CFL bound's wave speed
non-finite, which raises NonFiniteStateError before either solve; a finite
state whose sound speed leaves the float range has a bound of 0 and
raises CflError; NaN/inf in d is caught by the end-of-step finite check,
the one judge of non-finite values: evolve runs each window's steps under
np.errstate(over="ignore", invalid="ignore"), so the arithmetic that makes
them warns of nothing.  Each step evaluates the director gradient,
Laplacian and GL force once for both the stress and the director.  The
samples are read-only views of one copy of the state block per sample,
built without checking again what the step's checks hold.

Call forms: a step is 40-50 ufunc calls and 2 LAPACK calls, so at small n
their fixed cost is much of it.  Each ufunc of the step writes to a
positional output, np.op(x, y, x); each scalar operand is a read-only 0-d
float64 array made once from the float expression it stands for, per step
size (_Implicit) or per (params, dx) in _Operands, the one table of the
step, the certificate row and the energy pass, cached by _operands; copies
are slice assignments; each LAPACK call's arguments are built once (see
LAPACK below).  Each form measured the fastest of its alternatives
(BENCH_step.json, record call_forms).

LAPACK: dptsv, dpttrf and dpttrs come from numpy's own LAPACK, the ILP64
OpenBLAS that numpy's wheels link into numpy._core._multiarray_umath and
that exports them as scipy_dptsv_64_, scipy_dpttrf_64_ and
scipy_dpttrs_64_.  ctypes binds them, with 64-bit integer arguments, so a
process maps one OpenBLAS, where scipy's _flapack extension would map a
second one, with libgfortran and libstdc++, and peak some 4 MB higher
(call_forms).  Each solve binds its routine to its arrays once, as a
_Call: the velocity solve per workspace, the director factor and solve
per step size and workspace; a step's solve is then fn(*args) and a read
of the status.  Where
numpy's extension does not export the routines (MKL or Accelerate
builds, and Windows, whose symbol lookup does not search an extension's
dependencies), the same binders wrap the f2py routines of
scipy.linalg.lapack instead, which keeps scipy a dependency; importing
nemlab there imports scipy.linalg too, a fraction of a second per process
(call_forms).  Nothing but the symbols chooses the source, and the two
give the same bits (call_forms names the versions).

Velocity is updated in conservative variables (rho, rho*u) and recovered by
division by the new density, which is safe above the density floor.  A
floor violation means the run has left the strictly-positive-density regime
the verification targets and aborts rather than clamping.  evolve checks
the initial densities too, so the step's pressure needs no sign check, and
the first step's stability bound, both before the first sample:
where that bound is 0 the initial pressure is beyond the float range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .constitutive import Params, System, _power_law, gl_force
from .grid import _HALF, Grid1D, _scalar, _spacing, central_gradient, central_laplacian

_ROUTINES = ("dptsv", "dpttrf", "dpttrs")


class _Call(NamedTuple):
    """A LAPACK routine bound to its arrays: fn(*args) runs it in place on
    them and leaves its info in status[1]."""

    fn: Callable
    args: tuple
    status: Sequence[int]


def _arrays(d: np.ndarray, e: np.ndarray, b: Optional[np.ndarray]) -> tuple:
    """The arrays a routine runs on in place, (d, e) or (d, e, b), after
    checking that it can: contiguous writable float64, b in Fortran order
    with one row per row of d.  A routine handed anything else would
    write a copy (f2py) or read past the data (ctypes)."""
    arrays = (d, e) if b is None else (d, e, b)
    for a in arrays:
        if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
            raise ValueError("LAPACK arrays must be writable float64 in Fortran order")
    if d.ndim != 1 or e.shape != (d.size - 1,) or (b is not None and b.shape[0] != d.size):
        raise ValueError("LAPACK arrays do not form one tridiagonal system")
    return arrays


def _numpy_lapack():
    """Binders of dptsv, dpttrf and dpttrs from numpy's ILP64 LAPACK, or
    None where numpy's extension does not export them.

    A binder takes (d, e) or (d, e, b) and returns their _Call.  The
    integer arguments of one call are one block of 64-bit integers, its
    status: N, INFO, NRHS, LDB.  INFO starts at -1, which LAPACK overwrites
    before anything else; a 32-bit binding would read it as the upper half
    of N, so its first call would refuse a negative N, not pass silently
    or read past its arrays.
    """
    try:
        import ctypes
        from numpy._core import _multiarray_umath

        lib = ctypes.PyDLL(_multiarray_umath.__file__)
        fns = [getattr(lib, f"scipy_{name}_64_") for name in _ROUTINES]
    except (ImportError, OSError, AttributeError):
        return None
    block, width = ctypes.c_int64 * 4, ctypes.sizeof(ctypes.c_int64)

    def binder(fn):
        # no argtypes: converting the arguments through them costs 0.8 us a
        # call (dptsv on 97 rows: 2.4 us, against 1.6 for prebuilt byrefs
        # alone); _arrays checks what the pointers point to instead
        fn.restype = None

        def bind(d, e, b=None):
            # each array by its first entry, which holds on to its buffer
            data = [ctypes.byref(ctypes.c_double.from_buffer(a.reshape(-1, order="F")))
                    for a in _arrays(d, e, b)]
            ints = block(d.size, -1, 1 if b is None else b.size // d.size, d.size)
            n, info, nrhs, ldb = (ctypes.byref(ints, k * width) for k in range(4))
            return _Call(fn, (n, *data, info) if b is None else (n, nrhs, *data, ldb, info), ints)

        return bind

    return tuple(map(binder, fns))


def _scipy_lapack():
    """Binders of scipy.linalg.lapack's f2py dptsv, dpttrf and dpttrs, with
    _numpy_lapack's call form: each call passes every overwrite flag, so
    the routine runs in place, and stores its info in its status, a list
    [N, INFO]."""
    from scipy.linalg import lapack

    def binder(routine, flags):
        def call(status, *args):
            status[1] = routine(*args)[-1]

        def bind(d, e, b=None):
            status = [d.size, 0]
            return _Call(call, (status, *_arrays(d, e, b), *(1,) * flags), status)

        return bind

    # dpttrs overwrites only b: its factor is input only
    return tuple(map(binder, (lapack.dptsv, lapack.dpttrf, lapack.dpttrs), (3, 2, 1)))


dptsv, dpttrf, dpttrs = _numpy_lapack() or _scipy_lapack()

DEFAULT_DENSITY_FLOOR = 1e-8
_CFL_NUMBER = 0.4
_TINY_SPEED = 1e-14


class SolverError(RuntimeError):
    """Base class for time-integration aborts.

    member is the index of the failing trajectory within a batched step
    (0 for a single trajectory), or None when no one member is at fault.
    """

    def __init__(self, *args, member: Optional[int] = None):
        super().__init__(*args)
        self.member = member


class CflError(SolverError):
    """Requested dt exceeds the advective/acoustic stability bound."""


class ReactionBoundError(SolverError):
    """Requested dt exceeds the stability bound of the explicit GL penalization."""


class DensityFloorError(SolverError):
    """Density below the positivity floor; node indexes the member's grid."""

    def __init__(self, node: int, value: float, floor: float, member: Optional[int] = None):
        self.node = node
        self.value = value
        super().__init__(
            f"density {value:.3e} below floor {floor:.1e} at node {node}", member=member
        )


class NonFiniteStateError(SolverError):
    """A state or update produced NaN/inf values."""


class LinearSolveError(SolverError):
    """LAPACK reported a singular or malformed implicit tridiagonal system."""


@dataclass(frozen=True, eq=False)
class BoundarySpec:
    """Director boundary rows of one member; velocity is always no-slip (u = 0).

    GL pins the director endpoints to their initial values, the rows of pins
    (2, 3); SPHERE mirrors them through ghost nodes, second order, and pins
    is None.  It holds an array, so it compares and hashes by identity.
    """

    pins: Optional[np.ndarray]

    @classmethod
    def for_system(cls, system: System, d0: np.ndarray) -> "BoundarySpec":
        """The rows system fixes for the (3, n) initial director d0."""
        return cls(np.array([d0[:, 0], d0[:, -1]]) if system is System.GL else None)


def _freeze(owner, **shapes: Tuple[int, ...]) -> None:
    """Replace each named field of a frozen dataclass by a read-only float
    copy, after checking its shape and that every entry is finite."""
    for name, shape in shapes.items():
        values = np.array(getattr(owner, name), dtype=float)
        if values.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(owner, name, values)


@dataclass(frozen=True, eq=False)
class State:
    """Instantaneous solver state (rho, u, d) on one grid.

    States produced by the integrator additionally satisfy rho above the
    density floor and u = 0 at both endpoints.  A state holds arrays, so
    it compares and hashes by identity.
    """

    grid: Grid1D
    rho: np.ndarray
    u: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = self.grid.n_nodes
        _freeze(self, rho=(n,), u=(n,), d=(3, n))

    @classmethod
    def _wrap(cls, grid: Grid1D, rho: np.ndarray, u: np.ndarray, d: np.ndarray) -> "State":
        """A state over read-only float arrays that already have the shapes
        and the finite entries __post_init__ checks; neither copied nor
        checked again."""
        state = object.__new__(cls)
        state.__dict__.update(grid=grid, rho=rho, u=u, d=d)
        return state


@dataclass(frozen=True, eq=False)
class InitialData:
    """Initial triple with the admissibility constraints checked; compared
    and hashed by identity."""

    grid: Grid1D
    rho0: np.ndarray
    u0: np.ndarray
    d0: np.ndarray

    def __post_init__(self):
        n = self.grid.n_nodes
        _freeze(self, rho0=(n,), u0=(n,), d0=(3, n))
        if self.rho0.min() <= 0.0:
            raise ValueError("initial density must be strictly positive")
        if self.u0[0] != 0.0 or self.u0[-1] != 0.0:
            raise ValueError("initial velocity must vanish at both endpoints")


# ---------------------------------------------------------------------------
# IMEX Euler step
# ---------------------------------------------------------------------------


class _Workspace:
    """Scratch arrays of the steps of B members on n nodes.

    evolve builds one per call, and every step of every size reuses it;
    the matrices are kept per step size instead (_Implicit).  A step reads
    and overwrites the state in rho, u and d, three views of one block
    (state), so one finite check covers all three; both solves run in
    place on u and d, which hold their right-hand sides until then.
    The slices a step reads are made here once, as views: at small n a
    view costs about as much as the ufunc call that reads it.

    The stencils, flux sums and flux differences run on flat member-major
    views, one contiguous call each over every row at once: the director
    block as 3B rows of n nodes (for the gradient, with the B pressure rows
    the block holds after it), the (m, m u) block as 2B rows.  Each
    row's interior entries are what the stencil gives on that row alone;
    the entries at its two ends, whose stencils straddle two rows, are
    scratch, and none of them reaches a value the step keeps.  The
    gradient's wall columns are zeroed after its stencil, so the
    curvature and stress walls are 0; the continuity's wall rows are
    overwritten with the half-cell updates before use; the last flux
    column and the walls of the pressure gradient and the momentum rate
    reach only the velocity's wall rows, which the solve sets to 0.  The
    full-width buffers start zeroed, so the entries no call writes (their
    flat ends) hold 0, and on a finite state every scratch entry is a
    finite combination of finite values: none raises a floating-point
    warning.
    """

    def __init__(self, members: int, n: int):
        size = members * n
        block = np.empty(6 * size)   # the state, then the pressure p
        self.state, self.p_flat = block[:5 * size], block[5 * size:]
        self.p = self.p_flat.reshape(members, n)
        self.dir_p_flat = block[2 * size:]   # the director and pressure rows
        self.rho = self.state[:size].reshape(members, n)
        self.u = self.state[size:2 * size].reshape(members, n)
        self.d = self.state[2 * size:].reshape(members, 3, n)
        self.rho_u = self.state[:2 * size]   # the adjacent rho and u rows
        self.rho_flat, self.u_flat = self.rho_u.reshape(2, size)
        self.d_flat = self.state[2 * size:]
        self.u_col = self.u[:, None]
        self.u_walls = self.u[:, ::n - 1]
        self.dir_rhs = self.d.reshape(3 * members, n).T  # (n, 3B), Fortran order
        self.dir_walls = self.dir_rhs[::n - 1]            # its first and last rows
        self.peaks = np.empty((2, members, n))   # |rho| and |u|, for the CFL bound
        self.peaks_flat, self.peak_max = self.peaks.reshape(-1), np.empty((2, members))
        # m = rho u and m u; their central fluxes, column i at the interface
        # i + 1/2; the fluxes' differences, column i at node i
        q, fluxes, div = np.zeros((3, 2, members, n))
        self.m, self.m_u = q
        self.m_flat = self.m.reshape(-1)
        q_flat, f_flat = q.reshape(-1), fluxes.reshape(-1)
        self.q_left, self.q_right = q_flat[:-1], q_flat[1:]
        self.f_left, self.f_right = f_flat[:-1], f_flat[1:]
        self.div_tail = div.reshape(-1)[1:]
        self.mass_flux = fluxes[0, :, :-1]
        self.flux_walls = fluxes[0, :, :n - 1:n - 2]  # interfaces 1/2 and n - 3/2
        self.mass_div = div[0]
        self.mass_div_flat, self.mom_div_flat = div.reshape(2, size)
        self.mass_div_walls = self.mass_div[:, ::n - 1]
        self.wall_signs = np.array([2.0, -2.0])  # half cells, outward flux at each wall
        grads = np.zeros(4 * size)   # d_x, walls 0, then p_x: one stencil call
        self.grad_flat, self.pgrad_flat = grads[:3 * size], grads[3 * size:]
        self.grad = self.grad_flat.reshape(members, 3, n)
        self.grad_in = grads[1:-1]
        self.grad_walls = self.grad.reshape(3 * members, n)[:, ::n - 1]
        self.lap = np.zeros((members, 3, n))     # d_xx, then the stress contraction
        self.lap_flat = self.lap.reshape(-1)
        self.lap_in = self.lap_flat[1:-1]
        self.stress = np.zeros((members, n))
        self.stress_flat = self.stress.reshape(-1)
        self.mom = np.zeros((members, n))
        self.mom_flat, self.mom_in = self.mom.reshape(-1), self.mom[:, 1:-1]
        self.rate = np.empty((members, 3, n))    # the director rate
        self.rate_flat = self.rate.reshape(-1)
        self.adv = np.empty((members, 3, n))     # u d_x, then d_new^2
        self.norm = np.empty((members, 1, n))    # |d_x|^2, then |d_new|
        self.dir_inner = self.dir_rhs[1:n - 1:n - 3]      # its rows 1 and n - 2
        # dptsv factors the velocity matrix over its diagonals: a copy each step
        self.vel_diag = np.empty(size)
        self.vel_off = np.empty(size - 1)
        self.vel_solve = dptsv(self.vel_diag, self.vel_off, self.u_flat)


class _Operands:
    """The 0-d operands of one (params, dx) read by the step, the certificate
    row and the energy pass: grid._spacing's, then each float expression's;
    the CFL bound computes with math, so its three are floats of their own."""

    def __init__(self, p: Params, dx: float):
        self.gl = p.system is System.GL
        self.two_dx, self.dx2, _, self.neg_dx = _spacing(dx)
        self.wave_coeff, self.wave_power, self.cfl_dx = p.dp_coeff, p.gamma - 1.0, _CFL_NUMBER * dx
        (self.a, self.gamma, self.gamma_m1, self.gamma_m2, self.pi_coeff, self.pi1_coeff,
         self.dp_coeff, self.neg_dp_coeff, self.mu, self.lam, self.half_lam, self.theta,
         self.neg_theta, self.lam_theta, self.sigma0_sq, self.four_sigma0_sq) = map(_scalar, (
            p.a, p.gamma, p.gamma - 1.0, p.gamma - 2.0, p.pi_coeff, p.pi1_coeff, p.dp_coeff,
            -p.dp_coeff, p.mu, p.lam, 0.5 * p.lam, p.theta, -p.theta, p.lam * p.theta, p.sigma0**2,
            4.0 * p.sigma0**2))


_operands = functools.lru_cache(maxsize=64)(_Operands)  # the one _Operands of (params, dx)


def _check_cfl(dt: float, ops: _Operands, work: _Workspace) -> None:
    """Raise for the first member whose wave speed is non-finite or whose
    advective/acoustic bound 0.4*dx/max(|u| + c) dt exceeds.

    The rho and u rows of the state block are adjacent, so one abs and one
    reduction give both per-member maxima (rho > 0: |rho| is rho).  A
    sound speed beyond the float range, from a finite state, bounds dt by 0.
    """
    np.abs(work.rho_u, work.peaks_flat)
    rho_max, u_max = np.maximum.reduce(work.peaks, 2, None, work.peak_max).tolist()
    for member, (u_m, rho_m) in enumerate(zip(u_max, rho_max)):
        try:
            speed = u_m + math.sqrt(ops.wave_coeff * rho_m ** ops.wave_power)
        except OverflowError:  # only a finite rho_m overflows a float power
            speed = math.inf
        if not math.isfinite(u_m + rho_m):
            # NaN or inf in rho or u: stop before the solves run on it
            raise NonFiniteStateError(
                f"non-finite wave speed {speed} at step start", member=member
            )
        dt_max = ops.cfl_dx / max(speed, _TINY_SPEED)
        if dt > dt_max * (1.0 + 1e-9):
            raise CflError(
                f"dt={dt:.3e} exceeds stability bound {dt_max:.3e} "
                f"({_CFL_NUMBER}*dx over max wave speed)",
                member=member,
            )


def _check_reaction_bound(dt: float, params: Params) -> None:
    """Reject a dt the explicit GL penalization cannot take.

    The reaction -theta f(d) linearized at |d| = 1 has rate
    2 theta/sigma0^2 along d, so explicit Euler is stable only for
    dt <= sigma0^2/theta.  The bound is the same for every member and every
    step, so it is checked once per call on the requested dt; it names the
    first member, as the first to fail.
    """
    if params.system is not System.GL:
        return
    bound = params.sigma0**2 / params.theta
    if dt > bound * (1.0 + 1e-9):
        raise ReactionBoundError(
            f"dt={dt:.3e} exceeds the GL penalization bound sigma0^2/theta={bound:.3e} "
            f"(the explicit reaction has linearized rate 2*theta/sigma0^2)",
            member=0,
        )


def _first(mask: np.ndarray) -> int:
    """Index of the first member a boolean per-member mask flags."""
    return int(mask.argmax())


def _check_density_floor(rho: np.ndarray, density_floor: float) -> None:
    """Raise for the first member with a density below the floor."""
    if np.minimum.reduce(rho, None) < density_floor:
        member = _first(rho.min(axis=1) < density_floor)
        node = int(rho[member].argmin())
        raise DensityFloorError(node, float(rho[member, node]), density_floor, member)


class _Implicit(NamedTuple):
    """The implicit matrices of one step size on one workspace, shared by
    the steps of that size (see _samples); both are symmetric positive
    definite.

    dt, dt_dx = dt/dx and two_s = 2 s (s = mu dt/dx^2) are 0-d operands.
    Velocity: the B members form one block-diagonal system; vel_off holds
    its off-diagonal, 0 at the block joints and at the wall rows (whose
    right-hand sides are 0), and its diagonal rho_new + 2 s changes every
    step.  Director: one matrix for every member and component, held as
    its dpttrf factor in dir_solve, the dpttrs call on the workspace's
    director right-hand sides.  pins holds the left and right
    Dirichlet rows of all members flattened in (member, component) order,
    (2, 3B), and pin_rhs = r pins their coupling, moved to rows 1 and n - 2
    of the right-hand sides; both are None for Neumann ghosts.
    """

    dt: np.ndarray
    dt_dx: np.ndarray
    two_s: np.ndarray
    vel_off: np.ndarray
    dir_solve: _Call
    pins: Optional[np.ndarray]
    pin_rhs: Optional[np.ndarray]


def _implicit(
    dt: float,
    dx: float,
    mu: float,
    theta: float,
    pins: Optional[np.ndarray],
    work: _Workspace,
) -> _Implicit:
    """The velocity off-diagonal and the director factor of step size dt,
    for the steps on work."""
    members, n = work.rho.shape
    s = mu * dt / (dx * dx)
    vel_off = np.full(members * n - 1, -s)
    vel_off[::n] = 0.0        # first wall rows
    vel_off[n - 2::n] = 0.0   # last wall rows
    vel_off[n - 1::n] = 0.0   # block joints

    r = theta * dt / (dx * dx)
    diag = np.full(n, 1.0 + 2.0 * r)
    off = np.full(n - 1, -r)
    if pins is not None:
        diag[::n - 1] = 1.0
        off[::n - 2] = 0.0
    else:
        diag[::n - 1] *= 0.5  # the mirrored-ghost rows, halved
    _lapack(dpttrf(diag, off), "director", n)  # the factor overwrites diag and off
    return _Implicit(_scalar(dt), _scalar(dt / dx), _scalar(2.0 * s), vel_off,
                     dpttrs(diag, off, work.dir_rhs), pins, None if pins is None else r * pins)


def _lapack(call: _Call, what: str, n: int) -> None:
    """Run a bound LAPACK tridiagonal call for B blocks of n rows; its
    results are left in place in its arrays.  A nonpositive pivot is
    attributed to the block that holds it."""
    call.fn(*call.args)
    info = call.status[1]
    if info > 0:
        member, row = divmod(info - 1, n)
        raise LinearSolveError(
            f"{what} solve: singular or indefinite matrix "
            f"(negative or zero pivot in row {row + 1})", member=member
        )
    if info < 0:
        raise LinearSolveError(f"{what} solve: illegal argument {-info} to LAPACK")


def _solve_velocity(implicit: _Implicit, work: _Workspace) -> None:
    """Implicit viscous solve per member, in place on the momentum in work.u:
    (diag(rho_new) - mu dt D2) u = m, u = 0 walls, rho_new = work.rho.  The
    wall rows are uncoupled with right-hand side 0, so they solve to 0."""
    work.vel_off[:] = implicit.vel_off
    np.add(work.rho_flat, implicit.two_s, work.vel_diag)
    work.u_walls.fill(0.0)
    _lapack(work.vel_solve, "velocity", work.rho.shape[-1])


def _solve_director(implicit: _Implicit, work: _Workspace) -> None:
    """Implicit diffusion solve in place on work.d, (I - theta dt D2_bc) d = d*
    for every member and component: one call with 3B right-hand sides.
    implicit was built on work."""
    pins = implicit.pins
    if pins is not None:
        work.dir_walls[...] = pins
        np.add(work.dir_inner, implicit.pin_rhs, work.dir_inner)
    else:
        np.multiply(work.dir_walls, _HALF, work.dir_walls)
    _lapack(implicit.dir_solve, "director", work.d.shape[-1])
    if pins is not None:  # the wall rows solve to pin - 0 * x: the pin, up to a zero's sign
        work.dir_walls[...] = pins


def _explicit_rates(work: _Workspace, ops: _Operands) -> Tuple[np.ndarray, ...]:
    """The explicit operators of the step, on the B members work holds.

    The state is read from work: rho and u of shape (B, n), d of shape
    (B, 3, n), and their flat views, which the stencils run on.  Returns
    - the central mass flux (rho_i u_i + rho_{i+1} u_{i+1})/2 at the n - 1
      interfaces, (B, n - 1);
    - the momentum rate at the n - 2 interior nodes, (B, n - 2): central
      transport and pressure gradient minus the stress divergence, taken
      as the contraction lam (d_xx - f(d)) . d_x (lam d_xx . d_x for
      SPHERE), which equals d/dx(|d_x|^2/2 - F(d)) in the continuum;
    - the director rate react - u d_x at all nodes, (B, 3, n), with
      react = -theta f(d) for GL and theta |d_x|^2 d for SPHERE.  d_x is
      central in the interior and 0 at the walls, where pinned (GL) or
      mirrored (SPHERE) endpoints do not advect.
    The implicit terms mu u_xx and theta d_xx are not included.  The
    results are views of work's full-width buffers: work.mass_div holds
    the mass flux's differences and work.mom the momentum rate, each
    at the nodes, with scratch walls.
    """
    np.multiply(work.rho, work.u, work.m)
    np.multiply(work.m, work.u, work.m_u)
    # mass and momentum fluxes as one flat stack: one sum, one difference
    np.add(work.q_left, work.q_right, work.f_left)
    np.multiply(work.f_left, _HALF, work.f_left)
    np.subtract(work.f_right, work.f_left, work.div_tail)
    grad, curv, rate = work.grad, work.lap_flat, work.rate
    _power_law(work.rho, ops.a, ops.gamma, work.p)
    central_gradient(work.dir_p_flat, ops.two_dx, work.grad_in)
    work.grad_walls.fill(0.0)
    central_laplacian(work.d_flat, ops.dx2, work.lap_in)
    if ops.gl:
        gl_force(work.d, ops.sigma0_sq, rate)
        np.subtract(curv, work.rate_flat, curv)
        np.multiply(rate, ops.neg_theta, rate)
    else:
        grad_sq = np.add.reduce(np.multiply(grad, grad, rate), 1, None, work.norm, True)
        np.multiply(grad_sq, ops.theta, grad_sq)
        np.multiply(grad_sq, work.d, rate)
    mom = np.divide(work.mom_div_flat, ops.neg_dx, work.mom_flat)
    np.subtract(mom, work.pgrad_flat, mom)
    np.multiply(curv, work.grad_flat, curv)
    stress = np.add.reduce(work.lap, -2, None, work.stress)
    np.multiply(stress, ops.lam, stress)
    np.subtract(mom, work.stress_flat, mom)
    np.subtract(rate, np.multiply(work.u_col, grad, work.adv), rate)
    return work.mass_flux, work.mom_in, rate


def _advance(work: _Workspace, ops: _Operands, implicit: _Implicit, dt: float,
             density_floor: float) -> None:
    """One IMEX Euler step of the B members work holds, from t to t + dt.

    The state is read from work.rho, work.u and work.d, of shapes (B, n),
    (B, n) and (B, 3, n), and the new state is written over it; implicit
    holds the matrices and operands of this dt (the float dt is the CFL
    check's), ops those of the run.  A failed check raises for the first
    member that fails it, in exc.member.
    """
    _check_cfl(dt, ops, work)
    _, mom_rate, dir_rate = _explicit_rates(work, ops)
    d = work.d

    # --- continuity: conservative central flux, half cells at the walls ---
    # the wall rows of the flux differences become the half-cell updates
    np.multiply(work.flux_walls, work.wall_signs, work.mass_div_walls)
    np.multiply(work.mass_div_flat, implicit.dt_dx, work.mass_div_flat)
    np.subtract(work.rho_flat, work.mass_div_flat, work.rho_flat)
    _check_density_floor(work.rho, density_floor)

    # --- momentum: explicit interior rate, implicit viscosity ---
    np.multiply(work.mom_flat, implicit.dt, work.mom_flat)
    np.add(work.m_flat, work.mom_flat, work.u_flat)  # walls zeroed by the solve
    _solve_velocity(implicit, work)

    # --- director: explicit advection + reaction, implicit diffusion ---
    np.multiply(dir_rate, implicit.dt, dir_rate)
    np.add(d, dir_rate, d)
    _solve_director(implicit, work)

    if not ops.gl:
        nrm = np.add.reduce(np.multiply(d, d, work.adv), 1, None, work.norm, True)
        np.sqrt(nrm, nrm)
        if np.minimum.reduce(nrm, None) < 0.5:
            member = _first(nrm.min(axis=(1, 2)) < 0.5)
            raise NonFiniteStateError(
                f"director magnitude collapsed to {nrm[member].min():.3e}; "
                "renormalization is no longer meaningful",
                member=member,
            )
        np.divide(d, nrm, d)

    # a finite sum has finite terms; only a sum that overflowed needs their check
    if not math.isfinite(np.add.reduce(work.state, None)) and not np.isfinite(work.state).all():
        # a non-finite right-hand side spreads across the block joints of
        # the velocity solve (0 * nan), so its members are judged by m_star,
        # which the in-place solve overwrote: it is rebuilt here
        m_star = work.m.copy()
        m_star[:, 1:-1] += mom_rate
        finite = (
            np.isfinite(work.rho).all(axis=1)
            & np.isfinite(m_star).all(axis=1)
            & np.isfinite(d).all(axis=(1, 2))
        )
        if finite.all():
            # only the velocity solve overflowed, and its substitutions carry
            # one member's inf across the joints too (0 * inf): each block is
            # solved again alone, which gives its own run's values (m_star's
            # wall entries are 0, as the solve's were)
            n = m_star.shape[1]
            for b, rhs in enumerate(m_star):
                off = implicit.vel_off[b * n:(b + 1) * n - 1].copy()
                _lapack(dptsv(work.rho[b] + implicit.two_s, off, rhs), "velocity", n)
            finite = np.isfinite(m_star).all(axis=1)
        raise NonFiniteStateError("non-finite values after step", member=_first(~finite))


def _window(span: float, dt: float) -> Tuple[int, float]:
    """(n_sub, dt_eff): dt shrunk minimally so a window of length span is n_sub steps."""
    n_sub = max(1, math.ceil(span / dt - 1e-12))
    return n_sub, span / n_sub


def evolve(
    init: Union[InitialData, Sequence[InitialData]],
    t_end: float,
    dt: float,
    params: Params,
    grid: Grid1D,
    bc: Union[BoundarySpec, Sequence[BoundarySpec]],
    observer: Optional[Callable] = None,
    sample_interval: Optional[float] = None,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
):
    """Integrate from t=0 to t_end, handing out a sample at each sample time.

    The samples are (state, t) at t=0, at every multiple of
    sample_interval, and at t_end (or a multiple within a relative 1e-12 of
    it), for every positive t_end.  Within each sample window the step size
    is dt shrunk minimally so the window is an integer number of steps;
    sample times are therefore hit exactly.  sample_interval=None samples
    after every step.  Step errors propagate with the failure time attached.
    A density below density_floor, or a first step beyond the stability
    bound, aborts the run at t=0, before any sample.  A t_end, dt,
    sample_interval or density_floor that is not finite, or out of range,
    or a step count t_end / dt beyond the float range, raises ValueError
    before any sample.

    Two call forms, one implementation.  Without an observer, evolve runs
    those checks and returns an iterator of the (state, t) samples: each
    next() runs the steps of one sample window, and a step error raises
    from it.  The caller holds the trajectory's workspace, O(n) floats,
    between samples, and may close the iterator early.  With an observer,
    evolve drains that iterator, calls observer(state, t) at each sample
    and returns the final state.  The observer form stays because it runs
    a whole trajectory inside one call: a profiler that times evolve sees
    every step, and the steps of lazy trajectories that the observer
    advances run inside it too.

    bc is BoundarySpec.for_system(params.system, init.d0); a spec of the
    other system raises ValueError before any sample, and so do GL pins
    that are not the member's initial director end columns, naming the
    member.
    init and bc may also be equal-length sequences, one entry per member:
    the members then advance in lockstep through one batched step, each
    sample holds a tuple with one State per member in place of the state,
    and a tuple is returned.  Each member's states are bit-identical to
    its own single-member run.  A step error carries the index of the
    first failing member in exc.member.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt is not a finite float: {t_end!r} / {dt!r}")
    if sample_interval is not None and not (
        math.isfinite(sample_interval) and sample_interval > 0
    ):
        raise ValueError(
            f"sample_interval must be finite and positive, got {sample_interval!r}"
        )
    if not (math.isfinite(density_floor) and density_floor > 0):
        raise ValueError(f"density_floor must be finite and positive, got {density_floor!r}")
    single = isinstance(init, InitialData)
    inits = (init,) if single else tuple(init)
    bcs = (bc,) if single else tuple(bc)
    if not inits or len(bcs) != len(inits):
        raise ValueError("need at least one member and one boundary spec per member")
    gl = params.system is System.GL
    for b, (member, member_bc) in enumerate(zip(inits, bcs)):
        if (member_bc.pins is not None) != gl:
            raise ValueError(f"boundary spec incompatible with system {params.system.value}")
        if gl and not np.array_equal(member_bc.pins, (member.d0[:, 0], member.d0[:, -1])):
            raise ValueError(f"GL pins of member {b} are not its initial director's end columns")
        if member.grid != grid:
            raise ValueError("initial data grid does not match the integration grid")
        if not gl:
            mag = np.sqrt((member.d0**2).sum(axis=0))
            if np.abs(mag - 1.0).max() > 1e-10:
                raise ValueError("SPHERE initial director must be unit length")
    _check_reaction_bound(dt, params)
    pins = np.concatenate([bc.pins for bc in bcs], axis=1) if gl else None

    # one workspace for every step of this call; the state lives in it
    work, ops = _Workspace(len(inits), grid.n_nodes), _operands(params, grid.dx)
    for b, member in enumerate(inits):
        work.rho[b], work.u[b], work.d[b] = member.rho0, member.u0, member.d0
    interval = sample_interval if sample_interval is not None else dt
    try:
        _check_density_floor(work.rho, density_floor)
        if t_end > 0.0:  # the first step's bound, before the first sample
            _check_cfl(_window(min(interval, t_end), dt)[1], ops, work)
    except SolverError as exc:
        exc.args = (f"at t=0: {exc}",)
        raise

    samples = _samples(work, ops, params, grid, pins, single, t_end, dt, interval,
                       density_floor)
    if observer is None:
        return samples
    try:
        for states, t in samples:
            observer(states, t)
    finally:
        samples.close()  # suspended if the observer raised
    return states


def _samples(work: _Workspace, ops: _Operands, params: Params, grid: Grid1D,
             pins: Optional[np.ndarray], single: bool, t_end: float, dt: float,
             interval: float, density_floor: float):
    """evolve's samples from the state in work, (states, t) at t = 0 and at
    the end of each sample window; the steps of a window run as its sample
    is asked for."""
    members, n = work.rho.shape
    size = members * n  # each member's rho, u and d in the state block, from node i = b n:
    parts = [(slice(i, i + n), slice(size + i, size + i + n),
              slice(2 * size + 3 * i, 2 * size + 3 * i + 3 * n)) for i in range(0, size, n)]

    def states():
        # one read-only copy of the state block per sample; the end-of-step
        # finite check and InitialData vouch for its entries
        snap = work.state.copy()
        snap.flags.writeable = False
        out = tuple([State._wrap(grid, snap[r], snap[v], snap[d].reshape(3, n))
                     for r, v, d in parts])
        return out[0] if single else out

    yield states(), 0.0
    t = 0.0
    t_stop = t_end - 1e-12 * t_end  # steps run while t < t_stop
    k = 0
    # the matrices depend on the step size only; dt_eff jitters in its last
    # bits between windows, so the two most recently used values keep
    # theirs (14 builds over the 2000 windows of t_end = 0.1, dt = 5e-5,
    # where keeping every value took 13 and keeping one 1,272)
    cache = {}  # dt_eff -> matrices, least recently used first
    while t < t_stop:
        k += 1
        t_next = min(k * interval, t_end)
        n_sub, dt_eff = _window(t_next - t, dt)
        implicit = cache.pop(dt_eff, None)
        if implicit is None:
            if len(cache) == 2:
                del cache[next(iter(cache))]
            implicit = _implicit(dt_eff, grid.dx, params.mu, params.theta, pins, work)
        cache[dt_eff] = implicit
        # the error state covers the window's steps, never the yield
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                try:
                    _advance(work, ops, implicit, dt_eff, density_floor)
                except SolverError as exc:
                    exc.args = (f"at t={t + j * dt_eff:.6g}: {exc}",)
                    raise
        t = t_next
        yield states(), t
