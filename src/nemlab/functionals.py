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

`remainder` builds the certificate rows of one sample or of a window of
samples on one grid in one pass (_PairFields): every field a (K, n) array
of the K samples' rows end to end, one gradient and one Laplacian call on
the stacked fields of both states, each density power taken once, one
summed block of director products for every contraction (SPHERE takes a
second for the rows that read |d_x|), then every integrand written with
out= into its row of one stack for a single trapezoid call and one max for
the h_hat norms; the term table is built once per parameter set
(_layout).  Each sample's RemainderBreakdown also carries the pair's
relative entropy and the candidate's energy, dissipation, mass and
(SPHERE) sphere defect, from the same density helpers as the single-value
functionals, bit for bit.  relative_entropy is the pass's entropy row
alone, the one implementation of the relative entropy: the pair's
_PairFields and the integral of its entropy density.  EnergyWindow
evaluates one trajectory's energies and dissipations a window of samples
at a time, with one stacked pass that energy_dissipation runs on a
single state.  Values beyond the float range raise FunctionalError naming
the quantity (relative_entropy returns them), never a numpy warning.

Call forms, as in the IMEX step (see dynamics): a row is some 150 numpy
calls on a few hundred floats each, so their fixed cost is most of it,
and a window of K samples pays it once: at n = 97 a row costs about 160
us alone and about 45 us per sample in a window of ENERGY_WINDOW
(BENCH_row.json).  run_twin passes every row to the sequence form: a
lockstep twin's a window at a time, with the same samples' reference
energies, a streamed twin's as a window of one, as each pair is formed
(bench/test_bench.py counts one call per streamed sample, so wider
streamed windows wait for a change to the benchmark).  Scalar operands
are read-only 0-d arrays: grid's literals and the table the step reads
too, dynamics._Operands, cached per (params, dx) by dynamics._operands
and, for a row, by _layout (one lookup per call); outputs are
positional, into the row's stack, an earlier temporary or
EnergyWindow's scratch; every operation keeps its order.  The products
that broadcast a row over the three director components (u d_x, GL's
force, SPHERE's |d_x|^2 d) stay single calls: numpy buffers such an
operand, but the per-component form takes three calls and measured
slower at K = 1 and K = 8 (numpy 2.4, n = 97 and 257).

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constitutive import (
    ConstitutiveError,
    Params,
    System,
    _bregman,
    _least,
    _power_law,
    gl_force,
    gl_potential,
)
from .dynamics import DEFAULT_DENSITY_FLOOR, State, _Operands, _operands
from .grid import _HALF, _THREE, Grid1D, gradient_array, laplacian_array, trapezoid_array

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

# Samples per stacked pass of EnergyWindow: the widest that the memory
# tests allow.  CPU microseconds per sample (best of 7 runs of 1600
# samples, shared 2-vCPU x86-64 VM), per-state energy_dissipation, then
# windows of 2, 4, 8, 16:
#   n = 513  GL 93; 62, 45, 34, 26   SPHERE 57; 36, 25, 18, 16
#   n = 97   GL 52; 29, 17, 10, 7    SPHERE 44; 26, 15, 10, 7
# The window holds 15 n-node rows per sample, and the GL pass briefly 4
# more (numpy buffers the force's broadcast operand), so the tracemalloc
# peak of a streamed GL twin (n 257 to 33, 151 samples) is 753 KB at 8 and
# 831 KB at 10, past the 758 KB its memory test allows.
ENERGY_WINDOW = 8


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
        np.multiply(a, b, prod[2 * k:2 * k + 2])
    for k, (a, b) in enumerate(pairs, first):
        np.multiply(a, b, prod[k])
    return np.add.reduce(prod, 1)


def _unit_defects(lengths: np.ndarray) -> np.ndarray:
    """max | |d| - 1 | over the nodes of each row of director lengths |d|."""
    return np.maximum.reduce(np.abs(np.subtract(lengths, 1.0)), -1)


def _residual(d, lap_d, grad_sq, force, out=None):
    """The director relaxation residual of one state or a stack of them,
    into out if given: d_xx - f(d) for GL (force f(d)), d_xx + |d_x|^2 d
    for SPHERE (None), d's components on its first axis and grad_sq of the
    shape of one."""
    if force is not None:
        return np.subtract(lap_d, force, out)
    return np.add(lap_d, np.multiply(grad_sq, d, out), out)


def _state_densities(rho, u, grad_u, grad_sq, resid_sq, pi, o: _Operands, out,
                     d_sq=None, tmp=(None, None)):
    """Energy and dissipation densities of one state or of a stack of them
    (see energy_dissipation), written to out's two arrays: grad_sq is
    |d_x|^2, resid_sq the squared length of the relaxation residual
    (_residual), pi is Pi(rho) and d_sq, read for GL only, |d|^2; tmp's
    arrays, when given, are scratch."""
    dens, dsp = out
    np.add(np.multiply(np.multiply(np.multiply(rho, _HALF, dens), u, dens), u, dens), pi, dens)
    director = np.multiply(grad_sq, _HALF, tmp[0])
    if o.gl:
        np.add(director, gl_potential(d_sq, o.four_sigma0_sq, tmp[1]), director)
    np.multiply(np.multiply(grad_u, o.mu, dsp), grad_u, dsp)
    np.add(dsp, np.multiply(resid_sq, o.lam_theta, tmp[1]), dsp)
    return np.add(dens, np.multiply(director, o.lam, director), dens), dsp


def _entropy_density(rho, du, bregman, dgrad_sq, gap_sq, o: _Operands, out=None) -> np.ndarray:
    """The relative-entropy integrand, written to out when given; du = u -
    u~, bregman is the pressure Bregman row, dgrad_sq = |d_x - d~_x|^2 and
    gap_sq = |d - d~|^2."""
    dens = np.multiply(rho, _HALF, out)
    np.add(np.multiply(np.multiply(dens, du, dens), du, dens), bregman, dens)
    term = np.multiply(dgrad_sq, o.half_lam)
    np.add(dens, term, dens)
    return dens if o.gl else np.add(dens, np.multiply(gap_sq, o.half_lam, term), dens)


# ---------------------------------------------------------------------------
# Single-state functionals
# ---------------------------------------------------------------------------


def _energy_rows(rows: np.ndarray, dx: float, o: _Operands, scratch=None) -> np.ndarray:
    """Energy and dissipation of the K states whose rho, u, d0, d1 and d2
    rows are stacked in rows (5, K, n): a (2, K) array from one gradient,
    one Laplacian and one trapezoid call, with scratch (10 K n floats or
    more; allocated if not given) for the rest.  Each field is a contiguous
    row of K n floats, which numpy does not copy into a buffer as it does
    a strided one.  The stencils and the quadrature act row by row: each
    state's values are those of its own pass."""
    k, n = rows.shape[1:]
    values = rows.reshape(-1, n)  # a copy only for a partial window
    fields, m = values.reshape(5, -1), k * n
    rho, u, d = fields[0], fields[1], fields[2:]
    if _least(rho, 0.0) < 0:
        raise ConstitutiveError("density must be nonnegative")
    scratch = np.empty(10 * m) if scratch is None else scratch
    grad = gradient_array(values, dx, scratch[:5 * m].reshape(-1, n)).reshape(5, -1)
    grad_d = np.multiply(grad[2:], grad[2:], grad[2:])  # squared in place
    grad_sq = np.add.reduce(grad_d, 0, None, grad[0])  # rho's gradient is not read
    force = gl_force(d, o.sigma0_sq, grad_d) if o.gl else None
    lap = laplacian_array(values[2 * k:], dx, scratch[5 * m:8 * m].reshape(-1, n)).reshape(3, -1)
    resid = _residual(d, lap, grad_sq, force, grad_d)
    resid_sq = np.add.reduce(np.multiply(resid, resid, resid), 0, None, lap[0])
    pi = _power_law(rho, o.pi_coeff, o.gamma, lap[1])
    d_sq = np.add.reduce(np.multiply(d, d, grad_d), 0, None, lap[2]) if o.gl else None
    out = scratch[8 * m:10 * m].reshape(2, -1)
    _state_densities(rho, u, grad[1], grad_sq, resid_sq, pi, o, out, d_sq, grad[2:4])
    return trapezoid_array(out.reshape(2, k, n), dx)


def energy_dissipation(state: State, params: Params) -> Tuple[float, float]:
    """Energy and dissipation rate of one state, from one derivative pass.

    energy:      integral( rho |u|^2 / 2 + a/(gamma-1) rho^gamma
                           + lam ( |d_x|^2 / 2 [+ F(d) for GL] ) ) dx
    dissipation: integral( mu |u_x|^2 + lam theta |d_xx - f(d)|^2 ) for GL;
                 the SPHERE relaxation residual is d_xx + |d_x|^2 d instead.

    The one-state case of EnergyWindow's stacked pass.
    """
    rows, dx = np.concatenate((state.rho[None], state.u[None], state.d))[:, None], state.grid.dx
    return tuple(_energy_rows(rows, dx, _operands(params, dx))[:, 0].tolist())


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
    until; the window then keeps its samples.  It holds ENERGY_WINDOW * 15
    * n floats: the samples' rows and the pass's scratch.
    """

    def __init__(self, grid: Grid1D, params: Params, trajectory: str):
        self.dx, self.ops, self.trajectory = grid.dx, _operands(params, grid.dx), trajectory
        self.rows = np.empty((5, ENERGY_WINDOW, grid.n_nodes))  # rho, u, d0, d1, d2
        self.scratch = np.empty(2 * self.rows.size)  # the pass's (_energy_rows)
        self.times: List[float] = []  # of the samples in the buffer
        self.energy, self.dissipation = array("d"), array("d")

    def add(self, state: State, t: float) -> None:
        rows = self.rows[:, len(self.times)]
        rows[0], rows[1], rows[2:] = state.rho, state.u, state.d
        self.times.append(t)
        if len(self.times) == self.rows.shape[1]:
            self.flush()

    def flush(self, until: float = math.inf) -> None:
        """Evaluate the samples in the buffer and, if every value is finite,
        empty it."""
        times = self.times
        if not times:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            out = _energy_rows(self.rows[:, :len(times)], self.dx, self.ops, self.scratch)
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


@np.errstate(over="ignore", invalid="ignore")
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

    The entropy row of the certificate pass: the pair's _PairFields, as
    remainder builds them, and its one integral, so the value is bit for
    bit the entropy of remainder's row.  It raises the first error the
    pass records for the pair (SPHERE directors not unit length, a
    negative candidate density, a Bregman gap negative beyond round-off);
    a value beyond the float range is returned, as inf or NaN, with no
    numpy warning.
    """
    f = _PairFields((pair,), params)
    if f.faults:
        raise f.faults[0]
    dens = _entropy_density(f.rho, f.du, f.bregman, f.dgrad_sq, f.gap_sq, f.layout[-1])
    return trapezoid_array(dens[0], f.dx)


class _PairFields:
    """The arrays that the certificate rows of K pairs on one grid read,
    each set once, in one role-major pass.

    Every field is a (K, n) array, one contiguous run of K n floats, the K
    samples' rows end to end, as in _energy_rows; a director field is
    (3, K, n).  So every numpy call takes all K samples at once, and the
    stencils, the contractions and the quadrature act sample by sample:
    each sample's values are those of its own pass.  Names ending in _r
    are the reference's.  One gradient call takes the stacked roles ([p~,
    rho~ u~, Pi'(rho~)], u, u~, d, d~) and one Laplacian call (u~, d, d~);
    each power of a density is taken once (_power_law's power and
    product).  dgrad, dlap, e, du are the gaps d_x - d~_x, d_xx -
    d~_xx, d - d~, u - u~, and du_r = u~ - u.  One _contract pass sums
    every director product the rows read, those of the (candidate,
    reference) stacks first (the curvatures . d_x, and the squared lengths
    of d, GL's f(d) and d_x), each contraction under its own name; `norms`
    are the rows whose max h_hat reads.  SPHERE's second pass takes the
    rows that read gm = |d_x| and gm_r = |d~_x|.  g_ref = mu u~_xx - lam
    stress_r.  Nothing here raises for a bad sample: `faults` maps each
    sample that fails a check to the error its own row raises first
    (SPHERE unit lengths, the candidate density's sign, the Bregman
    round-off, in that order).
    """

    def __init__(self, pairs: Sequence[StatePair], params: Params):
        grid = pairs[0].grid
        self.dx = dx = grid.dx
        self.layout = layout = _layout(params, dx)
        o = layout[-1]
        k, n = len(pairs), grid.n_nodes
        # the roles rho, rho~, [p~, rho~ u~, Pi'(rho~)], u, u~, d, d~; from
        # the third on they are differentiated
        block = np.empty((13 if o.gl else 10, k, n))
        for j, pair in enumerate(pairs):
            if pair.grid is not grid and pair.grid != grid:
                raise FunctionalError("the pairs of one call must share one grid")
            c, r, sample = pair.candidate, pair.reference, block[:, j]
            sample[0], sample[1], sample[-8], sample[-7], sample[-6:-3], sample[-3:] = (
                c.rho, r.rho, c.u, r.u, c.d, r.d)
        self.rho, self.rho_r, self.u, self.u_r = rho, rho_r, u, u_r = (
            block[0], block[1], block[-8], block[-7])
        self.d, self.d_r = d, d_r = block[-6:-3], block[-3:]
        rows = block[2:]
        pow_r, pow1_r = np.power(rho_r, o.gamma), np.power(rho_r, o.gamma_m1)
        self.p_r = p_r = np.multiply(pow_r, o.a, rows[0] if o.gl else None)
        pi1_r = np.multiply(pow1_r, o.pi1_coeff, rows[2] if o.gl else None)
        if o.gl:
            self.flux_r = np.multiply(rho_r, u_r, rows[1])
        # the stencils run fastest on 2-D stacks of n-node rows
        grad = gradient_array(rows.reshape(-1, n), dx).reshape(len(rows), k, n)
        lap = laplacian_array(block[-7:].reshape(-1, n), dx).reshape(7, k, n)
        self.grad_laws_r, self.grad_u, self.grad_u_r = grad[:-8], grad[-8], grad[-7]
        lap_d, lap_d_r = laps = lap[1:].reshape(2, 3, k, n)
        dgrad, e, dlap = grad[-6:-3] - grad[-3:], d - d_r, lap_d - lap_d_r
        self.du, self.du_r = u - u_r, u_r - u
        # the (candidate, reference) stacks of d and d_x, and of u d_x, u~ d~_x
        directors, grads = rows[-6:].reshape(2, 3, k, n), grad[-6:].reshape(2, 3, k, n)
        moved = np.multiply(rows[-8:-6, None], grads)
        trans_gap, (grad_d, grad_d_r) = np.subtract(moved[0], moved[1], moved[0]), grads
        self.faults: Dict[int, ValueError] = {}  # sample -> the error its row raises first
        if o.gl:
            # gl_force takes the components on the second-to-last axis
            forces = gl_force(rows[-6:].reshape(2, 3, -1), o.sigma0_sq)
            force, force_r = forces = forces.reshape(2, 3, k, n)
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
            defects = _unit_defects(lengths[:2]).tolist()
            for name, values in zip(("candidate", "reference"), defects):
                for j, defect in enumerate(values):
                    if defect > 1e-8:
                        error = FunctionalError(f"{name} director is not unit length")
                        self.faults.setdefault(j, error)
            self.sphere_defect = defects[0]
            (self.stress_c, self.stress_r, _, _, self.grad_sq, _, _, self.dgrad_sq, self.gap_sq,
             self.difference, self.director_transport, self.gradient, self.curvature, self.d_dlap,
             self.exchange, self.e_dgrad, self.d_e) = dots
            self.gm, self.gm_r = gms = lengths[2:]
            gm_sq = gms * gms
            self.gm_r2 = gm_sq[1]
            scaled = np.multiply(gm_sq[:, None], directors)
            q = np.subtract(scaled[0], scaled[1], scaled[0])  # nonlinear reaction gap
            resid = _residual(d, lap_d, self.grad_sq, None)
            self.laplacian_q, self.director_q, self.resid_sq = _contract(
                ((dlap, q), (e, q), (resid, resid)))
        if _least(rho, 0.0) < 0:
            for j in np.flatnonzero(_least(rho, 0.0, -1) < 0).tolist():
                self.faults.setdefault(j, ConstitutiveError("density must be nonnegative"))
        pow_c = np.power(rho, o.gamma)
        self.p, self.pi = np.multiply(pow_c, o.a), np.multiply(pow_c, o.pi_coeff, pow_c)
        self.bregman = _bregman(self.pi, pi1_r, np.multiply(pow_r, o.pi_coeff, pow_r), rho, rho_r,
                                self.faults)
        self.dp_r = np.multiply(pow1_r, o.dp_coeff, pow1_r)
        self.rho_du_r = np.multiply(rho, self.du_r)
        self.stress_div_r = np.multiply(self.stress_r, o.lam)
        self.g_ref = np.subtract(np.multiply(lap[0], o.mu, lap[0]), self.stress_div_r, lap[0])


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
def _layout(params: Params, dx: float):
    """The row's term names and coefficients, in order with the two
    diagnostics last, the QUARTETS entries and each one's range of terms,
    and the shared _Operands of (params, dx): one cache lookup per call."""
    lam, th = params.lam, params.theta
    factor = {"1": 1.0, "-1": -1.0, "mu": params.mu, "lam": lam, "-lam": -lam,
              "lam*th": lam * th, "-lam*th": -lam * th, "2lam*th": 2.0 * lam * th}
    terms, ranges = [], {}
    for block, text in _TERMS[params.system].items():
        block_terms = [term.split() for term in text.split(", ")]
        ranges[block] = (len(terms), len(terms) + len(block_terms))
        terms += block_terms
    terms += [("diag_stress_transport_exchange", "1"), ("diag_director_l2_gap", "1")]
    quartet = QUARTETS[params.system]
    return (tuple(name for name, _ in terms), tuple(factor[key] for _, key in terms), quartet,
            tuple(ranges[block] for block in quartet), _operands(params, dx))


def _density_rows(f: _PairFields, row: Callable[[], np.ndarray]) -> None:
    """Velocity/pressure remainder in estimate order (r_bar_d, SPHERE's
    r_1d), each integrand written to the next row(): the convective
    quadratic, the pressure Bregman work and the density-weighted force
    imbalance; the stress-transport exchange term that migrates between
    the blocks is a diagnostic of `remainder`."""
    drho, tmp = np.subtract(f.rho, f.rho_r), np.negative(f.du_r)
    np.multiply(np.multiply(f.rho_du_r, tmp, tmp), f.grad_u_r, row())
    np.subtract(f.p, np.multiply(f.dp_r, drho, tmp), tmp)
    np.multiply(f.grad_u_r, np.subtract(tmp, f.p_r, tmp), row())
    np.multiply(np.multiply(np.divide(drho, f.rho_r, drho), f.g_ref, drho), f.du_r, row())


def _gl_rows(f: _PairFields, o: _Operands, row: Callable[[], np.ndarray]) -> None:
    """GL integrands in _TERMS order: (r_d, r_c) is the derivation-order
    split, (r_bar_d, r_bar_c) the estimate-order one; their sums agree up to
    O(dx^2).  r_d replaces d(u~)/dt and d(Pi'(rho~))/dt by the right-hand
    sides of the reference momentum and continuity equations."""
    grad_p_r, grad_flux_r, grad_pi1_r = f.grad_laws_r
    dudt_r = np.subtract(f.g_ref, grad_p_r)
    tmp = np.multiply(f.u_r, f.grad_u_r)
    np.subtract(np.divide(dudt_r, f.rho_r, dudt_r), tmp, dudt_r)
    # -Pi''(rho~), its coefficient negated
    dpidt_r = _power_law(f.rho_r, o.neg_dp_coeff, o.gamma_m2)
    np.multiply(dpidt_r, grad_flux_r, dpidt_r)
    np.add(dudt_r, np.multiply(f.u, f.grad_u_r, tmp), tmp)
    np.multiply(f.rho_du_r, tmp, row())
    np.multiply(f.grad_u_r, np.subtract(f.grad_u_r, f.grad_u, tmp), row())
    np.multiply(np.subtract(f.rho_r, f.rho, tmp), dpidt_r, tmp)
    flux_gap = np.subtract(f.flux_r, np.multiply(f.rho, f.u, dudt_r), dudt_r)
    np.add(tmp, np.multiply(grad_pi1_r, flux_gap, flux_gap), row())
    np.multiply(f.grad_u_r, np.subtract(f.p, f.p_r, tmp), row())
    _density_rows(f, row)
    np.multiply(f.u, f.transport, row())
    np.multiply(f.u_r, f.transport, row())
    row()[:] = f.difference
    row()[:] = f.force_gap  # rc_force_difference, then rbc_force_difference
    row()[:] = f.force_gap
    np.multiply(f.u_r, f.gradient, row())
    np.multiply(f.du, f.curvature, row())
    np.multiply(f.du, f.candidate_force, row())
    np.multiply(f.du, f.force_gradient, row())


def _sphere_rows(f: _PairFields, o: _Operands, row: Callable[[], np.ndarray]) -> None:
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
    tmp = np.subtract(f.stress_c, f.stress_r)
    np.multiply(tmp, f.du_r, row())
    for dot in (f.difference, f.laplacian_q, f.director_q, f.director_transport):
        row()[:] = dot
    gap_mag = np.subtract(f.gm, f.gm_r)
    sum_mag = np.add(f.gm_r, f.gm)
    np.multiply(f.u_r, f.gradient, row())
    np.multiply(f.du_r, f.curvature, row())
    np.multiply(np.multiply(sum_mag, f.d_dlap, tmp), gap_mag, row())
    np.multiply(f.du_r, f.exchange, row())
    np.multiply(f.u_r, f.e_dgrad, row())
    np.multiply(np.multiply(sum_mag, f.d_e, tmp), gap_mag, row())
    np.multiply(f.gap_sq, f.gm_r2, row())
    # the factored-curvature move: integral(|d~_x|^2 e . (dlap)) shifted by
    # parts onto the gradient gap (reference Neumann slope kills the
    # boundary term)
    np.multiply(f.stress_r, f.e_dgrad, row())
    np.multiply(f.gm_r2, f.dgrad_sq, row())


@np.errstate(over="ignore", invalid="ignore")
def remainder(pairs: Union[StatePair, Sequence[StatePair]], params: Params):
    """Certificate rows: every remainder integral, both reorganizations,
    h_hat, the relative entropy and the candidate's single-state values at
    one sample, or at each of a sequence of samples on one grid.

    A StatePair gives its RemainderBreakdown; a sequence of K pairs gives
    a list of K, each bit for bit the one its pair gives alone, or raises
    the error that the first of its pairs to fail raises alone, with that
    pair's index in the error's `sample` attribute.  Both are
    one pass (_PairFields), a single pair being the case K = 1: every
    integrand of every sample is written to its row of one stack that a
    single trapezoid call integrates, and one max gives every h_hat norm.
    The quartet holds the active system's QUARTETS entries; its
    reorganization identity is checked against REORG_TOL_COEFF * dx^2.
    SPHERE requires both directors to be unit length.  Values beyond the
    float range raise FunctionalError (see _check_row), not a numpy warning.

    The pass costs some 150 numpy calls whatever K is, so a window of
    samples pays that fixed cost once: run_twin passes every row as a
    sequence, a lockstep twin's ENERGY_WINDOW samples at a time and a
    streamed twin's one at a time, as each pair is formed.
    """
    single = isinstance(pairs, StatePair)
    if not single and not pairs:
        return []
    f = _PairFields((pairs,) if single else pairs, params)
    names, coefficients, quartet_names, blocks, o = f.layout
    gl = o.gl
    stack = np.empty((len(names) + 5,) + f.rho.shape)
    row = iter(stack).__next__
    (_gl_rows if gl else _sphere_rows)(f, o, row)
    # the diagnostics: the reference stress transported by the velocity gap,
    # which cancels between the two reorganized blocks, and the director gap
    # (its square root taken below)
    np.multiply(f.stress_div_r, f.du_r, row())
    row()[:] = f.gap_sq
    # past the terms: entropy, the candidate's energy, dissipation, mass; |g~/rho~|^3
    _entropy_density(f.rho, f.du, f.bregman, f.dgrad_sq, f.gap_sq, o, row())
    _state_densities(f.rho, f.u, f.grad_u, f.grad_sq, f.resid_sq, f.pi, o, (row(), row()),
                     f.d_sq)
    row()[:] = f.rho
    l3 = np.divide(f.g_ref, f.rho_r, row())
    np.power(np.abs(l3, l3), _THREE, l3)
    # on the stack as 2-D (rows, n): its end columns are then 1-D views
    integrals = trapezoid_array(stack.reshape(-1, stack.shape[-1]), f.dx)
    integrals = integrals.reshape(len(stack), -1).T.tolist()
    # the h_hat max-norms of every sample in one stacked max, the lengths'
    # from their squares (f.norms) before the square root
    mags = np.empty((8,) + f.rho.shape)
    mags[0], mags[1], mags[2], mags[3:] = f.grad_u_r, f.g_ref, f.u_r, f.norms
    mags = np.maximum.reduce(np.abs(mags, mags), -1).T.tolist()
    first = min(f.faults, default=len(mags))  # no row is built for a sample at or past it
    out = []
    try:
        for j, sample, norms in zip(range(first), integrals, mags):
            values = [c * v for c, v in zip(coefficients, sample)]
            values[-1] = math.sqrt(values[-1])
            entropy, energy_c, dissipation_c, mass_c, l3_cubed = sample[len(values):]
            # each block sums left to right in term order
            quartet = [functools.reduce(operator.add, values[a:b]) for a, b in blocks]
            lhs = quartet[0] + quartet[1] if gl else quartet[1]
            mismatch = lhs - (quartet[2] + quartet[3])
            h_terms = _gronwall_terms(norms, gl, l3_cubed)
            br = RemainderBreakdown(
                quartet=dict(zip(quartet_names, quartet)),
                terms=dict(zip(names, values)), h_terms=h_terms,
                h_hat=float(sum(h_terms.values())), reorg_mismatch=float(mismatch),
                entropy=entropy, energy=energy_c, dissipation=dissipation_c, mass=mass_c,
                sphere_defect=None if gl else f.sphere_defect[j],
            )
            _check_row(br, f.dx, l3_cubed)
            out.append(br)
        if f.faults:
            raise f.faults[first]
    except ValueError as exc:
        exc.sample = len(out)  # the pair whose row or check failed
        raise
    return out[0] if single else out


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


def _gronwall_terms(mags: List[float], gl: bool, l3_cubed: float) -> Dict[str, float]:
    """The norm factors of h_hat, the integrable growth-rate surrogate.

    Each term is the norm factor multiplying the entropy in one of the
    absorption estimates, taken with unit prefactor; every unknown
    analytic constant (embedding constants, delta-splitting constants) is
    deferred to the single calibrated multiplier c_h applied by the
    verifier.  All terms are nonnegative; all vanish on a resting
    reference with a coinciding candidate.  mags holds one sample's
    max-norms of u~_x, g~ and u~, then the squares of the max lengths of
    _PairFields' norms; l3_cubed is the integral of |g~/rho~|^3; gl selects
    the system.
    """
    grad_u_r, g, u_r = mags[:3]
    lengths = [math.sqrt(v) for v in mags[3:]]
    terms: Dict[str, float] = {}
    terms["grad_u_ref_inf"] = grad_u_r
    terms["g_over_rho_l3_sq"] = _sq(float(np.cbrt(l3_cubed)))
    terms["g_inf"] = g
    terms["u_ref_inf_sq"] = _sq(u_r)

    if gl:
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
