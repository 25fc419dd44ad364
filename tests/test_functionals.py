import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab.constitutive import ConstitutiveError, Params, System, gl_force
from nemlab import dynamics, functionals
from nemlab.dynamics import BoundarySpec, State, evolve
from nemlab.functionals import (
    QUARTETS,
    FunctionalError,
    NonFiniteError,
    StatePair,
    dissipation,
    energy,
    energy_dissipation,
    mass,
    relative_entropy,
    remainder,
    sphere_defect,
)
from nemlab import grid as grid_module
from nemlab.grid import Grid1D, gradient_array, laplacian_array, trapezoid_array
from nemlab.verifier import make_initial_data


# Direct norm oracles for the h_hat factors and the director-gap diagnostic,
# written independently of the stacked passes remainder takes.


def linf_array(arr):
    """Max-norm over the nodes; a (3, n) array by its columns' Euclidean length."""
    if arr.ndim == 2:
        return float(np.max(np.sqrt(np.sum(arr * arr, axis=0))))
    return float(np.max(np.abs(arr)))


def l3_array(arr, dx):
    """L3 norm of a scalar array, by trapezoid quadrature of |arr|^3."""
    return float(np.cbrt(trapezoid_array(np.abs(arr) ** 3, dx)))


def director_l2_gap(pair):
    """L2 norm of d - d~ (diagnostic; not part of the GL entropy)."""
    dd = pair.candidate.d - pair.reference.d
    return float(np.sqrt(trapezoid_array(np.sum(dd * dd, axis=0), pair.grid.dx)))


class TestNormOracles:
    def test_unit_vector_linf_array(self):
        v = np.zeros((3, 51))
        v[0] = 1.0
        assert linf_array(v) == 1.0

    def test_identity_l3_array(self):
        g = Grid1D(2001, 0.0, 1.0)
        assert l3_array(g.nodes(), g.dx) == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-6)

    def test_monotonicity_bounds(self):
        rng = np.random.default_rng(11)
        g = Grid1D(61, 0.0, 2.5)
        size = g.length
        for _ in range(20):
            f = rng.normal(size=61)
            assert l3_array(f, g.dx) <= size ** (1.0 / 3.0) * linf_array(f) + 1e-12


def uniform_state(grid, rho=1.0, u=0.0, d=(1.0, 0.0, 0.0)):
    n = grid.n_nodes
    dd = np.tile(np.asarray(d, dtype=float)[:, None], n)
    return State(grid, np.full(n, rho), np.full(n, u), dd)


def circle_state(grid, rho=1.0):
    x = grid.nodes()
    d = np.stack([np.cos(x), np.sin(x), np.zeros_like(x)])
    return State(grid, np.full(grid.n_nodes, rho), np.zeros(grid.n_nodes), d)


def gl_pair(n, x_max=1.0):
    """Smooth candidate/reference pair with no-slip velocities."""
    g = Grid1D(n, 0.0, x_max)
    x = g.nodes() / x_max
    rho_r = 1.0 + 0.2 * np.sin(2 * np.pi * x)
    u_r = 0.3 * np.sin(np.pi * x) * np.sin(2 * np.pi * x)
    d_r = np.stack(
        [1.0 + 0.1 * np.sin(2 * np.pi * x), 0.3 * np.cos(2 * np.pi * x),
         0.2 * np.sin(4 * np.pi * x)]
    )
    rho_c = rho_r + 0.15 * np.sin(4 * np.pi * x) * np.cos(np.pi * x)
    u_c = u_r + 0.2 * np.sin(np.pi * x) ** 2 * np.cos(2 * np.pi * x)
    d_c = d_r + np.stack(
        [0.1 * np.sin(2 * np.pi * x), -0.05 * np.sin(4 * np.pi * x),
         0.08 * np.cos(2 * np.pi * x)]
    )
    return StatePair(
        State(g, rho_c, u_c, d_c), State(g, rho_r, u_r, d_r)
    )


def sphere_pair(n):
    """Unit-director pair, zero-slope reference at the walls."""
    g = Grid1D(n, 0.0, 1.0)
    x = g.nodes()
    rho_r = 1.0 + 0.2 * np.sin(2 * np.pi * x)
    u_r = 0.3 * np.sin(np.pi * x) * np.sin(2 * np.pi * x)
    phi_r = 0.5 * np.cos(np.pi * x)
    psi_r = 0.3 * np.cos(2 * np.pi * x)
    d_r = np.stack(
        [np.cos(phi_r), np.sin(phi_r) * np.cos(psi_r), np.sin(phi_r) * np.sin(psi_r)]
    )
    rho_c = rho_r + 0.15 * np.sin(4 * np.pi * x) * np.cos(np.pi * x)
    u_c = u_r + 0.2 * np.sin(np.pi * x) ** 2 * np.cos(2 * np.pi * x)
    phi_c = phi_r + 0.2 * np.cos(2 * np.pi * x)
    psi_c = psi_r - 0.15 * np.cos(np.pi * x)
    d_c = np.stack(
        [np.cos(phi_c), np.sin(phi_c) * np.cos(psi_c), np.sin(phi_c) * np.sin(psi_c)]
    )
    return StatePair(
        State(g, rho_c, u_c, d_c), State(g, rho_r, u_r, d_r)
    )


GL = Params(a=1.0, gamma=2.0, sigma0=1.0)
SPH = Params(a=1.0, gamma=2.0, sigma0=1.0, system=System.SPHERE)


class TestEnergy:
    def test_uniform_rest_state(self):
        g = Grid1D(33, 0.0, 1.0)
        assert energy(uniform_state(g), GL) == pytest.approx(1.0, abs=1e-14)

    def test_circle_director(self):
        g = Grid1D(801, 0.0, 2.0 * np.pi)
        assert energy(circle_state(g), GL) == pytest.approx(3.0 * np.pi, abs=1e-4)

    def test_sphere_matches_gl_on_unit_director(self):
        g = Grid1D(801, 0.0, 2.0 * np.pi)
        st = circle_state(g)
        assert energy(st, SPH) == pytest.approx(3.0 * np.pi, abs=1e-4)
        assert energy(st, SPH) == pytest.approx(energy(st, GL), abs=1e-12)

    def test_refinement_convergence(self):
        errs = []
        for n in (101, 201, 401):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            errs.append(abs(energy(circle_state(g), GL) - 3.0 * np.pi))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)

    def test_lam_weighting(self):
        g = Grid1D(101, 0.0, 2.0 * np.pi)
        st = circle_state(g)
        e1 = energy(st, GL)
        e2 = energy(st, Params(a=1.0, gamma=2.0, lam=2.0))
        # doubling lam doubles the director share (here approx pi of 3 pi)
        assert e2 - e1 == pytest.approx(e1 - 2.0 * np.pi, rel=1e-10)


def test_sphere_defect_is_the_largest_length_error():
    g = Grid1D(33, 0.0, 1.0)
    st = circle_state(g)
    assert sphere_defect(st) <= 1e-15
    d = st.d.copy()
    d[:, 5] *= 1.5
    d[:, 9] *= 0.25
    st = State(g, st.rho, st.u, d)
    assert sphere_defect(st) == pytest.approx(0.75, rel=1e-14)


class TestDissipation:
    def test_equilibrium(self):
        g = Grid1D(33, 0.0, 1.0)
        assert dissipation(uniform_state(g), GL) == 0.0

    def test_sphere_harmonic_circle(self):
        g = Grid1D(129, 0.0, 2.0 * np.pi)
        assert dissipation(circle_state(g), SPH) <= 2.0 * g.dx**4

    def test_gl_stretched_director(self):
        g = Grid1D(65, 0.0, 1.0)
        st = uniform_state(g, d=(2.0, 0.0, 0.0))
        assert dissipation(st, GL) == pytest.approx(36.0, rel=1e-12)


class TestRelativeEntropy:
    def test_identical_pair_is_zero(self):
        pair = gl_pair(65)
        same = StatePair(pair.reference, pair.reference)
        assert relative_entropy(same, GL) == 0.0

    def test_density_gap_value(self):
        g = Grid1D(33, 0.0, 1.0)
        pair = StatePair(uniform_state(g, rho=2.0), uniform_state(g, rho=1.0))
        assert relative_entropy(pair, GL) == pytest.approx(1.0, abs=1e-13)

    def test_nonnegative_on_smooth_pairs(self):
        assert relative_entropy(gl_pair(65), GL) > 0.0
        assert relative_entropy(sphere_pair(65), SPH) > 0.0

    def test_sphere_quadratic_scaling_in_director_gap(self):
        # perturb the director out of its plane and renormalize it, as
        # SPHERE requires; ratio of entropies at amplitudes eps and eps/2
        # must be 4
        g = Grid1D(129, 0.0, 1.0)
        x = g.nodes()
        phi = 0.5 * np.cos(np.pi * x)
        d_r = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(x)])
        ref = State(g, np.ones(129), np.zeros(129), d_r)
        vals = {}
        for eps in (1e-2, 5e-3):
            d_c = d_r + eps * np.sin(x)[None, :] * np.array([0.0, 0.0, 1.0])[:, None]
            d_c /= np.sqrt(np.sum(d_c * d_c, axis=0))
            cand = State(g, np.ones(129), np.zeros(129), d_c)
            vals[eps] = relative_entropy(StatePair(cand, ref), SPH)
        assert vals[1e-2] / vals[5e-3] == pytest.approx(4.0, rel=0.05)

    def test_states_on_two_grids_rejected(self):
        with pytest.raises(FunctionalError, match="^candidate and reference must share one grid$"):
            StatePair(uniform_state(Grid1D(33, 0.0, 1.0)), uniform_state(Grid1D(17, 0.0, 1.0)))

    def test_degenerate_reference_rejected(self):
        g = Grid1D(33, 0.0, 1.0)
        lo = uniform_state(g, rho=1e-9)
        with pytest.raises(FunctionalError):
            StatePair(uniform_state(g), lo)
        # with no positive lower bound a zero density is still refused, as
        # the pressure Bregman term refuses it
        zero = uniform_state(g, rho=0.0)
        with pytest.raises(ConstitutiveError, match="reference density must be strictly positive"):
            StatePair(uniform_state(g), zero, rho_lower=0.0)


class TestRemainderGl:
    def test_identical_pair_all_zero(self):
        pair = gl_pair(65)
        same = StatePair(pair.reference, pair.reference)
        br = remainder(same, GL)
        q = br.quartet
        assert q["r_d"] == q["r_c"] == q["r_bar_d"] == q["r_bar_c"] == 0.0
        assert br.reorg_mismatch == 0.0

    def test_matched_velocity_and_density_leaves_director_terms(self):
        base = gl_pair(65)
        cand = State(base.grid, base.reference.rho, base.reference.u, base.candidate.d)
        pair = StatePair(cand, base.reference)
        br = remainder(pair, GL)
        q = br.quartet
        # every named integral carrying (u - u~) or (rho - rho~) vanishes
        assert q["r_bar_d"] == 0.0
        for key in ("rbd_convective", "rbd_pressure_bregman",
                    "rbd_density_weighted_force", "rbc_reference_curvature",
                    "rbc_candidate_force", "rbc_force_gradient"):
            assert br.terms[key] == 0.0
        # the survivors match directly evaluated integrals
        g = pair.grid
        dlap = laplacian_array(cand.d, g.dx) - laplacian_array(
            base.reference.d, g.dx
        )
        dgrad = gradient_array(cand.d, g.dx) - gradient_array(
            base.reference.d, g.dx
        )
        dforce = gl_force(cand.d, GL.sigma0**2) - gl_force(base.reference.d, GL.sigma0**2)
        dx = g.dx
        expect_force = np.sum(dlap * dforce, axis=0)
        expect_force = dx * (expect_force.sum() - 0.5 * (expect_force[0] + expect_force[-1]))
        assert br.terms["rbc_force_difference"] == pytest.approx(expect_force, rel=1e-12)
        trans = base.reference.u * np.sum(dlap * dgrad, axis=0)
        expect_trans = dx * (trans.sum() - 0.5 * (trans[0] + trans[-1]))
        assert br.terms["rbc_gradient_transport"] == pytest.approx(expect_trans, rel=1e-12)
        assert q["r_bar_c"] == pytest.approx(expect_force + expect_trans, rel=1e-12)

    def test_reorganization_identity_refines_at_second_order(self):
        mismatches = []
        for n in (65, 129, 257):
            q = remainder(gl_pair(n), GL).quartet
            mismatches.append(abs((q["r_d"] + q["r_c"]) - (q["r_bar_d"] + q["r_bar_c"])))
        orders = [np.log2(a / b) for a, b in zip(mismatches, mismatches[1:])]
        assert all(o >= 1.8 for o in orders)


class TestRemainderSphere:
    def test_identical_pair_all_zero(self):
        pair = sphere_pair(65)
        same = StatePair(pair.reference, pair.reference)
        br = remainder(same, SPH)
        q = br.quartet
        assert q["r_1d"] == q["r_1c"] == q["r_1c_a"] == q["r_1c_b"] == 0.0

    def test_matched_director_collapses_coupling_split(self):
        base = sphere_pair(65)
        cand = State(base.grid, base.candidate.rho, base.candidate.u, base.reference.d)
        pair = StatePair(cand, base.reference)
        br = remainder(pair, SPH)
        q = br.quartet
        assert q["r_1c_a"] == 0.0
        assert q["r_1c_b"] == 0.0
        assert q["r_1c"] == 0.0
        assert q["r_1d"] != 0.0  # density/velocity block still active

    def test_split_identity_refines_at_second_order(self):
        mismatches = []
        for n in (65, 129, 257):
            q = remainder(sphere_pair(n), SPH).quartet
            mismatches.append(abs(q["r_1c"] - (q["r_1c_a"] + q["r_1c_b"])))
        orders = [np.log2(a / b) for a, b in zip(mismatches, mismatches[1:])]
        assert all(o >= 1.8 for o in orders)

    def test_unit_length_required(self):
        pair = gl_pair(65)  # directors are not unit length
        with pytest.raises(FunctionalError, match="unit length"):
            remainder(pair, SPH)

    def test_dispatch(self):
        br = remainder(sphere_pair(65), SPH)
        assert tuple(br.quartet) == QUARTETS[System.SPHERE]
        assert tuple(remainder(gl_pair(65), GL).quartet) == QUARTETS[System.GL]


@pytest.mark.parametrize(
    "make_pair, params", [(gl_pair, GL), (sphere_pair, SPH)], ids=["gl", "sphere"]
)
def test_remainder_builds_pair_fields_once(monkeypatch, make_pair, params):
    init = functionals._PairFields.__init__
    calls = []

    def counting_init(self, pair, p):
        calls.append(pair)
        init(self, pair, p)

    monkeypatch.setattr(functionals._PairFields, "__init__", counting_init)
    pair = make_pair(65)
    br = remainder(pair, params)
    assert len(calls) == 1
    # h_hat is the sum of its norm factors, assembled from the same fields
    assert br.h_hat == sum(br.h_terms.values())


class TestGronwallCoefficient:
    def test_resting_reference_vanishes(self):
        g = Grid1D(33, 0.0, 1.0)
        eq = uniform_state(g)
        br = remainder(StatePair(eq, eq), GL)
        assert br.h_hat == 0.0
        assert all(v == 0.0 for v in br.h_terms.values())

    def test_terms_match_direct_norms_gl(self):
        pair = gl_pair(129)
        p = GL
        br = remainder(pair, p)
        h = br.h_terms
        dx = pair.grid.dx
        ref = pair.reference
        # independent reconstruction from the grid operators
        grad_u_r = gradient_array(ref.u, dx)
        assert h["grad_u_ref_inf"] == pytest.approx(linf_array(grad_u_r))
        assert h["u_ref_inf_sq"] == pytest.approx(linf_array(ref.u) ** 2)
        lap_u_r = laplacian_array(ref.u, dx)
        grad_d_r = gradient_array(ref.d, dx)
        lap_d_r = laplacian_array(ref.d, dx)
        curv = lap_d_r - gl_force(ref.d, p.sigma0**2)
        g_ref = p.mu * lap_u_r - p.lam * np.sum(curv * grad_d_r, axis=0)
        assert h["g_inf"] == pytest.approx(linf_array(g_ref))
        ratio = g_ref / ref.rho
        assert h["g_over_rho_l3_sq"] == pytest.approx(l3_array(ratio, dx) ** 2)
        f_c = linf_array(gl_force(pair.candidate.d, p.sigma0**2))
        f_r = linf_array(gl_force(ref.d, p.sigma0**2))
        assert h["force_scale"] == pytest.approx(f_c + f_r)
        assert h["curvature_force_inf_sq"] == pytest.approx(
            (linf_array(lap_d_r) + f_c) ** 2
        )
        assert h["grad_d_ref_inf_sq"] == pytest.approx(
            linf_array(grad_d_r) ** 2
        )
        assert br.h_hat == pytest.approx(sum(h.values()))

    def test_terms_match_direct_norms_sphere(self):
        pair = sphere_pair(129)
        h = remainder(pair, SPH).h_terms
        ref, cand = pair.reference, pair.candidate
        dx = pair.grid.dx
        grad_d_r = gradient_array(ref.d, dx)
        grad_d_c = gradient_array(cand.d, dx)
        d_inf = linf_array(cand.d)
        assert h["u_ref_inf"] == pytest.approx(linf_array(ref.u))
        assert h["lap_d_ref_inf_sq"] == pytest.approx(
            linf_array(laplacian_array(ref.d, dx)) ** 2
        )
        assert h["grad_d_both_inf_sq_d_inf_sq"] == pytest.approx(
            (linf_array(grad_d_r) ** 2 + linf_array(grad_d_c) ** 2) * d_inf**2
        )
        assert h["grad_d_cand_inf_sq"] == pytest.approx(
            linf_array(grad_d_c) ** 2
        )
        assert h["d_inf_grad_sum"] == pytest.approx(
            d_inf * (linf_array(grad_d_r) + linf_array(grad_d_c))
        )

    def test_invariant_under_candidate_velocity_swap(self):
        pair = gl_pair(65)
        h1 = remainder(pair, GL)
        swapped = StatePair(
            State(pair.grid, pair.candidate.rho, pair.reference.u, pair.candidate.d),
            pair.reference,
        )
        h2 = remainder(swapped, GL)
        assert h1.h_hat == h2.h_hat
        assert h1.h_terms == h2.h_terms

    def test_terms_nonnegative(self):
        for pair, p in ((gl_pair(65), GL), (sphere_pair(65), SPH)):
            h = remainder(pair, p).h_terms
            assert all(v >= 0.0 for v in h.values())

    @pytest.mark.parametrize(
        "make_pair, params", [(gl_pair, GL), (sphere_pair, SPH)], ids=["gl", "sphere"]
    )
    def test_factor_squared_beyond_the_float_range_is_non_finite(self, make_pair, params):
        # both velocities at 2**664 (about 8e199): every remainder term stays
        # finite (they see the velocity gap, 0, and the flux), but
        # u_ref_inf_sq = 6e399 leaves the float range, where float ** raises
        # OverflowError; the candidate's kinetic energy overflows too, and
        # its quadrature is inf - inf; no numpy warning is raised
        pair = _uniform_velocity(make_pair(33), 2.0**664)
        with pytest.raises(NonFiniteError, match="^non-finite Gronwall coefficient$"):
            remainder(pair, params)

    @pytest.mark.parametrize(
        "make_pair, params", [(gl_pair, GL), (sphere_pair, SPH)], ids=["gl", "sphere"]
    )
    def test_cubed_reference_force_beyond_the_float_range_is_named(self, make_pair, params):
        # at 1e200 the one-sided Laplacian stencil of the constant velocity
        # rounds (5 * 1e200 is inexact), and the cube of g~/rho~ (about
        # 1e187) leaves the float range before the Gronwall terms do
        pair = _uniform_velocity(make_pair(33), 1e200)
        with pytest.raises(NonFiniteError, match=r"^non-finite \|g~/rho~\|\^3 integral$"):
            remainder(pair, params)


def _uniform_velocity(pair, u):
    """pair with both velocities set to the constant u."""
    u = np.full(pair.grid.n_nodes, u)
    return StatePair(*(State(pair.grid, s.rho, u, s.d) for s in (pair.candidate, pair.reference)))


class TestStressFormsIntegrated:
    def test_weighted_stress_divergence_two_ways(self):
        # integral(stress_div * phi) via the conservative form vs the
        # curvature contraction, phi smooth and vanishing at the walls;
        # the two routes agree within O(dx^2)
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 1.0)
            x = g.nodes()
            phi = np.sin(np.pi * x) ** 2
            pcs = 0.4 * np.cos(np.pi * x) + 0.2 * np.sin(2 * np.pi * x)
            d = np.stack([np.cos(pcs), np.sin(pcs), np.zeros_like(x)])
            grad_d = gradient_array(d, g.dx)
            conservative = gradient_array(0.5 * np.sum(grad_d * grad_d, axis=0), g.dx)
            curvature = np.sum(laplacian_array(d, g.dx) * grad_d, axis=0)
            i1 = trapezoid_array(conservative * phi, g.dx)
            i2 = trapezoid_array(curvature * phi, g.dx)
            assert abs(i1 - i2) <= g.dx**2

    def test_director_l2_gap_diagnostic(self):
        pair = gl_pair(65)
        gap = director_l2_gap(pair)
        dd = pair.candidate.d - pair.reference.d
        direct = np.sqrt(trapezoid_array(np.sum(dd * dd, axis=0), pair.grid.dx))
        assert gap == pytest.approx(direct, rel=1e-12)
        br = remainder(pair, GL)
        assert br.terms["diag_director_l2_gap"] == pytest.approx(gap)

    def test_relative_entropy_refinement_convergence(self):
        # analytic oracle: rho = 1 + x, u gap = x(1-x), matched everything
        # else gives entropy integral( (1+x) x^2 (1-x)^2 / 2 ) = 1/40
        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 1.0)
            x = g.nodes()
            d = np.tile([[1.0], [0.0], [0.0]], n)
            ref = State(g, 1.0 + x, np.zeros(n), d)
            cand = State(g, 1.0 + x, x * (1.0 - x), d)
            errs.append(abs(relative_entropy(StatePair(cand, ref), GL) - 1.0 / 40.0))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)


@st.composite
def smooth_pairs(draw):
    """A smooth random pair on a random grid, and random coefficients."""
    system = draw(st.sampled_from(list(System)))
    n = draw(st.integers(33, 129))
    g = Grid1D(n, 0.0, draw(st.floats(0.5, 2.0)))
    s = g.nodes() / g.x_max
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.floats(0.0, 0.5))

    def smooth(zero_slope=False):
        # the reorganization identities need zero-slope directors at the walls
        amp = rng.normal(size=4)
        phase = np.zeros(4) if zero_slope else rng.uniform(0.0, 2.0 * np.pi, 4)
        return sum(a / (m + 1) ** 2 * np.cos(np.pi * (m + 1) * s + p)
                   for m, (a, p) in enumerate(zip(amp, phase)))

    def state(rho, u, d):
        if system is System.SPHERE:
            d = d / np.sqrt(np.sum(d * d, axis=0))
        return State(g, rho, u, d)

    rho_r = 1.0 + 0.3 * np.tanh(smooth())
    u_r = 0.3 * smooth() * np.sin(np.pi * s)
    d_r = np.stack([1.0 + 0.3 * smooth(True), 0.4 * smooth(True), 0.4 * smooth(True)])
    ref = state(rho_r, u_r, d_r)
    cand = state(rho_r * (1.0 + 0.3 * eps * np.tanh(smooth())),
                 u_r + eps * 0.3 * smooth() * np.sin(np.pi * s),
                 ref.d + eps * 0.3 * np.stack([smooth(True), smooth(True), smooth(True)]))
    coeff = st.floats(0.5, 2.0)
    params = Params(a=draw(coeff), gamma=draw(st.floats(1.2, 3.0)), sigma0=draw(coeff),
                    mu=draw(coeff), lam=draw(coeff), theta=draw(coeff), system=system)
    return StatePair(cand, ref), params


@settings(max_examples=40, deadline=None, derandomize=True)
@given(smooth_pairs())
def test_breakdown_carries_the_single_value_functionals_bit_for_bit(case):
    pair, p = case
    br = remainder(pair, p)
    cand = pair.candidate
    assert br.entropy == relative_entropy(pair, p)
    assert (br.energy, br.dissipation) == energy_dissipation(cand, p)
    assert (br.energy, br.dissipation) == (energy(cand, p), dissipation(cand, p))
    assert br.mass == mass(cand)
    if p.system is System.SPHERE:
        assert br.sphere_defect == sphere_defect(cand)
    else:
        assert br.sphere_defect is None
    assert br.terms["diag_director_l2_gap"] == director_l2_gap(pair)


W = functionals.ENERGY_WINDOW


@settings(max_examples=40, deadline=None, derandomize=True)
@given(system=st.sampled_from(list(System)), n=st.integers(5, 80),
       count=st.sampled_from([1, W - 1, W, W + 1, 2 * W + 3]), seed=st.integers(0, 2**32 - 1),
       coeffs=st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5))
def test_energy_window_is_energy_dissipation_bit_for_bit(system, n, count, seed, coeffs):
    a, sigma0, mu, lam, theta = coeffs
    p = Params(a=a, gamma=2.0, sigma0=sigma0, mu=mu, lam=lam, theta=theta, system=system)
    g = Grid1D(n, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        d = rng.normal(size=(3, n))
        if system is System.SPHERE:
            d /= np.sqrt(np.sum(d * d, axis=0))
        states.append(State(g, 0.5 + rng.random(n), rng.normal(size=n), d))
    window = functionals.EnergyWindow(g, p, "candidate")
    for k, state in enumerate(states):
        window.add(state, 0.1 * k)
    window.flush()
    window.flush()  # an empty window adds nothing
    expected = np.array([energy_dissipation(state, p) for state in states])
    assert np.array(window.energy).tobytes() == expected[:, 0].tobytes()
    assert np.array(window.dissipation).tobytes() == expected[:, 1].tobytes()


@pytest.mark.parametrize("peak, which", [
    # u^2 overflows, so does u_x^2: the energy is named first
    (1e160, "energy"),
    # u^2 = 1e306 does not, (2 peak / dx)^2 = 1024 u^2 does
    (1e153, "dissipation"),
])
def test_energy_window_names_the_first_non_finite_value(peak, which):
    g = Grid1D(17, 0.0, 1.0)
    window = functionals.EnergyWindow(g, GL, "reference")
    u = np.zeros(17)
    u[1] = peak
    with pytest.raises(FunctionalError, match=f"^non-finite reference {which} at t=0.5$"):
        for k in range(W + 2):  # from sample 5 on, up to a partial last window
            base = uniform_state(g)
            window.add(State(g, base.rho, u, base.d) if k >= 5 else base, 0.1 * k)
        window.flush()


def test_energy_window_names_a_value_at_or_before_until_and_keeps_it():
    g = Grid1D(17, 0.0, 1.0)
    window = functionals.EnergyWindow(g, GL, "reference")
    base = uniform_state(g)
    u = np.zeros(17)
    u[1] = 1e160
    window.add(base, 0.0)
    window.add(State(g, base.rho, u, base.d), 0.1)
    window.flush(until=0.05)  # the first non-finite value is at t=0.1
    for until in (0.1, np.inf):  # the window kept both samples
        with pytest.raises(FunctionalError, match="^non-finite reference energy at t=0.1$"):
            window.flush(until=until)
    assert len(window.energy) == 0


def _smooth_twin(system, n, seed):
    """A smooth candidate/reference pair on an n-node grid, seeded."""
    g = Grid1D(n, 0.0, 1.0)
    x, rng = g.nodes(), np.random.default_rng(seed)
    states = []
    for _ in range(2):
        a, m = rng.uniform(-0.3, 0.3, size=6), rng.integers(1, 4, size=6)
        rho = 1.0 + a[0] * np.cos(np.pi * m[0] * x)
        u = a[1] * np.sin(np.pi * m[1] * x)
        d = np.array([np.cos(a[2] * np.cos(np.pi * m[2] * x)), np.sin(a[3] * np.sin(np.pi * m[3] * x)),
                      a[4] * np.cos(np.pi * m[4] * x)])
        if system is System.SPHERE:
            d /= np.sqrt(np.sum(d * d, axis=0))
        states.append(State(g, rho, u, d))
    return g, states


def _row_key(br):
    """A certificate row's keys in order and its values' bits."""
    defect = np.nan if br.sphere_defect is None else br.sphere_defect
    values = [*br.quartet.values(), *br.terms.values(), *br.h_terms.values(), br.h_hat,
              br.reorg_mismatch, br.entropy, br.energy, br.dissipation, br.mass, defect]
    return (list(br.quartet), list(br.terms), list(br.h_terms), br.sphere_defect is None,
            np.array(values).tobytes())


def _tilt_reference_director(cand, ref):
    return cand, State(ref.grid, ref.rho, ref.u, ref.d * 1.001)


def _negative_candidate_density(cand, ref):
    rho = cand.rho.copy()
    rho[len(rho) // 2] = -1e-3
    return State(cand.grid, rho, cand.u, cand.d), ref


def _overflowing_reference_velocity(cand, ref):
    return cand, State(ref.grid, ref.rho, ref.u * 1e120, ref.d)


# the bad pairs of tests/test_cli.py::TestPairFaults, edited on the pair
_WINDOW_FAULTS = {"director-off-sphere": _tilt_reference_director,
                  "negative-density": _negative_candidate_density,
                  "overflowing-velocity": _overflowing_reference_velocity}


# the example count is the active profile's (tests/conftest.py)
@settings(deadline=None, derandomize=True)
@given(system=st.sampled_from(list(System)), n=st.sampled_from([9, 17, 33]),
       count=st.sampled_from([1, 2, W - 1, W, W + 1]), seed=st.integers(0, 2**32 - 1),
       coeffs=st.none() | st.tuples(st.floats(1.2, 3.0), *[st.floats(0.5, 2.0)] * 5),
       faults=st.lists(st.tuples(st.sampled_from(sorted(_WINDOW_FAULTS)), st.integers(0, W)),
                       max_size=2))
def test_a_window_of_pairs_is_each_pair_alone_bit_for_bit(system, n, count, seed, coeffs,
                                                          faults):
    # remainder(pairs) is one pass over K samples; each row must be the
    # pair's own, and a window must raise what its first bad pair raises
    # alone (faults may share a pair, or hit two)
    if coeffs is None:
        p = Params(system=system)
    else:
        gamma, a, sigma0, mu, lam, theta = coeffs
        p = Params(a=a, gamma=gamma, sigma0=sigma0, mu=mu, lam=lam, theta=theta, system=system)
    pairs = [StatePair(*_smooth_twin(system, n, seed + k)[1]) for k in range(count)]
    # GL has no unit-length constraint
    faults = [(f, at % count) for f, at in faults
              if not (f == "director-off-sphere" and system is System.GL)]
    for fault, j in faults:
        pairs[j] = StatePair(*_WINDOW_FAULTS[fault](pairs[j].candidate, pairs[j].reference))
    alone, error = [], None
    for pair in pairs:
        try:
            alone.append(remainder(pair, p))
        except ValueError as exc:  # FunctionalError, NonFiniteError, ConstitutiveError
            error = exc
            break
    assert (error is None) == (not faults)
    if error is None:
        assert [_row_key(br) for br in remainder(pairs, p)] == [_row_key(br) for br in alone]
    else:
        with pytest.raises(ValueError) as info:
            remainder(pairs, p)
        assert type(info.value) is type(error) and str(info.value) == str(error)
        assert info.value.sample == len(alone)  # the pair whose error it is


@pytest.mark.parametrize("system, faults, error, message", [
    # a pair's row error comes before a later pair's failed check
    (System.GL, [("overflowing-velocity", 3), ("negative-density", 6)], FunctionalError,
     "non-finite remainder term rd_velocity_exchange"),
    # a failed check comes before a later pair's row error
    (System.GL, [("negative-density", 2), ("overflowing-velocity", 5)], ConstitutiveError,
     "density must be nonnegative"),
    (System.SPHERE, [("negative-density", 2), ("director-off-sphere", 5)], ConstitutiveError,
     "density must be nonnegative"),
    # at one pair the checks keep their order: unit lengths, then the density
    (System.SPHERE, [("negative-density", 4), ("director-off-sphere", 4)], FunctionalError,
     "reference director is not unit length"),
], ids=["row-then-check", "check-then-row", "checks-of-two-pairs", "checks-of-one-pair"])
def test_a_window_raises_the_error_of_its_first_bad_pair(system, faults, error, message):
    p = Params(system=system)
    pairs = [StatePair(*_smooth_twin(system, 33, k)[1]) for k in range(W)]
    for fault, j in faults:
        pairs[j] = StatePair(*_WINDOW_FAULTS[fault](pairs[j].candidate, pairs[j].reference))
    first = faults[0][1]
    remainder(pairs[:first], p)
    for window in (pairs, pairs[first:]):
        with pytest.raises(error) as info:
            remainder(window, p)
        assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error, match=f"^{message}$"):
        remainder(pairs[first], p)


def test_a_window_takes_pairs_of_one_grid():
    pairs = [StatePair(*_smooth_twin(System.GL, n, 1)[1]) for n in (33, 33, 17)]
    assert remainder([], GL) == []
    with pytest.raises(FunctionalError, match="^the pairs of one call must share one grid$"):
        remainder(pairs, GL)


def test_a_flipped_term_sign_is_a_reorganization_mismatch(monkeypatch):
    # rd_pressure_transport is O(1) on this GL pair: with its sign flipped,
    # r_d + r_c moves by twice that, past the O(dx^2) tolerance
    pair = StatePair(*_smooth_twin(System.GL, 65, 3)[1])
    terms = functionals._TERMS[System.GL]
    flipped = terms["r_d"].replace("rd_pressure_transport 1", "rd_pressure_transport -1")
    assert flipped != terms["r_d"]
    remainder(pair, GL)
    try:
        with monkeypatch.context() as patch:
            patch.setitem(terms, "r_d", flipped)
            functionals._layout.cache_clear()
            with pytest.raises(FunctionalError, match=r"^remainder reorganization mismatch "
                                                      r".* formula-level inconsistency$"):
                remainder(pair, GL)
    finally:
        functionals._layout.cache_clear()
    remainder(pair, GL)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases=st.lists(st.tuples(st.sampled_from(list(System)), st.sampled_from([9, 17, 33]),
                                st.floats(1.01, 3.0), st.floats(0.5, 2.0),
                                st.integers(0, 2**32 - 1)), min_size=2, max_size=4))
def test_rows_and_energy_windows_keep_their_bits_when_parameter_sets_interleave(cases):
    # the 0-d operands are cached per parameter set and grid spacing, in
    # one table that evolve, the row and the energy pass share: a step, a
    # row or a window computed between calls for other sets, with the
    # caches warm, must be the one computed alone, with them cold
    def evaluate(system, n, gamma, coeff, seed):
        p = Params(a=coeff, gamma=gamma, sigma0=coeff, mu=coeff, lam=1.0 / coeff, theta=coeff,
                   system=system)
        g, (cand, ref) = _smooth_twin(system, n, seed)
        init = make_initial_data(f"{system.value}-smooth", g, p)
        dt = 0.1 * g.dx**2
        steps = evolve(init, 4 * dt, dt, p, g, BoundarySpec.for_system(system, init.d0),
                       observer=lambda state, t: None)
        stepped = b"".join(a.tobytes() for a in (steps.rho, steps.u, steps.d))
        window = functionals.EnergyWindow(g, p, "reference")
        for k, state in enumerate((cand, ref) * 5):
            window.add(state, 0.1 * k)
        window.flush()
        br = remainder(StatePair(cand, ref), p)
        values = [br.h_hat, br.reorg_mismatch, br.entropy, br.energy, br.dissipation, br.mass,
                  *br.quartet.values(), *br.terms.values(), *br.h_terms.values()]
        return (np.array(values).tobytes(), bytes(window.energy), bytes(window.dissipation),
                stepped)

    alone = []
    for case in cases:
        functionals._layout.cache_clear()
        dynamics._operands.cache_clear()
        grid_module._spacing.cache_clear()
        alone.append(evaluate(*case))
    for _ in range(2):
        assert [evaluate(*case) for case in cases] == alone
