import numpy as np
import pytest

from nemlab.constitutive import Params, System, gl_force
from nemlab.dynamics import State
from nemlab import functionals
from nemlab.functionals import (
    FunctionalError,
    StatePair,
    director_l2_gap,
    dissipation,
    energy,
    gronwall_coefficient,
    relative_entropy,
    remainder,
)
from nemlab.grid import (
    Grid1D,
    ScalarField,
    VectorField3,
    gradient,
    gradient_array,
    integrate,
    laplacian,
    laplacian_array,
    norm,
)


def uniform_state(grid, rho=1.0, u=0.0, d=(1.0, 0.0, 0.0)):
    n = grid.n_nodes
    dd = np.tile(np.asarray(d, dtype=float)[:, None], n)
    return State.from_arrays(grid, np.full(n, rho), np.full(n, u), dd)


def circle_state(grid, rho=1.0):
    x = grid.nodes()
    d = np.stack([np.cos(x), np.sin(x), np.zeros_like(x)])
    return State.from_arrays(grid, np.full(grid.n_nodes, rho), np.zeros(grid.n_nodes), d)


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
        State.from_arrays(g, rho_c, u_c, d_c), State.from_arrays(g, rho_r, u_r, d_r)
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
        State.from_arrays(g, rho_c, u_c, d_c), State.from_arrays(g, rho_r, u_r, d_r)
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
        # perturb the director without renormalizing; ratio of entropies at
        # amplitudes eps and eps/2 must be 4
        g = Grid1D(129, 0.0, 1.0)
        x = g.nodes()
        phi = 0.5 * np.cos(np.pi * x)
        d_r = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(x)])
        ref = State.from_arrays(g, np.ones(129), np.zeros(129), d_r)
        vals = {}
        for eps in (1e-2, 5e-3):
            d_c = d_r + eps * np.sin(x)[None, :] * np.array([0.0, 0.0, 1.0])[:, None]
            cand = State.from_arrays(g, np.ones(129), np.zeros(129), d_c)
            vals[eps] = relative_entropy(StatePair(cand, ref), SPH)
        assert vals[1e-2] / vals[5e-3] == pytest.approx(4.0, rel=0.05)

    def test_degenerate_reference_rejected(self):
        g = Grid1D(33, 0.0, 1.0)
        lo = uniform_state(g, rho=1e-9)
        with pytest.raises(FunctionalError):
            StatePair(uniform_state(g), lo)


class TestRemainderGl:
    def test_identical_pair_all_zero(self):
        pair = gl_pair(65)
        same = StatePair(pair.reference, pair.reference)
        br = remainder(same, GL)
        assert br.r_d == br.r_c == br.r_bar_d == br.r_bar_c == 0.0
        assert br.reorg_mismatch == 0.0

    def test_matched_velocity_and_density_leaves_director_terms(self):
        base = gl_pair(65)
        cand = State(base.reference.rho, base.reference.u, base.candidate.d)
        pair = StatePair(cand, base.reference)
        br = remainder(pair, GL)
        # every named integral carrying (u - u~) or (rho - rho~) vanishes
        assert br.r_bar_d == 0.0
        for key in ("rbd_convective", "rbd_pressure_bregman",
                    "rbd_density_weighted_force", "rbc_reference_curvature",
                    "rbc_candidate_force", "rbc_force_gradient"):
            assert br.terms[key] == 0.0
        # the survivors match directly evaluated integrals
        g = pair.grid
        dlap = laplacian_array(cand.d.values, g.dx) - laplacian_array(
            base.reference.d.values, g.dx
        )
        dgrad = gradient_array(cand.d.values, g.dx) - gradient_array(
            base.reference.d.values, g.dx
        )
        dforce = gl_force(cand.d.values, GL) - gl_force(base.reference.d.values, GL)
        dx = g.dx
        expect_force = np.sum(dlap * dforce, axis=0)
        expect_force = dx * (expect_force.sum() - 0.5 * (expect_force[0] + expect_force[-1]))
        assert br.terms["rbc_force_difference"] == pytest.approx(expect_force, rel=1e-12)
        trans = base.reference.u.values * np.sum(dlap * dgrad, axis=0)
        expect_trans = dx * (trans.sum() - 0.5 * (trans[0] + trans[-1]))
        assert br.terms["rbc_gradient_transport"] == pytest.approx(expect_trans, rel=1e-12)
        assert br.r_bar_c == pytest.approx(expect_force + expect_trans, rel=1e-12)

    def test_reorganization_identity_refines_at_second_order(self):
        mismatches = []
        for n in (65, 129, 257):
            br = remainder(gl_pair(n), GL)
            mismatches.append(abs((br.r_d + br.r_c) - (br.r_bar_d + br.r_bar_c)))
        orders = [np.log2(a / b) for a, b in zip(mismatches, mismatches[1:])]
        assert all(o >= 1.8 for o in orders)


class TestRemainderSphere:
    def test_identical_pair_all_zero(self):
        pair = sphere_pair(65)
        same = StatePair(pair.reference, pair.reference)
        br = remainder(same, SPH)
        assert br.r_1d == br.r_1c == br.r_1c_a == br.r_1c_b == 0.0

    def test_matched_director_collapses_coupling_split(self):
        base = sphere_pair(65)
        cand = State(base.candidate.rho, base.candidate.u, base.reference.d)
        pair = StatePair(cand, base.reference)
        br = remainder(pair, SPH)
        assert br.r_1c_a == 0.0
        assert br.r_1c_b == 0.0
        assert br.r_1c == 0.0
        assert br.r_1d != 0.0  # density/velocity block still active

    def test_split_identity_refines_at_second_order(self):
        mismatches = []
        for n in (65, 129, 257):
            br = remainder(sphere_pair(n), SPH)
            mismatches.append(abs(br.r_1c - (br.r_1c_a + br.r_1c_b)))
        orders = [np.log2(a / b) for a, b in zip(mismatches, mismatches[1:])]
        assert all(o >= 1.8 for o in orders)

    def test_unit_length_required(self):
        pair = gl_pair(65)  # directors are not unit length
        with pytest.raises(FunctionalError, match="unit length"):
            remainder(pair, SPH)

    def test_dispatch(self):
        br = remainder(sphere_pair(65), SPH)
        assert br.system is System.SPHERE
        assert br.r_d is None and br.r_1d is not None


@pytest.mark.parametrize(
    "make_pair, params", [(gl_pair, GL), (sphere_pair, SPH)], ids=["gl", "sphere"]
)
def test_remainder_builds_pair_fields_once(monkeypatch, make_pair, params):
    build = functionals._PairFields.build
    calls = []

    def counting_build(pair, p):
        calls.append(pair)
        return build(pair, p)

    monkeypatch.setattr(functionals._PairFields, "build", staticmethod(counting_build))
    pair = make_pair(65)
    br = remainder(pair, params)
    assert len(calls) == 1
    # h_hat comes from the same fields as the public coefficient
    assert br.h_hat == gronwall_coefficient(pair, params).total


class TestGronwallCoefficient:
    def test_resting_reference_vanishes(self):
        g = Grid1D(33, 0.0, 1.0)
        eq = uniform_state(g)
        h = gronwall_coefficient(StatePair(eq, eq), GL)
        assert h.total == 0.0
        assert all(v == 0.0 for v in h.terms.values())

    def test_terms_match_direct_norms_gl(self):
        pair = gl_pair(129)
        p = GL
        h = gronwall_coefficient(pair, p)
        g = pair.grid
        ref = pair.reference
        # independent reconstruction through the field-level operators
        grad_u_r = gradient(ref.u)
        assert h.terms["grad_u_ref_inf"] == pytest.approx(norm(grad_u_r, np.inf))
        assert h.terms["u_ref_inf_sq"] == pytest.approx(norm(ref.u, np.inf) ** 2)
        lap_u_r = laplacian(ref.u)
        grad_d_r = gradient(ref.d)
        lap_d_r = laplacian(ref.d)
        curv = lap_d_r.values - gl_force(ref.d.values, p)
        g_ref = p.mu * lap_u_r.values - p.lam * np.sum(curv * grad_d_r.values, axis=0)
        g_field = ScalarField(g_ref, g)
        assert h.terms["g_inf"] == pytest.approx(norm(g_field, np.inf))
        ratio = ScalarField(g_ref / ref.rho.values, g)
        assert h.terms["g_over_rho_l3_sq"] == pytest.approx(norm(ratio, 3) ** 2)
        f_c = norm(VectorField3(gl_force(pair.candidate.d.values, p), g), np.inf)
        f_r = norm(VectorField3(gl_force(ref.d.values, p), g), np.inf)
        assert h.terms["force_scale"] == pytest.approx(f_c + f_r)
        assert h.terms["curvature_force_inf_sq"] == pytest.approx(
            (norm(lap_d_r, np.inf) + f_c) ** 2
        )
        assert h.terms["grad_d_ref_inf_sq"] == pytest.approx(
            norm(grad_d_r, np.inf) ** 2
        )
        assert h.total == pytest.approx(sum(h.terms.values()))

    def test_terms_match_direct_norms_sphere(self):
        pair = sphere_pair(129)
        h = gronwall_coefficient(pair, SPH)
        ref, cand = pair.reference, pair.candidate
        grad_d_r = gradient(ref.d)
        grad_d_c = gradient(cand.d)
        d_inf = norm(cand.d, np.inf)
        assert h.terms["u_ref_inf"] == pytest.approx(norm(ref.u, np.inf))
        assert h.terms["lap_d_ref_inf_sq"] == pytest.approx(
            norm(laplacian(ref.d), np.inf) ** 2
        )
        assert h.terms["grad_d_both_inf_sq_d_inf_sq"] == pytest.approx(
            (norm(grad_d_r, np.inf) ** 2 + norm(grad_d_c, np.inf) ** 2) * d_inf**2
        )
        assert h.terms["grad_d_cand_inf_sq"] == pytest.approx(
            norm(grad_d_c, np.inf) ** 2
        )
        assert h.terms["d_inf_grad_sum"] == pytest.approx(
            d_inf * (norm(grad_d_r, np.inf) + norm(grad_d_c, np.inf))
        )

    def test_invariant_under_candidate_velocity_swap(self):
        pair = gl_pair(65)
        h1 = gronwall_coefficient(pair, GL)
        swapped = StatePair(
            State(pair.candidate.rho, pair.reference.u, pair.candidate.d),
            pair.reference,
        )
        h2 = gronwall_coefficient(swapped, GL)
        assert h1.total == h2.total
        assert h1.terms == h2.terms

    def test_terms_nonnegative(self):
        for pair, p in ((gl_pair(65), GL), (sphere_pair(65), SPH)):
            h = gronwall_coefficient(pair, p)
            assert all(v >= 0.0 for v in h.terms.values())


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
            i1 = integrate(ScalarField(conservative * phi, g))
            i2 = integrate(ScalarField(curvature * phi, g))
            assert abs(i1 - i2) <= g.dx**2

    def test_director_l2_gap_diagnostic(self):
        pair = gl_pair(65)
        gap = director_l2_gap(pair)
        dd = pair.candidate.d.values - pair.reference.d.values
        direct = np.sqrt(integrate(ScalarField(np.sum(dd * dd, axis=0), pair.grid)))
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
            ref = State.from_arrays(g, 1.0 + x, np.zeros(n), d)
            cand = State.from_arrays(g, 1.0 + x, x * (1.0 - x), d)
            errs.append(abs(relative_entropy(StatePair(cand, ref), GL) - 1.0 / 40.0))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)
