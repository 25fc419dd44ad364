import numpy as np
import pytest
import sympy as sp

from nemlab.constitutive import Params, System
from nemlab.dynamics import (
    BoundarySpec,
    CflError,
    DensityFloorError,
    DirectorBC,
    InitialData,
    LinearSolveError,
    NonFiniteStateError,
    SolverError,
    SolverOptions,
    State,
    director_stress_divergence,
    evolve,
    rhs_continuity,
    rhs_director,
    rhs_momentum,
    step,
)
from nemlab import dynamics
from nemlab.functionals import dissipation, energy
from nemlab.grid import Grid1D, ScalarField, VectorField3
from nemlab.verifier import cubic_restrict, make_initial_data


def equilibrium(grid):
    n = grid.n_nodes
    d = np.zeros((3, n))
    d[0] = 1.0
    return State.from_arrays(grid, np.ones(n), np.zeros(n), d)


def state_from(grid, rho_fn, u_fn, d_fns):
    x = grid.nodes()
    d = np.stack([np.asarray(f(x), dtype=float) * np.ones_like(x) for f in d_fns])
    return State.from_arrays(grid, rho_fn(x), u_fn(x), d)


class TestRhsContinuity:
    def test_zero_velocity(self):
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: 1 + 0.3 * np.sin(x), lambda x: 0 * x,
                        [np.cos, np.sin, lambda x: 0 * x])
        assert np.all(rhs_continuity(st, g).values == 0.0)

    def test_uniform_density_linear_velocity(self):
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: np.ones_like(x), lambda x: x,
                        [lambda x: np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
        assert np.allclose(rhs_continuity(st, g).values, -1.0, atol=1e-11)

    def test_manufactured_second_order(self):
        # oracle: exact -(rho u)_x for rho = 2 + sin, u = cos
        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            st = state_from(g, lambda x: 2 + np.sin(x), np.cos,
                            [lambda x: np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
            exact = -(np.cos(x) ** 2 - (2 + np.sin(x)) * np.sin(x))
            errs.append(np.max(np.abs(rhs_continuity(st, g).values - exact)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)


class TestDirectorStress:
    def test_constant_director(self):
        g = Grid1D(33, 0.0, 1.0)
        d = VectorField3(np.tile([[0.5], [0.5], [0.1]], 33), g)
        assert np.allclose(director_stress_divergence(d, Params()).values, 0.0)

    def test_gl_circle_profile_is_stress_free(self):
        # |d_x|^2 constant and F = 0 along the unit circle; the discrete
        # contraction cancels exactly at interior nodes and to O(dx^2) at
        # the one-sided endpoint rows
        g = Grid1D(65, 0.0, 2.0 * np.pi)
        x = g.nodes()
        d = VectorField3(np.stack([np.cos(x), np.sin(x), 0 * x]), g)
        sdiv = director_stress_divergence(d, Params(sigma0=1.0))
        assert np.max(np.abs(sdiv.values[1:-1])) <= 1e-12
        assert np.max(np.abs(sdiv.values)) <= g.dx**2

    def test_sphere_equivalence_with_conservative_form(self):
        # (d_xx . d_x) vs conservative d/dx(|d_x|^2/2): O(dx^2) apart
        from nemlab.grid import gradient_array

        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 1.0)
            x = g.nodes()
            phi = 0.4 * np.cos(np.pi * x) + 0.2 * np.sin(2 * np.pi * x)
            d = np.stack([np.cos(phi), np.sin(phi), 0 * x])
            vf = VectorField3(d, g)
            p = Params(system=System.SPHERE)
            direct = director_stress_divergence(vf, p).values
            grad_d = gradient_array(d, g.dx)
            conservative = gradient_array(0.5 * np.sum(grad_d * grad_d, axis=0), g.dx)
            # compare away from the conservative form's first-order endpoint rows
            errs.append(np.max(np.abs(direct - p.lam * conservative)[2:-2]))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.7 for o in orders)

    def test_lam_scaling(self):
        g = Grid1D(33, 0.0, 1.0)
        x = g.nodes()
        d = VectorField3(np.stack([np.cos(x), np.sin(2 * x), 0 * x]), g)
        s1 = director_stress_divergence(d, Params(lam=1.0)).values
        s3 = director_stress_divergence(d, Params(lam=3.0)).values
        assert np.allclose(s3, 3.0 * s1)


class TestRhsMomentum:
    def test_equilibrium(self):
        g = Grid1D(33, 0.0, 1.0)
        out = rhs_momentum(equilibrium(g), Params(), g)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_circle_director_uniform_density(self):
        g = Grid1D(65, 0.0, 2.0 * np.pi)
        x = g.nodes()
        st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                        [np.cos, np.sin, lambda x: 0 * x])
        out = rhs_momentum(st, Params(sigma0=1.0), g)
        assert np.max(np.abs(out.values[1:-1])) <= 1e-12
        assert np.max(np.abs(out.values)) <= g.dx**2

    def test_manufactured_second_order(self):
        # independent oracle: symbolic momentum rate for smooth fields
        xs = sp.symbols("x")
        rho_s = 2 + sp.Rational(1, 2) * sp.sin(xs)
        u_s = sp.cos(xs)
        d1_s = sp.cos(sp.Rational(1, 2) * sp.sin(xs))
        d2_s = sp.sin(sp.Rational(1, 2) * sp.sin(xs))
        d3_s = sp.Rational(3, 10) * sp.cos(xs)
        p = Params(a=1.3, gamma=1.6, sigma0=0.8, mu=0.9, lam=1.2)
        dd = d1_s**2 + d2_s**2 + d3_s**2
        f_pot = (dd - 1) ** 2 / (4 * p.sigma0**2)
        grad_sq = sp.diff(d1_s, xs) ** 2 + sp.diff(d2_s, xs) ** 2 + sp.diff(d3_s, xs) ** 2
        stress = sp.Rational(1, 2) * grad_sq - f_pot
        rate = (
            -sp.diff(rho_s * u_s**2, xs)
            - sp.diff(p.a * rho_s**p.gamma, xs)
            + p.mu * sp.diff(u_s, xs, 2)
            - p.lam * sp.diff(stress, xs)
        )
        exact = sp.lambdify(xs, rate, "numpy")
        fns = [sp.lambdify(xs, e, "numpy") for e in (rho_s, u_s, d1_s, d2_s, d3_s)]

        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            st = State.from_arrays(
                g, fns[0](x), fns[1](x), np.stack([fns[2](x), fns[3](x), fns[4](x)])
            )
            errs.append(np.max(np.abs(rhs_momentum(st, p, g).values - exact(x))))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)

    def test_density_floor_diagnostic(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[7] = 1e-9
        st = State.from_arrays(g, rho, np.zeros(33), np.tile([[1.0], [0.0], [0.0]], 33))
        with pytest.raises(DensityFloorError, match="node 7"):
            rhs_momentum(st, Params(), g)


class TestRhsDirector:
    def test_constant_unit_director_gl(self):
        g = Grid1D(33, 0.0, 1.0)
        out = rhs_director(equilibrium(g), Params(), g)
        assert np.max(np.abs(out.values)) == 0.0

    def test_sphere_circle_cancellation(self):
        # d_xx = -d and |d_x|^2 d = d cancel analytically; discrete O(dx^2)
        for n in (65, 129):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                            [np.cos, np.sin, lambda x: 0 * x])
            out = rhs_director(st, Params(system=System.SPHERE), g)
            assert np.max(np.abs(out.values[:, 1:-1])) <= 0.3 * g.dx**2

    def test_gl_stretched_constant(self):
        c = 1.5
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                        [lambda x: c * np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
        p = Params(sigma0=1.0, theta=2.0)
        out = rhs_director(st, p, g)
        expected = -p.theta * (c * c - 1.0) * c
        assert np.allclose(out.values[0, 1:-1], expected, atol=1e-12)
        assert np.allclose(out.values[1:, :], 0.0)


class TestStep:
    def test_equilibrium_fixed_point(self):
        g = Grid1D(65, 0.0, 1.0)
        for system in (System.GL, System.SPHERE):
            p = Params(system=system)
            st = equilibrium(g)
            bc = BoundarySpec.for_system(system, st.d)
            base = st
            for _ in range(200):
                st = step(st, 1e-3, p, g, bc)
            assert np.max(np.abs(st.rho.values - base.rho.values)) <= 1e-12
            assert np.max(np.abs(st.u.values - base.u.values)) <= 1e-12
            assert np.max(np.abs(st.d.values - base.d.values)) <= 1e-12

    def test_mass_conservation_and_pins(self):
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            g = Grid1D(97, 0.0, 1.0)
            init = make_initial_data(preset, g, p)
            bc = BoundarySpec.for_system(system, init.d0)
            st = init.as_state()
            dx = g.dx
            mass0 = dx * (st.rho.values.sum() - 0.5 * (st.rho.values[0] + st.rho.values[-1]))
            d_left = init.d0.values[:, 0].copy()
            d_right = init.d0.values[:, -1].copy()
            for _ in range(1000):
                st = step(st, 1e-4, p, g, bc)
                assert st.u.values[0] == 0.0 and st.u.values[-1] == 0.0
                if system is System.GL:
                    assert np.array_equal(st.d.values[:, 0], d_left)
                    assert np.array_equal(st.d.values[:, -1], d_right)
                else:
                    mag = np.sqrt(np.sum(st.d.values**2, axis=0))
                    assert np.max(np.abs(mag - 1.0)) <= 1e-10
            mass1 = dx * (st.rho.values.sum() - 0.5 * (st.rho.values[0] + st.rho.values[-1]))
            assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)

    def test_cfl_violation_rejected(self):
        g = Grid1D(65, 0.0, 1.0)
        st = equilibrium(g)
        bc = BoundarySpec.for_system(System.GL, st.d)
        with pytest.raises(CflError):
            step(st, 1.0, Params(), g, bc)

    def test_density_floor_abort(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[5] = 5e-9  # positive but below the floor
        d = np.tile([[1.0], [0.0], [0.0]], 33)
        st = State.from_arrays(g, rho, np.zeros(33), d)
        bc = BoundarySpec.for_system(System.GL, st.d)
        with pytest.raises(DensityFloorError, match="node 5"):
            step(st, 1e-4, Params(), g, bc)

    def test_bc_system_mismatch_rejected(self):
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        with pytest.raises(ValueError, match="incompatible"):
            step(st, 1e-4, Params(system=System.SPHERE), g,
                 BoundarySpec.dirichlet_from(st.d))

    def test_sphere_renorm_stat_recorded(self):
        p = Params(system=System.SPHERE)
        g = Grid1D(65, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, p)
        bc = BoundarySpec.for_system(System.SPHERE, init.d0)
        stats = {}
        step(init.as_state(), 1e-4, p, g, bc, stats=stats)
        assert 0.0 < stats["sphere_renorm_max"] < 1e-4

    def test_self_convergence_order(self):
        # Richardson: dyadic (dx, dt) with dt ~ dx^2, compare final states
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            finals = []
            grids = []
            for n in (65, 129, 257):
                g = Grid1D(n, 0.0, 1.0)
                dt = 0.4 * g.dx**2
                init = make_initial_data(preset, g, p)
                bc = BoundarySpec.for_system(system, init.d0)
                finals.append(evolve(init, 0.02, dt, p, g, bc))
                grids.append(g)
            diffs = []
            for k in range(2):
                fine_on_coarse = cubic_restrict(
                    finals[k + 1].rho.values, grids[k + 1], grids[k]
                )
                du = cubic_restrict(finals[k + 1].u.values, grids[k + 1], grids[k])
                dd = cubic_restrict(finals[k + 1].d.values, grids[k + 1], grids[k])
                err = max(
                    np.max(np.abs(fine_on_coarse - finals[k].rho.values)),
                    np.max(np.abs(du - finals[k].u.values)),
                    np.max(np.abs(dd - finals[k].d.values)),
                )
                diffs.append(err)
            order = np.log2(diffs[0] / diffs[1])
            assert 0.9 <= order <= 2.2, f"{system}: order {order}"


class TestTridiagonalSolves:
    """The hand-built diagonals against the documented dense operators."""

    @staticmethod
    def d2_dense(n, dx):
        return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                + np.diag(np.ones(n - 1), -1)) / dx**2

    def test_velocity_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        n, dt, dx, mu = 17, 3e-3, 1.0 / 16, 0.7
        rho_new = 1.0 + 0.5 * rng.random(n)
        m_star = rng.standard_normal(n)
        inputs = (rho_new.copy(), m_star.copy())
        a = np.diag(rho_new) - mu * dt * self.d2_dense(n, dx)
        a[[0, -1], :] = 0.0
        a[0, 0] = a[-1, -1] = 1.0
        b = m_star.copy()
        b[[0, -1]] = 0.0
        u = dynamics._solve_velocity(rho_new, m_star, dt, dx, mu)
        np.testing.assert_allclose(u, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)
        assert u[0] == 0.0 and u[-1] == 0.0
        assert np.array_equal(rho_new, inputs[0]) and np.array_equal(m_star, inputs[1])

    def test_director_dirichlet_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        n, dt, dx, theta = 17, 3e-3, 1.0 / 16, 0.9
        d_star = rng.standard_normal((3, n))
        before = d_star.copy()
        bc = BoundarySpec(DirectorBC.DIRICHLET_D0, rng.standard_normal(3),
                          rng.standard_normal(3))
        a = np.eye(n) - theta * dt * self.d2_dense(n, dx)
        a[[0, -1], :] = 0.0
        a[0, 0] = a[-1, -1] = 1.0
        b = d_star.T.copy()
        b[0], b[-1] = bc.d_left, bc.d_right
        d_new = dynamics._solve_director(d_star, dt, dx, theta, bc)
        np.testing.assert_allclose(d_new, np.linalg.solve(a, b).T, rtol=1e-12, atol=0.0)
        assert np.array_equal(d_new[:, 0], bc.d_left)
        assert np.array_equal(d_new[:, -1], bc.d_right)
        assert np.array_equal(d_star, before)

    def test_director_neumann_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n, dt, dx, theta = 17, 3e-3, 1.0 / 16, 0.9
        d_star = rng.standard_normal((3, n))
        before = d_star.copy()
        d2 = self.d2_dense(n, dx)
        d2[0, 1] = d2[-1, -2] = 2.0 / dx**2  # mirrored ghost nodes
        a = np.eye(n) - theta * dt * d2
        d_new = dynamics._solve_director(d_star, dt, dx, theta, BoundarySpec.neumann())
        np.testing.assert_allclose(
            d_new, np.linalg.solve(a, d_star.T).T, rtol=1e-12, atol=0.0
        )
        assert np.array_equal(d_star, before)

    def test_singular_velocity_matrix_is_a_solver_error(self):
        rho_new = np.ones(7)
        rho_new[3] = 0.0  # with mu = 0 row 3 is all zeros
        with pytest.raises(LinearSolveError, match="velocity solve: singular"):
            dynamics._solve_velocity(rho_new, np.ones(7), 1e-3, 0.1, 0.0)

    def test_singular_director_matrix_is_a_solver_error(self):
        # theta*dt/dx^2 = -1/2 zeroes the diagonal; the interior block of
        # size 3 is then singular
        bc = BoundarySpec(DirectorBC.DIRICHLET_D0, np.zeros(3), np.zeros(3))
        with pytest.raises(LinearSolveError, match="director solve: singular") as info:
            dynamics._solve_director(np.ones((3, 5)), 1.0, 1.0, -0.5, bc)
        assert isinstance(info.value, SolverError)

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_nan_velocity_is_non_finite_state(self, system, monkeypatch):
        # a NaN in u or rho is caught at step start, before either solve
        def no_solve(*args):
            raise AssertionError("tridiagonal solve ran on a non-finite state")

        monkeypatch.setattr(dynamics, "_tridiagonal_solve", no_solve)
        p = Params(system=system)
        g = Grid1D(33, 0.0, 1.0)
        preset = "gl-smooth" if system is System.GL else "sphere-smooth"
        init = make_initial_data(preset, g, p)
        bc = BoundarySpec.for_system(system, init.d0)
        for name in ("u", "rho"):
            fields = {"rho": init.rho0.values.copy(), "u": init.u0.values.copy()}
            fields[name][10] = np.nan
            with pytest.raises(NonFiniteStateError, match="non-finite wave speed"):
                dynamics._advance(fields["rho"], fields["u"], init.d0.values, 1e-4,
                                  p, g, bc, SolverOptions())


class TestEvolve:
    def test_zero_horizon_returns_initial(self):
        g = Grid1D(33, 0.0, 1.0)
        p = Params()
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        out = evolve(init, 0.0, 1e-4, p, g, bc)
        assert np.array_equal(out.rho.values, init.rho0.values)
        assert np.array_equal(out.u.values, init.u0.values)
        assert np.array_equal(out.d.values, init.d0.values)

    def test_equilibrium_any_horizon(self):
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        init = InitialData(st.rho, st.u, st.d)
        bc = BoundarySpec.for_system(System.GL, st.d)
        out = evolve(init, 0.03, 1e-3, Params(), g, bc)
        assert np.max(np.abs(out.d.values - st.d.values)) <= 1e-12

    def test_observer_cadence(self):
        g = Grid1D(33, 0.0, 1.0)
        p = Params()
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        seen = []
        evolve(init, 0.035, 1e-4, p, g, bc,
               observer=lambda st, t: seen.append(t), sample_interval=0.01)
        assert seen == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.035])

    def test_energy_decays_overall(self):
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            g = Grid1D(129, 0.0, 1.0)
            init = make_initial_data(preset, g, p)
            bc = BoundarySpec.for_system(system, init.d0)
            e0 = energy(init.as_state(), p)
            out = evolve(init, 0.05, 1e-4, p, g, bc)
            assert energy(out, p) <= e0 * (1.0 + 1e-6)

    def test_per_step_energy_inequality(self):
        # E_next + dt * D_next <= E * (1 + c dt), c = 1e-3, desk resolution
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            g = Grid1D(129, 0.0, 1.0)
            init = make_initial_data(preset, g, p)
            bc = BoundarySpec.for_system(system, init.d0)
            st = init.as_state()
            dt = 2e-4
            e_prev = energy(st, p)
            for _ in range(250):
                st = step(st, dt, p, g, bc)
                e_now = energy(st, p)
                assert e_now + dt * dissipation(st, p) <= e_prev * (1.0 + 1e-3 * dt)
                e_prev = e_now

    def test_abort_carries_timestamp(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[5] = 5e-9
        d = np.tile([[1.0], [0.0], [0.0]], 33)
        init = InitialData(
            ScalarField(rho, g), ScalarField(np.zeros(33), g), VectorField3(d, g)
        )
        bc = BoundarySpec.for_system(System.GL, init.d0)
        with pytest.raises(SolverError, match="at t="):
            evolve(init, 0.01, 1e-4, Params(), g, bc)

    def test_sphere_requires_unit_initial_director(self):
        p = Params(system=System.SPHERE)
        g = Grid1D(33, 0.0, 1.0)
        d = np.tile([[1.1], [0.0], [0.0]], 33)
        init = InitialData(
            ScalarField(np.ones(33), g), ScalarField(np.zeros(33), g), VectorField3(d, g)
        )
        bc = BoundarySpec.neumann()
        with pytest.raises(ValueError, match="unit length"):
            evolve(init, 0.01, 1e-4, p, g, bc)


class TestInitialData:
    def test_positive_density_required(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            InitialData(
                ScalarField(rho, g),
                ScalarField(np.zeros(33), g),
                VectorField3(np.tile([[1.0], [0.0], [0.0]], 33), g),
            )

    def test_no_slip_required(self):
        g = Grid1D(33, 0.0, 1.0)
        u = np.zeros(33)
        u[0] = 0.1
        with pytest.raises(ValueError, match="endpoints"):
            InitialData(
                ScalarField(np.ones(33), g),
                ScalarField(u, g),
                VectorField3(np.tile([[1.0], [0.0], [0.0]], 33), g),
            )

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(density_floor=0.0)
        with pytest.raises(ValueError):
            SolverOptions(artificial_viscosity=-0.1)
