import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab.constitutive import Params, System
from nemlab.dynamics import (
    BoundarySpec,
    CflError,
    DensityFloorError,
    InitialData,
    LinearSolveError,
    NonFiniteStateError,
    ReactionBoundError,
    SolverError,
    State,
    evolve,
)
from nemlab import dynamics
from nemlab.functionals import dissipation, energy
from nemlab.grid import Grid1D, central_laplacian
from nemlab.verifier import Perturbation, make_initial_data, restrict_state


def _ignore(states, t):
    """The observer of a run whose final states are all a test reads."""


def equilibrium(grid):
    n = grid.n_nodes
    d = np.zeros((3, n))
    d[0] = 1.0
    return State(grid, np.ones(n), np.zeros(n), d)


def state_from(grid, rho_fn, u_fn, d_fns):
    x = grid.nodes()
    d = np.stack([np.asarray(f(x), dtype=float) * np.ones_like(x) for f in d_fns])
    return State(grid, rho_fn(x), u_fn(x), d)


def loaded(rho, u, d):
    """A workspace holding the batched state (rho, u, d), as evolve loads it:
    the step, its explicit kernel and both solves run only on one."""
    work = dynamics._Workspace(*np.shape(rho))
    work.rho[...], work.u[...], work.d[...] = rho, u, d
    return work


def advance(work, dt, p, g, imp, density_floor=dynamics.DEFAULT_DENSITY_FLOOR):
    """One step of the state a workspace holds, as evolve takes it; the
    step writes the new state into work, whose views are returned."""
    assert dynamics._advance(work, dynamics._Operands(p, g.dx), imp, dt, density_floor) is None
    return work.rho, work.u, work.d


def rates(st, params=Params()):
    """The step's explicit rates of one state: (mass flux, interior momentum
    rate, director rate), from the kernel _advance calls."""
    work = loaded(st.rho[None], st.u[None], st.d[None])
    flux, mom, dir_rate = dynamics._explicit_rates(work, dynamics._Operands(params, st.grid.dx))
    return flux[0], mom[0], dir_rate[0]


def continuity_rate(st):
    """Interior rows of d(rho)/dt: the flux divergence the step applies."""
    flux = rates(st)[0]
    return -(flux[1:] - flux[:-1]) / st.grid.dx


def momentum_rate(st, params):
    """Interior rows of d(rho u)/dt, with the implicit viscous term added."""
    return rates(st, params)[1] + params.mu * central_laplacian(st.u, st.grid.dx**2)


def director_rate(st, params):
    """Interior rows of d(d)/dt, with the implicit diffusion added."""
    rate = rates(st, params)[2][:, 1:-1]
    return rate + params.theta * central_laplacian(st.d, st.grid.dx**2)


def stress_divergence(g, d, params):
    """The interior stress divergence: at rest (u = 0) and uniform density
    transport and pressure vanish exactly, leaving minus the contraction."""
    n = g.n_nodes
    st = State(g, np.ones(n), np.zeros(n), d)
    return -rates(st, params)[1]


class TestRhsContinuity:
    def test_zero_velocity(self):
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: 1 + 0.3 * np.sin(x), lambda x: 0 * x,
                        [np.cos, np.sin, lambda x: 0 * x])
        assert np.all(rates(st)[0] == 0.0)

    def test_uniform_density_linear_velocity(self):
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: np.ones_like(x), lambda x: x,
                        [lambda x: np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
        assert np.allclose(continuity_rate(st), -1.0, atol=1e-11)

    def test_manufactured_second_order(self):
        # oracle: exact -(rho u)_x for rho = 2 + sin, u = cos
        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            st = state_from(g, lambda x: 2 + np.sin(x), np.cos,
                            [lambda x: np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
            exact = -(np.cos(x) ** 2 - (2 + np.sin(x)) * np.sin(x))
            errs.append(np.max(np.abs(continuity_rate(st) - exact[1:-1])))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)


class TestDirectorStress:
    def test_constant_director(self):
        g = Grid1D(33, 0.0, 1.0)
        d = np.tile([[0.5], [0.5], [0.1]], 33)
        assert np.allclose(stress_divergence(g, d, Params()), 0.0)

    def test_gl_circle_profile_is_stress_free(self):
        # |d_x|^2 constant and F = 0 along the unit circle; the discrete
        # contraction cancels exactly at the interior nodes it is taken at
        g = Grid1D(65, 0.0, 2.0 * np.pi)
        x = g.nodes()
        d = np.stack([np.cos(x), np.sin(x), 0 * x])
        sdiv = stress_divergence(g, d, Params(sigma0=1.0))
        assert np.max(np.abs(sdiv)) <= 1e-12

    def test_sphere_equivalence_with_conservative_form(self):
        # (d_xx . d_x) vs conservative d/dx(|d_x|^2/2): O(dx^2) apart
        from nemlab.grid import gradient_array

        errs = []
        for n in (65, 129, 257):
            g = Grid1D(n, 0.0, 1.0)
            x = g.nodes()
            phi = 0.4 * np.cos(np.pi * x) + 0.2 * np.sin(2 * np.pi * x)
            d = np.stack([np.cos(phi), np.sin(phi), 0 * x])
            p = Params(system=System.SPHERE)
            direct = stress_divergence(g, d, p)
            grad_d = gradient_array(d, g.dx)
            conservative = gradient_array(0.5 * np.sum(grad_d * grad_d, axis=0), g.dx)
            # compare away from the conservative form's first-order endpoint rows
            errs.append(np.max(np.abs(direct - p.lam * conservative[1:-1])[1:-1]))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.7 for o in orders)

    def test_lam_scaling(self):
        g = Grid1D(33, 0.0, 1.0)
        x = g.nodes()
        d = np.stack([np.cos(x), np.sin(2 * x), 0 * x])
        s1 = stress_divergence(g, d, Params(lam=1.0))
        s3 = stress_divergence(g, d, Params(lam=3.0))
        assert np.allclose(s3, 3.0 * s1)


class TestRhsMomentum:
    def test_equilibrium(self):
        g = Grid1D(33, 0.0, 1.0)
        out = momentum_rate(equilibrium(g), Params())
        assert np.max(np.abs(out)) <= 1e-12

    def test_circle_director_uniform_density(self):
        g = Grid1D(65, 0.0, 2.0 * np.pi)
        st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                        [np.cos, np.sin, lambda x: 0 * x])
        out = momentum_rate(st, Params(sigma0=1.0))
        assert np.max(np.abs(out)) <= 1e-12

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
            st = State(
                g, fns[0](x), fns[1](x), np.stack([fns[2](x), fns[3](x), fns[4](x)])
            )
            errs.append(np.max(np.abs(momentum_rate(st, p) - exact(x)[1:-1])))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders)


class TestRhsDirector:
    def test_constant_unit_director_gl(self):
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        assert np.max(np.abs(rates(st)[2])) == 0.0
        assert np.max(np.abs(director_rate(st, Params()))) == 0.0

    def test_sphere_circle_cancellation(self):
        # d_xx = -d and |d_x|^2 d = d cancel analytically; discrete O(dx^2)
        for n in (65, 129):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                            [np.cos, np.sin, lambda x: 0 * x])
            out = director_rate(st, Params(system=System.SPHERE))
            assert np.max(np.abs(out)) <= 0.3 * g.dx**2

    def test_gl_stretched_constant(self):
        c = 1.5
        g = Grid1D(33, 0.0, 1.0)
        st = state_from(g, lambda x: np.ones_like(x), lambda x: 0 * x,
                        [lambda x: c * np.ones_like(x), lambda x: 0 * x, lambda x: 0 * x])
        p = Params(sigma0=1.0, theta=2.0)
        expected = -p.theta * (c * c - 1.0) * c
        assert np.allclose(director_rate(st, p)[0], expected, atol=1e-12)
        assert np.allclose(rates(st, p)[2][1:, :], 0.0)


class TestExplicitKernel:
    def test_step_runs_the_kernel_once(self, monkeypatch):
        calls = []
        kernel = dynamics._explicit_rates

        def counting(*args):
            calls.append(args[0].rho.shape)
            return kernel(*args)

        monkeypatch.setattr(dynamics, "_explicit_rates", counting)
        p = Params(system=System.SPHERE)
        g = Grid1D(17, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, p)
        bc = BoundarySpec.for_system(System.SPHERE, init.d0)
        evolve([init, init], 3e-4, 1e-4, p, g, [bc, bc], observer=_ignore)
        assert calls == [(2, 17)] * 3


def initial(st):
    """The state as an initial datum."""
    return InitialData(st.grid, st.rho, st.u, st.d)


class TestStep:
    def test_equilibrium_fixed_point(self):
        g = Grid1D(65, 0.0, 1.0)
        for system in (System.GL, System.SPHERE):
            p = Params(system=system)
            base = equilibrium(g)
            bc = BoundarySpec.for_system(system, base.d)
            st = evolve(initial(base), 0.2, 1e-3, p, g, bc, observer=_ignore)  # 200 steps
            assert np.max(np.abs(st.rho - base.rho)) <= 1e-12
            assert np.max(np.abs(st.u - base.u)) <= 1e-12
            assert np.max(np.abs(st.d - base.d)) <= 1e-12

    def test_mass_conservation_and_pins(self):
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            g = Grid1D(97, 0.0, 1.0)
            init = make_initial_data(preset, g, p)
            bc = BoundarySpec.for_system(system, init.d0)
            dx = g.dx
            rho0 = init.rho0
            mass0 = dx * (rho0.sum() - 0.5 * (rho0[0] + rho0[-1]))
            d_left = init.d0[:, 0].copy()
            d_right = init.d0[:, -1].copy()
            seen = []

            def check(st, t):
                seen.append(t)
                assert st.u[0] == 0.0 and st.u[-1] == 0.0
                if system is System.GL:
                    assert np.array_equal(st.d[:, 0], d_left)
                    assert np.array_equal(st.d[:, -1], d_right)
                else:
                    mag = np.sqrt(np.sum(st.d**2, axis=0))
                    assert np.max(np.abs(mag - 1.0)) <= 1e-10

            st = evolve(init, 0.1, 1e-4, p, g, bc, observer=check)
            assert len(seen) == 1001  # the initial datum and 1000 steps
            mass1 = dx * (st.rho.sum() - 0.5 * (st.rho[0] + st.rho[-1]))
            assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)

    def test_cfl_violation_rejected(self):
        g = Grid1D(65, 0.0, 1.0)
        st = equilibrium(g)
        bc = BoundarySpec.for_system(System.GL, st.d)
        with pytest.raises(CflError):
            evolve(initial(st), 1.0, 1.0, Params(), g, bc)

    def test_overflowing_sound_speed_is_a_cfl_error(self):
        # 1.1 ** 7999 leaves the float range: the finite state's bound is 0.
        # It is checked before the first sample, whose pressure would overflow
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        rho = st.rho.copy()
        rho[7] = 1.1
        bc = BoundarySpec.for_system(System.GL, st.d)
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CflError, match=r"^at t=0: dt=1\.000e-04 exceeds stability "
                                               r"bound 0\.000e\+00 ") as info:
                evolve(InitialData(g, rho, st.u, st.d), 1e-4, 1e-4, Params(gamma=8000.0), g,
                       bc, observer=lambda state, t: seen.append(t))
        assert info.value.member == 0
        assert seen == []
        # every positive horizon takes a step: 1e-13 is one step of 1e-13
        with pytest.raises(CflError, match=r"^at t=0: dt=1\.000e-13 exceeds stability "
                                           r"bound 0\.000e\+00 "):
            evolve(InitialData(g, rho, st.u, st.d), 1e-13, 1e-4, Params(gamma=8000.0), g, bc)

    @pytest.mark.parametrize("t_end, interval, samples",
                             [(1e-13, None, 51), (2e-12, None, 51), (1e-9, 1e-12, 1001)])
    def test_short_horizon_ends_with_a_sample_at_t_end(self, t_end, interval, samples):
        # the loop's round-off guard is relative to t_end, however small
        p = Params()
        g = Grid1D(33, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p)
        seen = []
        evolve(init, t_end, t_end / 50, p, g, BoundarySpec.for_system(System.GL, init.d0),
               observer=lambda state, t: seen.append(t), sample_interval=interval)
        assert len(seen) == samples
        assert seen[-1] == t_end

    def test_first_step_bound_checked_on_the_window_step(self):
        # dt = 0.5 exceeds the bound (about 4.4e-3), but every window of 1e-4
        # is one step of 1e-4: the run takes no step beyond the bound
        g = Grid1D(65, 0.0, 1.0)
        st = equilibrium(g)
        bc = BoundarySpec.for_system(System.GL, st.d)
        out = evolve(initial(st), 1e-3, 0.5, Params(), g, bc, observer=_ignore,
                     sample_interval=1e-4)
        assert np.max(np.abs(out.d - st.d)) <= 1e-12
        with pytest.raises(CflError, match=r"^at t=0: dt=5\.000e-01 "):
            evolve(initial(st), 1.0, 0.5, Params(), g, bc, sample_interval=0.5)

    def test_density_floor_abort(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[5] = 5e-9  # positive but below the floor
        d = np.tile([[1.0], [0.0], [0.0]], 33)
        st = State(g, rho, np.zeros(33), d)
        bc = BoundarySpec.for_system(System.GL, st.d)
        with pytest.raises(DensityFloorError, match="node 5"):
            evolve(initial(st), 1e-4, 1e-4, Params(), g, bc)

    @pytest.mark.parametrize("system, other", [(System.SPHERE, System.GL),
                                               (System.GL, System.SPHERE)])
    def test_bc_system_mismatch_rejected(self, system, other):
        # the other system's spec: GL pins in a SPHERE run, none in a GL run
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        seen = []
        with pytest.raises(ValueError, match=f"incompatible with system {system.value}$"):
            evolve(initial(st), 1e-4, 1e-4, Params(system=system), g,
                   BoundarySpec.for_system(other, st.d),
                   observer=lambda state, t: seen.append(t))
        assert seen == []

    def test_sphere_prerenormalization_defect_small(self):
        # the director the step renormalizes: explicit rates, then the solve
        p = Params(system=System.SPHERE)
        g = Grid1D(65, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, p)
        work = loaded(init.rho0[None], init.u0[None], init.d0[None])
        imp = dynamics._implicit(1e-4, g.dx, p.mu, p.theta, None, work)
        dir_rate = dynamics._explicit_rates(work, dynamics._Operands(p, g.dx))[2]
        work.d += 1e-4 * dir_rate
        dynamics._solve_director(imp, work)
        d_new = work.d
        defect = np.abs(np.sqrt((d_new * d_new).sum(axis=1)) - 1.0).max()
        assert 0.0 < defect < 1e-4

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
                finals.append(evolve(init, 0.02, dt, p, g, bc, observer=_ignore))
                grids.append(g)
            diffs = []
            for k in range(2):
                # the fine state on the coarse grid, as the twins restrict it
                # (a SPHERE director renormalized to unit length)
                fine = restrict_state(finals[k + 1], grids[k], system)
                err = max(
                    np.max(np.abs(fine.rho - finals[k].rho)),
                    np.max(np.abs(fine.u - finals[k].u)),
                    np.max(np.abs(fine.d - finals[k].d)),
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
        a = np.diag(rho_new) - mu * dt * self.d2_dense(n, dx)
        a[[0, -1], :] = 0.0
        a[0, 0] = a[-1, -1] = 1.0
        b = m_star.copy()
        b[[0, -1]] = 0.0
        work = loaded(rho_new[None], m_star[None], np.zeros((1, 3, n)))
        imp = dynamics._implicit(dt, dx, mu, 1.0, None, work)
        dynamics._solve_velocity(imp, work)
        u = work.u[0]
        np.testing.assert_allclose(u, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)
        assert u[0] == 0.0 and u[-1] == 0.0
        assert np.array_equal(work.rho[0], rho_new)

    def test_director_dirichlet_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        n, dt, dx, theta = 17, 3e-3, 1.0 / 16, 0.9
        d_star = rng.standard_normal((3, n))
        pins = rng.standard_normal((2, 3))  # the left and right rows
        a = np.eye(n) - theta * dt * self.d2_dense(n, dx)
        a[[0, -1], :] = 0.0
        a[0, 0] = a[-1, -1] = 1.0
        b = d_star.T.copy()
        b[0], b[-1] = pins
        work = loaded(np.ones((1, n)), np.zeros((1, n)), d_star[None])
        imp = dynamics._implicit(dt, dx, 1.0, theta, pins, work)
        dynamics._solve_director(imp, work)
        d_new = work.d[0]
        np.testing.assert_allclose(d_new, np.linalg.solve(a, b).T, rtol=1e-12, atol=0.0)
        assert np.array_equal(d_new[:, 0], pins[0])
        assert np.array_equal(d_new[:, -1], pins[1])

    def test_director_neumann_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n, dt, dx, theta = 17, 3e-3, 1.0 / 16, 0.9
        d_star = rng.standard_normal((3, n))
        d2 = self.d2_dense(n, dx)
        d2[0, 1] = d2[-1, -2] = 2.0 / dx**2  # mirrored ghost nodes
        a = np.eye(n) - theta * dt * d2
        work = loaded(np.ones((1, n)), np.zeros((1, n)), d_star[None])
        imp = dynamics._implicit(dt, dx, 1.0, theta, None, work)
        dynamics._solve_director(imp, work)
        np.testing.assert_allclose(
            work.d[0], np.linalg.solve(a, d_star.T).T, rtol=1e-12, atol=0.0
        )

    @staticmethod
    def _solved(rho, m_star, d_star, s, r, pins):
        """The velocity and director solves on a loaded workspace, with
        dt = dx = 1, so mu = s and theta = r."""
        work = loaded(rho, m_star, d_star)
        imp = dynamics._implicit(1.0, 1.0, s, r, pins, work)
        dynamics._solve_velocity(imp, work)
        dynamics._solve_director(imp, work)
        return work.u.copy(), work.d.copy()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        system=st.sampled_from([System.GL, System.SPHERE]),
        members=st.integers(1, 3),
        n=st.integers(4, 24),
        s=st.floats(1e-3, 1e2),
        r=st.floats(1e-3, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solves_match_dense_operators_member_by_member(self, system, members, n, s, r,
                                                           seed):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 2.0, (members, n))  # well above the density floor
        m_star = rng.standard_normal((members, n))
        d_star = rng.standard_normal((members, 3, n))
        gl = system is System.GL
        pins = rng.standard_normal((2, 3 * members)) if gl else None
        u, d = self._solved(rho, m_star, d_star, s, r, pins)

        d2 = self.d2_dense(n, 1.0)
        wall_rows = np.eye(n)[[0, -1]]
        director = np.eye(n) - r * d2
        if gl:
            director[[0, -1]] = wall_rows
        else:
            director[0, 1] = director[-1, -2] = -2.0 * r  # mirrored ghost nodes
        for b in range(members):
            velocity = np.diag(rho[b]) - s * d2
            velocity[[0, -1]] = wall_rows
            rhs = m_star[b].copy()
            rhs[[0, -1]] = 0.0
            expected = np.linalg.solve(velocity, rhs)
            # rtol 1e-12 of the solution's scale: an entry near 0 has no
            # relative accuracy of its own
            np.testing.assert_allclose(u[b], expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
            rhs = d_star[b].T.copy()
            if gl:
                rhs[[0, -1]] = pins[:, 3 * b:3 * b + 3]
            expected = np.linalg.solve(director, rhs).T
            np.testing.assert_allclose(d[b], expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
            if gl:
                walls = pins[:, 3 * b:3 * b + 3]
                assert d[b, :, 0].tobytes() == walls[0].tobytes()
                assert d[b, :, -1].tobytes() == walls[1].tobytes()
            # each member of the batch is bit-identical to its own solve
            one = self._solved(rho[b:b + 1], m_star[b:b + 1], d_star[b:b + 1], s, r,
                               None if pins is None else pins[:, 3 * b:3 * b + 3])
            assert u[b].tobytes() == one[0][0].tobytes()
            assert d[b].tobytes() == one[1][0].tobytes()
        # the uncoupled wall rows solve to +0.0 exactly
        assert u[:, ::n - 1].tobytes() == bytes(16 * members)

    def test_singular_velocity_matrix_is_a_solver_error(self):
        rho_new = np.ones(7)
        rho_new[3] = 0.0  # with mu = 0 row 3 is all zeros
        work = loaded(rho_new[None], np.ones((1, 7)), np.zeros((1, 3, 7)))
        with pytest.raises(LinearSolveError, match="velocity solve: singular"):
            dynamics._solve_velocity(dynamics._implicit(1e-3, 0.1, 0.0, 1.0, None, work), work)

    def test_singular_director_matrix_is_a_solver_error(self):
        # theta*dt/dx^2 = -1/2 zeroes the diagonal; the interior block of
        # size 3 is then singular
        work = loaded(np.ones((1, 5)), np.zeros((1, 5)), np.ones((1, 3, 5)))
        with pytest.raises(LinearSolveError, match="director solve: singular") as info:
            imp = dynamics._implicit(1.0, 1.0, 1.0, -0.5, np.zeros((2, 3)), work)
            dynamics._solve_director(imp, work)
        assert isinstance(info.value, SolverError)

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_nan_velocity_is_non_finite_state(self, system, monkeypatch):
        # a NaN in u or rho is caught at step start, before either solve
        def no_solve(*args, **overwrite):
            raise AssertionError("tridiagonal solve ran on a non-finite state")

        p = Params(system=system)
        g = Grid1D(33, 0.0, 1.0)
        preset = "gl-smooth" if system is System.GL else "sphere-smooth"
        init = make_initial_data(preset, g, p)
        bc = BoundarySpec.for_system(system, init.d0)
        runs = []
        for name in ("u", "rho"):
            fields = {"rho": init.rho0.copy(), "u": init.u0.copy()}
            fields[name][10] = np.nan
            work = loaded(fields["rho"][None], fields["u"][None], init.d0[None])
            # the director factor is built with the step size, before any step
            runs.append((work, dynamics._implicit(1e-4, g.dx, p.mu, p.theta, bc.pins, work)))
        monkeypatch.setattr(dynamics, "_lapack", no_solve)
        for work, imp in runs:
            with pytest.raises(NonFiniteStateError, match="non-finite wave speed"):
                advance(work, 1e-4, p, g, imp)


class TestEvolve:
    def test_zero_horizon_returns_initial(self):
        g = Grid1D(33, 0.0, 1.0)
        p = Params()
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        out = evolve(init, 0.0, 1e-4, p, g, bc, observer=_ignore)
        assert np.array_equal(out.rho, init.rho0)
        assert np.array_equal(out.u, init.u0)
        assert np.array_equal(out.d, init.d0)

    def test_equilibrium_any_horizon(self):
        g = Grid1D(33, 0.0, 1.0)
        st = equilibrium(g)
        init = InitialData(g, st.rho, st.u, st.d)
        bc = BoundarySpec.for_system(System.GL, st.d)
        out = evolve(init, 0.03, 1e-3, Params(), g, bc, observer=_ignore)
        assert np.max(np.abs(out.d - st.d)) <= 1e-12

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
            e0 = energy(State(g, init.rho0, init.u0, init.d0), p)
            out = evolve(init, 0.05, 1e-4, p, g, bc, observer=_ignore)
            assert energy(out, p) <= e0 * (1.0 + 1e-6)

    def test_per_step_energy_inequality(self):
        # E_next + dt * D_next <= E * (1 + c dt), c = 1e-3, desk resolution
        for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
            p = Params(system=system)
            g = Grid1D(129, 0.0, 1.0)
            init = make_initial_data(preset, g, p)
            bc = BoundarySpec.for_system(system, init.d0)
            seen = []  # (t, E) of every state, one per step

            def check(st, t):
                e_now = energy(st, p)
                if seen:
                    t_prev, e_prev = seen[-1]
                    dt = t - t_prev
                    assert e_now + dt * dissipation(st, p) <= e_prev * (1.0 + 1e-3 * dt)
                seen.append((t, e_now))

            evolve(init, 0.05, 2e-4, p, g, bc, observer=check)
            assert len(seen) == 251  # the initial datum and 250 steps

    def test_abort_carries_timestamp(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[5] = 5e-9
        d = np.tile([[1.0], [0.0], [0.0]], 33)
        init = InitialData(g, rho, np.zeros(33), d)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        with pytest.raises(SolverError, match="at t="):
            evolve(init, 0.01, 1e-4, Params(), g, bc)

    @pytest.mark.parametrize("name, value", [
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", -1.0),
        ("dt", math.nan), ("dt", math.inf), ("dt", 0.0),
        ("sample_interval", math.nan), ("sample_interval", math.inf),
        ("sample_interval", -1.0), ("sample_interval", 0.0),
        ("density_floor", math.nan), ("density_floor", math.inf),
        ("density_floor", -1e-8), ("density_floor", 0.0),
    ])
    def test_bad_time_arguments_raise_before_the_first_sample(self, name, value):
        g = Grid1D(33, 0.0, 1.0)
        p = Params()
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        args = dict(t_end=0.01, dt=1e-4, sample_interval=None, density_floor=1e-8)
        args[name] = value
        seen = []
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            evolve(init, args["t_end"], args["dt"], p, g, bc,
                   observer=lambda st, t: seen.append(t),
                   sample_interval=args["sample_interval"],
                   density_floor=args["density_floor"])
        assert seen == []

    @pytest.mark.parametrize("t_end, dt", [(0.004, 1e-320), (1e308, 2e-4)])
    def test_step_count_beyond_the_float_range_raises(self, t_end, dt):
        g = Grid1D(33, 0.0, 1.0)
        p = Params()
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        seen = []
        with pytest.raises(ValueError, match=r"^t_end / dt is not a finite float"):
            evolve(init, t_end, dt, p, g, bc, observer=lambda st, t: seen.append(t),
                   sample_interval=t_end)
        assert seen == []

    def test_sphere_requires_unit_initial_director(self):
        p = Params(system=System.SPHERE)
        g = Grid1D(33, 0.0, 1.0)
        d = np.tile([[1.1], [0.0], [0.0]], 33)
        init = InitialData(g, np.ones(33), np.zeros(33), d)
        bc = BoundarySpec.for_system(System.SPHERE, d)
        with pytest.raises(ValueError, match="unit length"):
            evolve(init, 0.01, 1e-4, p, g, bc)


class TestLazyEvolve:
    """evolve without an observer: an iterator of the observer form's samples."""

    @staticmethod
    def _twin(system):
        p = Params(system=system)
        g = Grid1D(17, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, p, Perturbation(1e-3 * b, 2))
                 for b in range(2)]
        return p, g, inits, [BoundarySpec.for_system(system, i.d0) for i in inits]

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_samples_are_the_observer_forms_bit_for_bit(self, system, batched):
        p, g, inits, bcs = self._twin(system)
        if not batched:
            inits, bcs = inits[0], bcs[0]
        observed = []
        final = evolve(inits, 0.0035, 2e-4, p, g, bcs, sample_interval=1e-3,
                       observer=lambda states, t: observed.append((states, t)))
        lazy = []
        with np.errstate(divide="raise"):
            outside = np.geterr()
            for states, t in evolve(inits, 0.0035, 2e-4, p, g, bcs, sample_interval=1e-3):
                # the steps' error state covers no yield: a sample sees the caller's
                assert np.geterr() == outside
                lazy.append((states, t))
        assert [t for _, t in lazy] == [t for _, t in observed] == [0.0, 1e-3, 2e-3, 3e-3, 0.0035]
        assert final is observed[-1][0]

        def members(states):
            return states if batched else (states,)

        for (a, _), (b, _) in zip(lazy, observed):
            for x, y in zip(members(a), members(b)):
                for name in ("rho", "u", "d"):
                    assert getattr(x, name).tobytes() == getattr(y, name).tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        system=st.sampled_from([System.GL, System.SPHERE]),
        t_end=st.floats(1e-3, 0.02),
        windows=st.floats(0.5, 12.0),
        dts=st.tuples(st.floats(2e-4, 2e-3), st.floats(2e-4, 2e-3)),
    )
    def test_sample_times_do_not_depend_on_the_step_size(self, system, t_end, windows, dts):
        # verifier._pair_samples pairs the samples of runs at different dt by
        # their count and times
        p, g, (init, _), (bc, _) = self._twin(system)
        interval = t_end / windows
        runs = [np.array([t for _, t in evolve(init, t_end, dt, p, g, bc,
                                               sample_interval=interval)])
                for dt in dts]
        assert runs[0].size == runs[1].size
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_checks_run_before_it_returns(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran before the first sample was asked for")

        monkeypatch.setattr(dynamics, "_advance", no_step)
        p, g, (init, _), (bc, _) = self._twin(System.GL)
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            evolve(init, 0.01, -1.0, p, g, bc)
        with pytest.raises(CflError, match=r"^at t=0: dt=5\.000e-01 "):
            evolve(init, 1.0, 0.5, p, g, bc, sample_interval=0.5)
        with pytest.raises(DensityFloorError, match="^at t=0: density "):
            evolve(init, 0.01, 1e-4, p, g, bc, density_floor=0.95)
        samples = evolve(init, 0.01, 1e-4, p, g, bc)
        states, t = next(samples)  # the sample at t = 0 takes no step
        assert t == 0.0 and states.rho.tobytes() == init.rho0.tobytes()
        samples.close()

    def test_a_step_error_raises_from_next_with_its_time(self, monkeypatch):
        # the fourth step fails: both forms raise it with the time of that
        # step, the lazy one from the next() that runs it
        advance = dynamics._advance
        steps = []

        def failing(*args):
            steps.append(args[3])
            if len(steps) % 4 == 0:
                raise CflError("dt exceeds the stability bound", member=0)
            return advance(*args)

        monkeypatch.setattr(dynamics, "_advance", failing)
        p, g, (init, _), (bc, _) = self._twin(System.GL)
        message = r"^at t=0\.0006: dt exceeds the stability bound$"
        seen = []
        with pytest.raises(CflError, match=message):
            evolve(init, 0.01, 2e-4, p, g, bc, observer=lambda st, t: seen.append(t),
                   sample_interval=4e-4)
        samples = evolve(init, 0.01, 2e-4, p, g, bc, sample_interval=4e-4)
        assert [next(samples)[1], next(samples)[1]] == seen == [0.0, 4e-4]
        with pytest.raises(CflError, match=message):
            next(samples)
        assert next(samples, None) is None  # a failed trajectory hands out no more samples

    def test_the_observer_form_closes_its_samples_when_the_observer_raises(self, monkeypatch):
        started = []
        samples = dynamics._samples

        def recording(*args):
            started.append(samples(*args))
            return started[-1]

        def failing(states, t):
            if t > 0.0:
                raise RuntimeError("the observer failed")

        monkeypatch.setattr(dynamics, "_samples", recording)
        p, g, (init, _), (bc, _) = self._twin(System.SPHERE)
        with pytest.raises(RuntimeError, match="^the observer failed$"):
            evolve(init, 0.01, 2e-4, p, g, bc, observer=failing, sample_interval=1e-3)
        assert len(started) == 1 and started[0].gi_frame is None


def _preset(system):
    return "gl-smooth" if system is System.GL else "sphere-smooth"


def _rotated(init, angle):
    """The datum with its director turned about e_z: other pinned GL endpoints."""
    c, s = np.cos(angle), np.sin(angle)
    d = init.d0
    turned = np.stack([c * d[0] - s * d[1], s * d[0] + c * d[1], d[2]])
    return InitialData(init.grid, init.rho0, init.u0, turned)


def _sampled(inits, system, n, t_end=0.02, dt=2e-4, interval=0.006):
    """Samples of one batched evolve, per member, and the final states."""
    p = Params(system=system)
    g = Grid1D(n, 0.0, 1.0)
    bcs = [BoundarySpec.for_system(system, init.d0) for init in inits]
    samples = []
    final = evolve(inits, t_end, dt, p, g, bcs,
                   observer=lambda states, t: samples.append((t, states)),
                   sample_interval=interval)
    return samples, final


def _assert_members_match_single_runs(inits, system, n, **kw):
    batched, final = _sampled(inits, system, n, **kw)
    assert len(final) == len(inits)
    for b, init in enumerate(inits):
        alone, (last,) = _sampled([init], system, n, **kw)
        assert [t for t, _ in alone] == [t for t, _ in batched]
        for (_, (one,)), (_, many) in zip(alone, batched):
            for name in ("rho", "u", "d"):
                assert np.array_equal(getattr(one, name), getattr(many[b], name))
        assert np.array_equal(last.d, final[b].d)


class TestBatchedEvolve:
    """Members stepped in lockstep are bit-identical to their own runs."""

    @pytest.mark.parametrize("n", [17, 97])
    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_members_match_single_runs(self, system, n):
        p = Params(system=system)
        g = Grid1D(n, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, p, Perturbation(a, m))
                 for a, m in ((0.0, 1), (1e-3, 2), (2e-3, 3))]
        if system is System.GL:
            # members with other pinned endpoint values
            inits += [_rotated(inits[1], 0.3), _rotated(inits[0], -1.1)]
            assert not np.array_equal(inits[3].d0[:, 0], inits[0].d0[:, 0])
        _assert_members_match_single_runs(inits, system, n)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        system=st.sampled_from([System.GL, System.SPHERE]),
        members=st.lists(
            st.tuples(st.floats(0.0, 5e-3), st.integers(1, 4)), min_size=1, max_size=3
        ),
    )
    def test_any_batch_matches_single_runs(self, system, members):
        p = Params(system=system)
        g = Grid1D(17, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, p, Perturbation(a, m))
                 for a, m in members]
        _assert_members_match_single_runs(inits, system, 17, t_end=0.01, interval=0.004)

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_members_far_apart_in_size_stay_isolated(self, system):
        # the stencils run over the flat member-major rows: what straddles
        # two rows is scratch and must not reach the neighbouring member
        p = Params(system=system)
        g = Grid1D(33, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, p, Perturbation(a, m))
                 for a, m in ((1e-9, 1), (5e-2, 3), (1e-5, 2))]
        _assert_members_match_single_runs(inits, system, 33)
        work = loaded(*(np.stack([getattr(i, name) for i in inits])
                        for name in ("rho0", "u0", "d0")))
        dynamics._explicit_rates(work, dynamics._Operands(p, g.dx))
        assert not work.grad[..., 0].any() and not work.grad[..., -1].any()

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_shared_matrices_match_fresh_ones(self, system):
        # evolve builds the implicit matrices once per step size and LAPACK
        # overwrites what it is given; one-step evolve calls build their own
        p = Params(system=system)
        g = Grid1D(33, 0.0, 1.0)
        init = make_initial_data(_preset(system), g, p, Perturbation(1e-3, 2))
        bc = BoundarySpec.for_system(system, init.d0)
        dt = 2.0**-10  # one window of 5 steps of exactly dt
        st = init
        for _ in range(5):
            st = initial(evolve(st, dt, dt, p, g, bc, observer=_ignore))
        out = evolve(init, 5 * dt, dt, p, g, bc, observer=_ignore, sample_interval=5 * dt)
        for name in ("rho", "u", "d"):
            assert np.array_equal(getattr(out, name), getattr(st, f"{name}0"))
        # evolve's steps also share one workspace and write the state into
        # it; a step on a fresh workspace loaded with the same state, with
        # matrices of its own, matches
        def matrices(work):
            return dynamics._implicit(dt, g.dx, p.mu, p.theta, bc.pins, work)

        fresh = (init.rho0[None], init.u0[None], init.d0[None])
        work = loaded(*fresh)
        imp = matrices(work)
        for _ in range(5):
            step = loaded(*fresh)
            fresh = advance(step, dt, p, g, matrices(step))
            reused = advance(work, dt, p, g, imp)
            assert all(np.array_equal(a, b) for a, b in zip(fresh, reused))
            assert all(a is b for a, b in zip(reused, (work.rho, work.u, work.d)))
        for name, final in zip(("rho", "u", "d"), fresh):
            assert np.array_equal(final[0], getattr(out, name))

    def test_back_to_back_calls_match_fresh_runs(self):
        # each evolve call builds its own workspace: a run made after runs of
        # another system, member count and grid matches the same run made first
        runs = [(System.GL, 2, 33), (System.SPHERE, 3, 17), (System.GL, 1, 65),
                (System.SPHERE, 1, 33)]

        def sampled(system, members, n):
            p = Params(system=system)
            g = Grid1D(n, 0.0, 1.0)
            inits = [make_initial_data(_preset(system), g, p,
                                       Perturbation(1e-3 * (b + 1), b + 1))
                     for b in range(members)]
            return _sampled(inits, system, n)[0]

        first = [sampled(*run) for run in runs]
        after = [sampled(*run) for run in reversed(runs)][::-1]
        for one, other in zip(first, after):
            assert [t for t, _ in one] == [t for t, _ in other]
            for (_, states), (_, again) in zip(one, other):
                for st, st_again in zip(states, again):
                    for name in ("rho", "u", "d"):
                        assert np.array_equal(getattr(st, name), getattr(st_again, name))

    def test_implicit_matrices_kept_for_the_two_latest_step_sizes(self, monkeypatch):
        # a window's dt_eff = (t_next - t)/n_sub jitters in its last bits:
        # these 2000 one-step windows take 13 distinct step sizes, and a
        # size is built again only when two others were used since its last
        # window (once here; keeping one size would build 1,272 times)
        builds, steps = [], []
        build, advance = dynamics._implicit, dynamics._advance

        def counting_build(dt, *args):
            builds.append(dt)
            return build(dt, *args)

        def recording_advance(work, ops, implicit, dt, *args):
            assert implicit.dt == dt
            steps.append(dt)
            return advance(work, ops, implicit, dt, *args)

        monkeypatch.setattr(dynamics, "_implicit", counting_build)
        monkeypatch.setattr(dynamics, "_advance", recording_advance)
        p = Params()
        g = Grid1D(17, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p)
        evolve(init, 0.1, 5e-5, p, g, BoundarySpec.for_system(System.GL, init.d0),
               observer=_ignore, sample_interval=5e-5)
        latest, missed = [], []  # the two most recently used sizes, latest last
        for dt in steps:
            if dt not in latest:
                missed.append(dt)
            latest = [*[d for d in latest if d != dt], dt][-2:]
        assert len(set(steps)) == 13
        assert builds == missed
        assert len(builds) == 14

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_samples_are_read_only_snapshots(self, system):
        # each sample's states view one copy of the state block: later
        # steps leave them as they were when the observer saw them
        p = Params(system=system)
        g = Grid1D(17, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, p, Perturbation(1e-3 * b, b + 1))
                 for b in range(2)]
        seen = []
        final = evolve(inits, 0.004, 1e-3, p, g,
                       [BoundarySpec.for_system(system, i.d0) for i in inits],
                       observer=lambda states, t: seen.append(
                           (states, [[np.array(getattr(s, f)) for f in ("rho", "u", "d")]
                                     for s in states])))
        assert len(seen) == 5
        for states, values in seen + [(final, [[f.rho, f.u, f.d] for f in final])]:
            for st, copies in zip(states, values):
                for name, copy in zip(("rho", "u", "d"), copies):
                    field = getattr(st, name)
                    assert not field.flags.writeable
                    assert np.array_equal(field, copy)
        assert not np.array_equal(seen[0][0][0].rho, final[0].rho)

    def test_single_datum_keeps_the_state_observer(self):
        p = Params()
        g = Grid1D(17, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p)
        seen = []
        out = evolve(init, 0.002, 1e-3, p, g, BoundarySpec.for_system(System.GL, init.d0),
                     observer=lambda state, t: seen.append(state))
        assert all(isinstance(state, State) for state in seen + [out])

    def test_members_need_one_boundary_spec_each(self):
        p = Params()
        g = Grid1D(17, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        with pytest.raises(ValueError, match="one boundary spec per member"):
            evolve([init, init], 0.01, 1e-3, p, g, [bc])

    @pytest.mark.parametrize("members", [1, 2], ids=["single", "batched"])
    def test_gl_pins_must_be_the_initial_director_end_columns(self, members):
        # a left pin of (0, 1, 0) on gl-smooth, whose left wall is (1, 0, 0),
        # on the last member: the wall would jump to the pin at the first step
        p = Params()
        g = Grid1D(17, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p)
        own = BoundarySpec.for_system(System.GL, init.d0)
        foreign = BoundarySpec(np.array([[0.0, 1.0, 0.0], own.pins[1]]))
        seen = []
        with pytest.raises(ValueError, match=f"^GL pins of member {members - 1} are not its "
                                             "initial director's end columns$"):
            if members == 1:
                evolve(init, 0.01, 1e-3, p, g, foreign, observer=lambda s, t: seen.append(t))
            else:
                evolve([init, init], 0.01, 1e-3, p, g, [own, foreign],
                       observer=lambda s, t: seen.append(t))
        assert seen == []

    def test_initial_data_on_another_grid_rejected(self):
        p = Params()
        init = make_initial_data("gl-smooth", Grid1D(33, 0.0, 1.0), p)
        bc = BoundarySpec.for_system(System.GL, init.d0)
        with pytest.raises(ValueError, match="^initial data grid does not match the "
                                             "integration grid$"):
            evolve(init, 0.01, 1e-3, p, Grid1D(17, 0.0, 1.0), bc)


def _pair_arrays(system, n=33):
    """Batched (rho, u, d) of two unperturbed members, writable."""
    p = Params(system=system)
    g = Grid1D(n, 0.0, 1.0)
    init = make_initial_data(_preset(system), g, p)
    rho = np.stack([init.rho0] * 2)
    u = np.stack([init.u0] * 2)
    d = np.stack([init.d0] * 2)
    pins = BoundarySpec.for_system(system, init.d0).pins
    return p, g, rho, u, d, None if pins is None else np.concatenate([pins] * 2, axis=1)


def _step_pair(p, g, rho, u, d, pins, dt=1e-4, density_floor=dynamics.DEFAULT_DENSITY_FLOOR):
    work = loaded(rho, u, d)
    imp = dynamics._implicit(dt, g.dx, p.mu, p.theta, pins, work)
    return advance(work, dt, p, g, imp, density_floor)


class TestMemberAttribution:
    """Each check of a batched step names the first member that fails it."""

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_density_floor_names_member_and_its_node(self, failing):
        p, g, rho, u, d, pins = _pair_arrays(System.GL)
        for b in failing:
            rho[b, 20 - b] = 0.5
        with pytest.raises(DensityFloorError) as info:
            _step_pair(p, g, rho, u, d, pins, density_floor=0.8)
        assert info.value.member == failing[0]
        assert info.value.node == 20 - failing[0]  # within the member, not flattened

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_cfl_names_member(self, failing):
        p, g, rho, u, d, pins = _pair_arrays(System.GL)
        for b in failing:
            u[b, 10] = 500.0  # bound 0.4*dx/501 < dt
        with pytest.raises(CflError) as info:
            _step_pair(p, g, rho, u, d, pins)
        assert info.value.member == failing[0]

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_non_finite_wave_speed_names_member(self, failing):
        p, g, rho, u, d, pins = _pair_arrays(System.SPHERE)
        for b in failing:
            rho[b, 10] = np.inf
        with pytest.raises(NonFiniteStateError, match="wave speed") as info:
            _step_pair(p, g, rho, u, d, pins)
        assert info.value.member == failing[0]

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_sphere_collapse_names_member(self, failing):
        p, g, rho, u, d, pins = _pair_arrays(System.SPHERE)
        for b in failing:
            d[b] *= 0.1
        with pytest.raises(NonFiniteStateError, match="collapsed") as info:
            _step_pair(p, g, rho, u, d, pins)
        assert info.value.member == failing[0]

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_end_of_step_finite_check_names_member(self, failing):
        p, g, rho, u, d, pins = _pair_arrays(System.GL)
        for b in failing:
            d[b, 2, 12] = np.nan  # the director is not in the wave speed
        with pytest.raises(NonFiniteStateError, match="after step") as info:
            _step_pair(p, g, rho, u, d, pins)
        assert info.value.member == failing[0]

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_non_finite_momentum_names_member_after_the_in_place_solve(
            self, failing, monkeypatch):
        # a NaN momentum rate: the velocity solve spreads it across the block
        # joint into member 0, so the member is found from the rebuilt m_star
        kernel = dynamics._explicit_rates

        def poisoned(*args):
            flux, mom_rate, dir_rate = kernel(*args)
            for b in failing:
                mom_rate[b, 10] = np.nan
            return flux, mom_rate, dir_rate

        monkeypatch.setattr(dynamics, "_explicit_rates", poisoned)
        p, g, rho, u, d, pins = _pair_arrays(System.GL)
        work = loaded(rho, u, d)
        imp = dynamics._implicit(1e-4, g.dx, p.mu, p.theta, pins, work)
        with pytest.raises(NonFiniteStateError, match="after step") as info:
            advance(work, 1e-4, p, g, imp)
        assert info.value.member == failing[0]
        assert not np.isfinite(work.u[0]).all()  # the solve did reach member 0
        assert np.isfinite(work.rho).all() and np.isfinite(work.d).all()

    @pytest.mark.parametrize("failing", [[1], [0, 1]])
    def test_velocity_overflow_names_a_member_whose_own_solve_overflowed(self, failing):
        # rho, m* and d stay finite and only the velocity solve overflows,
        # m* / rho at node 16 (rho = 1e-300); its back substitution's 0 * inf
        # at the block joint turns member 0's velocity NaN too
        p, g = Params(mu=1e-250, gamma=2.0, system=System.SPHERE), Grid1D(33, 0.0, 1.0)
        d = np.zeros((3, 33))
        d[0] = 1.0
        inits = []
        for b in range(2):
            rho = np.ones(33)
            if b in failing:
                rho[15], rho[16] = 1e100, 1e-300
            inits.append(InitialData(g, rho, np.zeros(33), d))
        dt = 0.3 * g.dx / math.sqrt(p.dp_coeff * 1e100 ** (p.gamma - 1.0))
        bcs = [BoundarySpec.for_system(System.SPHERE, d)] * 2
        with pytest.raises(NonFiniteStateError, match="after step") as info:
            evolve(inits, dt, dt, p, g, bcs, observer=lambda *_: None, density_floor=1e-305)
        assert info.value.member == failing[0]

    def test_singular_velocity_block_names_member_and_row(self):
        rho_new = np.ones((2, 7))
        rho_new[1, 3] = 0.0  # with mu = 0 row 3 of member 1 is all zeros
        work = loaded(rho_new, np.ones((2, 7)), np.zeros((2, 3, 7)))
        imp = dynamics._implicit(1e-3, 0.1, 0.0, 1.0, None, work)
        with pytest.raises(LinearSolveError, match="zero pivot in row 4") as info:
            dynamics._solve_velocity(imp, work)
        assert info.value.member == 1

    def test_evolve_abort_carries_member_and_time(self):
        p = Params()
        g = Grid1D(33, 0.0, 1.0)
        good = make_initial_data("gl-smooth", g, p)
        rho = good.rho0.copy()
        rho[5] = 5e-9
        bad = InitialData(g, rho, good.u0, good.d0)
        bcs = [BoundarySpec.for_system(System.GL, i.d0) for i in (good, bad)]
        with pytest.raises(DensityFloorError, match="^at t=0: ") as info:
            evolve([good, bad], 0.01, 1e-4, p, g, bcs)
        assert info.value.member == 1 and info.value.node == 5


class TestReactionBound:
    """The explicit GL penalization needs dt <= sigma0^2/theta."""

    def _gl(self, sigma0):
        p = Params(sigma0=sigma0)
        g = Grid1D(97, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, p, Perturbation(1e-3, 2))
        return p, g, init, BoundarySpec.for_system(System.GL, init.d0)

    def test_penalization_bound_is_named(self):
        p, g, init, bc = self._gl(0.01)
        expected = r"GL penalization bound sigma0\^2/theta=1\.000e-04"
        with pytest.raises(ReactionBoundError, match=expected) as info:
            evolve(init, 0.05, 2e-4, p, g, bc)
        assert isinstance(info.value, SolverError)

    def test_step_within_the_bound_runs(self):
        p, g, init, bc = self._gl(0.02)
        out = evolve(init, 0.05, 2e-4, p, g, bc, observer=_ignore)
        assert np.all(np.isfinite(out.d))

    def test_sphere_has_no_penalization_bound(self):
        p = Params(system=System.SPHERE, sigma0=0.01)
        g = Grid1D(33, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, p)
        evolve(init, 0.002, 2e-4, p, g, BoundarySpec.for_system(System.SPHERE, init.d0))


class TestInitialData:
    def test_positive_density_required(self):
        g = Grid1D(33, 0.0, 1.0)
        rho = np.ones(33)
        rho[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            InitialData(g, rho, np.zeros(33), np.tile([[1.0], [0.0], [0.0]], 33))

    def test_no_slip_required(self):
        g = Grid1D(33, 0.0, 1.0)
        u = np.zeros(33)
        u[0] = 0.1
        with pytest.raises(ValueError, match="endpoints"):
            InitialData(g, np.ones(33), u, np.tile([[1.0], [0.0], [0.0]], 33))


@pytest.mark.parametrize("container", [State, InitialData])
class TestContainers:
    """State and InitialData check each array once and keep a frozen copy;
    they compare and hash by identity."""

    @staticmethod
    def arrays(n=11):
        return [np.ones(n), np.zeros(n), np.tile([[1.0], [0.0], [0.0]], n)]

    def test_field_length_mismatch_rejected(self, container):
        g = Grid1D(11, 0.0, 1.0)
        for k in (0, 1):
            arrays = self.arrays()
            arrays[k] = arrays[k][:10]
            with pytest.raises(ValueError, match=r"expected shape \(11,\)"):
                container(g, *arrays)

    def test_director_shape_rejected(self, container):
        g = Grid1D(11, 0.0, 1.0)
        rho, u, d = self.arrays()
        for bad in (d[:2], d.T, self.arrays(12)[2]):
            with pytest.raises(ValueError, match=r"expected shape \(3, 11\)"):
                container(g, rho, u, bad)

    def test_non_finite_rejected(self, container):
        g = Grid1D(11, 0.0, 1.0)
        for k, node, value in ((0, 3, np.nan), (1, 4, np.inf), (2, (1, 2), np.inf)):
            arrays = self.arrays()
            arrays[k][node] = value
            with pytest.raises(ValueError, match="non-finite"):
                container(g, *arrays)

    def test_fields_frozen(self, container):
        held = container(Grid1D(11, 0.0, 1.0), *self.arrays())
        for f in fields(container)[1:]:
            values = getattr(held, f.name)
            assert values.dtype == float
            with pytest.raises(ValueError):
                values[..., 0] = 2.0

    def test_caller_array_mutation_leaves_fields_unchanged(self, container):
        arrays = self.arrays()
        held = container(Grid1D(11, 0.0, 1.0), *arrays)
        for a in arrays:
            a[..., 5] = 7.0
        for f, expected in zip(fields(container)[1:], self.arrays()):
            assert np.array_equal(getattr(held, f.name), expected)

    def test_equality_is_identity_and_hash_works(self, container):
        g = Grid1D(11, 0.0, 1.0)
        a, b = container(g, *self.arrays()), container(g, *self.arrays())
        # equal fields, yet two containers: == neither raises nor compares arrays
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_boundary_spec_equality_is_identity_and_hash_works():
    d0 = np.tile([[1.0], [0.0], [0.0]], 11)
    a, b = BoundarySpec.for_system(System.GL, d0), BoundarySpec.for_system(System.GL, d0)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


_MODULE_BINDERS = (dynamics.dptsv, dynamics.dpttrf, dynamics.dpttrs)


def _without_the_symbols(monkeypatch):
    """Make numpy's extension a handle that lacks the LAPACK symbols, as on
    builds whose numpy links another LAPACK, or none dlsym can reach."""
    import _ctypes
    import ctypes

    library = ctypes.PyDLL
    monkeypatch.setattr(ctypes, "PyDLL", lambda name: library(_ctypes.__file__))


class TestLapack:
    """dynamics binds dptsv, dpttrf and dpttrs from numpy's ILP64 LAPACK by
    ctypes, or wraps scipy's where numpy's extension lacks them; either
    source gives scipy.linalg.lapack's bits through one call form."""

    @pytest.fixture(params=["numpy", "scipy"])
    def source(self, request, monkeypatch):
        """One source's binders, also installed as dynamics' own, so the
        workspace and the matrices bind their solves from it."""
        if request.param == "numpy":
            binders = dynamics._numpy_lapack()
            if binders is None:
                pytest.skip("numpy's extension exports no ILP64 dptsv, dpttrf, dpttrs")
        else:
            with monkeypatch.context() as patch:
                _without_the_symbols(patch)
                assert dynamics._numpy_lapack() is None
            binders = dynamics._scipy_lapack()
        for name, bind in zip(dynamics._ROUTINES, binders, strict=True):
            monkeypatch.setattr(dynamics, name, bind)
        return binders

    @staticmethod
    def _blocks(rng, blocks=4, n=33, nrhs=6):
        """(diagonal, off-diagonal, right-hand sides) of a diagonally dominant
        symmetric system of `blocks` tridiagonal blocks of n rows, uncoupled
        at the joints as in the batched velocity solve."""
        m = blocks * n
        off = rng.uniform(-1.0, 0.0, m - 1)
        off[n - 1::n] = 0.0
        return rng.uniform(2.5, 3.0, m), off, rng.standard_normal((m, nrhs))

    @staticmethod
    def _bits(outs):
        return [np.asarray(v).tobytes() for out in outs for v in out]

    def _reference_bits(self, diag, off, rhs):
        """The bits of every output of scipy.linalg.lapack's dptsv and dpttrf
        on copies of one system, and of dpttrs on dpttrf's factor where that
        succeeded."""
        from scipy.linalg.lapack import dptsv, dpttrf, dpttrs

        outs = [dptsv(diag.copy(), off.copy(), rhs.copy()), dpttrf(diag.copy(), off.copy())]
        d, e, info = outs[-1]
        if info == 0:
            outs.append(dpttrs(d, e, rhs.copy()))
        return self._bits(outs)

    def _bound_bits(self, binders, diag, off, rhs):
        """The same bits from calls bound by binders: the arrays each call
        overwrites, then its status."""
        dptsv, dpttrf, dpttrs = binders

        def run(bind, *arrays):
            arrays = [a.copy(order="F") for a in arrays]
            call = bind(*arrays)
            call.fn(*call.args)
            return arrays, call.status[1]

        solve, factor = run(dptsv, diag, off, rhs), run(dpttrf, diag, off)
        outs = [(*solve[0], solve[1]), (*factor[0], factor[1])]
        if factor[1] == 0:
            rhs_out, info = run(dpttrs, *factor[0], rhs)
            outs.append((rhs_out[2], info))
        return self._bits(outs)

    def test_bit_identical_to_scipy_linalg_lapack(self, source):
        system = self._blocks(np.random.default_rng(11))
        bits = self._bound_bits(source, *system)
        assert len(bits) == 9  # dptsv 4, dpttrf 3, dpttrs 2
        assert bits == self._reference_bits(*system)
        one = self._blocks(np.random.default_rng(15), blocks=1, nrhs=1)
        one = (*one[:2], one[2][:, 0])  # one right-hand side, as the velocity solve's
        assert self._bound_bits(source, *one) == self._reference_bits(*one)

    def test_zero_pivot_status_matches_scipy_linalg_lapack(self, source):
        diag, off, rhs = self._blocks(np.random.default_rng(12))
        k = 40  # row 7 of block 1: uncoupled from the row above, pivot 0
        diag[k] = off[k - 1] = 0.0
        bits = self._bound_bits(source, diag, off, rhs)
        assert len(bits) == 7 and bits[3] == bits[6] == np.asarray(k + 1).tobytes()
        assert bits == self._reference_bits(diag, off, rhs)

    def test_prebuilt_calls_name_the_member_and_row(self, source):
        # one workspace's velocity call solves, then meets a zero pivot in
        # row 4 of member 1 (mu = 0 leaves rho_new on the diagonal)
        work = loaded(np.ones((2, 7)), np.ones((2, 7)), np.zeros((2, 3, 7)))
        imp = dynamics._implicit(1e-3, 0.1, 0.0, 1.0, None, work)
        dynamics._solve_velocity(imp, work)
        assert np.array_equal(work.u[:, 1:-1], np.ones((2, 5)))
        work.rho[1, 3] = 0.0
        with pytest.raises(LinearSolveError, match="velocity solve: .* row 4") as info:
            dynamics._solve_velocity(imp, work)
        assert info.value.member == 1
        # theta dt/dx^2 = -1/2 zeroes the director diagonal: row 2's pivot
        with pytest.raises(LinearSolveError, match="director solve: .* row 2") as info:
            dynamics._implicit(1.0, 1.0, 1.0, -0.5, np.zeros((2, 3)), work)
        assert info.value.member == 0

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_evolve_is_bit_identical_through_either_source(self, source, system, monkeypatch):
        g = Grid1D(33, 0.0, 1.0)
        inits = [make_initial_data(_preset(system), g, Params(system=system),
                                   Perturbation(1e-3 * b, 2)) for b in range(2)]

        def bits():
            return [(t, [getattr(st, name).tobytes() for st in states for name in "rho u d".split()])
                    for t, states in _sampled(inits, system, 33)[0]]

        through_source = bits()
        for name, bind in zip(dynamics._ROUTINES, _MODULE_BINDERS, strict=True):
            monkeypatch.setattr(dynamics, name, bind)
        assert through_source == bits()

    def test_arrays_that_cannot_be_solved_in_place_are_refused(self, source):
        dptsv, dpttrf, _ = source
        diag, off, rhs = self._blocks(np.random.default_rng(16), blocks=1, nrhs=2)
        for bad in (rhs.copy(order="C"), rhs[::2], rhs.astype(np.float32)):
            with pytest.raises(ValueError, match="LAPACK arrays"):
                dptsv(diag, off, bad)
        with pytest.raises(ValueError, match="one tridiagonal system"):
            dpttrf(diag, off[:-1])

    def test_integer_arguments_are_64_bit(self):
        binders = dynamics._numpy_lapack()
        if binders is None:
            pytest.skip("numpy's extension exports no ILP64 dptsv")
        diag, off, rhs = self._blocks(np.random.default_rng(17), blocks=1, n=5, nrhs=1)
        rhs = rhs[:, 0]
        call = binders[0](diag, off, rhs)
        # N = 2^32 + 5 whole: LAPACK refuses LDB = 5 < N (argument 6) and
        # touches nothing; 32-bit integers would hold N = 5 and solve
        call.status[0] = 2**32 + 5
        assert call.status[0] == 2**32 + 5
        before = rhs.copy()
        call.fn(*call.args)
        assert call.status[1] == -6
        assert np.array_equal(rhs, before)

    def test_module_binds_numpys_routines_where_it_exports_them(self, monkeypatch):
        import ctypes

        binders = dynamics._numpy_lapack()
        if binders is None:
            pytest.skip("numpy's extension exports no ILP64 dptsv")
        system = self._blocks(np.random.default_rng(18), blocks=1, nrhs=1)
        for bind, name in zip(_MODULE_BINDERS, dynamics._ROUTINES, strict=True):
            fn = bind(*system[:2], *(() if name == "dpttrf" else system[2:])).fn
            assert ctypes.cast(fn, ctypes.c_void_p).value == ctypes.cast(
                getattr(ctypes.PyDLL(np._core._multiarray_umath.__file__),
                        f"scipy_{name}_64_"), ctypes.c_void_p).value
        _without_the_symbols(monkeypatch)
        assert dynamics._numpy_lapack() is None

    def test_import_leaves_scipy_linalg_unloaded(self):
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        # hashlib loads OpenSSL's libcrypto; the manifest digest needs neither
        heavy = ("numpy.testing", "numpy.f2py", "hashlib", "_hashlib")
        # where numpy exports the routines no scipy loads, scipy.linalg
        # included; the fallback imports scipy.linalg by design
        if dynamics._numpy_lapack() is not None:
            heavy += ("scipy",)
        code = (
            "import sys, nemlab, nemlab.cli; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == []
