"""Acceptance battery.

Each test is one exit criterion, run at its stated tolerance and runtime
budget, and announces a single pass/fail line on the live terminal.
"""

import math
import time

import numpy as np
import pytest

from nemlab.cli import main
from nemlab.constitutive import (
    Params,
    System,
    _bregman,
    _power_law,
    gl_force,
    gl_potential,
)
from nemlab.dynamics import BoundarySpec, State, evolve
from nemlab.functionals import StatePair, remainder
from nemlab.grid import Grid1D, gradient_array, laplacian_array
from nemlab.verifier import (
    ExperimentConfig,
    GronwallConfig,
    Perturbation,
    check_energy,
    check_gronwall,
    check_uniqueness,
    make_initial_data,
    run_twin,
)


def announce(capsys, name, ok, detail, elapsed, budget):
    line = (
        f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    with capsys.disabled():
        print("\n" + line)
    return line


def manufactured_gl_pair(n):
    g = Grid1D(n, 0.0, 1.0)
    x = g.nodes()
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


def manufactured_sphere_pair(n):
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


def test_criterion_1_operator_consistency(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    orders = []
    for op, exact in ((gradient_array, np.cos), (laplacian_array, lambda x: -np.sin(x))):
        errs = []
        for n in (101, 201, 401):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            errs.append(np.max(np.abs(op(np.sin(x), g.dx) - exact(x))))
        orders += [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < budget
    announce(capsys, "criterion 1 (operator consistency)", ok,
             f"orders={[f'{o:.2f}' for o in orders]}", elapsed, budget)
    assert all(1.8 <= o <= 2.2 for o in orders)
    assert elapsed < budget


def test_criterion_2_constitutive_identities(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # the laws as the solver takes them: _power_law of the coefficients
    # Params owns, over arrays of densities and directors
    worst_pressure = 0.0
    for _ in range(1000):
        p = Params(a=rng.uniform(0.1, 5.0), gamma=rng.uniform(1.01, 3.0))
        g = p.gamma
        rho = rng.uniform(0.01, 10.0, 8)
        pres, dp = _power_law(rho, p.a, g), _power_law(rho, g * p.a, g - 1.0)
        pi2 = _power_law(rho, p.dp_coeff, g - 2.0)
        gaps = (
            # Pi'(rho) rho - Pi(rho) = P(rho)
            (_power_law(rho, p.pi1_coeff, g - 1.0) * rho - _power_law(rho, p.pi_coeff, g) - pres)
            / pres,
            # rho Pi''(rho) = P'(rho), with Pi'' the derivative of Pi'
            (rho * pi2 - dp) / dp,
            (pi2 - _power_law(rho, (g - 1.0) * p.pi1_coeff, g - 2.0)) / pi2,
        )
        worst_pressure = max(worst_pressure, max(np.abs(gap).max() for gap in gaps))

    worst_force = 0.0
    h = 1e-5
    for _ in range(100):
        p = Params(sigma0=rng.uniform(0.5, 2.0))
        d = rng.normal(size=(3, 10))
        d *= rng.uniform(0.0, 2.0, 10) / np.maximum(np.linalg.norm(d, axis=0), 1e-12)
        fd = np.array([(gl_potential(((d + e)**2).sum(axis=0), 4 * p.sigma0**2)
                        - gl_potential(((d - e)**2).sum(axis=0), 4 * p.sigma0**2)) / (2 * h)
                       for e in h * np.eye(3)[:, :, None]])
        worst_force = max(worst_force, np.max(np.abs(gl_force(d, p.sigma0**2) - fd)))

    # the pressure Bregman row as the certificate pass composes it
    worst_bregman, bregman_faults = 0.0, {}
    for _ in range(1000):
        p = Params(a=rng.uniform(0.1, 3.0), gamma=rng.uniform(1.0 + 1e-6, 3.0))
        rho, rho_t = rng.uniform(0.0, 5.0, 10), rng.uniform(0.01, 5.0, 10)
        val = _bregman(_power_law(rho, p.pi_coeff, p.gamma),
                       _power_law(rho_t, p.pi1_coeff, p.gamma - 1.0),
                       _power_law(rho_t, p.pi_coeff, p.gamma), rho, rho_t, bregman_faults)
        worst_bregman = min(worst_bregman, val.min())

    elapsed = time.perf_counter() - t0
    ok = (worst_pressure <= 1e-12 and worst_force <= 1e-6
          and worst_bregman >= -1e-14 and not bregman_faults and elapsed < budget)
    announce(capsys, "criterion 2 (constitutive identities)", ok,
             f"pressure_rel={worst_pressure:.2e} force_fd={worst_force:.2e} "
             f"bregman_min={worst_bregman:.2e}", elapsed, budget)
    assert worst_pressure <= 1e-12
    assert worst_force <= 1e-6
    assert worst_bregman >= -1e-14
    assert not bregman_faults
    assert elapsed < budget


def test_criterion_3_conservation_and_constraints(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    details = []
    ok = True
    for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
        p = Params(system=system)
        g = Grid1D(129, 0.0, 1.0)
        init = make_initial_data(preset, g, p)
        bc = BoundarySpec.for_system(system, init.d0)
        dx = g.dx
        rho0 = init.rho0
        m0 = dx * (rho0.sum() - 0.5 * (rho0[0] + rho0[-1]))
        d_left = init.d0[:, 0].copy()
        d_right = init.d0[:, -1].copy()
        worst_defect = 0.0
        pins_exact = True
        steps = -1  # the observer also sees the initial datum

        def check(st, t):
            nonlocal worst_defect, pins_exact, steps
            steps += 1
            pins_exact &= st.u[0] == 0.0 and st.u[-1] == 0.0
            if system is System.GL:
                pins_exact &= np.array_equal(st.d[:, 0], d_left)
                pins_exact &= np.array_equal(st.d[:, -1], d_right)
            else:
                mag = np.sqrt(np.sum(st.d**2, axis=0))
                worst_defect = max(worst_defect, float(np.max(np.abs(mag - 1.0))))

        st = evolve(init, 0.1, 1e-4, p, g, bc, observer=check)  # 1000 steps
        m1 = dx * (st.rho.sum() - 0.5 * (st.rho[0] + st.rho[-1]))
        drift = abs(m1 - m0) / abs(m0)
        sys_ok = drift <= 1e-12 and pins_exact and steps == 1000
        if system is System.SPHERE:
            sys_ok = sys_ok and worst_defect <= 1e-10
            details.append(f"{system.value}: drift={drift:.2e} defect={worst_defect:.2e}")
        else:
            details.append(f"{system.value}: drift={drift:.2e} pins_exact={pins_exact}")
        ok = ok and sys_ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    announce(capsys, "criterion 3 (conservation and constraints)", ok,
             "; ".join(details), elapsed, budget)
    assert ok


def test_criterion_4_energy_inequality(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    details = []
    ok = True
    for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
        cfg = ExperimentConfig(
            params=Params(system=system),
            grid_reference=Grid1D(257, 0.0, 1.0),
            grid_candidate=Grid1D(257, 0.0, 1.0),
            dt_reference=5e-5,
            dt_candidate=5e-5,
            t_end=0.2,
            initial_preset=preset,
            sample_interval=1e-3,
        )
        rep = check_energy(run_twin(cfg), tol=1e-3)
        worst = max(rep.max_violation_candidate, rep.max_violation_reference)
        details.append(f"{system.value}: margin={worst:.2e}")
        ok = ok and rep.passes
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    announce(capsys, "criterion 4 (discrete energy inequality)", ok,
             "; ".join(details) + " tol=1e-3", elapsed, budget)
    assert ok


def test_criterion_5_remainder_reorganization(capsys):
    budget = 5.0
    t0 = time.perf_counter()
    details = []
    ok = True
    for tag, builder, func, params in (
        ("gl", manufactured_gl_pair, remainder, Params()),
        ("sphere", manufactured_sphere_pair, remainder,
         Params(system=System.SPHERE)),
    ):
        mismatches = []
        dxs = []
        for n in (65, 129, 257):
            q = func(builder(n), params).quartet
            if tag == "gl":
                mismatches.append(abs((q["r_d"] + q["r_c"]) - (q["r_bar_d"] + q["r_bar_c"])))
            else:
                mismatches.append(abs(q["r_1c"] - (q["r_1c_a"] + q["r_1c_b"])))
            dxs.append(1.0 / (n - 1))
        orders = [np.log2(a / b) for a, b in zip(mismatches, mismatches[1:])]
        c_fit = mismatches[0] / dxs[0] ** 2
        bounded = all(m <= 1.25 * c_fit * dx**2 for m, dx in zip(mismatches, dxs))
        details.append(f"{tag}: orders={[f'{o:.2f}' for o in orders]} C={c_fit:.2f}")
        ok = ok and all(o >= 1.8 for o in orders) and bounded
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    announce(capsys, "criterion 5 (remainder reorganization identities)", ok,
             "; ".join(details), elapsed, budget)
    assert ok


def test_criterion_6_weak_strong_collapse(capsys):
    budget = 180.0
    t0 = time.perf_counter()
    details = []
    ok = True
    kappa = 0.4
    for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
        g_ref = Grid1D(1025, 0.0, 1.0)
        g_c = Grid1D(65, 0.0, 1.0)
        cfg = ExperimentConfig(
            params=Params(system=system),
            grid_reference=g_ref,
            grid_candidate=g_c,
            dt_reference=kappa * (2.0 * g_ref.dx) ** 2,
            dt_candidate=kappa * g_c.dx**2,
            t_end=0.1,
            initial_preset=preset,
            sample_interval=0.005,
        )
        rep = check_uniqueness(cfg, [65, 129, 257])
        details.append(
            f"{system.value}: orders={[f'{o:.2f}' for o in rep.orders]} "
            f"sup={[f'{s:.1e}' for s in rep.sup_entropy]}"
        )
        ok = ok and rep.passes
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    announce(capsys, "criterion 6 (weak-strong entropy collapse)", ok,
             "; ".join(details), elapsed, budget)
    assert ok


def test_criterion_7_gronwall_certification(capsys):
    budget = 180.0
    t0 = time.perf_counter()
    details = []
    ok = True
    kappa = 0.4
    for system, preset in ((System.GL, "gl-smooth"), (System.SPHERE, "sphere-smooth")):
        def perturbed(n, eps):
            g = Grid1D(n, 0.0, 1.0)
            return ExperimentConfig(
                params=Params(system=system),
                grid_reference=g,
                grid_candidate=g,
                dt_reference=kappa * g.dx**2,
                dt_candidate=kappa * g.dx**2,
                t_end=0.1,
                initial_preset=preset,
                perturbation=Perturbation(amplitude=eps, mode=2),
            )

        trace_a = run_twin(perturbed(129, 1e-3))
        rep_a = check_gronwall(trace_a, GronwallConfig())
        rep_b = check_gronwall(run_twin(perturbed(257, 1e-3)), GronwallConfig())
        finite = math.isfinite(rep_a.minimal_c_h) and math.isfinite(rep_b.minimal_c_h)
        c_lo, c_hi = sorted((rep_a.minimal_c_h, rep_b.minimal_c_h))
        stable = c_hi <= 1e-6 or (c_lo > 0 and c_hi / c_lo <= 2.0)

        sup_full = np.max(trace_a.entropy)
        sup_half = np.max(run_twin(perturbed(129, 5e-4)).entropy)
        ratio = sup_full / sup_half
        quadratic = 3.0 <= ratio <= 5.0

        details.append(
            f"{system.value}: c_h=({rep_a.minimal_c_h:.3g},{rep_b.minimal_c_h:.3g}) "
            f"eps_ratio={ratio:.2f}"
        )
        ok = ok and rep_a.passes and rep_b.passes and finite and stable and quadratic
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    announce(capsys, "criterion 7 (Gronwall certification)", ok,
             "; ".join(details), elapsed, budget)
    assert ok


def test_criterion_8_identical_data_sanity(capsys, tmp_path):
    budget = 120.0
    t0 = time.perf_counter()
    details = []

    cfg = ExperimentConfig(
        params=Params(),
        grid_reference=Grid1D(129, 0.0, 1.0),
        grid_candidate=Grid1D(129, 0.0, 1.0),
        dt_reference=2e-4,
        dt_candidate=2e-4,
        t_end=0.05,
        initial_preset="gl-smooth",
    )
    trace = run_twin(cfg)
    sup_e = float(np.max(trace.entropy))
    details.append(f"sup_entropy={sup_e:.2e}")

    suite_codes = {}
    for preset in ("gl-smoke", "sphere-smoke"):
        suite_codes[preset] = main(
            ["suite", "--preset", preset, "--output-dir", str(tmp_path / preset)]
        )
    details.append(f"suite_exit_codes={suite_codes}")

    elapsed = time.perf_counter() - t0
    ok = (sup_e <= 1e-12 and all(c == 0 for c in suite_codes.values())
          and elapsed < budget)
    announce(capsys, "criterion 8 (identical-data sanity)", ok,
             "; ".join(details), elapsed, budget)
    assert sup_e <= 1e-12
    assert all(c == 0 for c in suite_codes.values())
    assert elapsed < budget
