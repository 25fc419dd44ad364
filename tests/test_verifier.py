import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab import verifier
from nemlab.constitutive import Params, System
from nemlab.grid import Grid1D
from nemlab.verifier import (
    EntropyTrace,
    ExperimentConfig,
    GronwallConfig,
    Perturbation,
    VerifierError,
    check_energy,
    check_gronwall,
    check_uniqueness,
    cubic_restrict,
    make_initial_data,
    restrict_state,
    run_twin,
)

GL = Params(system=System.GL)
SPH = Params(system=System.SPHERE)


def twin_config(system=System.GL, n_ref=97, n_cand=97, dt=2e-4, t_end=0.05,
                amplitude=0.0, mode=2, **kw):
    preset = "gl-smooth" if system is System.GL else "sphere-smooth"
    return ExperimentConfig(
        params=Params(system=system),
        grid_reference=Grid1D(n_ref, 0.0, 1.0),
        grid_candidate=Grid1D(n_cand, 0.0, 1.0),
        dt_reference=dt,
        dt_candidate=dt,
        t_end=t_end,
        initial_preset=preset,
        perturbation=Perturbation(amplitude=amplitude, mode=mode),
        **kw,
    )


def synthetic_trace(times, entropy, h_hat):
    n = len(times)
    ones = np.ones(n)
    zeros = np.zeros(n)
    return EntropyTrace(
        system=System.GL,
        times=np.asarray(times, dtype=float),
        entropy=np.asarray(entropy, dtype=float),
        h_hat=np.asarray(h_hat, dtype=float),
        energy_candidate=ones,
        energy_reference=ones,
        dissipation_candidate=zeros,
        dissipation_reference=zeros,
        mass_candidate=ones,
        sphere_defect=np.full(n, np.nan),
        r_d=zeros, r_c=zeros, r_bar_d=zeros, r_bar_c=zeros,
        r_1d=np.full(n, np.nan), r_1c=np.full(n, np.nan),
        r_1c_a=np.full(n, np.nan), r_1c_b=np.full(n, np.nan),
    )


class TestPresets:
    def test_gl_preset_constraints(self):
        g = Grid1D(129, 0.0, 1.0)
        init = make_initial_data("gl-smooth", g, GL)
        assert init.u0.values[0] == 0.0 and init.u0.values[-1] == 0.0
        assert np.min(init.rho0.values) > 0.5
        mag = np.sqrt(np.sum(init.d0.values**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12

    def test_sphere_preset_neumann_compatible(self):
        g = Grid1D(257, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, SPH)
        mag = np.sqrt(np.sum(init.d0.values**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12
        # endpoint slope vanishes analytically; discretely O(dx^2)
        slope = (init.d0.values[:, 1] - init.d0.values[:, 0]) / g.dx
        assert np.max(np.abs(slope)) <= 5.0 * g.dx

    def test_gl_perturbation_preserves_endpoints(self):
        g = Grid1D(97, 0.0, 1.0)
        base = make_initial_data("gl-smooth", g, GL)
        pert = make_initial_data("gl-smooth", g, GL, Perturbation(1e-3, 3))
        assert np.array_equal(pert.d0.values[:, 0], base.d0.values[:, 0])
        assert np.array_equal(pert.d0.values[:, -1], base.d0.values[:, -1])
        assert not np.array_equal(pert.rho0.values, base.rho0.values)

    def test_sphere_perturbation_keeps_unit_length(self):
        g = Grid1D(97, 0.0, 1.0)
        pert = make_initial_data("sphere-smooth", g, SPH, Perturbation(1e-2, 2))
        mag = np.sqrt(np.sum(pert.d0.values**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12

    def test_zero_amplitude_is_bitwise_unperturbed(self):
        g = Grid1D(97, 0.0, 1.0)
        base = make_initial_data("gl-smooth", g, GL)
        zero = make_initial_data("gl-smooth", g, GL, Perturbation(0.0, 5))
        assert np.array_equal(base.rho0.values, zero.rho0.values)
        assert np.array_equal(base.d0.values, zero.d0.values)

    def test_unknown_preset_rejected(self):
        g = Grid1D(33, 0.0, 1.0)
        with pytest.raises(VerifierError, match="unknown preset"):
            make_initial_data("bogus", g, GL)

    def test_system_mismatch_rejected(self):
        g = Grid1D(33, 0.0, 1.0)
        with pytest.raises(VerifierError, match="requires system"):
            make_initial_data("sphere-smooth", g, GL)


class TestCubicRestrict:
    def test_identity_on_matching_grids(self):
        g = Grid1D(65, 0.0, 1.0)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=65)
        out = cubic_restrict(vals, g, Grid1D(65, 0.0, 1.0))
        assert np.array_equal(out, vals)

    def test_nodal_exactness_on_nested_grids(self):
        fine = Grid1D(129, 0.0, 1.0)
        coarse = Grid1D(65, 0.0, 1.0)
        vals = np.sin(2 * np.pi * fine.nodes())
        out = cubic_restrict(vals, fine, coarse)
        assert np.array_equal(out, vals[::2])

    def test_reproduces_cubics(self):
        src = Grid1D(33, 0.0, 1.0)
        dst = Grid1D(97, 0.0, 1.0)
        x = src.nodes()
        vals = 2.0 - x + 3.0 * x**2 - 0.5 * x**3
        out = cubic_restrict(vals, src, dst)
        xd = dst.nodes()
        exact = 2.0 - xd + 3.0 * xd**2 - 0.5 * xd**3
        assert np.allclose(out, exact, atol=1e-13)

    def test_fourth_order_on_smooth_fields(self):
        dst = Grid1D(53, 0.0, 1.0)
        errs = []
        for n in (65, 129, 257):
            src = Grid1D(n, 0.0, 1.0)
            vals = np.sin(2 * np.pi * src.nodes())
            out = cubic_restrict(vals, src, dst)
            errs.append(np.max(np.abs(out - np.sin(2 * np.pi * dst.nodes()))))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 3.0 for o in orders)

    def test_restrict_state_renormalizes_sphere_director(self):
        src = Grid1D(129, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", src, SPH)
        st = init.as_state()
        out = restrict_state(st, Grid1D(65, 0.0, 1.0), System.SPHERE)
        mag = np.sqrt(np.sum(out.d.values**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-14


class TestRunTwin:
    def test_identical_twin_entropy_is_zero(self):
        trace = run_twin(twin_config())
        assert np.max(trace.entropy) == 0.0
        assert len(trace) == 51  # t=0 plus 50 sample intervals

    def test_deterministic_bitwise(self):
        cfg = twin_config(system=System.SPHERE, amplitude=1e-3)
        t1 = run_twin(cfg)
        t2 = run_twin(cfg)
        for name in ("times", "entropy", "h_hat", "energy_candidate",
                     "dissipation_candidate", "mass_candidate", "r_1d", "r_1c"):
            assert np.array_equal(
                getattr(t1, name), getattr(t2, name), equal_nan=True
            )

    def test_quadratic_amplitude_scaling(self):
        sups = {}
        for eps in (1e-3, 5e-4):
            trace = run_twin(twin_config(amplitude=eps, t_end=0.02))
            sups[eps] = float(np.max(trace.entropy))
        assert sups[1e-3] / sups[5e-4] == pytest.approx(4.0, rel=0.25)

    def test_candidate_refinement_shrinks_entropy(self):
        sups = []
        for n_cand in (33, 65, 129):
            cfg = twin_config(n_ref=257, n_cand=n_cand, t_end=0.02,
                              dt=0.4 * Grid1D(n_cand, 0, 1).dx ** 2)
            cfg = ExperimentConfig(
                params=cfg.params,
                grid_reference=cfg.grid_reference,
                grid_candidate=cfg.grid_candidate,
                dt_reference=0.4 * Grid1D(257, 0, 1).dx ** 2,
                dt_candidate=cfg.dt_candidate,
                t_end=cfg.t_end,
                initial_preset=cfg.initial_preset,
            )
            trace = run_twin(cfg)
            sups.append(float(np.max(trace.entropy)))
        assert sups[0] > sups[1] > sups[2]

    def test_inactive_columns_are_nan(self):
        trace = run_twin(twin_config())
        assert np.all(np.isnan(trace.r_1d))
        assert np.all(np.isnan(trace.sphere_defect))
        trace_s = run_twin(twin_config(system=System.SPHERE, t_end=0.01))
        assert np.all(np.isnan(trace_s.r_d))
        assert np.all(np.isfinite(trace_s.sphere_defect))


class TestCheckGronwall:
    def test_zero_entropy_trace(self):
        tr = synthetic_trace([0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        rep = check_gronwall(tr, GronwallConfig())
        assert rep.passes and rep.minimal_c_h == 0.0

    def test_nonincreasing_entropy_needs_no_growth(self):
        tr = synthetic_trace([0, 0.1, 0.2], [1.0, 0.5, 0.25], [2.0, 2.0, 2.0])
        rep = check_gronwall(tr, GronwallConfig())
        assert rep.passes and rep.minimal_c_h == 0.0

    def test_exponential_growth_recovers_rate(self):
        # entropy e(t) = e0 * exp(3 H(t)) with h = 2 requires c = 3
        times = np.linspace(0.0, 1.0, 201)
        h = np.full_like(times, 2.0)
        ent = 1e-6 * np.exp(3.0 * 2.0 * times)
        rep = check_gronwall(synthetic_trace(times, ent, h), GronwallConfig())
        assert rep.passes
        assert rep.minimal_c_h == pytest.approx(3.0, rel=5e-3)
        # a uniform-ratio trace binds at every sample; the first is reported
        assert 0.0 < rep.worst_time <= 1.0

    def test_zero_start_with_growth_needs_slack(self):
        times = [0.0, 0.1, 0.2]
        ent = [0.0, 1e-13, 1e-13]
        tr = synthetic_trace(times, ent, [1.0, 1.0, 1.0])
        rep = check_gronwall(tr, GronwallConfig())
        assert not rep.passes and math.isinf(rep.minimal_c_h)
        rep2 = check_gronwall(tr, GronwallConfig(slack=1e-12))
        assert rep2.passes and rep2.minimal_c_h == 0.0

    def test_explicit_multiplier_monotone(self):
        times = np.linspace(0.0, 1.0, 101)
        ent = 1e-6 * np.exp(4.0 * times)
        tr = synthetic_trace(times, ent, np.ones_like(times))
        passed = [
            check_gronwall(tr, GronwallConfig(c_h=c)).passes
            for c in (1.0, 2.0, 4.5, 8.0, 16.0)
        ]
        # once true, stays true as c_h grows
        assert passed == sorted(passed)
        assert passed[-1] is True

    def test_empty_trace_rejected(self):
        tr = synthetic_trace([], [], [])
        with pytest.raises(VerifierError, match="empty"):
            check_gronwall(tr, GronwallConfig())

    def test_config_validation(self):
        with pytest.raises(TypeError, match="delta"):
            GronwallConfig(delta=0.125)
        with pytest.raises(VerifierError):
            GronwallConfig(c_h=0.0)
        with pytest.raises(VerifierError):
            GronwallConfig(slack=-1e-9)


@st.composite
def random_traces(draw):
    n = draw(st.integers(2, 25))
    steps = draw(st.lists(st.floats(1e-3, 0.5), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    entropy = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    h_hat = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    slack = draw(st.sampled_from([0.0, 1e-3]))
    return synthetic_trace(times, entropy, h_hat), slack


def _bound_holds(trace, slack, c):
    """entropy <= (E_0 + slack) exp(c H) at every sample, compared in logs.

    Samples within a relative 1e-12 of E_0 count as not growing, as in
    check_gronwall.
    """
    ent, h, times = trace.entropy, trace.h_hat, trace.times
    e0 = float(ent[0] + slack)
    h_int = 0.0
    for k in range(1, len(ent)):
        h_int += 0.5 * float(h[k] + h[k - 1]) * float(times[k] - times[k - 1])
        if ent[k] <= e0 * (1.0 + 1e-12):
            continue
        if e0 == 0.0:
            return False
        if math.log(ent[k]) - math.log(e0) > c * h_int * (1.0 + 1e-12):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_traces())
def test_minimal_multiplier_is_the_least_that_holds(case):
    trace, slack = case
    rep = check_gronwall(trace, GronwallConfig(slack=slack))
    c = rep.minimal_c_h
    e0 = float(trace.entropy[0] + slack)
    if c == 0.0:
        assert rep.passes and _bound_holds(trace, slack, 0.0)
    elif math.isinf(c):
        assert not rep.passes
        assert e0 == 0.0 or not _bound_holds(trace, slack, 1e300)
    else:
        assert rep.passes and _bound_holds(trace, slack, c)
        assert check_gronwall(trace, GronwallConfig(c_h=c, slack=slack)).passes
        k = int(np.flatnonzero(trace.times == rep.worst_time)[0])
        if math.log(trace.entropy[k]) - math.log(e0) > 1e-3:
            assert not _bound_holds(trace, slack, 0.999 * c)
            assert not check_gronwall(
                trace, GronwallConfig(c_h=0.999 * c, slack=slack)
            ).passes


class TestCheckEnergy:
    def test_equilibrium_equality(self):
        times = [0.0, 0.1, 0.2]
        tr = synthetic_trace(times, [0.0] * 3, [0.0] * 3)
        rep = check_energy(tr)
        assert rep.passes
        assert rep.max_violation_candidate == pytest.approx(0.0, abs=1e-15)

    def test_smooth_run_passes(self):
        trace = run_twin(twin_config(system=System.SPHERE, t_end=0.02))
        rep = check_energy(trace)
        assert rep.passes

    def test_inflated_energy_fails_at_first_violation(self):
        n = 5
        times = np.linspace(0.0, 0.4, n)
        tr = synthetic_trace(times, np.zeros(n), np.zeros(n))
        tr.energy_candidate = np.array([1.0, 1.0, 1.1, 1.1, 1.1])  # jump at t=0.2
        rep = check_energy(tr)
        assert not rep.passes
        assert rep.first_violation_time == pytest.approx(0.2)
        assert rep.max_violation_candidate == pytest.approx(0.1, rel=1e-9)


class TestCheckUniqueness:
    def test_exact_collapse_when_grids_match_reference(self):
        cfg = twin_config(n_ref=65, n_cand=65, dt=0.4 * Grid1D(65, 0, 1).dx ** 2,
                          t_end=0.01)
        rep = check_uniqueness(cfg, [65, 65, 65])
        assert rep.exact and rep.passes
        assert all(math.isinf(o) for o in rep.orders)

    def test_sup_is_the_entropy_of_the_level_twin(self, monkeypatch):
        cfg = twin_config(n_ref=65, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2,
                          t_end=0.01, amplitude=1e-3)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(65, 0, 1).dx ** 2)
        levels = [17, 33, 49]
        kappa = cfg.dt_candidate / cfg.grid_candidate.dx**2
        expected = []
        for n in levels:
            g = Grid1D(n, 0.0, 1.0)
            level_cfg = replace(cfg, perturbation=Perturbation(), grid_candidate=g,
                                dt_candidate=kappa * g.dx**2)
            expected.append(float(np.max(run_twin(level_cfg).entropy)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the collapse study evaluates the entropy only")

        for name in ("remainder", "energy", "dissipation"):
            monkeypatch.setattr(verifier, name, forbidden)
        rep = check_uniqueness(cfg, levels)
        assert rep.sup_entropy == expected
        assert all(s > 0.0 for s in expected)

    def test_requires_three_levels(self):
        with pytest.raises(VerifierError, match="3 refinement levels"):
            check_uniqueness(twin_config(), [65, 129])

    def test_perturbation_ignored_for_collapse(self):
        cfg = twin_config(n_ref=65, n_cand=65, dt=0.4 * Grid1D(65, 0, 1).dx ** 2,
                          t_end=0.01, amplitude=0.5)
        rep = check_uniqueness(cfg, [65, 65, 65])
        assert rep.exact  # amplitude was overridden to zero


class TestTraceValidation:
    def test_times_must_increase(self):
        with pytest.raises(VerifierError, match="increasing"):
            synthetic_trace([0.0, 0.2, 0.1], [0, 0, 0], [0, 0, 0])

    def test_active_columns_must_be_finite(self):
        with pytest.raises(VerifierError, match="non-finite"):
            synthetic_trace([0.0, 0.1], [0.0, np.nan], [0.0, 0.0])

    def test_config_invariants(self):
        with pytest.raises(VerifierError, match="share endpoints"):
            ExperimentConfig(
                params=GL,
                grid_reference=Grid1D(65, 0.0, 1.0),
                grid_candidate=Grid1D(65, 0.0, 2.0),
                dt_reference=1e-4, dt_candidate=1e-4,
                t_end=0.1, initial_preset="gl-smooth",
            )
        with pytest.raises(VerifierError, match="samples"):
            twin_config(sample_interval=1e-9)
