import gc
import inspect
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab import dynamics, verifier
from nemlab.constitutive import ConstitutiveError, Params, System
from nemlab.dynamics import CflError, SolverError, State
from nemlab.functionals import (
    ENERGY_WINDOW,
    QUARTETS,
    FunctionalError,
    NonFiniteError,
    energy_dissipation,
)
from nemlab.grid import Grid1D
from nemlab.verifier import (
    TRACE_COLUMNS,
    EntropyTrace,
    ExperimentConfig,
    GronwallConfig,
    Perturbation,
    VerifierError,
    check_energy,
    check_gronwall,
    check_uniqueness,
    make_initial_data,
    restrict_state,
    run_twin,
)

GL = Params(system=System.GL)
SPH = Params(system=System.SPHERE)


def restrict(values, src, dst):
    """The cubic restriction restrict_state applies to its stacked rows."""
    return verifier._restrict((np.asarray(values, dtype=float),), verifier._cubic_stencil(src, dst))


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
        assert init.u0[0] == 0.0 and init.u0[-1] == 0.0
        assert np.min(init.rho0) > 0.5
        mag = np.sqrt(np.sum(init.d0**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12

    def test_sphere_preset_neumann_compatible(self):
        g = Grid1D(257, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", g, SPH)
        mag = np.sqrt(np.sum(init.d0**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12
        # endpoint slope vanishes analytically; discretely O(dx^2)
        slope = (init.d0[:, 1] - init.d0[:, 0]) / g.dx
        assert np.max(np.abs(slope)) <= 5.0 * g.dx

    def test_gl_perturbation_preserves_endpoints(self):
        g = Grid1D(97, 0.0, 1.0)
        base = make_initial_data("gl-smooth", g, GL)
        pert = make_initial_data("gl-smooth", g, GL, Perturbation(1e-3, 3))
        assert np.array_equal(pert.d0[:, 0], base.d0[:, 0])
        assert np.array_equal(pert.d0[:, -1], base.d0[:, -1])
        assert not np.array_equal(pert.rho0, base.rho0)

    def test_sphere_perturbation_keeps_unit_length(self):
        g = Grid1D(97, 0.0, 1.0)
        pert = make_initial_data("sphere-smooth", g, SPH, Perturbation(1e-2, 2))
        mag = np.sqrt(np.sum(pert.d0**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-12

    def test_zero_amplitude_is_bitwise_unperturbed(self):
        g = Grid1D(97, 0.0, 1.0)
        base = make_initial_data("gl-smooth", g, GL)
        zero = make_initial_data("gl-smooth", g, GL, Perturbation(0.0, 5))
        assert np.array_equal(base.rho0, zero.rho0)
        assert np.array_equal(base.d0, zero.d0)

    @pytest.mark.parametrize("n", [6, 11, 21])
    @pytest.mark.parametrize("params", [GL, SPH], ids=["gl", "sphere"])
    def test_velocity_walls_are_exact_zeros_on_a_tiny_domain(self, params, n):
        # the last node lies an ulp past x_max, where the bump is not 0
        g = Grid1D(n, 0.0, 1e-5)
        assert g.nodes()[-1] > g.x_max
        init = make_initial_data(f"{params.system.value}-smooth", g, params)
        assert init.u0[0] == 0.0 and init.u0[-1] == 0.0

    def test_datum_initial_data_rejects_is_a_verifier_error(self, monkeypatch):
        def rejecting(*args):
            raise ValueError("initial velocity must vanish at both endpoints")

        monkeypatch.setattr(verifier, "InitialData", rejecting)
        with pytest.raises(VerifierError, match="^initial_preset 'gl-smooth': initial velocity "
                                                "must vanish at both endpoints$"):
            make_initial_data("gl-smooth", Grid1D(17, 0.0, 1.0), GL)

    @pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_amplitude_rejected_by_name(self, amplitude):
        # it used to reach make_initial_data, which blamed rho0 (GL, after
        # two numpy warnings) or a nonpositive density (SPHERE), or raised
        # OverflowError for an integer beyond the float range
        with pytest.raises(VerifierError, match=f"^perturbation.amplitude must be finite, "
                                                f"got {amplitude}$"):
            Perturbation(amplitude=amplitude, mode=2)

    @pytest.mark.parametrize("mode", [2.5, 2.0, True, np.int64(2), "2", 0, -1])
    def test_mode_that_is_not_a_positive_integer_rejected(self, mode):
        # parse_config's rule and message: mode 2.5 gave the SPHERE shape
        # cos(2.5 pi s), whose slope at the right wall is not zero
        with pytest.raises(VerifierError, match=re.escape(
                f"perturbation.mode must be a positive integer, got {mode!r}")):
            Perturbation(amplitude=1e-2, mode=mode)

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
        state = State(g, 1.0 + vals**2, vals, np.array((vals, vals, vals)))
        assert restrict_state(state, Grid1D(65, 0.0, 1.0), System.GL) is state

    def test_nodal_exactness_on_nested_grids(self):
        fine = Grid1D(129, 0.0, 1.0)
        coarse = Grid1D(65, 0.0, 1.0)
        vals = np.sin(2 * np.pi * fine.nodes())
        out = restrict(vals, fine, coarse)
        assert np.array_equal(out, vals[::2])

    def test_reproduces_cubics(self):
        src = Grid1D(33, 0.0, 1.0)
        dst = Grid1D(97, 0.0, 1.0)
        x = src.nodes()
        vals = 2.0 - x + 3.0 * x**2 - 0.5 * x**3
        out = restrict(vals, src, dst)
        xd = dst.nodes()
        exact = 2.0 - xd + 3.0 * xd**2 - 0.5 * xd**3
        assert np.allclose(out, exact, atol=1e-13)

    def test_fourth_order_on_smooth_fields(self):
        dst = Grid1D(53, 0.0, 1.0)
        errs = []
        for n in (65, 129, 257):
            src = Grid1D(n, 0.0, 1.0)
            vals = np.sin(2 * np.pi * src.nodes())
            out = restrict(vals, src, dst)
            errs.append(np.max(np.abs(out - np.sin(2 * np.pi * dst.nodes()))))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 3.0 for o in orders)

    def test_restrict_state_renormalizes_sphere_director(self):
        src = Grid1D(129, 0.0, 1.0)
        init = make_initial_data("sphere-smooth", src, SPH)
        st = State(src, init.rho0, init.u0, init.d0)
        out = restrict_state(st, Grid1D(65, 0.0, 1.0), System.SPHERE)
        mag = np.sqrt(np.sum(out.d**2, axis=0))
        assert np.max(np.abs(mag - 1.0)) <= 1e-14


_FINITE_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_from=st.integers(5, 200), n_to=st.integers(5, 200),
       x_min=st.floats(-10.0, 10.0), length=st.floats(0.1, 10.0),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), data=st.data())
def test_restriction_identity_and_cubic_exactness(n_from, n_to, x_min, length, coeffs, data):
    x_max = x_min + length
    src = Grid1D(n_from, x_min, x_max)
    dst = Grid1D(n_to, x_min, x_max)
    vals = np.array(data.draw(st.lists(_FINITE_VALUES, min_size=n_from, max_size=n_from)))
    state = State(src, vals, vals, np.array((vals, vals, vals)))
    same = restrict_state(state, Grid1D(n_from, x_min, x_max), System.GL)
    assert same is state and same.u.tobytes() == vals.tobytes()

    def cubic(grid):
        s = (grid.nodes() - x_min) / length
        return ((coeffs[3] * s + coeffs[2]) * s + coeffs[1]) * s + coeffs[0]

    err = np.max(np.abs(restrict(cubic(src), src, dst) - cubic(dst)))
    # sum |c_k| bounds the cubic on the domain; below the normal range each
    # sampled value is off by up to half of ulp(0), not by a relative error
    assert err <= 1e-12 * sum(abs(c) for c in coeffs) + 4 * math.ulp(0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_from=st.integers(5, 120), n_to=st.integers(5, 120),
       system=st.sampled_from(list(System)), seed=st.integers(0, 2**32 - 1))
def test_restrict_state_is_the_stencil_of_each_field(n_from, n_to, system, seed):
    src = Grid1D(n_from, 0.0, 1.0)
    dst = Grid1D(n_to, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(3, n_from))
    if system is System.SPHERE:
        d /= np.sqrt(np.sum(d * d, axis=0))
    state = State(src, 1.0 + rng.random(n_from), rng.normal(size=n_from), d)
    out = restrict_state(state, dst, system)
    if src == dst:
        assert out is state
        return
    d_to = restrict(d, src, dst)
    # the stencil written out: the four weighted values summed left to right
    pos = dst.nodes() / src.dx
    j = np.clip(np.floor(pos).astype(int), 1, n_from - 3)
    t = pos - j
    chain = (d[:, j - 1] * (-t * (t - 1.0) * (t - 2.0) / 6.0)
             + d[:, j] * ((t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0)
             + d[:, j + 1] * (-t * (t + 1.0) * (t - 2.0) / 2.0)
             + d[:, j + 2] * (t * (t + 1.0) * (t - 1.0) / 6.0))
    assert d_to.tobytes() == chain.tobytes()
    if system is System.SPHERE:
        d_to = d_to / np.sqrt(np.sum(d_to * d_to, axis=0))
    for got, want in ((out.rho, restrict(state.rho, src, dst)),
                      (out.u, restrict(state.u, src, dst)),
                      (out.d, d_to)):
        assert got.tobytes() == want.tobytes()


def test_each_grid_pair_gets_its_own_stencil():
    # the stencils are cached per (grid_from, grid_to): restricting from a
    # second source grid onto the same target, and back, must not reuse
    # the other pair's stencil
    def cubic(grid):
        x = grid.nodes()
        return 2.0 - x + 3.0 * x**2 - 0.5 * x**3

    dst = Grid1D(17, 0.0, 1.0)
    first = None
    for n in (33, 40, 33):
        src = Grid1D(n, 0.0, 1.0)
        out = restrict(cubic(src), src, dst)
        assert np.allclose(out, cubic(dst), atol=1e-13)
        if first is None:
            first = out
    assert out.tobytes() == first.tobytes()


def _weighted_sum(vals, src, dst):
    """The 4-point stencil written out: the four weighted values, summed by
    numpy's reduction as _restrict's interpolating path sums them (it
    starts from +0.0, so four -0.0 products sum to +0.0)."""
    pos = (dst.nodes() - src.x_min) / src.dx
    j = np.clip(np.floor(pos).astype(int), 1, src.n_nodes - 3)
    t = pos - j
    return np.array([vals[..., j - 1] * (-t * (t - 1.0) * (t - 2.0) / 6.0),
                     vals[..., j] * ((t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0),
                     vals[..., j + 1] * (-t * (t + 1.0) * (t - 2.0) / 2.0),
                     vals[..., j + 2] * (t * (t + 1.0) * (t - 1.0) / 6.0)]).sum(axis=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(intervals=st.sampled_from([4, 8, 16, 32, 64]), ratio=st.sampled_from([2, 4, 8, 16]),
       x_min=st.sampled_from([0.0, -1.0, 3.0, -0.5]), length=st.sampled_from([1.0, 2.0, 0.5]),
       rows=st.integers(1, 5), zero_share=st.sampled_from([0.0, 0.01, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_nested_grids_gather_the_weighted_sum_bit_for_bit(intervals, ratio, x_min, length,
                                                          rows, zero_share, seed):
    # every battery and benchmark pair is of this kind: 513 to 257, and 513
    # (or 257, 1025) to 33, 65 and 129
    src = Grid1D(intervals * ratio + 1, x_min, x_min + length)
    dst = Grid1D(intervals + 1, x_min, x_min + length)
    assert verifier._cubic_stencil(src, dst).nodes == slice(0, src.n_nodes, ratio)
    # finite values of either sign over most of the float range, some of
    # them zeros of either sign: a -0.0 is the one value a gather and the
    # weighted sum can disagree on
    rng = np.random.default_rng(seed)
    shape = (rows, src.n_nodes)
    vals = rng.choice([-1.0, 1.0], shape) * 2.0 ** rng.uniform(-1070.0, 1020.0, shape)
    zeros = rng.random(shape) < zero_share
    vals[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    assert restrict(vals, src, dst).tobytes() == _weighted_sum(vals, src, dst).tobytes()
    assert restrict(vals[0], src, dst).tobytes() == _weighted_sum(vals[0], src, dst).tobytes()


@pytest.mark.parametrize("node", [0, 2, 16])
def test_a_negative_zero_takes_the_weighted_sum(node):
    # the gather would read -0.0 at the target of source node `node` (the
    # walls included); the weighted sum decides that zero's sign
    src, dst = Grid1D(17, 0.0, 1.0), Grid1D(9, 0.0, 1.0)
    vals = np.ones((2, 17))
    vals[:, node] = -0.0
    vals[1, node + (1 if node < 16 else -1)] = -1.0
    out = restrict(vals, src, dst)
    assert out.tobytes() == _weighted_sum(vals, src, dst).tobytes()


@pytest.mark.parametrize("n_from, n_to", [(40, 17), (513, 250), (65, 48)])
def test_non_nested_grids_take_the_cubic_path(n_from, n_to):
    src, dst = Grid1D(n_from, 0.0, 1.0), Grid1D(n_to, 0.0, 1.0)
    assert verifier._cubic_stencil(src, dst).nodes is None
    vals = np.random.default_rng(n_from).normal(size=(5, n_from))
    assert restrict(vals, src, dst).tobytes() == _weighted_sum(vals, src, dst).tobytes()


@pytest.mark.parametrize("n_from, n_to", [(513, 257), (513, 33), (129, 65), (40, 17)])
@pytest.mark.parametrize("system", list(System))
def test_restrict_state_on_nested_and_other_grids(n_from, n_to, system):
    src, dst = Grid1D(n_from, 0.0, 1.0), Grid1D(n_to, 0.0, 1.0)
    rng = np.random.default_rng(n_from + n_to)
    d = rng.normal(size=(3, n_from))
    d /= np.sqrt(np.sum(d * d, axis=0))
    state = State(src, 1.0 + rng.random(n_from), rng.normal(size=n_from), d)
    out = restrict_state(state, dst, system)
    d_to = restrict(d, src, dst)
    if system is System.SPHERE:
        d_to = d_to / np.sqrt(np.sum(d_to * d_to, axis=0))
    for got, want in ((out.rho, restrict(state.rho, src, dst)),
                      (out.u, restrict(state.u, src, dst)), (out.d, d_to)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


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


def _record_runs(monkeypatch, module):
    """Record, per evolve call of module, the samples its observer gets, or
    its lazy form hands out: member 0's state (the reference in a verifier
    run)."""
    runs = []
    original = module.evolve

    def recording(*args, observer=None, **kwargs):
        samples = []
        runs.append(samples)
        if observer is None:  # the lazy form: each sample as it is drawn
            lazy = original(*args, **kwargs)

            def drawn():
                for states, t in lazy:
                    samples.append(states[0])
                    yield states, t

            return drawn()

        def observe(states, t):
            samples.append(states[0] if isinstance(states, tuple) else states)
            observer(states, t)

        return original(*args, observer=observe, **kwargs)

    monkeypatch.setattr(module, "evolve", recording)
    return runs


W = ENERGY_WINDOW


@pytest.mark.parametrize("count", [2, W - 1, W, W + 1, 2 * W + 3])
@pytest.mark.parametrize("system", list(System))
@pytest.mark.parametrize("n_cand", [33, 17], ids=["lockstep", "streamed"])
def test_reference_energies_are_energy_dissipation_bit_for_bit(monkeypatch, n_cand, system,
                                                                count):
    # the reference's energy and dissipation come from one pass per window
    # of samples, the last window partial or full
    runs = _record_runs(monkeypatch, verifier)
    cfg = twin_config(system, n_ref=33, n_cand=n_cand, t_end=0.004, amplitude=1e-3,
                      sample_interval=0.004 / (count - 1))
    trace = run_twin(cfg)
    expected = np.array([energy_dissipation(state, cfg.params) for state in runs[0]])
    assert len(trace) == count and len(runs) == (1 if n_cand == 33 else 2)
    assert trace.energy_reference.tobytes() == expected[:, 0].tobytes()
    assert trace.dissipation_reference.tobytes() == expected[:, 1].tobytes()


def test_twins_and_the_collapse_study_leave_no_cyclic_garbage(monkeypatch):
    # a reference cycle would keep run_twin's EnergyWindow buffers and
    # columns alive until the cyclic collector runs, raising peak memory;
    # a streamed twin that raises must leave none either, nor a trajectory
    # suspended between two samples
    cfg = twin_config(n_ref=65, n_cand=65, dt=0.4 * Grid1D(65, 0, 1).dx ** 2, t_end=0.004)
    streamed = replace(cfg, grid_candidate=Grid1D(33, 0.0, 1.0))
    evolve, advance, evaluate = verifier.evolve, dynamics._advance, verifier.remainder
    lazy = []  # the trajectories evolve handed out as iterators
    calls = []  # the remainder calls of the last run

    def recording(*args, **kwargs):
        result = evolve(*args, **kwargs)
        if inspect.isgenerator(result):
            lazy.append(result)
        return result

    def aborting_on(n):
        steps = []

        def step(work, *args):  # the sixth step on the n-node grid fails
            if work.rho.shape[-1] == n:
                steps.append(n)
                if len(steps) == 6:
                    raise CflError("dt exceeds the stability bound", member=0)
            return advance(work, *args)

        return step

    def third_pair_fails(pairs, params):
        calls.append(len(pairs))
        if len(calls) == 3:
            raise FunctionalError("the pair failed")
        return evaluate(pairs, params)

    def failing(module, name, replacement):
        def run():
            with monkeypatch.context() as m:
                m.setattr(module, name, replacement)
                try:
                    run_twin(streamed)
                except (SolverError, FunctionalError) as exc:
                    # pytest.raises would keep the error, and its traceback's
                    # frames, in a cycle of its own
                    return f"{type(exc).__name__}: {exc}"
        return run

    monkeypatch.setattr(verifier, "evolve", recording)
    runs = (lambda: run_twin(replace(cfg, perturbation=Perturbation(1e-3, 2))),  # lockstep
            lambda: run_twin(streamed),
            lambda: check_uniqueness(cfg, [17, 33, 65]),
            failing(dynamics, "_advance", aborting_on(33)),  # the candidate aborts
            failing(dynamics, "_advance", aborting_on(65)),  # the reference aborts
            failing(verifier, "remainder", third_pair_fails))
    gc.collect()
    gc.disable()
    try:
        collected, outcomes = [], []
        for run in runs:
            outcomes.append(run())
            assert all(samples.gi_frame is None for samples in lazy)  # closed or finished
            lazy.clear()
            collected.append(gc.collect())
    finally:
        gc.enable()
    assert collected == [0] * len(runs)
    # six windows of one step each: the sixth step starts at t = 5 * t_end/50
    for outcome, who in zip(outcomes[3:5], ("candidate", "reference")):
        assert outcome == f"CflError: {who} trajectory: at t=0.0004: dt exceeds the stability bound"
    assert outcomes[5] == "FunctionalError: the pair failed"


def _peak_growth(run, counts=(128, 256)):
    """The tracemalloc peaks of run(samples) for each sample count, after
    one untraced run of the first: what a first run leaves in module
    caches is not the run's own memory."""
    run(counts[0])
    peaks = []
    for samples in counts:
        tracemalloc.start()
        try:
            run(samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestStreamedTwin:
    def test_restricts_each_reference_sample_once(self, monkeypatch):
        calls = []
        original = verifier.restrict_state

        def counting(state, grid_to, system):
            calls.append(state.grid.n_nodes)
            return original(state, grid_to, system)

        monkeypatch.setattr(verifier, "restrict_state", counting)
        trace = run_twin(twin_config(n_ref=65, n_cand=33, amplitude=1e-3))
        assert calls == [65] * len(trace)

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_peak_memory_holds_the_reference_on_the_candidate_grid(self, system):
        n_ref, dt = 257, 2e-4
        cfg = twin_config(system, n_ref=n_ref, n_cand=33, dt=dt, t_end=0.03,
                          amplitude=1e-3, sample_interval=dt)
        tracemalloc.start()
        try:
            trace = run_twin(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 151
        # storing every reference sample on its own grid (rho, u and three
        # director components) would take samples * n_ref * 5 doubles
        assert peak < 0.5 * len(trace) * n_ref * 5 * 8

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_peak_memory_grows_with_the_samples_only_on_the_candidate_grid(self, system):
        # doubling the samples at a fixed interval adds their candidate-grid
        # rows (the restricted reference, 5 * n_cand doubles) and their trace
        # columns; the reference's energy window holds a fixed number of
        # samples, so nothing of size samples * n_ref may grow
        n_ref, n_cand, dt = 257, 65, 2e-4
        peaks, columns = [], 0
        for samples in (128, 256):
            cfg = twin_config(system, n_ref=n_ref, n_cand=n_cand, dt=dt,
                              t_end=(samples - 1) * dt, amplitude=1e-3, sample_interval=dt)
            tracemalloc.start()
            try:
                trace = run_twin(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(trace) == samples
            columns = len(TRACE_COLUMNS) + len(trace.terms)
        per_sample = 8 * (5 * n_cand + columns)
        assert peaks[1] - peaks[0] <= 1.1 * 128 * per_sample
        # one reference sample per stored sample would add 128 * 5 * n_ref doubles
        assert 1.1 * 128 * per_sample < 128 * 5 * n_ref * 8 / 2

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_peak_memory_grows_with_the_samples_only_by_the_trace_columns(self, system):
        # the candidate is advanced one window per reference sample, so no
        # sample outlives its pair: doubling the samples adds their trace
        # columns, and no restricted reference sample (5 * n_cand doubles
        # each, 333 KB over 128 samples where every one was stored)
        n_ref, n_cand, dt = 257, 65, 2e-4
        traces = []

        def run(samples):
            traces.append(run_twin(twin_config(system, n_ref=n_ref, n_cand=n_cand, dt=dt,
                                               t_end=(samples - 1) * dt, amplitude=1e-3,
                                               sample_interval=dt)))

        peaks = _peak_growth(run)
        assert [len(trace) for trace in traces] == [128, 128, 256]
        columns = len(TRACE_COLUMNS) + len(traces[-1].terms)
        assert peaks[1] - peaks[0] <= 1.1 * 128 * 8 * columns

    def test_pair_evaluation_error_propagates_untagged(self, monkeypatch):
        def failing(pair, params):
            raise FunctionalError("remainder rejected the pair")

        monkeypatch.setattr(verifier, "remainder", failing)
        with pytest.raises(FunctionalError) as info:
            run_twin(twin_config(n_ref=65, n_cand=33, amplitude=1e-3))
        assert str(info.value) == "remainder rejected the pair"

    @pytest.mark.parametrize("failing_pair", [None, 0, 2])
    def test_stored_samples_are_paired_before_a_reference_error(self, failing_pair):
        # the lockstep order: a pair evaluated before the reference fails
        # comes first, so its error wins; else the reference's propagates
        cfg = twin_config(n_ref=65, n_cand=33, amplitude=1e-3, t_end=0.01)
        init = make_initial_data(cfg.initial_preset, cfg.grid_candidate, cfg.params,
                                 cfg.perturbation)
        stored, paired = [], []

        def on_reference(state, t):
            stored.append(t)
            if len(stored) == 4:
                raise FunctionalError("the reference failed")

        def row(i, t, pair):
            paired.append(t)
            if len(paired) - 1 == failing_pair:
                raise FunctionalError("the pair failed")

        which = "reference" if failing_pair is None else "pair"
        with pytest.raises(FunctionalError, match=f"^the {which} failed$"):
            verifier._pair_samples(cfg, [(init, cfg.dt_candidate)], row, on_reference)
        # the candidate ran only as far as the stored samples
        assert paired == pytest.approx(stored[:len(paired)])
        assert len(paired) == (4 if failing_pair is None else failing_pair + 1)

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_columns_hold_what_remainder_returns(self, system, monkeypatch):
        returned = []
        original = verifier.remainder

        def recording(pairs, params):
            rows = original(pairs, params)
            returned.extend(rows)
            return rows

        monkeypatch.setattr(verifier, "remainder", recording)
        trace = run_twin(twin_config(system, n_ref=65, n_cand=33, amplitude=1e-3,
                                     t_end=0.01))
        assert len(returned) == len(trace)
        for k, br in enumerate(returned):
            assert trace.h_hat[k] == br.h_hat
            assert {name: getattr(trace, name)[k] for name in QUARTETS[system]} == br.quartet
            expected = {**br.terms, **{f"h_{n}": v for n, v in br.h_terms.items()},
                        "reorg_mismatch": br.reorg_mismatch}
            assert {name: col[k] for name, col in trace.terms.items()} == expected
        assert np.max(np.abs(trace.terms["reorg_mismatch"])) > 0.0

    @pytest.mark.parametrize("which", ["reference", "candidate"])
    def test_solver_abort_keeps_its_trajectory_tag(self, which):
        # one sample window of 0.02 forces an effective step far beyond the
        # advective/acoustic bound in the trajectory given dt = 0.5
        cfg = replace(twin_config(sample_interval=0.02), **{f"dt_{which}": 0.5})
        with pytest.raises(CflError, match=f"^{which} trajectory: at t=0:"):
            run_twin(cfg)


def _counting_evolve(monkeypatch):
    """Record the member count of every evolve call the verifier makes."""
    calls = []
    original = verifier.evolve

    def counting(init, *args, **kwargs):
        calls.append(1 if isinstance(init, verifier.InitialData) else len(init))
        return original(init, *args, **kwargs)

    monkeypatch.setattr(verifier, "evolve", counting)
    return calls


class TestLockstepTwin:
    """Equal-grid, equal-dt twins advance as one two-member evolve."""

    def test_trace_columns_are_held_once_at_the_end(self):
        # a sample per step on a small grid: the trace columns outgrow every
        # per-sample buffer, so the peak comes as the run ends, and doubling
        # the samples adds their columns once; copying the packed columns
        # into new arrays there would add them twice
        n, dt = 17, 2e-4
        traces = []

        def run(samples):
            traces.append(run_twin(twin_config(n_ref=n, n_cand=n, dt=dt, amplitude=1e-3,
                                               t_end=(samples - 1) * dt, sample_interval=dt)))

        peaks = _peak_growth(run, counts=(1024, 2048))
        assert [len(trace) for trace in traces] == [1024, 1024, 2048]
        # the packed columns over-allocate by up to 1/16 as they grow
        added = 1024 * 8 * (len(TRACE_COLUMNS) + len(traces[-1].terms))
        assert 0.9 * added <= peaks[1] - peaks[0] <= 1.25 * added

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_one_evolve_no_restriction_same_columns(self, system, monkeypatch):
        cfg = twin_config(system, amplitude=1e-3, t_end=0.02)
        calls = _counting_evolve(monkeypatch)

        def no_restriction(*args):
            raise AssertionError("a lockstep twin restricts nothing")

        with monkeypatch.context() as m:
            m.setattr(verifier, "restrict_state", no_restriction)
            lockstep = run_twin(cfg)
        assert calls == [2]

        # dt one ulp larger takes the two-run path with the same steps: every
        # window of length L takes ceil(L/dt) steps of L/ceil(L/dt) either way
        streamed = run_twin(replace(cfg, dt_reference=np.nextafter(cfg.dt_reference, 1.0)))
        assert calls == [2, 1, 1]
        assert len(lockstep) == len(streamed) == 51
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(getattr(lockstep, name), getattr(streamed, name),
                                          err_msg=name)
        # every per-term column, the h_hat terms and the mismatch included
        assert list(lockstep.terms) == list(streamed.terms)
        assert any(name.startswith("h_") for name in lockstep.terms)
        for name, col in lockstep.terms.items():
            assert col.tobytes() == streamed.terms[name].tobytes(), name

    @pytest.mark.parametrize("count", [2, W - 1, W, W + 1, 2 * W + 3])
    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_windows_of_rows_give_the_streamed_columns(self, system, count, monkeypatch):
        # a lockstep twin's rows are evaluated ENERGY_WINDOW samples per
        # remainder call, the last window partial or full
        cfg = twin_config(system, n_ref=33, n_cand=33, amplitude=1e-3, t_end=0.004,
                          sample_interval=0.004 / (count - 1))
        windows = []
        original = verifier.remainder

        def counting(pairs, params):
            windows.append(len(pairs))
            return original(pairs, params)

        with monkeypatch.context() as m:
            m.setattr(verifier, "remainder", counting)
            lockstep = run_twin(cfg)
        assert windows == [W] * (count // W) + ([count % W] if count % W else [])
        streamed = run_twin(replace(cfg, dt_reference=np.nextafter(cfg.dt_reference, 1.0)))
        assert len(lockstep) == len(streamed) == count
        for name in TRACE_COLUMNS:
            assert getattr(lockstep, name).tobytes() == getattr(streamed, name).tobytes(), name
        assert list(lockstep.terms) == list(streamed.terms)
        for name, col in lockstep.terms.items():
            assert col.tobytes() == streamed.terms[name].tobytes(), name

    @pytest.mark.parametrize("bad_pair", [True, False])
    def test_a_bad_pair_mid_window_comes_before_a_later_abort(self, monkeypatch, bad_pair):
        # the pair at the third sample fails; the candidate aborts after the
        # sixth, before the window of ENERGY_WINDOW samples is full
        cfg = twin_config(n_ref=33, n_cand=33, amplitude=1e-3, t_end=0.01)
        original = verifier.evolve

        def aborting(inits, *args, observer, **kwargs):
            samples = 0

            def observe(states, t):
                nonlocal samples
                reference, cand = states
                if samples == 2 and bad_pair:
                    rho = cand.rho.copy()
                    rho[5] = -1e-3
                    states = (reference, State(cand.grid, rho, cand.u, cand.d))
                observer(states, t)
                samples += 1
                if samples == 6:
                    raise CflError("dt exceeds the stability bound", member=1)

            return original(inits, *args, observer=observe, **kwargs)

        monkeypatch.setattr(verifier, "evolve", aborting)
        assert 6 < W
        if bad_pair:
            with pytest.raises(ConstitutiveError, match="^density must be nonnegative$"):
                run_twin(cfg)
        else:
            with pytest.raises(CflError, match="^candidate trajectory: dt exceeds the "
                                               "stability bound$"):
                run_twin(cfg)

    @pytest.mark.parametrize("bad", [0, 3, W - 1])
    def test_a_bad_pair_costs_its_window_one_remainder_call(self, monkeypatch, bad):
        # the window's error names its pair: no pair is evaluated again
        cfg = twin_config(n_ref=33, n_cand=33, amplitude=1e-3, t_end=0.01)
        evolve, evaluate, windows = verifier.evolve, verifier.remainder, []

        def editing(inits, *args, observer, **kwargs):
            samples = 0

            def observe(states, t):
                nonlocal samples
                reference, cand = states
                if samples == bad:
                    rho = cand.rho.copy()
                    rho[5] = -1e-3
                    states = (reference, State(cand.grid, rho, cand.u, cand.d))
                observer(states, t)
                samples += 1

            return evolve(inits, *args, observer=observe, **kwargs)

        def counting(pairs, params):
            windows.append(len(pairs))
            return evaluate(pairs, params)

        monkeypatch.setattr(verifier, "evolve", editing)
        monkeypatch.setattr(verifier, "remainder", counting)
        with pytest.raises(ConstitutiveError, match="^density must be nonnegative$"):
            run_twin(cfg)
        assert windows == [W]

    def test_a_non_finite_row_takes_the_time_of_the_pair_it_names(self, monkeypatch):
        def failing(pairs, params):
            exc = NonFiniteError("non-finite Gronwall coefficient")
            exc.sample = 3
            raise exc

        monkeypatch.setattr(verifier, "remainder", failing)
        cfg = twin_config(n_ref=33, n_cand=33, amplitude=1e-3, t_end=0.01)
        with pytest.raises(NonFiniteError, match="^non-finite Gronwall coefficient at t=0.0006$"):
            run_twin(cfg)

    def test_unequal_grids_or_steps_run_one_trajectory_at_a_time(self, monkeypatch):
        calls = _counting_evolve(monkeypatch)
        run_twin(twin_config(n_ref=65, n_cand=33, t_end=0.01))
        run_twin(replace(twin_config(t_end=0.01), dt_candidate=1e-4))
        assert calls == [1, 1, 1, 1]

    def _cfl_limit(self, init):
        # the documented bound 0.4*dx over max |u| + sqrt(a gamma rho^(gamma-1))
        speed = np.max(np.abs(init.u0)) + np.sqrt(2.0 * np.max(init.rho0))
        return 0.4 * init.grid.dx / speed

    @pytest.mark.parametrize("which", ["candidate", "both"])
    def test_abort_names_the_member_that_fails(self, which):
        cfg = twin_config(amplitude=0.5, mode=1)
        ref = make_initial_data(cfg.initial_preset, cfg.grid_reference, GL)
        cand = make_initial_data(cfg.initial_preset, cfg.grid_candidate, GL, cfg.perturbation)
        lo, hi = sorted((self._cfl_limit(ref), self._cfl_limit(cand)))
        assert self._cfl_limit(cand) == lo and hi > 1.1 * lo
        # a dt between the limits breaks only the perturbed candidate; one
        # above both breaks both, and the reference is named first
        dt = 0.5 * (lo + hi) if which == "candidate" else 1.1 * hi
        cfg = replace(cfg, dt_reference=dt, dt_candidate=dt, t_end=4 * dt,
                      sample_interval=4 * dt)
        tag = "candidate" if which == "candidate" else "reference"
        with pytest.raises(CflError, match=f"^{tag} trajectory: at t=0:"):
            run_twin(cfg)


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

    def test_growth_without_h_hat_is_not_certified(self):
        # negative control: entropy grows from the third sample while the
        # growth-rate surrogate is zero, so no multiplier can cover it
        tr = synthetic_trace([0.0, 0.1, 0.2, 0.3], [1e-6, 1e-6, 2e-6, 3e-6], [0.0] * 4)
        rep = check_gronwall(tr, GronwallConfig())
        assert rep.minimal_c_h == math.inf
        assert rep.passes is False
        assert rep.worst_time == 0.2

    def test_empty_trace_rejected(self):
        tr = synthetic_trace([], [], [])
        with pytest.raises(VerifierError, match="empty"):
            check_gronwall(tr, GronwallConfig())

    @pytest.mark.parametrize("kwargs, message", [
        # on a GL 33 -> 17 identical twin minimal_c_h is inf, and either
        # infinite knob made that certificate pass; a NaN slack made
        # minimal_c_h NaN
        ({"c_h": math.inf}, "gronwall.c_h must be finite, got inf"),
        ({"c_h": math.nan}, "gronwall.c_h must be finite, got nan"),
        ({"slack": math.inf}, "gronwall.slack must be finite, got inf"),
        ({"slack": math.nan}, "gronwall.slack must be finite, got nan"),
        ({"c_h": 10**400}, f"gronwall.c_h must be finite, got {10**400}"),
    ], ids=["c_h-inf", "c_h-nan", "slack-inf", "slack-nan", "c_h-beyond-floats"])
    def test_non_finite_knob_rejected_by_name(self, kwargs, message):
        with pytest.raises(VerifierError, match=f"^{re.escape(message)}$"):
            GronwallConfig(**kwargs)

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

    def test_reference_and_candidate_violations_both_reported(self):
        # the reference gains energy at t=0.1, the candidate later at t=0.3:
        # the earliest violation is the reference's, and each side keeps
        # its own maximum
        n = 5
        times = np.linspace(0.0, 0.4, n)
        tr = synthetic_trace(times, np.zeros(n), np.zeros(n))
        tr.energy_reference = np.array([1.0, 1.2, 1.2, 1.2, 1.2])
        tr.energy_candidate = np.array([1.0, 1.0, 1.0, 1.05, 1.05])
        rep = check_energy(tr)
        assert not rep.passes
        assert rep.first_violation_time == pytest.approx(0.1)
        assert rep.max_violation_reference == pytest.approx(0.2, rel=1e-9)
        assert rep.max_violation_candidate == pytest.approx(0.05, rel=1e-9)
        tr.energy_reference = np.ones(n)
        rep = check_energy(tr)
        assert rep.first_violation_time == pytest.approx(0.3)
        assert rep.max_violation_reference == 0.0

    def test_one_sample_trace_reports_zero(self):
        rep = check_energy(synthetic_trace([0.0], [0.0], [0.0]))
        assert rep.passes
        assert (rep.max_violation_candidate, rep.max_violation_reference) == (0.0, 0.0)
        assert rep.first_violation_time is None

    def test_empty_trace_rejected(self):
        with pytest.raises(VerifierError, match="^empty trace$"):
            check_energy(synthetic_trace([], [], []))

    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_energy_injected_into_a_twin_is_named(self, k):
        # negative control: a real trace passes, the same trace with energy
        # injected at sample k fails there
        trace = run_twin(twin_config(n_ref=33, n_cand=33, t_end=0.02, amplitude=1e-3))
        assert check_energy(trace).passes
        energy = trace.energy_candidate.copy()
        energy[k] *= 1.01
        rep = check_energy(replace(trace, energy_candidate=energy))
        assert not rep.passes
        assert rep.first_violation_time == trace.times[k]


class TestCheckUniqueness:
    def test_exact_collapse_when_grids_match_reference(self):
        # the finest level has the reference's grid and step, so its
        # candidate is the reference bit for bit
        cfg = twin_config(n_ref=65, n_cand=65, dt=0.4 * Grid1D(65, 0, 1).dx ** 2,
                          t_end=0.01)
        rep = check_uniqueness(cfg, [17, 33, 65])
        assert rep.sup_entropy[-1] == 0.0 and math.isinf(rep.orders[-1])
        assert rep.passes

    @pytest.mark.parametrize("overflows, where", [
        # level 65 shares the reference's grid and dt, so its pairs are
        # evaluated first, during the reference run: the earliest sample
        # still decides, and then the coarsest level
        ({(65, 2), (33, 1)}, "level 33 at t=0.0002"),
        ({(65, 1), (33, 1), (17, 3)}, "level 33 at t=0.0002"),
        ({(65, 1), (17, 2)}, "level 65 at t=0.0002"),
    ])
    def test_non_finite_entropy_raises_for_the_earliest_sample(self, monkeypatch, overflows,
                                                              where):
        cfg = twin_config(n_ref=65, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2, t_end=0.01)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(65, 0, 1).dx ** 2)
        entropy, samples = verifier.relative_entropy, {}

        def overflowing(pair, params):
            n = pair.grid.n_nodes
            k = samples[n] = samples.get(n, -1) + 1
            return math.inf if (n, k) in overflows else entropy(pair, params)

        monkeypatch.setattr(verifier, "relative_entropy", overflowing)
        with pytest.raises(NonFiniteError, match=f"^non-finite relative entropy of {where}$"):
            check_uniqueness(cfg, [17, 33, 65])
        assert set(samples.values()) == {50}  # every level was paired to the end

    @pytest.mark.parametrize("system", [System.GL, System.SPHERE])
    def test_peak_memory_grows_with_the_samples_only_by_the_entropy_lists(self, system):
        # every level is streamed, one window per reference sample: doubling
        # the samples adds one float to each level's entropy list, and no
        # restricted reference sample (5 * sum of the level sizes doubles)
        levels, n_ref, dt = [33, 65, 129], 257, 2e-4
        reports = []

        def run(samples):
            cfg = twin_config(system, n_ref=n_ref, n_cand=levels[0], dt=dt,
                              t_end=(samples - 1) * dt, sample_interval=dt)
            reports.append(check_uniqueness(cfg, levels))

        peaks = _peak_growth(run)
        assert len(reports) == 3
        per_sample = len(levels) * (sys.getsizeof(1.0) + 8)  # a float and its list slot
        assert peaks[1] - peaks[0] <= 1.1 * 128 * per_sample

    def test_the_earliest_level_abort_wins(self, monkeypatch):
        # levels 17 and 33 take one step per sample window of 2e-4; level
        # 33 aborts at its third step, level 17 at its sixth: the levels run
        # side by side, so the earlier abort is the one reported
        cfg = twin_config(n_ref=65, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2, t_end=0.01)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(65, 0, 1).dx ** 2)
        advance, steps = dynamics._advance, {}

        def aborting(work, *args):
            n = work.rho.shape[-1]
            steps[n] = steps.get(n, 0) + 1
            if steps[n] == {17: 6, 33: 3}.get(n):
                raise CflError(f"level {n} failed", member=0)
            return advance(work, *args)

        monkeypatch.setattr(dynamics, "_advance", aborting)
        with pytest.raises(CflError, match=r"^candidate trajectory: at t=0\.0004: level 33 failed$"):
            check_uniqueness(cfg, [17, 33, 49])
        assert steps[17] == 3  # level 17 was advanced as far as level 33's abort

    @pytest.mark.parametrize("levels", [[17, 17, 33], [33, 17, 65], [17, 33, 33]])
    def test_levels_must_strictly_increase(self, monkeypatch, levels):
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran before the levels were checked")

        monkeypatch.setattr(verifier, "evolve", no_run)
        with pytest.raises(VerifierError, match=r"strictly increasing node counts, got \["):
            check_uniqueness(twin_config(n_ref=65, n_cand=17), levels)

    def test_fixed_perturbation_does_not_collapse(self, monkeypatch):
        # negative control: a candidate perturbation that does not shrink
        # with n leaves an O(1) entropy gap, so no level reaches the floor
        cfg = twin_config(n_ref=129, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2,
                          t_end=0.01)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(129, 0, 1).dx ** 2)
        assert check_uniqueness(cfg, [17, 33, 65]).passes
        build = verifier.make_initial_data

        def perturbed_candidate(preset, grid, params, perturbation=None):
            if grid == cfg.grid_reference:
                return build(preset, grid, params, perturbation)
            return build(preset, grid, params, Perturbation(1e-3, 2))

        monkeypatch.setattr(verifier, "make_initial_data", perturbed_candidate)
        rep = check_uniqueness(cfg, [17, 33, 65])
        assert not rep.passes
        assert all(o < 1.8 for o in rep.orders)

    @pytest.mark.parametrize("system", list(System))
    @pytest.mark.parametrize("coefficient", ["mu", "lam"])
    def test_candidate_of_another_system_does_not_collapse(self, monkeypatch, system,
                                                           coefficient):
        # negative control: every level's candidate solves the system with
        # mu (or lam) doubled, so the entropy gap does not shrink with n
        # and no level reaches the floor
        cfg = twin_config(system=system, n_ref=129, n_cand=17,
                          dt=0.4 * Grid1D(17, 0, 1).dx ** 2, t_end=0.01)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(129, 0, 1).dx ** 2)
        assert check_uniqueness(cfg, [17, 33, 65]).passes
        run = verifier.evolve

        def other_system(inits, t_end, dt, params, grid, *args, **kwargs):
            if grid != cfg.grid_reference:
                params = replace(params, **{coefficient: 2.0 * getattr(params, coefficient)})
            return run(inits, t_end, dt, params, grid, *args, **kwargs)

        monkeypatch.setattr(verifier, "evolve", other_system)
        rep = check_uniqueness(cfg, [17, 33, 65])
        assert not rep.passes
        assert all(o < 1.8 for o in rep.orders)

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

        for name in ("remainder", "EnergyWindow"):
            monkeypatch.setattr(verifier, name, forbidden)
        rep = check_uniqueness(cfg, levels)
        assert rep.sup_entropy == expected
        assert all(s > 0.0 for s in expected)

    def test_finest_step_count_beyond_the_float_range_rejected_before_any_run(self, monkeypatch):
        # t_end / dt is 4e5 on the candidate grid, within the step budget,
        # but not a finite float at the finest level, whose dt is
        # dt * (16/10^153)^2
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran before the levels were checked")

        monkeypatch.setattr(verifier, "evolve", no_run)
        cfg = twin_config(n_ref=33, n_cand=17, dt=1e-8, t_end=0.004)
        finest = 10**153 + 1
        with pytest.raises(VerifierError, match=rf"^t_end / dt of level {finest} is not a finite"):
            check_uniqueness(cfg, [17, 33, finest])

    def test_finest_level_beyond_max_nodes_rejected_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a grid was allocated for a rejected level")

        monkeypatch.setattr(verifier, "evolve", no_run)
        monkeypatch.setattr(Grid1D, "nodes", no_run)
        # 5,200 steps at the finest level: within the step budget
        cfg = twin_config(n_ref=33, n_cand=17, dt=2e-4, t_end=1e-6)
        finest = verifier.MAX_NODES + 1
        with pytest.raises(VerifierError, match=f"^the finest refinement level must be at most "
                                                f"MAX_NODES = 16385, got {finest}$"):
            check_uniqueness(cfg, [17, 33, finest])

    def test_step_budget_counts_the_reference_and_every_level(self, monkeypatch):
        # 1e5 reference steps and 1e5 * (1 + 4 + 16) over the levels
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran before the step budget was checked")

        monkeypatch.setattr(verifier, "evolve", no_run)
        cfg = twin_config(n_ref=33, n_cand=17, dt=1e-6, t_end=0.1)
        with pytest.raises(VerifierError, match=r"^the reference and the levels take 2\.2e\+06 "
                                                r"steps .*more than MAX_STEPS = 1000000$"):
            check_uniqueness(cfg, [17, 33, 65])

    def test_one_reference_run_and_one_restriction_per_sample_and_level(self, monkeypatch):
        cfg = twin_config(n_ref=65, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2,
                          t_end=0.01)
        cfg = replace(cfg, dt_reference=0.4 * Grid1D(65, 0, 1).dx ** 2)
        calls = _counting_evolve(monkeypatch)
        restricted = []
        original = verifier.restrict_state

        def counting(state, grid_to, system):
            restricted.append((state.grid.n_nodes, grid_to.n_nodes))
            return original(state, grid_to, system)

        monkeypatch.setattr(verifier, "restrict_state", counting)
        check_uniqueness(cfg, [17, 33, 49])
        # the reference alone, then each level alone; the reference's 51
        # samples (t_end/50 apart) are restricted once to each level
        assert calls == [1, 1, 1, 1]
        assert sorted(restricted) == sorted([(65, n) for n in (17, 33, 49)] * 51)

    def test_level_on_the_reference_grid_and_step_joins_its_evolve(self, monkeypatch):
        cfg = twin_config(n_ref=65, n_cand=17, dt=0.4 * Grid1D(17, 0, 1).dx ** 2,
                          t_end=0.01)
        # the step the finest level gets, bit for bit
        kappa = cfg.dt_candidate / cfg.grid_candidate.dx ** 2
        cfg = replace(cfg, dt_reference=kappa * Grid1D(65, 0, 1).dx ** 2)
        calls = _counting_evolve(monkeypatch)
        rep = check_uniqueness(cfg, [17, 33, 65])
        assert calls == [2, 1, 1]
        assert rep.sup_entropy[-1] == 0.0

    def test_zero_coarsest_sup_gives_a_minus_infinite_order(self):
        # the coarsest level shares the reference's grid and dt (dx = 1/16,
        # so kappa dx^2 is dt bit for bit) and is the reference; the finer
        # ones are not, so the first order is -inf and the study fails
        dt = 0.4 * Grid1D(17, 0, 1).dx ** 2
        rep = check_uniqueness(twin_config(n_ref=17, n_cand=17, dt=dt, t_end=0.01),
                               [17, 33, 65])
        assert rep.sup_entropy[0] == 0.0 and rep.sup_entropy[1] > 0.0
        assert rep.orders[0] == -math.inf and math.isfinite(rep.orders[1])
        assert not rep.passes

    def test_requires_three_levels(self):
        with pytest.raises(VerifierError, match="3 refinement levels"):
            check_uniqueness(twin_config(), [65, 129])

    @pytest.mark.parametrize("levels, bad, reason", [
        ([3, 9, 17], 3, "n_nodes must be >= 5, got 3"),
        ([9, 17, 10**400], 10**400, "n_nodes is too large: n_nodes - 1 is beyond the float range"),
    ], ids=["3", "10**400"])
    def test_level_that_is_not_a_grid_rejected_before_any_run(self, monkeypatch, levels, bad,
                                                              reason):
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran before the levels were checked")

        monkeypatch.setattr(verifier, "evolve", no_run)
        with pytest.raises(VerifierError, match=f"^refinement level {bad}: {re.escape(reason)}$"):
            check_uniqueness(twin_config(n_ref=33, n_cand=17), levels)

    def test_perturbation_ignored_for_collapse(self):
        cfg = twin_config(n_ref=65, n_cand=65, dt=0.4 * Grid1D(65, 0, 1).dx ** 2,
                          t_end=0.01, amplitude=0.5)
        rep = check_uniqueness(cfg, [17, 33, 65])
        # amplitude was overridden to zero: the level on the reference grid
        # is the reference
        assert rep.sup_entropy[-1] == 0.0


class TestTraceValidation:
    def test_times_must_increase(self):
        with pytest.raises(VerifierError, match="increasing"):
            synthetic_trace([0.0, 0.2, 0.1], [0, 0, 0], [0, 0, 0])

    def test_times_must_be_finite(self):
        with pytest.raises(VerifierError, match="column times contains non-finite"):
            synthetic_trace([0.0, np.nan, 0.2], [0, 0, 0], [0, 0, 0])

    def test_short_column_rejected_by_name(self):
        with pytest.raises(VerifierError, match="^column h_hat has wrong length$"):
            synthetic_trace([0.0, 0.1, 0.2], [0.0] * 3, [0.0] * 2)
        trace = synthetic_trace([0.0, 0.1], [0.0] * 2, [0.0] * 2)
        with pytest.raises(VerifierError, match="^column rd_velocity_exchange has wrong length$"):
            replace(trace, terms={"rd_velocity_exchange": np.zeros(1)})

    def test_quartets_are_trace_columns(self):
        for quartet in QUARTETS.values():
            assert set(quartet) <= set(TRACE_COLUMNS)

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

    @pytest.mark.parametrize("key", ["grid_reference", "grid_candidate"])
    def test_grids_beyond_max_nodes_rejected_by_name(self, monkeypatch, key):
        def no_nodes(grid):
            raise AssertionError("a grid's nodes were built for a rejected config")

        monkeypatch.setattr(Grid1D, "nodes", no_nodes)
        bound = Grid1D(verifier.MAX_NODES, 0.0, 1.0)
        config = replace(twin_config(), grid_reference=bound, grid_candidate=bound)
        with pytest.raises(VerifierError, match=f"^{key}.n must be at most MAX_NODES = 16385, "
                                                f"got {10**15}$"):
            replace(config, **{key: Grid1D(10**15, 0.0, 1.0)})

    def test_step_budget_counts_both_trajectories(self):
        # 2^19 + 2^19 steps of exactly dt = 2^-20 meet the budget; halving
        # one trajectory's dt takes it past
        dt = 0.5**20
        t_end = 500_000 * dt
        config = replace(twin_config(t_end=t_end, dt=dt), sample_interval=t_end / 10)
        assert 2 * config.t_end / dt == verifier.MAX_STEPS
        with pytest.raises(VerifierError, match=r"^the reference and candidate take 1\.5e\+06 "
                                                r"steps .*more than MAX_STEPS = 1000000$"):
            replace(config, dt_candidate=dt / 2)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize(
        "name", ["dt_reference", "dt_candidate", "t_end", "sample_interval", "density_floor"]
    )
    def test_non_finite_or_nonpositive_rejected_at_construction(self, monkeypatch, name,
                                                                value):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran on a config that should not construct")

        monkeypatch.setattr(verifier, "evolve", no_evolve)
        base = twin_config(n_ref=33, n_cand=33)
        with pytest.raises(VerifierError, match=f"^{name} must be finite and positive"):
            run_twin(replace(base, **{name: value}))
