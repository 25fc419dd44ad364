"""Golden traces: a bit-identity tripwire for changes that must not move
a single trace bit (performance work, refactors).

Four short twins are run and their trace CSVs (as `write_trace` writes
them) hashed: a streamed twin per system (reference n = 65, candidate
n = 33, a sample after every step) and a lockstep twin per system (one
batched step of two members, the path of equal grids).  All four hashes
were taken when the implicit solves moved from LAPACK's pivoting LU
(dgtsv) to L D L^T (dptsv, dpttrf, dpttrs): its back substitution
computes b_i/d_i - l_i x_{i+1} where the LU computed
(b_i - u_i x_{i+1})/d_i, so every trace moved at round-off level.

The hashes depend on the floating-point kernels underneath (numpy's
sin, cos, power and cbrt, LAPACK's dptsv, dpttrf and dpttrs), which
differ between CPUs and library builds.  `KERNELS` fingerprints them;
where they give other bits than on the machine the hashes were taken on,
the comparison says nothing about this package and the test is skipped
with that reason.

`REMAINDER` hashes every value of `remainder`'s certificate row on fixed
numpy-seeded smooth pairs: both systems, the default coefficients and two
non-default sets, n = 33, 97 and 257.  The twins above run the default
coefficients only, and the lengths matter too: a change of array length
can move which elements fall in the SIMD tails of the kernels.  It was
taken before the row's arithmetic moved to one contraction block and one
preallocated quadrature stack, and held bit for bit through that change.

`STEP` hashes the state of every sample `evolve` gives: both systems, the
default coefficients and one non-default set, n = 513 with one member (the
collapse study's reference size) and n = 97 with two members in lockstep,
the second perturbed.  The sample interval is not a multiple of dt, so
the windows step at several sizes dt_eff that differ in their last bits;
an operand of the step size kept per requested dt, not per dt_eff, moves
these bits.  It was taken before the step's scalar operands became
prebuilt 0-d arrays and its ufuncs took positional outputs.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv, dpttrf, dpttrs

from nemlab.constitutive import Params, System
from nemlab.dynamics import BoundarySpec, State, evolve
from nemlab.functionals import StatePair, remainder
from nemlab.grid import Grid1D
from nemlab.traceio import write_trace
from nemlab.verifier import ExperimentConfig, Perturbation, make_initial_data, run_twin

KERNELS = "73c0426f49ab0a5253ba48bd07a95568c770d5da3dd1351c635cd0f03a2cff7b"

# sha256 of the trace CSV, and of the in-memory per-term columns (each
# name followed by its column's bytes, in column order)
GOLDEN = {
    "gl-streamed": (
        "67e01c1eaffa61d71e652f3f2beb4f0583c900a2062ddafa95bab55983bfa44e",
        "00649225f436a49fbccc7f376b38801c888a045e6c301cc84da7dc6c410bd2a6",
    ),
    "sphere-streamed": (
        "22f1f8e1a140380898530f4c15f9c96eb6ab4c2a730683ccbbb72e231935b2fd",
        "22cbff4d0b9fbe21d7864c258a15b690c89e9e764cb1e33350617a2b7e8f6864",
    ),
    "gl-lockstep": (
        "8116d9c3ec84a152212815eaae141f878c09100e100d89e3fafe0426fd6f85dc",
        "2afbdbf6e2f12d4f3a1762f9291a9352624cfcd7cf073d8c51cb9fe0a2824ccc",
    ),
    "sphere-lockstep": (
        "15936c30d382806545c15dcb6d4884ac8061ab45d507d4954b16bd5af7521f22",
        "84546af07eed044b2a4f5b703d8aa1d04c177ef25e86c75cf3f2f2b7294512bd",
    ),
}

# sha256 of every RemainderBreakdown value over the pairs of _remainder_pairs
REMAINDER = "6ae7156e03dffb7c9c13aac283f258df2bb6b6b5d03f81dfeb677cd4de078e4e"

# sha256 of every sample's time and state bits over the runs of _step_runs
STEP = "80818fad9e43f9c5eda627bf7b777cf9d2ed9463cc000136905c8bbab1c0855c"


def _kernels_digest() -> str:
    """sha256 of the bits the kernels behind a trace give on fixed inputs."""
    x = np.linspace(-4.0, 4.0, 2001)
    parts = [np.sin(x), np.cos(x), np.abs(x) ** 3, np.abs(x) ** 1.4, np.cbrt(x),
             np.array([v**2 for v in x.tolist()])]
    n = 257
    off = -1.0 - 0.1 * np.cos(x[: n - 1])
    diag = 2.5 + np.sin(x[:n]) ** 2
    rhs = np.stack((x[:n], np.sin(x[:n])), axis=1)
    d, e, _ = dpttrf(diag, off)
    parts += [dptsv(diag, off, rhs)[2], d, e, dpttrs(d, e, rhs)[0]]
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.hexdigest()


def _config(system: System, n_ref: int, n_cand: int, mode: int) -> ExperimentConfig:
    return ExperimentConfig(
        params=Params(system=system),
        grid_reference=Grid1D(n_ref, 0.0, 1.0),
        grid_candidate=Grid1D(n_cand, 0.0, 1.0),
        dt_reference=2e-4,
        dt_candidate=2e-4,
        t_end=0.02,
        initial_preset=f"{system.value}-smooth",
        perturbation=Perturbation(amplitude=1e-3, mode=mode),
        sample_interval=2e-4,
    )


CONFIGS = {
    "gl-streamed": _config(System.GL, 65, 33, 2),
    "sphere-streamed": _config(System.SPHERE, 65, 33, 2),
    "gl-lockstep": _config(System.GL, 33, 33, 3),
    "sphere-lockstep": _config(System.SPHERE, 33, 33, 3),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_trace_csv_is_bit_identical_to_the_golden_hash(tmp_path, name):
    if _kernels_digest() != KERNELS:
        pytest.skip("floating-point kernels differ from those the hashes were taken with")
    trace = run_twin(CONFIGS[name])
    assert len(trace) == 101
    path = tmp_path / f"{name}.csv"
    write_trace(trace, str(path))
    terms = hashlib.sha256()
    for term, col in trace.terms.items():
        terms.update(term.encode() + col.tobytes())
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), terms.hexdigest()) == GOLDEN[name]


# coefficient sets of the remainder digest: the defaults, a gamma below 2
# and one above it, with every other coefficient moved off 1
REMAINDER_PARAMS = (
    {},
    dict(a=1.7, gamma=1.4, sigma0=0.6, mu=0.3, lam=2.5, theta=0.7),
    dict(a=0.8, gamma=3.0, sigma0=1.9, mu=1.6, lam=0.4, theta=2.2),
)


def _smooth(rng: np.random.Generator, x: np.ndarray, size: float,
            sines: bool = True) -> np.ndarray:
    """Four sine and four cosine modes with seeded amplitudes below size /
    mode; the cosines alone (zero slope at both walls) when not sines."""
    modes = np.arange(1.0, 5.0)
    a, b = rng.uniform(-size, size, (2, 4)) / modes
    return (sines * a[:, None] * np.sin(np.pi * modes[:, None] * x)
            + b[:, None] * np.cos(np.pi * modes[:, None] * x)).sum(axis=0)


def _remainder_pairs():
    """(params, pair) for each system, coefficient set and n in 33, 97, 257:
    smooth candidate and reference fields from one seeded generator; SPHERE
    directors are unit length with zero slope at the walls, as the
    by-parts move of its reorganization needs."""
    rng = np.random.default_rng(20261019)
    for system in System:
        for coefficients in REMAINDER_PARAMS:
            params = Params(system=system, **coefficients)
            for n in (33, 97, 257):
                grid = Grid1D(n, 0.0, 1.0)
                x = grid.nodes()
                states = []
                for _ in range(2):
                    rho = 1.0 + _smooth(rng, x, 0.1)
                    u = np.sin(np.pi * x) * _smooth(rng, x, 0.2)
                    if system is System.GL:
                        d = np.stack([1.0 + _smooth(rng, x, 0.1), _smooth(rng, x, 0.3),
                                      _smooth(rng, x, 0.2)])
                    else:
                        phi = 0.5 * np.cos(np.pi * x) + _smooth(rng, x, 0.2, sines=False)
                        psi = _smooth(rng, x, 0.3, sines=False)
                        d = np.stack([np.cos(phi), np.sin(phi) * np.cos(psi),
                                      np.sin(phi) * np.sin(psi)])
                    states.append(State(grid, rho, u, d))
                yield params, StatePair(*states)


def test_remainder_rows_are_bit_identical_to_the_golden_hash():
    if _kernels_digest() != KERNELS:
        pytest.skip("floating-point kernels differ from those the hashes were taken with")
    digest = hashlib.sha256()
    for params, pair in _remainder_pairs():
        br = remainder(pair, params)
        for values in (br.quartet, br.terms, br.h_terms):
            for name, v in values.items():
                digest.update(name.encode() + struct.pack("<d", v))
        for v in (br.h_hat, br.reorg_mismatch, br.entropy, br.energy, br.dissipation, br.mass,
                  br.sphere_defect):
            digest.update(b"none" if v is None else struct.pack("<d", v))
    assert digest.hexdigest() == REMAINDER


# coefficient sets of the step digest: the defaults, and gamma, mu,
# theta, lam and sigma0 moved off theirs
STEP_PARAMS = ({}, dict(gamma=1.4, mu=0.5, theta=0.3, lam=2.0, sigma0=0.5))


def _step_runs():
    """(params, grid, members) for each system, coefficient set and size:
    n = 513 with one unperturbed member, n = 97 with an unperturbed and a
    perturbed member."""
    for system in System:
        for coefficients in STEP_PARAMS:
            params = Params(system=system, **coefficients)
            for n, perturbations in ((513, (None,)), (97, (None, Perturbation(1e-3, 3)))):
                grid = Grid1D(n, 0.0, 1.0)
                yield params, grid, [make_initial_data(f"{system.value}-smooth", grid, params, p)
                                     for p in perturbations]


def test_step_states_are_bit_identical_to_the_golden_hash():
    if _kernels_digest() != KERNELS:
        pytest.skip("floating-point kernels differ from those the hashes were taken with")
    digest = hashlib.sha256()

    def observe(states, t):
        digest.update(struct.pack("<d", t))
        for state in states:
            for field in (state.rho, state.u, state.d):
                digest.update(field.tobytes())

    for params, grid, members in _step_runs():
        bcs = [BoundarySpec.for_system(params.system, m.d0) for m in members]
        # 2.5e-4 is not a multiple of 1e-4: three steps of about 8.3e-5 per
        # window, and a last window of 1e-4 to t_end
        evolve(members, 0.0251, 1e-4, params, grid, bcs, observe, sample_interval=2.5e-4)
    assert digest.hexdigest() == STEP
