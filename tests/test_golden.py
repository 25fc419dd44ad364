"""Golden traces: a bit-identity tripwire for changes that must not move
a single trace bit (performance work, refactors).

Four short twins are run and their trace CSVs (as `write_trace` writes
them) hashed: a streamed twin per system (reference n = 65, candidate
n = 33, a sample after every step) and a lockstep twin per system (one
batched step of two members, the path of equal grids).  The first three
hashes were taken before the one-pass certificate row replaced the
per-functional evaluation, the SPHERE lockstep one before the IMEX
kernel moved onto flat views of its workspace.

The hashes depend on the floating-point kernels underneath (numpy's
sin, cos, power and cbrt, LAPACK's dgtsv), which differ between CPUs
and library builds.  `KERNELS` fingerprints them; where they give other
bits than on the machine the hashes were taken on, the comparison says
nothing about this package and the test is skipped with that reason.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from nemlab.constitutive import Params, System
from nemlab.grid import Grid1D
from nemlab.traceio import write_trace
from nemlab.verifier import ExperimentConfig, Perturbation, run_twin

KERNELS = "f48c628dac7e8a8298fa384ac95100788700418b635df5b07aa9c1ad9954e148"

# sha256 of the trace CSV, and of the in-memory per-term columns (each
# name followed by its column's bytes, in column order)
GOLDEN = {
    "gl-streamed": (
        "143a1b9e26752d4d0468df1375ed36df444dbb8e0ef3c9a2807d182ab46d88c0",
        "01ca79b6f0359e2bda812ebbc68aaed49a69fcb66c97147e1b9ff41d8ff240bc",
    ),
    "sphere-streamed": (
        "162e62befa640d8fe7f08ca4edff6f462e19d70618970c5e520c1108326b0aec",
        "144e976be0cc3cb91f002086a87a495bbac479049b1da02fdb7d0d5b26cd0aff",
    ),
    "gl-lockstep": (
        "a0bcb079f08532faf3e5665e55730f732682fdee0898e0341459727874d306ff",
        "6ed38ec20fbde0a1230c43b4724e30607193f98171b9f42b685737b829ef8c7e",
    ),
    "sphere-lockstep": (
        "69dc3ab058d708fd94ffe5be745e1358aeb75982fbc663568e8de71e98ff1080",
        "4a4d006bddb4060eb07e888052abf6d17bef944d8e7a82f35800100fe0009261",
    ),
}


def _kernels_digest() -> str:
    """sha256 of the bits the kernels behind a trace give on fixed inputs."""
    x = np.linspace(-4.0, 4.0, 2001)
    parts = [np.sin(x), np.cos(x), np.abs(x) ** 3, np.abs(x) ** 1.4, np.cbrt(x),
             np.array([v**2 for v in x.tolist()])]
    n = 257
    sub = -1.0 - 0.1 * np.cos(x[: n - 1])
    diag = 2.5 + np.sin(x[:n]) ** 2
    parts.append(dgtsv(sub, diag, sub.copy(), np.stack((x[:n], np.sin(x[:n])), axis=1))[3])
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
