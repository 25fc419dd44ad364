"""Seeded inputs of the three benchmark workloads.

Every workload is a list of tasks; a task is one certification (one CLI
command or one twin) described by a nemlab JSON config document.  The
inputs are a pure function of (workload, seed): the same seed gives the
same documents, byte for byte.  This module uses the stdlib only, so the
parent process can describe a run without importing numpy or nemlab.

Why each workload exists (see README.md for the layers each one stresses):

collapse     criterion-6 collapse protocol at half resolution: bound by
             IMEX steps at large n, remainders off, few samples.
dense-trace  one Gronwall twin per system with a sample after every step
             and a cross-grid restriction at every sample: bound by the
             per-sample functional bundle, and the only real trace I/O.
sweep        32 short twins on equal smoke-size grids: bound by the fixed
             per-step overhead of many small trajectories.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

WORKLOADS = ("collapse", "dense-trace", "sweep")
SYSTEMS = ("gl", "sphere")

COLLAPSE_LEVELS = (33, 65, 129)
COLLAPSE_REFERENCE_N = 513
COLLAPSE_KAPPA = 0.4          # dt = kappa * dx^2 on every level
DENSE_REFERENCE_N = 513
DENSE_CANDIDATE_N = 257
DENSE_DT = 5e-5
SWEEP_N = 97
SWEEP_DT = 2e-4
SWEEP_TWINS_PER_SYSTEM = 16
T_END = 0.1


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _doc(system: str, n_ref: int, n_cand: int, dt: float) -> Dict:
    return {
        "system": system,
        "gamma": 2.0,
        "a": 1.0,
        "sigma0": 1.0,
        "grid_reference": {"n": n_ref},
        "grid_candidate": {"n": n_cand},
        "dt": dt,
        "t_end": T_END,
        "initial_preset": f"{system}-smooth",
    }


def _collapse(rng: random.Random) -> List[Dict]:
    # The collapse protocol strips any perturbation, so the seed only
    # orders the two systems; the work is the same on every seed.
    dx_ref = 1.0 / (COLLAPSE_REFERENCE_N - 1)
    dx_coarse = 1.0 / (COLLAPSE_LEVELS[0] - 1)
    tasks = []
    for system in rng.sample(SYSTEMS, len(SYSTEMS)):
        doc = _doc(system, COLLAPSE_REFERENCE_N, COLLAPSE_LEVELS[0],
                   COLLAPSE_KAPPA * dx_coarse**2)
        # the reference step scales with its own dx^2; the factor 4 keeps
        # its error below the finest candidate level, as in criterion 6
        doc["dt_reference"] = COLLAPSE_KAPPA * (2.0 * dx_ref) ** 2
        doc["sample_interval"] = 0.005
        tasks.append({"name": f"{system}-collapse", "kind": "uniqueness",
                      "levels": list(COLLAPSE_LEVELS), "config": doc})
    return tasks


def _dense_trace(rng: random.Random) -> List[Dict]:
    tasks = []
    for system in SYSTEMS:
        doc = _doc(system, DENSE_REFERENCE_N, DENSE_CANDIDATE_N, DENSE_DT)
        doc["sample_interval"] = DENSE_DT
        doc["perturbation"] = {"amplitude": _loguniform(rng, 5e-4, 2e-3),
                               "mode": rng.randint(1, 4)}
        tasks.append({"name": f"{system}-gronwall", "kind": "gronwall",
                      "config": doc})
    return tasks


def _sweep(rng: random.Random) -> List[Dict]:
    tasks = []
    for system in SYSTEMS:
        for i in range(SWEEP_TWINS_PER_SYSTEM):
            doc = _doc(system, SWEEP_N, SWEEP_N, SWEEP_DT)
            doc["perturbation"] = {"amplitude": _loguniform(rng, 2.5e-4, 2e-3),
                                   "mode": rng.randint(1, 4)}
            tasks.append({"name": f"{system}-twin-{i:02d}", "kind": "twin",
                          "config": doc})
    rng.shuffle(tasks)
    return tasks


_MAKERS = {"collapse": _collapse, "dense-trace": _dense_trace, "sweep": _sweep}


def make_tasks(workload: str, seed: int) -> List[Dict]:
    """The task list of one workload for one seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # a string seed hashes the same in every process (no PYTHONHASHSEED)
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
