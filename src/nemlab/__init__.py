"""Desk-scale laboratory for compressible nematic liquid-crystal flows.

Simulates the penalized (Ginzburg-Landau) and unit-sphere-constrained
systems in one space dimension and certifies the weak-strong uniqueness
mechanism numerically: relative-entropy traces along twin trajectories,
remainder-term bookkeeping, Gronwall-type bounds, and entropy collapse
under refinement.
"""

__version__ = "0.1.0"

from .constitutive import Params, System
from .dynamics import (
    BoundarySpec,
    DirectorBC,
    InitialData,
    SolverOptions,
    State,
    evolve,
    step,
)
from .functionals import (
    RemainderBreakdown,
    StatePair,
    dissipation,
    energy,
    gronwall_coefficient,
    relative_entropy,
    remainder,
)
from .grid import Grid1D, ScalarField, VectorField3, gradient, integrate, laplacian, norm
from .verifier import (
    EntropyTrace,
    ExperimentConfig,
    GronwallConfig,
    Perturbation,
    check_energy,
    check_gronwall,
    check_uniqueness,
    make_initial_data,
    run_twin,
)

__all__ = [
    "__version__",
    "Params", "System",
    "Grid1D", "ScalarField", "VectorField3",
    "gradient", "laplacian", "integrate", "norm",
    "State", "InitialData", "BoundarySpec", "DirectorBC", "SolverOptions",
    "step", "evolve",
    "StatePair", "RemainderBreakdown",
    "energy", "dissipation", "relative_entropy",
    "remainder", "gronwall_coefficient",
    "ExperimentConfig", "GronwallConfig", "Perturbation", "EntropyTrace",
    "run_twin", "check_gronwall", "check_uniqueness", "check_energy",
    "make_initial_data",
]
