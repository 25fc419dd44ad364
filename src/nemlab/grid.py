"""One-dimensional discrete calculus on uniform node-centered grids.

Provides the mesh type, immutable scalar/3-vector field containers, and the
differential/integral operators every functional in this package is built
from: second-order gradient and Laplacian stencils, composite trapezoid
quadrature, and the L2 / L3 / Linf norms.

Conventions:
    - Nodes are x_i = x_min + i*dx, i = 0 .. n_nodes-1, dx uniform.
    - Interior stencils are central; endpoint stencils are one-sided and
      second-order, so functional evaluations near the boundary do not
      degrade the global order.
    - Quadrature is the composite trapezoid rule (second order, matched to
      the stencil order).

All operations are pure functions of their inputs and field values are
frozen after construction, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or mismatched grid usage."""


class FieldError(ValueError):
    """Invalid field data (wrong length, non-finite entries)."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform node-centered mesh on [x_min, x_max].

    The two endpoints play the role of the domain boundary; the outward
    orientation is -1 at x_min and +1 at x_max.
    """

    n_nodes: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.n_nodes < 5:
            raise GridError(f"n_nodes must be >= 5, got {self.n_nodes}")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise GridError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise GridError(
                f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_nodes)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node; immutable once constructed."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or self.values.shape[0] != self.grid.n_nodes:
            raise FieldError(
                f"expected {self.grid.n_nodes} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("scalar field contains non-finite values")


@dataclass(frozen=True)
class VectorField3:
    """Three scalar components sharing one grid, stored as a (3, n) array.

    Used for the director field and its derived quantities; the three
    components live on the same 1D mesh (the director keeps all three
    spatial components in the 1D reduction of the flow).
    """

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (3, self.grid.n_nodes):
            raise FieldError(
                f"expected shape (3, {self.grid.n_nodes}), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("vector field contains non-finite values")


# ---------------------------------------------------------------------------
# Array-level kernels.  The hot solver loop calls these directly; the field
# wrappers below add validation for the functional-evaluation paths.
# ---------------------------------------------------------------------------


def gradient_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative along the last axis.

    Central differences in the interior, one-sided three-point stencils at
    both endpoints (also second order).
    """
    out = np.empty_like(values, dtype=float)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    out[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (
        2.0 * dx
    )
    out[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (
        2.0 * dx
    )
    return out


def laplacian_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative along the last axis.

    Three-point central stencil in the interior; one-sided four-point
    stencils at the endpoints keep second order there.  Boundary-condition
    aware variants (ghost mirroring, Dirichlet pinning) live in the dynamics
    module; this is the raw operator.
    """
    out = np.empty_like(values, dtype=float)
    dx2 = dx * dx
    out[..., 1:-1] = (values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]) / dx2
    out[..., 0] = (
        2.0 * values[..., 0] - 5.0 * values[..., 1] + 4.0 * values[..., 2] - values[..., 3]
    ) / dx2
    out[..., -1] = (
        2.0 * values[..., -1]
        - 5.0 * values[..., -2]
        + 4.0 * values[..., -3]
        - values[..., -4]
    ) / dx2
    return out


def trapezoid_array(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid quadrature along the last axis."""
    return float(dx * (np.sum(values, axis=-1) - 0.5 * (values[..., 0] + values[..., -1])))


# ---------------------------------------------------------------------------
# Field-level operations
# ---------------------------------------------------------------------------


def gradient(f):
    """Discrete spatial derivative of a ScalarField or VectorField3."""
    if isinstance(f, ScalarField):
        return ScalarField(gradient_array(f.values, f.grid.dx), f.grid)
    if isinstance(f, VectorField3):
        return VectorField3(gradient_array(f.values, f.grid.dx), f.grid)
    raise TypeError(f"gradient expects a field, got {type(f).__name__}")


def laplacian(f):
    """Discrete second derivative of a ScalarField or VectorField3."""
    if isinstance(f, ScalarField):
        return ScalarField(laplacian_array(f.values, f.grid.dx), f.grid)
    if isinstance(f, VectorField3):
        return VectorField3(laplacian_array(f.values, f.grid.dx), f.grid)
    raise TypeError(f"laplacian expects a field, got {type(f).__name__}")


def integrate(f: ScalarField) -> float:
    """Integral of a scalar field over the domain (trapezoid rule)."""
    if not isinstance(f, ScalarField):
        raise TypeError(f"integrate expects a ScalarField, got {type(f).__name__}")
    return trapezoid_array(f.values, f.grid.dx)


def norm(f, p) -> float:
    """L^p norm of a field for p in {2, 3, inf}.

    For a VectorField3 the pointwise magnitude is the Euclidean 3-vector
    length.  p=2 and p=3 integrate |f|^p with the trapezoid rule and take
    the p-th root; p=inf is the max over nodes.
    """
    if isinstance(f, VectorField3):
        mag = np.sqrt(np.sum(f.values**2, axis=0))
        dx = f.grid.dx
    elif isinstance(f, ScalarField):
        mag = np.abs(f.values)
        dx = f.grid.dx
    else:
        raise TypeError(f"norm expects a field, got {type(f).__name__}")

    if p == 2:
        return float(np.sqrt(trapezoid_array(mag**2, dx)))
    if p == 3:
        return float(np.cbrt(trapezoid_array(mag**3, dx)))
    if p == np.inf or p == "inf":
        return float(np.max(mag))
    raise ValueError(f"unsupported norm order {p!r}; use 2, 3, or inf")
