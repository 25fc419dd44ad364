"""One-dimensional discrete calculus on uniform node-centered grids.

Provides the mesh type and the differential/integral operators every
functional in this package is built from: second-order gradient and
Laplacian stencils and composite trapezoid quadrature.  The operators act
on plain arrays along their last axis, so the solver and the functionals
(and their tests) run one implementation of each; the state containers
that validate and freeze those arrays live in the dynamics module.

Conventions:
    - Nodes are x_i = x_min + i*dx, i = 0 .. n_nodes-1, dx uniform.
    - Interior stencils are central; endpoint stencils are one-sided and
      second-order, so functional evaluations near the boundary do not
      degrade the global order.
    - Quadrature is the composite trapezoid rule (second order, matched to
      the stencil order).

All operations are pure functions of their inputs, so concurrent
evaluation needs no coordination; the interior stencils also take an
optional out= buffer, which is all they then write.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or mismatched grid usage."""


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
        n = self.n_nodes  # an int or a numpy integer, not a bool
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise GridError(f"n_nodes must be an integer, got {n!r}")
        if n < 5:
            raise GridError(f"n_nodes must be >= 5, got {n}")
        if not n - 1 <= sys.float_info.max:  # dx divides by it; the comparison is exact
            raise GridError("n_nodes is too large: n_nodes - 1 is beyond the float range")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise GridError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise GridError(
                f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]"
            )
        if not math.isfinite(self.length):
            raise GridError(f"domain length of [{self.x_min}, {self.x_max}] is not finite")
        # the Laplacians and implicit solves divide by dx^2; the collapse
        # study scales its step sizes with it
        dx2 = self.dx * self.dx
        if not math.isfinite(dx2):
            raise GridError(f"grid spacing dx={self.dx:.3e} is too large: dx^2 is not finite")
        if dx2 == 0.0 or not math.isfinite(1.0 / dx2):
            raise GridError(f"grid spacing dx={self.dx:.3e} is too small: 1/dx^2 is not finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_nodes)


# ---------------------------------------------------------------------------
# Array-level operators
# ---------------------------------------------------------------------------


def central_gradient(values: np.ndarray, two_dx, out=None) -> np.ndarray:
    """Central first difference at the interior nodes, along the last axis,
    over two_dx = 2 dx (a float, or the IMEX step's 0-d array).

    The result has n - 2 entries there: node i + 1 for entry i.  It is
    written to out when given (a buffer of that shape), else to a new array.
    """
    diff = np.subtract(values[..., 2:], values[..., :-2], out)
    return np.divide(diff, two_dx, diff)


def central_laplacian(values: np.ndarray, dx2, out=None) -> np.ndarray:
    """Three-point second difference at the interior nodes, along the last
    axis, divided by dx2 = dx^2; written to out when given, as
    central_gradient.  2 v_i is formed as v_i + v_i, the same bits."""
    out = np.add(values[..., 1:-1], values[..., 1:-1], out)
    np.subtract(values[..., 2:], out, out)
    np.add(out, values[..., :-2], out)
    return np.divide(out, dx2, out)


def _scalar(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, a ufunc operand."""
    out = np.array(value)
    out.flags.writeable = False
    return out


_HALF, _ONE, _TWO, _THREE, _MINUS_THREE, _FOUR, _FIVE = map(
    _scalar, (0.5, 1.0, 2.0, 3.0, -3.0, 4.0, 5.0))


@functools.lru_cache(maxsize=64)
def _spacing(dx: float):
    """The 0-d operands 2 dx, dx^2, dx and -dx of a grid spacing."""
    return _scalar(2.0 * dx), _scalar(dx * dx), _scalar(dx), _scalar(-dx)


def gradient_array(values: np.ndarray, dx: float, out=None) -> np.ndarray:
    """Second-order first derivative along the last axis, into out (a
    contiguous array of values' shape) if given.

    Central differences in the interior, one-sided three-point stencils at
    both endpoints (also second order); both as in laplacian_array.
    """
    two_dx = _spacing(dx)[0]
    out = np.empty(values.shape) if out is None else out
    central_gradient(values.reshape(-1), two_dx, out.reshape(-1)[1:-1])
    term = np.empty(values.shape[:-1])  # 0-d for 1-D values, as each end column
    end = np.multiply(values[..., 0], _MINUS_THREE, out[..., 0])  # (-3 v0 + 4 v1 - v2) / 2dx
    np.add(end, np.multiply(values[..., 1], _FOUR, term), end)
    np.subtract(end, values[..., 2], end)
    np.divide(end, two_dx, end)
    end = np.multiply(values[..., -1], _THREE, out[..., -1])  # (3 v-1 - 4 v-2 + v-3) / 2dx
    np.subtract(end, np.multiply(values[..., -2], _FOUR, term), end)
    np.add(end, values[..., -3], end)
    np.divide(end, two_dx, end)
    return out


def laplacian_array(values: np.ndarray, dx: float, out=None) -> np.ndarray:
    """Second-order second derivative along the last axis, into out as
    gradient_array.

    Three-point central stencil in the interior; one-sided four-point
    stencils at the endpoints keep second order there.  Boundary-condition
    aware variants (ghost mirroring, Dirichlet pinning) live in the dynamics
    module; this is the raw operator.  The central stencil runs over the
    rows laid end to end, as the dynamics module's does; the endpoint
    stencils, summed in place left to right, overwrite the entries it forms
    across two rows.
    """
    dx2 = _spacing(dx)[1]
    out = np.empty(values.shape) if out is None else out
    central_laplacian(values.reshape(-1), dx2, out.reshape(-1)[1:-1])
    term = np.empty(values.shape[:-1])  # 0-d for 1-D values, as each end column
    for end, step in ((0, 1), (-1, -1)):  # (2 v0 - 5 v1 + 4 v2 - v3) / dx^2, mirrored
        acc = np.multiply(values[..., end], _TWO, out[..., end])
        np.subtract(acc, np.multiply(values[..., end + step], _FIVE, term), acc)
        np.add(acc, np.multiply(values[..., end + 2 * step], _FOUR, term), acc)
        np.subtract(acc, values[..., end + 3 * step], acc)
        np.divide(acc, dx2, acc)
    return out


def trapezoid_array(values: np.ndarray, dx: float):
    """Composite trapezoid quadrature along the last axis: a float for one
    row, an array for a stack of rows, each as if integrated alone."""
    ends = np.add(values[..., 0], values[..., -1], np.empty(values.shape[:-1]))  # 0-d for 1-D
    out = np.subtract(np.add.reduce(values, -1), np.multiply(ends, _HALF, ends), ends)
    np.multiply(out, _spacing(dx)[2], out)
    return float(out) if out.ndim == 0 else out
