"""Pointwise constitutive laws: pressure, pressure potential, penalization.

The pressure is the power law P(rho) = a*rho^gamma with a > 0, gamma > 1.
Its potential Pi(rho) = a/(gamma-1)*rho^gamma satisfies the exact identity
Pi'(rho)*rho - Pi(rho) = P(rho), which downstream entropy functionals rely
on; Pi' is therefore always evaluated analytically, never by numerical
differentiation.  Params owns the coefficients, each written once: Pi =
pi_coeff rho^gamma, Pi' = pi1_coeff rho^(gamma-1) and P' = rho Pi'' =
dp_coeff rho^(gamma-1); the step, the certificate row and the energies
read them there, so the identity holds for one set of coefficients.

The director relaxation uses the quartic Ginzburg-Landau penalization
F(d) = (|d|^2 - 1)^2 / (4*sigma0^2) with exact gradient
f(d) = (|d|^2 - 1) d / sigma0^2, so f vanishes on the unit sphere and
d.f(d) >= 0 whenever |d| >= 1.

All functions are stateless, take arrays (a director's 3 components on
its second-to-last axis), and are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import _ONE

# Bregman round-off grows with the terms' size: within this times that size
# (at least 1) it is clamped to zero; anything more negative is an error.
_BREGMAN_CLAMP = 1e-14


class System(Enum):
    """Which of the two director couplings a run exercises.

    GL: quartic penalization relaxing the unit-length constraint, Dirichlet
        director boundary pinning.
    SPHERE: exact unit-sphere constraint with the |grad d|^2 d reaction,
        homogeneous Neumann director boundary.
    """

    GL = "gl"
    SPHERE = "sphere"

    @classmethod
    def from_name(cls, name: str) -> "System":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown system {name!r}; expected one of: {valid}") from None


class ConstitutiveError(ValueError):
    """Constitutive-law precondition violated (negative density etc.)."""


@dataclass(frozen=True)
class Params:
    """Physical constants of a run.

    a, gamma: pressure-law coefficient and adiabatic exponent (gamma > 1).
    sigma0: Ginzburg-Landau penalization length.
    mu, lam, theta: viscosity, director stress coupling, and director
        relaxation coefficients.  All default to 1 (the sizes play no role
        in the uniqueness mechanism); they are threaded through the
        dynamics and functionals so overrides stay consistent.
    """

    a: float = 1.0
    gamma: float = 2.0
    sigma0: float = 1.0
    mu: float = 1.0
    lam: float = 1.0
    theta: float = 1.0
    system: System = System.GL

    def __post_init__(self):
        if not self.a > 0:
            raise ConstitutiveError(f"a must be positive, got {self.a}")
        if not self.gamma > 1:
            raise ConstitutiveError(f"gamma must exceed 1, got {self.gamma}")
        if not self.sigma0 > 0:
            raise ConstitutiveError(f"sigma0 must be positive, got {self.sigma0}")
        try:
            square = float(self.sigma0) ** 2  # the penalization and its dt bound divide by it
        except OverflowError:
            square = math.inf
        if not (math.isfinite(square) and square > 0):
            raise ConstitutiveError(
                "sigma0 is out of range: sigma0**2 is not a finite positive float"
            )
        for name in ("mu", "lam", "theta"):
            if not getattr(self, name) > 0:
                raise ConstitutiveError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    @property
    def pi_coeff(self) -> float:
        return self.a / (self.gamma - 1.0)

    @property
    def pi1_coeff(self) -> float:
        return self.dp_coeff / (self.gamma - 1.0)

    @property
    def dp_coeff(self) -> float:
        return self.a * self.gamma


def _least(values: np.ndarray, initial: float, axis=None):
    """The least of initial and the entries of values, in one reduction,
    or of each row along axis.

    NaN entries are skipped, as they compare False: for t <= initial,
    _least(values, initial) < t iff some entry is < t, and for t < initial
    the same holds with <=.  0-d and empty arrays need no special case.
    """
    return np.fmin.reduce(values, axis=axis, initial=initial)


def _power_law(rho, coefficient, exponent, out=None):
    """coefficient * rho^exponent, written to out when given (an array of
    rho's shape).  The one power law: the energy pass and the certificate
    pass check rho's sign first, the IMEX step holds rho above a floor."""
    out = np.power(rho, exponent, out)
    return np.multiply(out, coefficient, out)


def gl_potential(sq, scale, out=None):
    """Penalization energy density F(d) = (|d|^2 - 1)^2 / (4 sigma0^2).

    sq holds |d|^2 (a length-n or a (K, n) array, as a sum over the
    components gives it) and scale is 4 sigma0^2, a float or the 0-d
    operand of the energy pass and the certificate row; the density has
    sq's shape and is written to out when given.
    """
    s = np.subtract(sq, 1.0, out)
    np.multiply(s, s, s)
    return np.divide(s, scale, s)


def gl_force(d, sigma0_sq, out=None):
    """Exact gradient f(d) = (|d|^2 - 1) d / sigma0^2 of the penalization.

    d is a float array of shape (3, n) or (B, 3, n); sigma0_sq (sigma0^2)
    is a float or a 0-d array.  The force is written to out when given.
    """
    out = np.multiply(d, d, out)
    s = np.add.reduce(out, -2, None, None, True)
    np.subtract(s, _ONE, s)
    out = np.multiply(s, d, out)
    return np.divide(out, sigma0_sq, out)


def _bregman(pi, pi1_t, pi_t, rho, rho_t, faults) -> np.ndarray:
    """Bregman divergence Pi(rho) - Pi'(rho_t)(rho - rho_t) - Pi(rho_t) from
    the three law values, row by row along the last axis.

    Nonnegative by convexity of Pi for gamma > 1; zero iff rho == rho_t.
    Round-off down to -1e-14 times the terms' summed magnitudes (at least
    1) is clamped to zero, the magnitudes summed only where the absolute
    1e-14 test fails.  A row more negative than that stores its error in
    faults (a dict) under the row's index, unless the index holds one.
    """
    linear = pi1_t * (rho - rho_t)
    out = pi - linear - pi_t
    least = _least(out, 0.0)
    if least < -_BREGMAN_CLAMP:
        scale = np.maximum(np.abs(pi) + np.abs(linear) + np.abs(pi_t), 1.0)
        # a row fails this test only if its own least is below -1e-14 too
        bad = _least(out + _BREGMAN_CLAMP * scale, 0.0, -1) < 0.0
        rows = out.reshape(-1, *out.shape[-1:])
        for k in np.flatnonzero(bad).tolist():
            faults.setdefault(k, ConstitutiveError(
                f"Bregman pressure term is negative beyond round-off: min={rows[k].min():.3e}"))
    return np.where(out < 0.0, 0.0, out) if least < 0.0 else out
