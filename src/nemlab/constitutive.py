"""Pointwise constitutive laws: pressure, pressure potential, penalization.

The pressure is the power law P(rho) = a*rho^gamma with a > 0, gamma > 1.
Its potential Pi(rho) = a/(gamma-1)*rho^gamma satisfies the exact identity
Pi'(rho)*rho - Pi(rho) = P(rho), which downstream entropy functionals rely
on; Pi' is therefore always evaluated analytically, never by numerical
differentiation.

The director relaxation uses the quartic Ginzburg-Landau penalization
F(d) = (|d|^2 - 1)^2 / (4*sigma0^2) with exact gradient
f(d) = (|d|^2 - 1) d / sigma0^2, so f vanishes on the unit sphere and
d.f(d) >= 0 whenever |d| >= 1.

All functions are stateless, accept scalars or arrays (vectors use a
leading axis of length 3), and are safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Bregman round-off smaller than this is clamped to zero; anything more
# negative indicates a genuine input error and is reported.
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
        for name in ("mu", "lam", "theta"):
            if not getattr(self, name) > 0:
                raise ConstitutiveError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


def _check_nonneg_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ConstitutiveError("density must be nonnegative")
    return rho


def pressure(rho, params: Params):
    """P(rho) = a * rho^gamma."""
    rho = _check_nonneg_rho(rho)
    out = params.a * rho**params.gamma
    return float(out) if out.ndim == 0 else out


def pressure_derivative(rho, params: Params):
    """P'(rho) = a*gamma * rho^(gamma-1), evaluated analytically."""
    rho = _check_nonneg_rho(rho)
    out = params.a * params.gamma * rho ** (params.gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def pressure_potential(rho, params: Params):
    """Pi(rho) = a/(gamma-1) * rho^gamma."""
    rho = _check_nonneg_rho(rho)
    out = params.a / (params.gamma - 1.0) * rho**params.gamma
    return float(out) if out.ndim == 0 else out


def pressure_potential_derivative(rho, params: Params):
    """Pi'(rho) = a*gamma/(gamma-1) * rho^(gamma-1), analytic."""
    rho = _check_nonneg_rho(rho)
    out = params.a * params.gamma / (params.gamma - 1.0) * rho ** (params.gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def pressure_potential_second_derivative(rho, params: Params):
    """Pi''(rho) = a*gamma * rho^(gamma-2); note rho*Pi''(rho) = P'(rho)."""
    rho = _check_nonneg_rho(rho)
    out = params.a * params.gamma * rho ** (params.gamma - 2.0)
    return float(out) if out.ndim == 0 else out


def gl_potential(d, params: Params):
    """Penalization energy density F(d) = (|d|^2 - 1)^2 / (4 sigma0^2).

    d has shape (3,) or (3, n); returns a scalar or length-n array.
    """
    d = np.asarray(d, dtype=float)
    s = np.sum(d * d, axis=0) - 1.0
    out = s * s / (4.0 * params.sigma0**2)
    return float(out) if out.ndim == 0 else out


def gl_force(d, params: Params):
    """Exact gradient f(d) = (|d|^2 - 1) d / sigma0^2 of the penalization."""
    d = np.asarray(d, dtype=float)
    s = np.sum(d * d, axis=0) - 1.0
    return s * d / params.sigma0**2


def bregman_pressure(rho, rho_tilde, params: Params):
    """Bregman divergence Pi(rho) - Pi'(rho_t)(rho - rho_t) - Pi(rho_t).

    Nonnegative by convexity of Pi for gamma > 1; zero iff rho == rho_t.
    Round-off smaller in magnitude than 1e-14 is clamped to zero so that
    downstream positivity checks stay clean; anything more negative is a
    real error and raises.
    """
    rho = _check_nonneg_rho(rho)
    rt = np.asarray(rho_tilde, dtype=float)
    if np.any(rt <= 0):
        raise ConstitutiveError("reference density must be strictly positive")
    out = (
        pressure_potential(rho, params)
        - pressure_potential_derivative(rt, params) * (rho - rt)
        - pressure_potential(rt, params)
    )
    out = np.asarray(out, dtype=float)
    bad = out < -_BREGMAN_CLAMP
    if np.any(bad):
        raise ConstitutiveError(
            f"Bregman pressure term is negative beyond round-off: min={out.min():.3e}"
        )
    out = np.where(out < 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out
