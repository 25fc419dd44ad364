"""Experiment configuration: a flat JSON document with nested sections.

Required keys:
    system            "gl" or "sphere"
    gamma, a, sigma0  pressure law and penalization constants
    grid_reference    {"n": nodes}
    grid_candidate    {"n": nodes}
    dt                time step (used for both trajectories unless
                      dt_reference / dt_candidate override it)
    t_end             final time
    initial_preset    "gl-smooth" or "sphere-smooth"

Optional keys:
    mu, lambda, theta          coefficient overrides (default 1)
    x_min, x_max               domain endpoints (default [0, 1])
    dt_reference, dt_candidate per-trajectory step overrides
    sample_interval            trace cadence (default t_end / 50)
    density_floor              positivity abort threshold (default 1e-8)
    perturbation               {"amplitude": eps >= 0, "mode": m >= 1}
    gronwall                   {"c_h": null or > 0, "slack": >= 0}

Each rule is checked once.  parse_config checks what only a document can
get wrong: JSON and object shape (nesting included), unknown and missing
keys, value types, non-finite numbers, and the positivity of lambda
(Params names it lam) and dt (no type holds it).  The domain types own
every other value range and name the key in their messages: Params
(gamma > 1; a, sigma0, mu, theta > 0; sigma0**2 a finite positive float),
Perturbation (amplitude >= 0; mode, type included, a positive integer),
GronwallConfig (c_h > 0, slack >= 0) and ExperimentConfig (at most
MAX_NODES nodes per grid; step sizes, t_end, sample_interval,
density_floor > 0; preset known and of the system; at most MAX_STEPS
steps and MAX_SAMPLES samples), reported as
ConfigError; Perturbation and GronwallConfig also reject non-finite
values, for library callers.  Grid1D owns the node count (an integer,
not a bool, at least 5, with n - 1 within the float range), named
<key>.n, and the domain (finite, x_max > x_min, dx^2 and 1/dx^2 finite
positive floats), named x_min/x_max.
The director boundary rows follow from the system (pinned for GL,
mirrored for SPHERE), so they have no key.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Set

from .constitutive import ConstitutiveError, Params, System
from .dynamics import DEFAULT_DENSITY_FLOOR
from .grid import Grid1D, GridError
from .verifier import ExperimentConfig, GronwallConfig, Perturbation, VerifierError


class ConfigError(ValueError):
    """Invalid configuration document."""


_TOP_KEYS = {
    "system", "gamma", "a", "sigma0", "mu", "lambda", "theta",
    "grid_reference", "grid_candidate", "x_min", "x_max",
    "dt", "dt_reference", "dt_candidate", "t_end", "sample_interval",
    "initial_preset", "perturbation", "gronwall",
    "density_floor",
}
_REQUIRED = (
    "system", "gamma", "a", "sigma0",
    "grid_reference", "grid_candidate", "dt", "t_end", "initial_preset",
)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(
    doc: Dict[str, Any], key: str, default: Optional[float] = None, prefix: str = ""
) -> Optional[float]:
    if key not in doc:
        return default
    v = doc[key]
    if not _is_number(v):
        raise ConfigError(f"{prefix}{key} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{prefix}{key} must be finite, got {v!r}")
    return x


def _positive(doc: Dict[str, Any], key: str, default: Optional[float] = None) -> Optional[float]:
    v = _number(doc, key, default)
    if v is not None and not v > 0:
        raise ConfigError(f"{key} must be positive, got {v}")
    return v


def _section(doc: Dict[str, Any], key: str, allowed: Set[str]) -> Dict[str, Any]:
    """The object under key ({} when absent), with no keys beyond allowed."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object with key(s): {', '.join(sorted(allowed))}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{key} has unknown key(s): {', '.join(sorted(unknown))}")
    return section


def _grid(doc: Dict[str, Any], key: str, x_min: float, x_max: float) -> Grid1D:
    section = _section(doc, key, {"n"})
    if "n" not in section:
        raise ConfigError(f"{key}.n is required")
    try:
        return Grid1D(section["n"], x_min, x_max)
    except GridError as exc:  # Grid1D's node-count messages name n_nodes
        where = f"{key}.n" if str(exc).startswith("n_nodes") else "x_min/x_max"
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document.

    Fills the documented defaults (coefficients 1, density floor 1e-8,
    domain [0, 1]); rejects unknown keys and every constraint
    violation with a message naming the offending key.
    """
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer of over 4300 digits, or nesting deeper
    # than the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    for key in ("system", "initial_preset"):
        if not isinstance(doc[key], str):
            raise ConfigError(f"{key} must be a string, got {doc[key]!r}")
    try:
        system = System.from_name(doc["system"])
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None

    x_min = _number(doc, "x_min", 0.0)
    x_max = _number(doc, "x_max", 1.0)
    grid_ref, grid_cand = (_grid(doc, key, x_min, x_max)
                           for key in ("grid_reference", "grid_candidate"))

    dt = _positive(doc, "dt")
    pert = _section(doc, "perturbation", {"amplitude", "mode"})
    amplitude = _number(pert, "amplitude", 0.0, prefix="perturbation.")
    gron = _section(doc, "gronwall", {"c_h", "slack"})
    c_h = None if gron.get("c_h") is None else _number(gron, "c_h", prefix="gronwall.")
    slack = _number(gron, "slack", 0.0, prefix="gronwall.")
    # the domain types check the value ranges; their messages name the key
    try:
        return ExperimentConfig(
            params=Params(
                a=_number(doc, "a"), gamma=_number(doc, "gamma"),
                sigma0=_number(doc, "sigma0"), mu=_number(doc, "mu", 1.0),
                lam=_positive(doc, "lambda", 1.0), theta=_number(doc, "theta", 1.0),
                system=system,
            ),
            grid_reference=grid_ref,
            grid_candidate=grid_cand,
            dt_reference=_number(doc, "dt_reference", dt),
            dt_candidate=_number(doc, "dt_candidate", dt),
            t_end=_number(doc, "t_end"),
            initial_preset=doc["initial_preset"],
            perturbation=Perturbation(amplitude=amplitude, mode=pert.get("mode", 1)),
            sample_interval=_number(doc, "sample_interval"),
            gronwall=GronwallConfig(c_h=c_h, slack=slack),
            density_floor=_number(doc, "density_floor", DEFAULT_DENSITY_FLOOR),
        )
    except (ConstitutiveError, VerifierError) as exc:
        raise ConfigError(str(exc)) from None


def canonical_text(doc_text: str) -> str:
    """Key-sorted compact rendering used for stable config digests."""
    try:
        doc = json.loads(doc_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
