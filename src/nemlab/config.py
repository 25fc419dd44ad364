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

Unknown keys anywhere are rejected, and so are non-finite numbers (JSON's
Infinity and NaN); every violation names the key and the broken invariant.
The director boundary rows follow from the system (pinned for GL, mirrored
for SPHERE), so they have no key.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

from .constitutive import Params, System
from .dynamics import DEFAULT_DENSITY_FLOOR
from .verifier import (
    PRESET_SYSTEMS,
    ExperimentConfig,
    GronwallConfig,
    MAX_SAMPLES,
    Perturbation,
)
from .grid import Grid1D, GridError


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


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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


def _grid_nodes(doc: Dict[str, Any], key: str) -> int:
    section = doc[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object like {{\"n\": 129}}")
    unknown = set(section) - {"n"}
    if unknown:
        raise ConfigError(f"{key} has unknown key(s): {', '.join(sorted(unknown))}")
    if "n" not in section:
        raise ConfigError(f"{key}.n is required")
    n = section["n"]
    if not _is_int(n) or n < 5:
        raise ConfigError(f"{key}.n must be an integer >= 5, got {n!r}")
    return n


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document.

    Fills the documented defaults (coefficients 1, density floor 1e-8,
    domain [0, 1]); rejects unknown keys and every constraint
    violation with a message naming the offending key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    if not isinstance(doc["system"], str):
        raise ConfigError(f"system must be a string, got {doc['system']!r}")
    try:
        system = System.from_name(doc["system"])
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None

    gamma = _number(doc, "gamma")
    if not gamma > 1:
        raise ConfigError(f"gamma must exceed 1, got {gamma}")
    a = _positive(doc, "a")
    sigma0 = _positive(doc, "sigma0")
    mu = _positive(doc, "mu", 1.0)
    lam = _positive(doc, "lambda", 1.0)
    theta = _positive(doc, "theta", 1.0)
    params = Params(a=a, gamma=gamma, sigma0=sigma0, mu=mu, lam=lam,
                    theta=theta, system=system)

    x_min = _number(doc, "x_min", 0.0)
    x_max = _number(doc, "x_max", 1.0)
    try:
        grid_ref, grid_cand = (Grid1D(_grid_nodes(doc, key), x_min, x_max)
                               for key in ("grid_reference", "grid_candidate"))
    except GridError as exc:
        raise ConfigError(f"x_min/x_max: {exc}") from None

    dt = _positive(doc, "dt")
    dt_ref = _positive(doc, "dt_reference", dt)
    dt_cand = _positive(doc, "dt_candidate", dt)
    t_end = _positive(doc, "t_end")
    sample_interval = _positive(doc, "sample_interval", None)
    if sample_interval is not None and t_end / sample_interval > MAX_SAMPLES:
        raise ConfigError(
            f"sample_interval yields more than {MAX_SAMPLES} samples over t_end"
        )

    preset = doc["initial_preset"]
    if not isinstance(preset, str) or preset not in PRESET_SYSTEMS:
        known = ", ".join(sorted(PRESET_SYSTEMS))
        raise ConfigError(f"initial_preset must be one of: {known}; got {preset!r}")
    if PRESET_SYSTEMS[preset] is not system:
        raise ConfigError(
            f"initial_preset {preset!r} belongs to system "
            f"{PRESET_SYSTEMS[preset].value!r}, not {system.value!r}"
        )

    pert = Perturbation()
    if "perturbation" in doc:
        section = doc["perturbation"]
        if not isinstance(section, dict):
            raise ConfigError("perturbation must be an object")
        unknown = set(section) - {"amplitude", "mode"}
        if unknown:
            raise ConfigError(
                f"perturbation has unknown key(s): {', '.join(sorted(unknown))}"
            )
        amp = _number(section, "amplitude", 0.0, prefix="perturbation.")
        if amp < 0:
            raise ConfigError(f"perturbation.amplitude must be >= 0, got {amp}")
        mode = section.get("mode", 1)
        if not _is_int(mode) or mode < 1:
            raise ConfigError(
                f"perturbation.mode must be a positive integer, got {mode!r}"
            )
        pert = Perturbation(amplitude=amp, mode=mode)

    gron = GronwallConfig()
    if "gronwall" in doc:
        section = doc["gronwall"]
        if not isinstance(section, dict):
            raise ConfigError("gronwall must be an object")
        unknown = set(section) - {"c_h", "slack"}
        if unknown:
            raise ConfigError(
                f"gronwall has unknown key(s): {', '.join(sorted(unknown))}"
            )
        c_h = None
        if "c_h" in section and section["c_h"] is not None:
            c_h = _number(section, "c_h", prefix="gronwall.")
            if not c_h > 0:
                raise ConfigError(f"gronwall.c_h must be positive, got {c_h}")
        slack = _number(section, "slack", 0.0, prefix="gronwall.")
        if slack < 0:
            raise ConfigError(f"gronwall.slack must be >= 0, got {slack}")
        gron = GronwallConfig(c_h=c_h, slack=slack)

    return ExperimentConfig(
        params=params,
        grid_reference=grid_ref,
        grid_candidate=grid_cand,
        dt_reference=dt_ref,
        dt_candidate=dt_cand,
        t_end=t_end,
        initial_preset=preset,
        perturbation=pert,
        sample_interval=sample_interval,
        gronwall=gron,
        density_floor=_positive(doc, "density_floor", DEFAULT_DENSITY_FLOOR),
    )


def canonical_text(doc_text: str) -> str:
    """Key-sorted compact rendering used for stable config digests."""
    try:
        doc = json.loads(doc_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
