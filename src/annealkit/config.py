"""Run configuration: one JSON document drives every CLI verb.

Layout (all sections optional except the one the invoked verb needs):

    {
      "master_seed": 1,
      "output_dir": "out",
      "workers": 1,
      "simulate": {
        "sizes": [32, 64],
        "velocities": [0.001, ...] or {"min": 1e-4, "max": 0.1, "count": 12},
        "n_realizations": 100,
        "noise_mode": "all",            # all | single | none
        "single_site": 0,
        "spectrum": {"p": 0.75, "omega0": 1.0, "coupling": 0.01, "n_modes": 1000},
        "rtol": 1e-8, "atol": 1e-10, "n_bins": 20,
        "output": "curve.tsv"
      },
      "qubit":     {"h_z", "t_max", "dt_out", "n_realizations", "spectrum",
                    "rtol", "output"},
      "fit":       {"input", "observable", "plateau_mode", "plateau_fraction",
                    "u_max", "output_prefix"},
      "collapse":  {same keys as fit, plus "fit_summary"},
      "kzm":       {"d", "z", "nu", "kappa"},
      "embed":     {"L", "j_ising", "j_hc", "tiled", "defects", "gauge",
                    "output_prefix"},
      "decode":    {"samples", "couplers", "logical_map", "vacancy_threshold",
                    "output"},
      "aggregate": {"input", "n_bins", "output"},
      "oracle_check": {"max_size", "n_cases", "tolerance_ground",
                       "tolerance_evolved", "anneal_time"}
    }

Unknown keys anywhere are rejected.  Flags override keys; every output
file records the digest of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import ConfigError

_SPECTRUM_KEYS = {
    "p": float, "omega0": float, "coupling": float, "n_modes": int,
}

_SCHEMAS: dict[str, dict[str, Any]] = {
    "": {
        "master_seed": int,
        "output_dir": str,
        "workers": int,
    },
    "simulate": {
        "sizes": list,
        "velocities": (list, dict),
        "n_realizations": int,
        "noise_mode": str,
        "single_site": int,
        "spectrum": dict,
        "rtol": float,
        "atol": float,
        "n_bins": int,
        "output": str,
    },
    "qubit": {
        "h_z": float,
        "t_max": float,
        "dt_out": float,
        "n_realizations": int,
        "spectrum": dict,
        "rtol": float,
        "output": str,
    },
    "fit": {
        "input": str,
        "observable": str,
        "plateau_mode": str,
        "plateau_fraction": float,
        "u_max": float,
        "output_prefix": str,
    },
    "collapse": {
        "input": str,
        "observable": str,
        "plateau_mode": str,
        "plateau_fraction": float,
        "u_max": float,
        "fit_summary": str,
        "output_prefix": str,
    },
    "kzm": {
        "d": float,
        "z": float,
        "nu": float,
        "kappa": float,
    },
    "embed": {
        "L": int,
        "j_ising": float,
        "j_hc": float,
        "tiled": bool,
        "defects": dict,
        "gauge": str,
        "output_prefix": str,
    },
    "decode": {
        "samples": str,
        "couplers": str,
        "logical_map": str,
        "vacancy_threshold": float,
        "output": str,
    },
    "aggregate": {
        "input": str,
        "n_bins": int,
        "output": str,
    },
    "oracle_check": {
        "max_size": int,
        "n_cases": int,
        "tolerance_ground": float,
        "tolerance_evolved": float,
        "anneal_time": float,
    },
}

_VELOCITY_RANGE_KEYS = {"min": float, "max": float, "count": int}
_DEFECT_KEYS = {"qubits": list, "couplers": list}

DEFAULTS = {
    "master_seed": 1,
    "output_dir": ".",
    "workers": 1,
}


def _check_type(path: str, value, expected) -> Any:
    if expected is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return float(value)
    if expected is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(expected, tuple):
        for exp in expected:
            try:
                return _check_type(path, value, exp)
            except ConfigError:
                continue
        raise ConfigError(f"{path}: expected one of {expected}, got "
                          f"{type(value).__name__}")
    if not isinstance(value, expected):
        raise ConfigError(f"{path}: expected {expected.__name__}, got "
                          f"{type(value).__name__}")
    return value


def _validate_section(name: str, section: dict, schema: dict) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{name.rstrip('.')}: expected an object, got "
                          f"{type(section).__name__}")
    out = {}
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown key {name}{key!r}; allowed: "
                              f"{sorted(schema)}")
        out[key] = _check_type(f"{name}{key}", value, schema[key])
    return out


def validate_config(doc: dict) -> dict:
    """Reject unknown keys and coerce numeric types; returns a clean copy."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    clean = dict(DEFAULTS)
    for key, value in doc.items():
        if key in _SCHEMAS[""]:
            clean[key] = _check_type(key, value, _SCHEMAS[""][key])
        elif key and key in _SCHEMAS:  # "" names the root schema
            clean[key] = _validate_section(f"{key}.", value, _SCHEMAS[key])
        else:
            raise ConfigError(f"unknown section {key!r}; allowed: "
                              f"{sorted(k for k in _SCHEMAS if k)}")
    for key in ("simulate", "qubit"):
        if key in clean and "spectrum" in clean[key]:
            clean[key]["spectrum"] = _validate_section(
                f"{key}.spectrum.", clean[key]["spectrum"], _SPECTRUM_KEYS)
    if "simulate" in clean and isinstance(clean["simulate"].get("velocities"), dict):
        span = _validate_section("simulate.velocities.",
                                 clean["simulate"]["velocities"],
                                 _VELOCITY_RANGE_KEYS)
        if set(span) != set(_VELOCITY_RANGE_KEYS) or \
                not 0 < span["min"] <= span["max"] or span["count"] < 1:
            raise ConfigError("simulate.velocities range needs min, max and "
                              "count with 0 < min <= max and count >= 1")
        clean["simulate"]["velocities"] = span
    if "embed" in clean and "defects" in clean["embed"]:
        clean["embed"]["defects"] = _validate_section(
            "embed.defects.", clean["embed"]["defects"], _DEFECT_KEYS)
    return clean


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}")
    return validate_config(doc)


def apply_override(doc: dict, assignment: str) -> None:
    """Apply a 'dotted.path=json_value' flag override in place."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value: {assignment!r}")
    path, _, raw = assignment.partition("=")
    keys = path.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings allowed
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {path!r}")
    node[keys[-1]] = value


_PRESENTATION_KEYS = ("output_dir", "workers")


def config_digest(doc: dict) -> str:
    """Digest of the result-determining configuration.

    Where outputs land and how many workers run never change the
    numbers, so those keys stay out of the provenance digest.
    """
    doc = {k: v for k, v in doc.items() if k not in _PRESENTATION_KEYS}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
