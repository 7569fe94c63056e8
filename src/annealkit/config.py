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

Every key is declared once, in `_SCHEMA`.  Unknown keys anywhere are
rejected; the keys a verb cannot run without (simulate.sizes, the
input of fit, collapse and aggregate, kzm.d/z/nu, embed.L, the three
decode paths) are named by that verb.  Defaults live with the objects
that use them.  Flags override keys; every output file records the
digest of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import ConfigError

_SPECTRUM = {"p": float, "omega0": float, "coupling": float, "n_modes": int}
_VELOCITY_RANGE = {"min": float, "max": float, "count": int}

# A dict value is a nested object checked by the same rule, a one-item list
# a list whose every element has that item's type; a tuple lists
# alternatives.
_SCHEMA: dict[str, Any] = {
    "master_seed": int,
    "output_dir": str,
    "workers": int,
    "simulate": {
        "sizes": [int],
        "velocities": ([float], _VELOCITY_RANGE),
        "n_realizations": int,
        "noise_mode": str,
        "single_site": int,
        "spectrum": _SPECTRUM,
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
        "spectrum": _SPECTRUM,
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
        "defects": {"qubits": [int], "couplers": [[int]]},
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

DEFAULTS = {
    "master_seed": 1,
    "output_dir": ".",
    "workers": 1,
}


def _check(path: str, value, expected) -> Any:
    """Checked copy of `value`; ints coerce to float where a float is due."""
    if isinstance(expected, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'configuration root'}: expected an "
                              f"object, got {type(value).__name__}")
        out = {}
        for key, item in value.items():
            name = f"{path}.{key}" if path else key
            if key not in expected:
                raise ConfigError(f"unknown key {name!r}; allowed: "
                                  f"{sorted(expected)}")
            out[key] = _check(name, item, expected[key])
        return out
    if isinstance(expected, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got "
                              f"{type(value).__name__}")
        return [_check(f"{path}[{i}]", item, expected[0])
                for i, item in enumerate(value)]
    if isinstance(expected, tuple):
        problems = []
        for alternative in expected:
            try:
                return _check(path, value, alternative)
            except ConfigError as exc:
                problems.append(str(exc))
        raise ConfigError(" or ".join(problems))
    if expected is float and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, expected) or \
            (expected is not bool and isinstance(value, bool)):
        raise ConfigError(f"{path}: expected {expected.__name__}, got "
                          f"{type(value).__name__}")
    return value


def validate_config(doc: dict) -> dict:
    """Reject unknown keys and coerce numeric types; returns a clean copy."""
    clean = dict(DEFAULTS, **_check("", doc, _SCHEMA))
    if clean["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {clean['workers']}")
    span = clean.get("simulate", {}).get("velocities")
    if isinstance(span, dict) and (
            set(span) != set(_VELOCITY_RANGE)
            or not 0 < span["min"] <= span["max"] or span["count"] < 1):
        raise ConfigError("simulate.velocities range needs min, max and "
                          "count with 0 < min <= max and count >= 1")
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
