"""Glue between result tables and the fitting machinery.

Extracts per-size (v, f, sigma) datasets from a curve table, applies the
high-velocity plateau exclusion, runs the shared-exponent fit, and
assembles the machine-readable fit summary document.  Also holds the
binned-error estimator shared by simulated sweeps and device aggregates.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .errors import ParameterError, SchemaError
from .scaling import PowerLawFit, fit_global, master_curve, optimum, rescale
from .tables import Table, require_fields

FIT_SUMMARY_SCHEMA = "fit-summary/1"
PLATEAU_MODES = ("energy_1d", "none")


def bin_stats(values: np.ndarray, n_bins_target: int):
    """Mean and binned standard error; bins equal to within one sample.

    A single value has no spread to estimate; its error is reported as 0.
    A target below 2 bins raises ParameterError.
    """
    if n_bins_target < 2:
        raise ParameterError(f"n_bins must be >= 2, got {n_bins_target}")
    n = len(values)
    if n == 1:
        return float(values[0]), 0.0, 1
    n_bins = min(n_bins_target, n)
    edges = np.linspace(0, n, n_bins + 1).astype(int)
    bin_means = np.array([values[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    stderr = float(bin_means.std(ddof=1) / math.sqrt(n_bins))
    return float(values.mean()), stderr, n_bins


def datasets_from_table(table: Table, observable: str = "delta_e",
                        plateau_mode: str = "energy_1d",
                        plateau_fraction: float = 0.8) -> dict:
    """size -> (v, f, sigma) arrays, cleaned for fitting.

    Rows with NaN entries (recorded failures) are dropped.  In
    'energy_1d' mode, points with f >= fraction * (L - 1) are treated as
    the high-velocity saturation plateau and excluded; the two-power-law
    form does not model saturation.
    """
    if plateau_mode not in PLATEAU_MODES:
        raise ParameterError(f"plateau_mode must be one of {PLATEAU_MODES}")
    L, v, f, s = (table[name] for name in ("L", "v", f"{observable}_mean",
                                           f"{observable}_stderr"))
    keep = ~(np.isnan(f) | np.isnan(s) | np.isnan(v))
    if plateau_mode == "energy_1d":
        keep &= f < plateau_fraction * (L - 1)
    out = {}
    for size in sorted(set(int(x) for x in L[keep])):
        m = keep & (L == size)
        vv, ff, ss = v[m], f[m], s[m]
        if np.all(ss == 0.0):
            ss = np.ones_like(ss)
        elif np.any(ss <= 0.0):
            raise ParameterError(
                f"size {size}: mix of zero and positive uncertainties")
        order = np.argsort(vv)
        out[size] = (vv[order], ff[order], ss[order])
    if not out:
        raise ParameterError("no usable rows after cleaning")
    return out


def fit_summary_document(fit: PowerLawFit, observable: str,
                         config_digest: str = "") -> dict:
    doc = {
        "schema": FIT_SUMMARY_SCHEMA,
        "generated_by": f"annealkit {__version__}",
        "config_digest": config_digest,
        "observable": observable,
        "alpha": fit.alpha,
        "alpha_error": fit.alpha_error,
        "beta": fit.beta,
        "beta_error": fit.beta_error,
        "chi_square": fit.chi_square,
        "dof": fit.dof,
        "n_points": fit.n_points,
        "degenerate": fit.degenerate,
        "message": fit.message,
        "per_size": [],
    }
    for j, size in enumerate(fit.sizes):
        opt = optimum(fit, size)
        doc["per_size"].append({
            "L": size,
            "a": float(fit.a[j]), "a_error": float(fit.a_error(size)),
            "b": float(fit.b[j]), "b_error": float(fit.b_error(size)),
            "v_min": opt.v_min, "v_min_error": opt.v_min_error,
            "f_min": opt.f_min, "f_min_error": opt.f_min_error,
        })
    return doc


def fit_table(table: Table, observable: str = "delta_e",
              plateau_mode: str = "energy_1d", plateau_fraction: float = 0.8,
              u_max: float | None = None, config_digest: str = "") -> tuple:
    """Fit a curve table; returns (fit, summary document, datasets).

    With u_max set, points beyond that rescaled velocity are dropped
    after a first fit pass and the fit repeats on the trimmed data
    (a second way to shed the high-velocity plateau).
    """
    datasets = datasets_from_table(table, observable, plateau_mode,
                                   plateau_fraction)
    fit = fit_global(datasets)
    if u_max is not None:
        if u_max <= 0:
            raise ParameterError("u_max must be positive")
        trimmed = {}
        for size, (v, f, s) in datasets.items():
            keep = v / optimum(fit, size).v_min <= u_max
            if keep.sum() >= 5:
                trimmed[size] = (v[keep], f[keep], s[keep])
        if trimmed:
            datasets = trimmed
            fit = fit_global(datasets)
    doc = fit_summary_document(fit, observable, config_digest)
    return fit, doc, datasets


def rescaled_rows(summary: dict, datasets: dict):
    """(L, v, u, g, g_err) rows collapsing every dataset, rescaled by the
    per-size minima of a fit summary document."""
    require_fields(summary, {"alpha": float, "beta": float,
                             "per_size": list}, "fit summary")
    by_size = {}
    for entry in summary["per_size"]:
        require_fields(entry, {"L": int, "v_min": float, "f_min": float},
                       "fit summary per_size entry")
        by_size[entry["L"]] = entry
    rows = []
    for size, (v, f, s) in datasets.items():
        if size not in by_size:
            raise SchemaError(f"fit summary lacks size {size}")
        entry = by_size[size]
        u, g = rescale(v, f, entry["v_min"], entry["f_min"])
        rows.extend((size, v[k], u[k], g[k], s[k] / entry["f_min"])
                    for k in range(len(u)))
    return rows


def master_curve_rows(summary: dict, rows, n: int = 200):
    """(u, g) samples of the summary's master curve spanning the rescaled rows."""
    u = [r[2] for r in rows]
    grid = np.logspace(np.log10(min(u) / 2), np.log10(max(u) * 2), n)
    return list(zip(grid, master_curve(grid, summary["alpha"], summary["beta"])))
