"""Ensembles of annealing runs over an (L, v) grid with binned errors.

Each grid point runs n_realizations independent noise realizations of
the chain anneal (T = 1/v), averages the residual energy, and estimates
the standard error by data binning.  Per-realization seeds derive from
(master_seed, L, v, realization, site), so results are reproducible and
independent of execution order or worker count.  Completed points are
appended to the output table immediately and skipped on restart.

The step count of a point is chosen once, in the calling process, by the
tolerance search of `fermion.propagate` on realization 0 (the pilot,
whose fine run is kept as realization 0's result), and every other
realization runs that many steps.  Realizations 1..n-1 run in
consecutive chunks, each through one batched `fermion.propagator` call;
the chunk size depends on the chain size and mode count alone
(_CHUNK_ELEMENTS), and a worker pool maps whole chunks.  A realization
starts from the s = 0 ground state, the vacuum (J(0) = 0), and its
residual energy is read off its own slice of the batch by elementwise
sums.  The one BLAS call of a realization is the propagator's noise
contraction, one matrix product of fixed shape per noisy site, whose
bytes depend neither on the BLAS thread count nor on the other
realizations of the chunk (see `fermion`).  A batched propagator so
equals the single one bit for bit, and the table bytes depend on
neither the worker count, the BLAS thread count nor the chunking.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import bin_stats
from .errors import IntegrationAbort, ParameterError, SchemaError
# residual_energy reads a realization's residual energy off its
# propagator; the module global is what perfbench/selftest.py perturbs
from .fermion import (ENGINE, ChainSpec, orthogonality_defect, propagate,
                      propagator, vacuum_residual_energy as residual_energy)
from .noise import NoiseSpectrum, sample_signal
from .tables import append_row, read_table

NOISE_MODES = ("all", "single", "none")
CURVE_COLUMNS = ("L", "v", "delta_e_mean", "delta_e_stderr", "n_real", "n_bins")
CURVE_SCHEMA = "ensemble-curve/1"
SWEEP_STREAM_TAG = "sweep"
# working-set budget of one batched propagator call, in chain sites times
# noise modes per realization.  With 100 modes it batches 4 realizations
# at L=32 and 2 at L=64, where per-call overhead is a large share of a
# step (all-sites L=64 only breaks even; single-site gains), and none
# from L=128 on, where the bulk arithmetic dominates.  4 all-sites
# realizations at L=32 keep the peak memory within ~3 MB of one.
_CHUNK_ELEMENTS = 12_800


def default_velocity_grid(L: int, count: int = 20) -> tuple:
    """Log-spaced window shifted down with size (minima move left).

    The lower edge tracks the finite-size crossover 2/L^2, where the
    quasi-adiabatic branch turns over.
    """
    lo = 2.0 / L ** 2
    return tuple(np.logspace(np.log10(lo), np.log10(0.5), count))


@dataclass(frozen=True)
class SweepPlan:
    """Grid specification; velocities=None means the per-size default."""

    sizes: tuple
    velocities: Optional[tuple] = None
    n_realizations: int = 100
    noise_mode: str = "all"
    single_site: int = 0
    spectrum: NoiseSpectrum = field(default_factory=NoiseSpectrum)
    master_seed: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10
    n_bins: int = 20

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.velocities is not None:
            object.__setattr__(self, "velocities",
                               tuple(float(v) for v in self.velocities))
        if self.noise_mode not in NOISE_MODES:
            raise ParameterError(f"noise_mode must be one of {NOISE_MODES}")
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ParameterError("sizes must be a non-empty list of sizes >= 2")
        if self.velocities is not None:
            vs = self.velocities
            if any(v <= 0 for v in vs) or list(vs) != sorted(vs):
                raise ParameterError(
                    "velocities must be positive and sorted ascending")
        if self.n_realizations < 1:
            raise ParameterError("n_realizations must be >= 1")
        if self.noise_mode != "none" and self.n_realizations < 100:
            raise ParameterError("noisy sweeps need n_realizations >= 100 "
                                 "for meaningful binned error bars")
        if self.noise_mode == "single" and self.single_site < 0:
            raise ParameterError("single_site must be a valid site index")
        if not self.rtol > 0.0:
            raise ParameterError(f"rtol must be positive, got {self.rtol}")
        if not self.atol >= 0.0:
            raise ParameterError(f"atol must be non-negative, got {self.atol}")

    def velocities_for(self, L: int) -> tuple:
        if self.velocities is not None:
            return self.velocities
        return default_velocity_grid(L)

    def digest(self) -> str:
        doc = {
            "engine": ENGINE,
            "sizes": list(self.sizes),
            "velocities": ("auto" if self.velocities is None
                           else [repr(v) for v in self.velocities]),
            "n_realizations": self.n_realizations,
            "noise_mode": self.noise_mode,
            "single_site": self.single_site,
            "spectrum": [self.spectrum.p, self.spectrum.omega0,
                         self.spectrum.coupling, self.spectrum.n_modes],
            "master_seed": self.master_seed,
            "rtol": self.rtol,
            "atol": self.atol,
            "n_bins": self.n_bins,
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class PointRow(NamedTuple):
    L: int
    v: float
    delta_e_mean: float
    delta_e_stderr: float
    n_real: int
    n_bins: int


@dataclass
class SweepResult:
    rows: list
    failures: list  # [(L, v, message)]

    @property
    def complete(self) -> bool:
        return not self.failures


def build_chain(plan: SweepPlan, L: int, v: float, realization: int) -> ChainSpec:
    """Chain with the realization's noise signals attached per noise_mode."""
    if plan.noise_mode == "none":
        return ChainSpec(size=L)
    if plan.noise_mode == "single":
        site = plan.single_site
        if site >= L:
            raise ParameterError(f"single_site {site} outside chain of {L}")
        noisy_sites = [site]
    else:
        noisy_sites = range(L)
    signals = [None] * L
    for site in noisy_sites:
        signals[site] = sample_signal(
            plan.spectrum,
            (plan.master_seed, SWEEP_STREAM_TAG, L, float(v), realization, site))
    return ChainSpec(size=L, coupling=plan.spectrum.coupling,
                     signals=tuple(signals))


class Pilot(NamedTuple):
    """Realization 0 of a point, run by the step-count search."""

    steps: int
    delta_e: float
    richardson: float           # |dE_n - dE_{n/2}| / 15
    error_ratio: float          # accepted propagator error over allowance
    orthogonality_defect: float  # worst max|R R^T - 1| of the two runs


def _pilot(plan: SweepPlan, L: int, v: float) -> Pilot:
    prop = propagate(build_chain(plan, L, v, 0), 1.0 / v, plan.rtol,
                     plan.atol)
    fine = residual_energy(prop.fine)
    coarse = residual_energy(prop.coarse)
    return Pilot(prop.steps, fine, abs(fine - coarse) / 15.0,
                 prop.error_ratio,
                 max(orthogonality_defect(prop.fine),
                     orthogonality_defect(prop.coarse)))


def _chunk_size(L: int, n_modes: int) -> int:
    """Realizations propagated together at chain size L: as many as keep
    their chain sites times noise modes within _CHUNK_ELEMENTS."""
    return max(1, _CHUNK_ELEMENTS // (L * n_modes))


def _realizations(plan: SweepPlan, L: int, v: float, realizations: range,
                  steps: int) -> list:
    """Residual energies of the given realizations after `steps` steps,
    propagated together."""
    chains = [build_chain(plan, L, v, r) for r in realizations]
    return [residual_energy(S) for S in propagator(chains, 1.0 / v, steps)]


def run_point(L: int, v: float, plan: SweepPlan, workers: int = 1,
              health: Optional[dict] = None) -> PointRow:
    """Ensemble mean and binned error at one grid point (T = 1/v).

    `health`, if given, receives the engine and the pilot's step count,
    Richardson estimate, error ratio and orthogonality defect.
    """
    n_real = 1 if plan.noise_mode == "none" else plan.n_realizations
    energies = np.empty(n_real)
    try:
        pilot = _pilot(plan, L, v)
        energies[0] = pilot.delta_e
        size = _chunk_size(L, plan.spectrum.n_modes)
        chunks = [range(lo, min(lo + size, n_real))
                  for lo in range(1, n_real, size)]
        run = partial(_realizations, plan, L, v, steps=pilot.steps)
        if workers > 1 and len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, chunks))
        else:
            results = map(run, chunks)
        energies[1:] = [e for chunk in results for e in chunk]
    except IntegrationAbort as exc:
        raise IntegrationAbort(f"point (L={L}, v={v}) failed: {exc}",
                               t=exc.t, step=exc.step) from exc
    if health is not None:
        health.update(engine=ENGINE, steps=pilot.steps,
                      richardson_delta_e=pilot.richardson,
                      error_ratio=pilot.error_ratio,
                      orthogonality_defect=pilot.orthogonality_defect)
    if n_real == 1:
        return PointRow(L, v, float(energies[0]), 0.0, 1, 1)
    mean, stderr, n_bins = bin_stats(energies, plan.n_bins)
    return PointRow(L, v, mean, stderr, n_real, n_bins)


def _table_meta(plan: SweepPlan, extra: Optional[dict] = None) -> dict:
    meta = {"schema": CURVE_SCHEMA,
            "generated_by": f"annealkit {__version__}",
            "plan_digest": plan.digest()}
    meta.update(extra or {})
    return meta


def _load_completed(path, plan: SweepPlan) -> dict:
    if not path or not os.path.exists(path):
        return {}
    table = read_table(path)
    digest = table.meta.get("plan_digest")
    if digest != plan.digest():
        raise SchemaError(
            f"{path} was produced by a different plan (digest {digest}, "
            f"expected {plan.digest()}); refusing to resume")
    done = {}
    for row in table.rows():
        key = (int(row[0]), repr(float(row[1])))
        done[key] = PointRow(int(row[0]), float(row[1]), row[2], row[3],
                             int(row[4]), int(row[5]))
    return done


def run_sweep(plan: SweepPlan, out_path=None, workers: int = 1,
              progress=None, meta: Optional[dict] = None,
              health: Optional[list] = None) -> SweepResult:
    """Run the grid, resuming from and appending to out_path if given.

    Failed points are recorded as NaN rows and the sweep continues.
    Velocities run highest-first so cheap points land early.  Each
    computed point appends {"L", "v", **run_point health, "wall_s"} to
    `health` before `progress` sees its row; wall_s is the point's wall
    time in seconds, rounded to ms.
    """
    done = _load_completed(out_path, plan)
    table_meta = _table_meta(plan, meta)
    rows, failures = [], []
    for L in plan.sizes:
        for v in sorted(plan.velocities_for(L), reverse=True):
            key = (L, repr(v))
            if key in done:
                row = done[key]
                if math.isnan(row.delta_e_mean):
                    failures.append((L, v, "recorded failure (resumed)"))
                rows.append(row)
                continue
            point = {"L": L, "v": v}
            start = time.perf_counter()
            try:
                row = run_point(L, v, plan, workers=workers, health=point)
            except IntegrationAbort as exc:
                failures.append((L, v, str(exc)))
                row = PointRow(L, v, float("nan"), float("nan"),
                               0, 0)
            point["wall_s"] = round(time.perf_counter() - start, 3)
            rows.append(row)
            if health is not None:
                health.append(point)
            if out_path:
                append_row(out_path, CURVE_COLUMNS, row, table_meta)
            if progress is not None:
                progress(row)
    rows.sort(key=lambda r: (r.L, r.v))
    return SweepResult(rows=rows, failures=failures)
