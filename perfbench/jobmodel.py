"""Job-level figures of the traced chain_allsites run.

pool_speedup: serial wall time of the `simulate` verb over its wall time
with --workers <cores>, on the cheapest point of the allsites plan (L=32,
v=0.056), both as separate processes.  The pooled run is stopped after
POOL_CAP_S; the speedup is then an upper bound.

projected_hours: a cost model, not a measurement.  For each sweep config
one calibration realization per size at two velocities fits
cost = c L^a T^b; the job is the sum over the grid times n_realizations.
For each qubit config one realization at t_max=150 is scaled linearly to
the config's t_max and n_realizations.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from workloads import ROOT, SRC, write_json

POOL_POINT = {"sizes": [32], "velocities": [0.056]}
POOL_CAP_S = 45.0
CHAIN_CONFIGS = ("sweep_allsites", "sweep_single")
QUBIT_CONFIGS = ("qubit_hz0", "qubit_hz01", "qubit_hz02", "qubit_hz0_twin")
QUBIT_CALIBRATION_T = 150.0


def core_count() -> int:
    return len(os.sched_getaffinity(0))


def _simulate_process(config: str, workers: int, out_dir, cap: float) -> tuple:
    """Wall time of one `annealkit simulate` process; (seconds, finished)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "annealkit.cli", "simulate", "--config",
           config, "--workers", str(workers), "--output-dir", str(out_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return cap, False
    if code != 0:
        raise RuntimeError(f"simulate --workers {workers} exited with {code}")
    return time.perf_counter() - start, True


def pool_speedup(run_dir) -> dict:
    with open(ROOT / "configs" / "sweep_allsites.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["simulate"].update(POOL_POINT, output="pool.tsv")
    doc.pop("output_dir", None)
    config = write_json(run_dir / "pool.json", doc)
    serial, _ = _simulate_process(config, 1, run_dir / "pool-serial", 600.0)
    workers = core_count()
    pooled, finished = _simulate_process(config, workers, run_dir / "pool-pooled",
                                         POOL_CAP_S)
    return {"serial_s": serial, "pooled_s": pooled, "workers": workers,
            "speedup": serial / pooled, "finished": finished}


def _velocities(section) -> list:
    vs = section["velocities"]
    if isinstance(vs, dict):
        vs = np.logspace(np.log10(vs["min"]), np.log10(vs["max"]),
                         vs["count"]).tolist()
    return sorted(vs, reverse=True)


def _chain_projection(doc) -> tuple:
    from annealkit.ensemble import SweepPlan, build_chain
    from annealkit.fermion import (bdg_matrices, correlations, evolve,
                                   ground_state, residual_energy)
    from annealkit.noise import NoiseSpectrum

    sec = doc["simulate"]
    velocities = _velocities(sec)
    plan = SweepPlan(sizes=tuple(sec["sizes"]),
                     velocities=tuple(sorted(velocities)),
                     n_realizations=sec.get("n_realizations", 100),
                     noise_mode=sec.get("noise_mode", "all"),
                     single_site=sec.get("single_site", 0),
                     spectrum=NoiseSpectrum(**sec.get("spectrum", {})),
                     master_seed=doc.get("master_seed", 1),
                     rtol=sec.get("rtol", 1e-8), atol=sec.get("atol", 1e-10))
    # the fastest and third-fastest velocities: cheap, with some lever arm in T
    calibration = velocities[:1] + velocities[2:3]
    samples = []
    for L in plan.sizes:
        for v in calibration:
            start = time.perf_counter()
            chain = build_chain(plan, L, v, 0)
            modes = ground_state(*bdg_matrices(chain, 0.0, 0.0))
            final = evolve(modes, chain, T=1.0 / v, rtol=plan.rtol, atol=plan.atol)
            residual_energy(correlations(final))
            samples.append((L, 1.0 / v, time.perf_counter() - start))
    L, T, cost = (np.array(col) for col in zip(*samples))
    design = np.column_stack([np.ones_like(L), np.log(L), np.log(T)])
    coef, *_ = np.linalg.lstsq(design, np.log(cost), rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - np.log(cost)) ** 2)))
    seconds = sum(plan.n_realizations * np.exp(coef[0]) * size ** coef[1]
                  * (1.0 / v) ** coef[2]
                  for size in plan.sizes for v in velocities)
    return seconds / 3600.0, residual


def _qubit_projection(doc) -> float:
    from annealkit.noise import NoiseSpectrum
    from annealkit.qubit import QubitRun, evolve_qubit

    sec = doc["qubit"]
    run = QubitRun(h_z=sec.get("h_z", 0.0),
                   spectrum=NoiseSpectrum(**sec.get("spectrum", {})),
                   t_max=QUBIT_CALIBRATION_T, dt_out=sec.get("dt_out", 0.5),
                   n_realizations=1, master_seed=doc.get("master_seed", 1),
                   rtol=sec.get("rtol", 1e-10))
    start = time.perf_counter()
    evolve_qubit(run)
    per_unit_t = (time.perf_counter() - start) / QUBIT_CALIBRATION_T
    return per_unit_t * sec.get("t_max", 150.0) \
        * sec.get("n_realizations", 1000) / 3600.0


def projected_hours() -> dict:
    """Projected single-core hours per config, plus the chain fit residual
    (rms of the natural-log cost residual, worst config)."""
    out, residuals = {}, []
    for name in CHAIN_CONFIGS + QUBIT_CONFIGS:
        path = ROOT / "configs" / f"{name}.json"
        if not path.is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if name in CHAIN_CONFIGS:
            out[name], residual = _chain_projection(doc)
            residuals.append(residual)
        else:
            out[name] = _qubit_projection(doc)
    out["fit_residual"] = max(residuals, default=0.0)
    return out
