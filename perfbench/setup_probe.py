"""One-time program preparation of each workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <inputs_dir> <out_dir>

prints the seconds spent importing annealkit and preparing the workload:
config validation and plan build for the chain workloads, run objects for
qubit_purity, and the three `embed` verbs for device_decode.  Interpreter
start-up is excluded.  Only the standard library is imported before the
clock starts, so numpy's import counts as part of annealkit's.  run.py
calls prepare() in-process too, to build what the timed section uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

EMBED_SIZES = (4, 8, 16)


def prepare(workload: str, inputs_dir: str, out_dir: str):
    """Import annealkit and prepare `workload`; returns what the run needs."""
    if workload in ("chain_allsites", "chain_noisefree"):
        import annealkit.cli  # noqa: F401  (the verb the timed section calls)
        from annealkit.config import load_config
        from annealkit.ensemble import SweepPlan
        from annealkit.noise import NoiseSpectrum

        doc = load_config(os.path.join(inputs_dir, "simulate.json"))
        sec = doc["simulate"]
        plan = SweepPlan(sizes=tuple(sec["sizes"]),
                         velocities=tuple(sorted(sec["velocities"])),
                         n_realizations=sec["n_realizations"],
                         noise_mode=sec["noise_mode"],
                         spectrum=NoiseSpectrum(**sec.get("spectrum", {})),
                         master_seed=doc["master_seed"],
                         rtol=sec["rtol"], atol=sec["atol"],
                         n_bins=sec.get("n_bins", 20))
        plan.digest()
        return plan
    if workload == "qubit_purity":
        from annealkit.noise import NoiseSpectrum
        from annealkit.qubit import QubitRun

        with open(os.path.join(inputs_dir, "qubit.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        return [QubitRun(h_z=h_z, spectrum=NoiseSpectrum(**doc["spectrum"]),
                         t_max=doc["t_max"], dt_out=doc["dt_out"],
                         n_realizations=doc["n_realizations"],
                         master_seed=doc["master_seed"], rtol=doc["rtol"])
                for h_z in doc["h_z"]]
    if workload == "device_decode":
        from annealkit import cli

        for L in EMBED_SIZES:
            config = os.path.join(inputs_dir, f"embed_L{L}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["embed", "--config", config,
                                 "--output-dir", out_dir])
            if code != 0:
                raise RuntimeError(f"embed L={L} exited with {code}")
        return None
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    start = time.perf_counter()
    prepare(sys.argv[1], sys.argv[2], sys.argv[3])
    print(time.perf_counter() - start)
