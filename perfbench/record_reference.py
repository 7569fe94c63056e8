"""Record perfbench/reference.json from the code in this checkout.

    python3 perfbench/record_reference.py

Run it only on the commit whose outputs are the reference (the commit
that defined the benchmark); the benchmark then checks every later
commit against it.
It records:
  - chain_allsites: the committed row (L=32, v=0.01) of
    results/allsites_curve.tsv and the master seed of its config;
  - qubit_purity: the h_z=0.1 purity curve, every 10th output time, for
    each master seed of the pool the benchmark seed selects from;
  - device_decode: alpha and beta of the `fit` verb on
    perfbench/data/allsites_curve.tsv.
It takes about three minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as w


def main() -> int:
    w.bootstrap()
    from annealkit.noise import NoiseSpectrum
    from annealkit.qubit import QubitRun, evolve_qubit

    with open(w.ROOT / "configs" / "sweep_allsites.json", encoding="utf-8") as fh:
        master_seed = json.load(fh)["master_seed"]
    rows = w.read_rows(w.ROOT / "results" / "allsites_curve.tsv")
    (row,) = [r for r in rows if r[0] == 32 and r[1] == 0.01]
    reference = {"chain_allsites": {"master_seed": master_seed, "L": 32,
                                    "v": 0.01, "delta_e_mean": row[2],
                                    "delta_e_stderr": row[3]}}

    curves = {}
    for k in range(w.QUBIT_SEED_POOL):
        seed = w.qubit_master_seed(k)
        run = QubitRun(h_z=0.1, spectrum=NoiseSpectrum(**w.QUBIT["spectrum"]),
                       t_max=w.QUBIT["t_max"], dt_out=w.QUBIT["dt_out"],
                       n_realizations=w.QUBIT["n_realizations"],
                       master_seed=seed, rtol=w.QUBIT["rtol"])
        purity = evolve_qubit(run).purity[::w.QUBIT_REFERENCE_STRIDE]
        curves[str(seed)] = [float(p) for p in purity]
        print(f"qubit h_z=0.1 master seed {seed}: done", flush=True)
    reference["qubit_purity"] = {"hz01": curves}

    scratch = w.ROOT / ".perfbench" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        config = w.write_json(scratch / "fit.json", {
            "fit": {"input": str(w.FIT_TABLE), "output_prefix": "fit"}})
        if w.cli_main(["fit", "--config", config, "--output-dir", str(scratch)]):
            raise SystemExit("fit verb failed")
        with open(scratch / "fit_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference["device_decode"] = {"alpha": summary["alpha"],
                                  "beta": summary["beta"]}

    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
