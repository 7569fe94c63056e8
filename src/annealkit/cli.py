"""Command-line entry point.

Verbs (the VERBS table): simulate, qubit, fit, collapse, kzm, embed,
decode, aggregate, oracle-check.  A JSON configuration file drives each
verb; --set key=value flags override individual keys, and --output-dir,
--workers and --master-seed override the root keys of the same names.
Every verb takes these same options, so one parser with a verb argument
reads them all.  The simulate and qubit sections pass straight to
SweepPlan and QubitRun, which own their defaults.

Exit codes: 0 success, 1 configuration error or unreadable input,
2 numerical failure or a command-line usage error (such as an unknown
verb), 3 partial results.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (FIT_SUMMARY_SCHEMA, datasets_from_table, fit_table,
                       master_curve_rows, rescaled_rows)
from .config import (apply_override, config_digest, load_config,
                     validate_config)
from .errors import (ConfigError, FitConvergenceError, HorizonError,
                     IntegrationAbort, ParameterError, SchemaError)
from .noise import NoiseSpectrum, sample_signal
from .tables import (append_row, read_document, read_table, write_document,
                     write_table)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3


def _effective_config(args) -> tuple:
    doc = load_config(args.config) if args.config else validate_config({})
    for assignment in args.set or []:
        apply_override(doc, assignment)
    if getattr(args, "output_dir", None):
        doc["output_dir"] = args.output_dir
    if getattr(args, "workers", None) is not None:
        doc["workers"] = args.workers
    if getattr(args, "master_seed", None) is not None:
        doc["master_seed"] = args.master_seed
    doc = validate_config(doc)
    return doc, config_digest(doc)


def _outpath(doc: dict, name: str) -> str:
    directory = doc.get("output_dir", ".")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _sidecar(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    write_document(path + ".meta.json", payload)


def _resumed_points(table: str, plan_digest: str) -> list:
    """The per-point sidecar entries of the rows a resume keeps."""
    try:
        previous = read_document(table + ".meta.json")
        curve = read_table(table)
        kept = set(zip(curve["L"].tolist(), curve["v"].tolist()))
    except (OSError, SchemaError):
        return []
    points = previous.get("points")
    if previous.get("plan_digest") != plan_digest or \
            not isinstance(points, list):
        return []
    return [p for p in points
            if isinstance(p, dict) and (p.get("L"), p.get("v")) in kept]


def _require(doc: dict, section: str, *keys: str) -> dict:
    """The named section, which must hold every one of `keys`."""
    if section not in doc:
        raise ConfigError(f"config has no {section!r} section")
    missing = [f"{section}.{key}" for key in keys if key not in doc[section]]
    if missing:
        raise ConfigError(f"config lacks required key(s) {', '.join(missing)}")
    return doc[section]


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from .ensemble import SweepPlan, run_sweep

    doc, digest = _effective_config(args)
    sec = dict(_require(doc, "simulate", "sizes"))
    output = sec.pop("output", "curve.tsv")
    if "spectrum" in sec:
        sec["spectrum"] = NoiseSpectrum(**sec["spectrum"])
    span = sec.get("velocities")
    if isinstance(span, dict):
        span = np.logspace(np.log10(span["min"]), np.log10(span["max"]),
                           span["count"]).tolist()
    if span is not None:
        sec["velocities"] = sorted(span)
    plan = SweepPlan(master_seed=doc["master_seed"], **sec)
    out = _outpath(doc, output)
    provenance = {"config_digest": digest, "plan_digest": plan.digest()}
    # per-point engine health; a resume of the same plan keeps the entries
    # of the points it does not recompute
    points = _resumed_points(out, plan.digest())

    def progress(row):
        print(f"  L={row.L:4d} v={row.v:.6g} dE={row.delta_e_mean:.6g} "
              f"+- {row.delta_e_stderr:.2g}", flush=True)
        # written once a point is in the table (the resume check has passed
        # by then), so a stopped sweep keeps its provenance; the failures
        # list is added when the grid ends
        _sidecar(out, dict(provenance, points=points))

    result = run_sweep(plan, out_path=out, workers=doc["workers"],
                       progress=progress, meta={"config_digest": digest},
                       health=points)
    _sidecar(out, dict(provenance, points=points,
                       failures=[list(f) for f in result.failures]))
    print(f"wrote {out} ({len(result.rows)} points, "
          f"{len(result.failures)} failures)")
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_qubit(args) -> int:
    from .qubit import ENGINE, QubitRun, coherence_time, evolve_qubit

    doc, digest = _effective_config(args)
    sec = dict(doc.get("qubit", {}))
    output = sec.pop("output", "purity.tsv")
    if "spectrum" in sec:
        sec["spectrum"] = NoiseSpectrum(**sec["spectrum"])
    run = QubitRun(master_seed=doc["master_seed"], **sec)
    start = time.perf_counter()
    passes = []

    def progress(substeps, chunks, wall_s):
        passes.append({"substeps": substeps, "chunks": chunks,
                       "wall_s": round(wall_s, 3)})
        print(f"  substeps {substeps}: {chunks} chunks ({wall_s:.1f} s)",
              flush=True)

    curve = evolve_qubit(run, progress)
    out = _outpath(doc, output)
    write_table(out, ("t", "purity"), zip(curve.times, curve.purity),
                {"schema": "purity-curve/1", "config_digest": digest,
                 "h_z": repr(run.h_z),
                 "n_realizations": run.n_realizations})
    summary = {"config_digest": digest, "engine": ENGINE,
               "substeps_per_dt_out": curve.substeps,
               "purity_error_estimate": curve.error_estimate,
               "trace_defect": curve.trace_defect,
               "hermiticity_defect": curve.hermiticity_defect,
               "min_eigenvalue": curve.min_eigenvalue,
               "passes": passes,
               "wall_s": round(time.perf_counter() - start, 3)}
    try:
        t_r = coherence_time(curve)
    except HorizonError as exc:
        _sidecar(out, dict(summary, coherence_time=None,
                           final_purity=exc.final_purity))
        print(f"wrote {out}; purity never reached 3/4 "
              f"(final {exc.final_purity:.4f}); extend t_max")
        return EXIT_NUMERICAL
    _sidecar(out, dict(summary, coherence_time=t_r))
    print(f"wrote {out}")
    print(f"coherence_time T_r = {t_r:.4f}")
    return EXIT_OK


def _write_collapse(doc: dict, prefix: str, digest: str, summary: dict,
                    datasets: dict) -> tuple:
    """Write the rescaled points and the master curve of a fit summary."""
    rows = rescaled_rows(summary, datasets)
    out = _outpath(doc, f"{prefix}_rescaled.tsv")
    write_table(out, ("L", "v", "u", "g", "g_stderr"), rows,
                {"schema": "rescaled-points/1", "config_digest": digest})
    mout = _outpath(doc, f"{prefix}_master.tsv")
    write_table(mout, ("u", "g"), master_curve_rows(summary, rows),
                {"schema": "master-curve/1", "config_digest": digest})
    return out, mout


def _cmd_fit_common(args, section: str) -> int:
    doc, digest = _effective_config(args)
    sec = _require(doc, section, "input")
    table = read_table(sec["input"])
    observable = sec.get("observable", "delta_e")
    plateau_mode = sec.get("plateau_mode",
                           "energy_1d" if observable.startswith("delta_e")
                           else "none")
    fraction = sec.get("plateau_fraction", 0.8)
    prefix = sec.get("output_prefix", section)

    if section == "collapse" and "fit_summary" in sec:
        summary = read_document(sec["fit_summary"], FIT_SUMMARY_SCHEMA)
        datasets = datasets_from_table(table, observable, plateau_mode,
                                       fraction)
        out, mout = _write_collapse(doc, prefix, digest, summary, datasets)
        print(f"wrote {out} and {mout}")
        return EXIT_OK

    fit, summary, datasets = fit_table(table, observable, plateau_mode,
                                       fraction, u_max=sec.get("u_max"),
                                       config_digest=digest)
    out_json = _outpath(doc, f"{prefix}_summary.json")
    write_document(out_json, summary)
    out_resc, out_master = _write_collapse(doc, prefix, digest, summary,
                                           datasets)
    print(f"wrote {out_json}, {out_resc}, {out_master}")
    print(f"alpha = {fit.alpha:.4f} +- {fit.alpha_error:.4f}, "
          f"beta = {fit.beta:.4f} +- {fit.beta_error:.4f}, "
          f"chi2/dof = {fit.chi_square / max(fit.dof, 1):.3g}")
    for entry in summary["per_size"]:
        print(f"  L={entry['L']:4d} a={entry['a']:.4g} b={entry['b']:.4g} "
              f"v_min={entry['v_min']:.4g} f_min={entry['f_min']:.4g}")
    if fit.degenerate:
        print(f"warning: degenerate fit: {fit.message}")
    return EXIT_OK


def cmd_fit(args) -> int:
    return _cmd_fit_common(args, "fit")


def cmd_collapse(args) -> int:
    return _cmd_fit_common(args, "collapse")


def cmd_kzm(args) -> int:
    from .scaling import KzmInput, kzm_exponent, lzm_exponent

    doc, _ = _effective_config(args)
    inp = KzmInput(**_require(doc, "kzm", "d", "z", "nu"))
    print(f"alpha_kzm = {kzm_exponent(inp):.6f}")
    print(f"alpha_lzm = {lzm_exponent(inp.z):.6f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    from .chimera import (DefectList, build_embedding, checkerboard_gauge,
                          gauge_transform, tile_partition,
                          write_coupler_list, write_logical_map)

    doc, _ = _effective_config(args)
    sec = _require(doc, "embed", "L")
    L = sec["L"]
    defects_doc = sec.get("defects", {})
    defects = DefectList(
        qubits=frozenset(defects_doc.get("qubits", ())),
        couplers=frozenset(tuple(c) for c in defects_doc.get("couplers", ())))
    placements = tile_partition(L) if sec.get("tiled", True) else None
    emb = build_embedding(L, j_ising=sec.get("j_ising", 0.5),
                          defects=defects, placements=placements,
                          j_hc=sec.get("j_hc", 1.0))
    gauge = sec.get("gauge", "none")
    if gauge == "checkerboard":
        emb = gauge_transform(emb, checkerboard_gauge(emb))
    elif gauge != "none":
        raise ConfigError("embed.gauge must be 'none' or 'checkerboard'")
    prefix = sec.get("output_prefix", f"embedding_L{L}")
    cpath = _outpath(doc, f"{prefix}.couplers.txt")
    mpath = _outpath(doc, f"{prefix}.map.json")
    write_coupler_list(cpath, emb)
    write_logical_map(mpath, emb)
    census = emb.census()
    print(f"wrote {cpath} and {mpath}")
    print(f"couplers: {census['hc']} high-cost, {census['intra']} intra-cell, "
          f"{census['inter']} inter-cell; {np.count_nonzero(emb.vacancy)} "
          f"vacancies")
    return EXIT_OK


def cmd_decode(args) -> int:
    from .chimera import (DECODED_COLUMNS, DECODED_SCHEMA, decode_samples,
                          read_embedding, read_samples)

    doc, digest = _effective_config(args)
    sec = _require(doc, "decode", "samples", "couplers", "logical_map")
    samples = read_samples(sec["samples"])
    emb = read_embedding(sec["couplers"], sec["logical_map"])
    decoded = decode_samples(samples, emb,
                             vacancy_threshold=sec.get("vacancy_threshold",
                                                       0.05))
    out = _outpath(doc, sec.get("output", "decoded.tsv"))
    anneal_time = samples.metadata.get("annealing_time", float("nan"))
    write_table(out, DECODED_COLUMNS, decoded,
                {"schema": DECODED_SCHEMA, "config_digest": digest,
                 "tile_side": emb.L, "annealing_time": repr(float(anneal_time))})
    print(f"wrote {out} ({len(decoded['tile'])} tile-runs)")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    from .chimera import (DEVICE_CURVE_COLUMNS, DEVICE_CURVE_SCHEMA,
                          aggregate_tiles, read_decoded)

    doc, digest = _effective_config(args)
    sec = _require(doc, "aggregate", "input")
    table, L, anneal_time = read_decoded(sec["input"])
    agg = aggregate_tiles(table, L=L, v=1.0 / anneal_time,
                          n_bins=sec.get("n_bins", 20))
    out = _outpath(doc, sec.get("output", "device_curve.tsv"))
    row = tuple(agg[key] for key in
                ("L", "v", "delta_e_phys_mean", "delta_e_phys_stderr",
                 "delta_m_phys_mean", "delta_m_phys_stderr",
                 "delta_e_logical_mean", "delta_e_logical_stderr",
                 "delta_m_logical_mean", "delta_m_logical_stderr",
                 "n_real", "n_bins"))
    append_row(out, DEVICE_CURVE_COLUMNS, row,
               {"schema": DEVICE_CURVE_SCHEMA, "config_digest": digest,
                "annealing_time": repr(anneal_time)})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from . import ed
    from .fermion import (ChainSpec, bdg_matrices, correlations, evolve,
                          ground_energy, ground_state, residual_energy)

    doc, digest = _effective_config(args)
    sec = doc.get("oracle_check", {})
    max_size = sec.get("max_size", 10)
    n_cases = sec.get("n_cases", 20)
    tol_ground = sec.get("tolerance_ground", 1e-10)
    tol_evolved = sec.get("tolerance_evolved", 1e-5)
    anneal_time = sec.get("anneal_time", 10.0)
    seed = doc["master_seed"]
    rng = np.random.default_rng(seed)
    worst_ground, worst_evolved = 0.0, 0.0
    for L in range(2, max_size + 1):
        for case in range(n_cases):
            s = rng.uniform(0.0, 1.0)
            spectrum = NoiseSpectrum(n_modes=64)
            signals = tuple(
                sample_signal(spectrum, (seed, "oracle", L, case, site))
                for site in range(L))
            chain = ChainSpec(size=L, coupling=0.01, signals=signals)
            t_probe = rng.uniform(0.0, anneal_time)
            e_bdg = ground_energy(chain, s, t_probe)
            e_ed = ed.spectrum_exact(chain, s, t_probe)[0]
            worst_ground = max(worst_ground, abs(e_bdg - e_ed))
        chain = ChainSpec(size=L, coupling=0.01,
                          signals=tuple(sample_signal(NoiseSpectrum(n_modes=64),
                                                      (seed, "oracle-ev", L, site))
                                        for site in range(L)))
        modes = ground_state(*bdg_matrices(chain, 0.0, 0.0))
        final = evolve(modes, chain, anneal_time, rtol=1e-10, atol=1e-12)
        de_bdg = residual_energy(correlations(final))
        de_ed = ed.residual_energy_exact(ed.anneal_exact(chain, anneal_time))
        worst_evolved = max(worst_evolved, abs(de_bdg - de_ed))
        print(f"L={L}: ground max |dE| = {worst_ground:.3e}, "
              f"evolved |d dE| = {abs(de_bdg - de_ed):.3e}")
    ok = worst_ground < tol_ground and worst_evolved < tol_evolved
    print(f"worst ground deviation {worst_ground:.3e} (tol {tol_ground:g}), "
          f"worst evolved deviation {worst_evolved:.3e} (tol {tol_evolved:g})")
    print("oracle check PASSED" if ok else "oracle check FAILED")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------

# verb -> (function, one-line help)
VERBS = {
    "simulate": (cmd_simulate, "run an (L, v) residual-energy sweep"),
    "qubit": (cmd_qubit, "single-qubit purity curve and coherence time"),
    "fit": (cmd_fit, "two-power-law fit of a curve table"),
    "collapse": (cmd_collapse, "rescale data onto the master curve"),
    "kzm": (cmd_kzm, "critical-exponent predictions"),
    "embed": (cmd_embed, "emit Chimera coupler list and logical map"),
    "decode": (cmd_decode, "decode measurement samples into tile stats"),
    "aggregate": (cmd_aggregate, "average decoded tiles with binned errors"),
    "oracle-check": (cmd_oracle_check,
                     "cross-check the fermion route against dense "
                     "diagonalization"),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every verb: they all take the same options."""
    width = max(map(len, VERBS))
    parser = argparse.ArgumentParser(
        prog="annealkit",
        description="Quantum-annealing simulation and scaling-analysis toolkit",
        epilog="verbs:\n" + "\n".join(f"  {name:<{width}}  {help_text}"
                                      for name, (_, help_text) in VERBS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"annealkit {__version__}")
    parser.add_argument("verb", choices=VERBS, metavar="verb",
                        help="one of the verbs listed below")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
    parser.add_argument("--output-dir", help="directory for output files")
    parser.add_argument("--workers", type=int, help="worker process count")
    parser.add_argument("--master-seed", type=int, help="master random seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return VERBS[args.verb][0](args)
    except (ConfigError, SchemaError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationAbort, FitConvergenceError, HorizonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
