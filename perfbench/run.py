"""annealkit benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: chain_allsites, chain_noisefree, qubit_purity, device_decode
(see perfbench/README.md).  --seconds fixes how many rounds of the
workload run (at least one); the work per round is fixed, so a seed and
--seconds always give the same work.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the
workload runs once untraced and once with spans around every layer, and
the JSON carries the per-layer metrics.  Exit code 0 when a result was
printed (its "correct" field says whether every check passed), 1 when
the checkout lacks annealkit, 2 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads as w

SETUP_PROBES = 7
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# computed memory traffic of one DOP853 step, in state vectors: the eleven
# stage sums read s stages and write one (77), the solution update reads 12
# and writes one (13), the two error estimates read 13 and write one each
# (28), and the 12 RHS calls each read and write one (24)
DOP853_VECTOR_PASSES = 142

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; every one is printed by every traced run, with
# 0 for layers the workload does not reach
PER_LAYER_UNITS = {
    "noise.bank_eval.calls": "count", "noise.bank_eval.self_s": "s",
    "noise.sample_signal.calls": "count", "noise.sample_signal.self_s": "s",
    "noise.signal_eval.calls": "count", "noise.signal_eval.self_s": "s",
    "fermion.rhs.calls": "count", "fermion.rhs.self_s": "s",
    "fermion.steps": "count", "fermion.rhs_per_step": "calls/step",
    "fermion.step.self_s": "s", "fermion.bytes_per_step_computed": "B/step",
    "fermion.ground_state.self_s": "s", "fermion.correlations.self_s": "s",
    "fermion.nambu_defect_max": "1", "fermion.pairing_defect_max": "1",
    "ensemble.realization_s_p50": "s", "ensemble.realization_s_tail": "s",
    "ensemble.point.self_s": "s", "ensemble.pool_speedup": "x",
    "ensemble.projected_job_h.sweep_allsites": "h",
    "ensemble.projected_job_h.sweep_single": "h",
    "ensemble.projected_job_h.qubit_hz0": "h",
    "ensemble.projected_job_h.qubit_hz01": "h",
    "ensemble.projected_job_h.qubit_hz02": "h",
    "ensemble.projected_job_h.qubit_hz0_twin": "h",
    "ensemble.projected_job_h.fit_residual": "1",
    "tables.write_table.self_s": "s", "tables.read_table.self_s": "s",
    "tables.append_row.calls": "count", "tables.append_row.self_s": "s",
    "qubit.evolve.self_s": "s", "qubit.trace_defect": "1",
    "qubit.min_eigenvalue": "1",
    "chimera.read_samples.self_s": "s", "chimera.read_samples.bytes": "B",
    "chimera.read_embedding.self_s": "s", "chimera.decode_samples.self_s": "s",
    "chimera.aggregate_tiles.self_s": "s", "chimera.build_embedding.self_s": "s",
    "scaling.fit_global.calls": "count", "scaling.fit_global.self_s": "s",
    "analysis.fit_table.self_s": "s",
    "config.validate_config.self_s": "s", "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(samples) -> tuple:
    """(value, percentile): the highest ladder percentile with at least ten
    samples beyond it, or the maximum (100) when there are too few."""
    n = len(samples)
    eligible = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0]
    if not eligible:
        return float(max(samples)), 100.0
    q = eligible[-1]
    return float(np.percentile(samples, q)), q


def environment() -> dict:
    """Cores, BLAS, versions and source identity; BLAS threads are not
    pinned here, so what the program gets is what is recorded."""
    import scipy

    env = {"cores": os.cpu_count(),
           "affinity": sorted(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__,
           "ANNEALKIT_WORKERS": os.environ.get("ANNEALKIT_WORKERS", "unset")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _openblas_threads()
    env["blas_thread_env"] = {k: os.environ[k] for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS") if k in os.environ}
    env["commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted((w.SRC / "annealkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def _openblas_threads():
    """Effective OpenBLAS thread count, asked of the library numpy loaded."""
    import ctypes
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if not os.path.isdir(libs):
        return "unknown"
    for name in sorted(os.listdir(libs)):
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_commit() -> str:
    if not (w.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(w.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure_setup(workload, probes: int = SETUP_PROBES) -> list:
    """Seconds of `import annealkit` plus preparation, each in a fresh
    interpreter so the import is paid every time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(w.SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    samples = []
    for k in range(probes):
        out = workload.run_dir / f"probe-{k}"
        out.mkdir()
        proc = subprocess.run([sys.executable, str(w.BENCH / "setup_probe.py"),
                               workload.name, str(workload.inputs), str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out)
    return samples


def untraced(workload, rounds: int) -> tuple:
    from setup_probe import prepare

    setup = measure_setup(workload)
    prepared = prepare(workload.name, str(workload.inputs),
                       str(workload.setup_dir))
    tally = w.Tally()
    workload.run(rounds, tally, prepared)
    tail, q = tail_percentile(tally.op_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": tally.units / tally.timed_s,
        "op_s_p50": statistics.median(tally.op_s),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"setup_s: median of {len(setup)} fresh interpreters "
             f"({', '.join(f'{s:.4f}' for s in setup)})",
             f"throughput_per_s: {tally.units} {workload.unit} in "
             f"{tally.timed_s:.3f} s over {rounds} round(s)",
             f"op_s_tail: p{q:g} of {len(tally.op_s)} operations "
             f"({len(tally.op_s) - int(np.ceil(len(tally.op_s) * q / 100.0))} "
             "beyond it)"]
    return metrics, tally, notes


def traced(workload, rounds: int) -> tuple:
    from setup_probe import prepare
    from tracer import Tracer

    plain = w.Tally()
    extra, notes = workload.job_figures(plain)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            prepared = prepare(workload.name, str(workload.inputs),
                               str(workload.setup_dir))
    finally:
        tracer.uninstall()

    workload.run(rounds, plain, prepared)
    tally = w.Tally(tracer)
    tracer.install()
    try:
        workload.run(rounds, tally, prepared)
    finally:
        tracer.uninstall()
    for failure in plain.failures:
        tally.failures.append(f"untraced pass: {failure}")
    tally.attempted += plain.attempted
    extra["trace.overhead_s"] = tally.timed_s - plain.timed_s
    notes.append(f"trace.overhead_s: traced {tally.timed_s:.3f} s - untraced "
                 f"{plain.timed_s:.3f} s")
    tracer.write_spans(w.ROOT / ".perfbench" / f"spans-{workload.name}.jsonl")
    return layer_metrics(tracer, tally, extra), tally, notes


def layer_metrics(tracer, tally, extra: dict) -> dict:
    calls, self_s = tracer.calls, tracer.self_time
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls.get(span, 0)
        elif kind == "self_s":
            m[name] = self_s.get(span, 0.0)
    m["fermion.steps"] = tracer.steps
    if tracer.steps:
        m["fermion.rhs_per_step"] = tracer.step_rhs / tracer.steps
        m["fermion.bytes_per_step_computed"] = \
            DOP853_VECTOR_PASSES * tracer.step_state_bytes / tracer.steps
    finals = tracer.results["fermion.evolve"]
    if finals:
        m["fermion.nambu_defect_max"] = max(f.orthonormality_defect() for f in finals)
        m["fermion.pairing_defect_max"] = max(f.pairing_defect() for f in finals)
    realizations = tracer.durations["ensemble.realization"]
    if realizations:
        m["ensemble.realization_s_p50"] = statistics.median(realizations)
        m["ensemble.realization_s_tail"] = tail_percentile(realizations)[0]
    m["chimera.read_samples.bytes"] = tracer.read_sample_bytes
    m.update(tally.health)
    m.update(extra)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(w.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w.bootstrap()

    cls = w.WORKLOADS[args.workload]
    run_dir = w.ROOT / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = cls(run_dir, args.seed,
                       w.load_reference().get(args.workload, {}))
        rounds = workload.rounds_for(args.seconds)
        env = environment()
        start = time.perf_counter()
        workload.write_inputs()
        run = traced if args.trace else untraced
        metrics, tally, notes = run(workload, rounds)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if tally.attempted == 0:
        tally.outcome("run", ["no operation was attempted"])
    failed = len(tally.failures)
    print(f"annealkit benchmark: workload {args.workload} ({cls.why}), "
          f"seed {args.seed}, {rounds} round(s), trace {args.trace}, "
          f"{wall:.1f} s in all")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':42s} {failed / tally.attempted:>16.6g} "
          f"({failed} of {tally.attempted} checked outputs failed)")
    for note in notes:
        print(f"  note: {note}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(2)
