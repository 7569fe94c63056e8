"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
  - BENCHMARK.json names exactly the workloads and metrics run.py prints,
    with the same units, and every printed metric is present;
  - a perturbed output trips each correctness check, and a perturbed
    program makes a whole run report a failure;
  - in a traced chain_allsites run the self times of all spans add up to
    the traced wall time, and the part no layer claims stays within the
    tracing overhead.
Takes about a minute on 2 cores; exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import numpy as np

import run
import workloads as w

TINY_SPECTRUM = {"p": 0.75, "omega0": 1.0, "coupling": 0.01, "n_modes": 16}


class TinyAllsites(w.ChainAllsites):
    def simulate_section(self):
        self.master_seed = 7
        return 7, {"sizes": [8], "velocities": [0.2], "n_realizations": 100,
                   "noise_mode": "all", "spectrum": TINY_SPECTRUM,
                   "rtol": 1e-6, "atol": 1e-9}

    def check(self, rows):
        return check_bounds(rows, 1)

    def job_figures(self, tally):
        return {}, []


class TinyNoisefree(w.ChainNoisefree):
    def simulate_section(self):
        self.velocities = [0.1, 0.2, 0.4]
        return 1, {"sizes": [12], "velocities": self.velocities,
                   "n_realizations": 1, "noise_mode": "none",
                   "rtol": 1e-8, "atol": 1e-10}

    def check(self, rows):
        return check_bounds(rows, len(self.velocities))


class TinyQubit(w.QubitPurity):
    params = dict(w.QUBIT, t_max=30.0, n_realizations=4,
                  spectrum=dict(TINY_SPECTRUM, coupling=0.1, n_modes=50))

    def recorded_hz01(self, master_seed):
        # a tiny run has no recorded curve; its own first evolution stands in
        from annealkit.noise import NoiseSpectrum
        from annealkit.qubit import QubitRun, evolve_qubit
        args = dict(self.args, spectrum=NoiseSpectrum(**self.args["spectrum"]),
                    master_seed=master_seed)
        del args["h_z"]
        curve = evolve_qubit(QubitRun(h_z=0.1, **args))
        return curve.purity[::w.QUBIT_REFERENCE_STRIDE]


class TinyDevice(w.DeviceDecode):
    files_per_size = 2
    runs_per_file = 5


def check_bounds(rows, n_rows):
    if rows.shape != (n_rows, 6):
        return [f"shape {rows.shape}"]
    L, de = rows[:, 0], rows[:, 2]
    if not np.all(np.isfinite(de)) or np.any(de < 0) or np.any(de > L - 1):
        return [f"delta_e outside [0, L-1]: {de.tolist()}"]
    return []


def new_workload(cls, tag, seed=0):
    run_dir = w.ROOT / ".perfbench" / f"selftest-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = cls(run_dir, seed, w.load_reference().get(cls.name, {}))
    workload.write_inputs()
    return workload


def test_benchmark_json():
    with open(w.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [x["name"] for x in doc["workloads"]] == list(w.WORKLOADS)
    assert {x["name"]: x["unit"] for x in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {x["name"]: x["unit"] for x in doc["per_layer"]} == run.PER_LAYER_UNITS
    setup = [x for x in doc["end_to_end"] if x["name"] == "setup_s"][0]
    assert setup["bound"] == max(x["bound"] for x in doc["end_to_end"])


def assert_metrics(metrics, units):
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    for name, value in metrics.items():
        assert math.isfinite(value), (name, value)


def test_tiny_untraced():
    for cls in (TinyAllsites, TinyNoisefree, TinyQubit, TinyDevice):
        workload = new_workload(cls, cls.name)
        try:
            metrics, tally, _ = run.untraced(workload, 2 if cls is TinyDevice else 1)
        finally:
            shutil.rmtree(workload.run_dir, ignore_errors=True)
        assert not tally.failures, tally.failures
        assert tally.attempted >= 1
        assert_metrics(metrics, run.END_TO_END_UNITS)
        assert all(value > 0 for value in metrics.values()), metrics
        print(f"ok  tiny {cls.name}: {tally.attempted} checked outputs")


def test_tiny_traced():
    for cls in (TinyAllsites, TinyNoisefree, TinyQubit, TinyDevice):
        workload = new_workload(cls, f"{cls.name}-traced")
        try:
            metrics, tally, _ = run.traced(workload, 1)
        finally:
            shutil.rmtree(workload.run_dir, ignore_errors=True)
        assert not tally.failures, tally.failures
        assert_metrics(metrics, run.PER_LAYER_UNITS)
        if cls is TinyAllsites:
            check_self_times(tally.tracer, metrics)
            assert metrics["fermion.steps"] > 0
            assert metrics["fermion.rhs_per_step"] >= 12.0
            assert metrics["noise.bank_eval.calls"] > 0
        if cls is TinyNoisefree:
            assert metrics["noise.bank_eval.calls"] == 0
        if cls is TinyQubit:
            assert metrics["noise.signal_eval.calls"] > 0
        if cls is TinyDevice:
            assert metrics["chimera.read_samples.bytes"] > 0
            assert metrics["scaling.fit_global.calls"] == 1
        print(f"ok  tiny traced {cls.name}")


def check_self_times(tracer, metrics):
    roots = ("bench.op", "bench.setup")
    wall = sum(tracer.total[name] for name in roots)
    total_self = sum(tracer.self_time.values())
    assert abs(total_self - wall) <= 1e-9 * max(wall, 1.0), (total_self, wall)
    layers = total_self - sum(tracer.self_time[name] for name in roots)
    unclaimed = wall - layers
    allowance = max(abs(metrics["trace.overhead_s"]), 0.02 * wall)
    assert 0 <= unclaimed <= allowance, (unclaimed, allowance)
    print(f"ok  self times: layers {layers:.4f} s of traced wall {wall:.4f} s, "
          f"unclaimed {unclaimed:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s")


def test_perturbed_outputs():
    ref = w.load_reference()
    point = ref["chain_allsites"]
    row = np.array([[32, 0.01, point["delta_e_mean"], point["delta_e_stderr"],
                     100, 20]])
    seed = point["master_seed"]
    assert not w.check_allsites_point(row, seed, point)
    bad = row.copy()
    bad[0, 2] += 2 * point["delta_e_stderr"]
    assert w.check_allsites_point(bad, seed, point)
    bad[0, 2] = row[0, 2] + 0.1
    assert w.check_allsites_point(bad, seed + 1, point)

    v = np.array(w.NOISEFREE_VELOCITIES)
    good = np.column_stack([np.full(5, 256), v, 100 * np.sqrt(v), np.zeros(5),
                            np.ones(5), np.ones(5)])
    assert not w.check_noisefree_slice(good, v)
    bad = good.copy()
    bad[0, 2] = 256.0
    assert w.check_noisefree_slice(bad, v)
    bad = good.copy()
    bad[:, 2] = 100 * v ** 0.6
    assert w.check_noisefree_slice(bad, v)

    curve = np.array(ref["qubit_purity"]["hz01"]["2026"])
    assert not w.check_purity_curve(curve, 0.0, 0.0, curve)
    assert w.check_purity_curve(curve + 2e-8, 0.0, 0.0, curve)
    assert w.check_purity_curve(curve, 1e-8, 0.0, curve)
    assert w.check_purity_curve(curve, 0.0, -1e-8, curve)

    decoded = np.zeros((6, 8))
    decoded[:, 2] = decoded[:, 4] = [0, 1, 2, 0, 1, 2]
    assert not w.check_decoded(decoded, 2, 3)
    bad = decoded.copy()
    bad[1, 2] += 0.5
    assert w.check_decoded(bad, 2, 3)
    bad = decoded.copy()
    bad[2, 6] = 1
    assert w.check_decoded(bad, 2, 3)
    device = np.zeros(12)
    device[2] = device[6] = 1.0
    device[10] = 6
    assert not w.check_device_row(device, decoded)
    device[2] = 1.01
    assert w.check_device_row(device, decoded)

    fit = dict(ref["device_decode"], degenerate=False)
    assert not w.check_fit(fit, ref["device_decode"])
    assert w.check_fit(dict(fit, alpha=fit["alpha"] * (1 + 1e-5)), ref["device_decode"])
    assert w.check_fit(dict(fit, degenerate=True), ref["device_decode"])
    print("ok  perturbed outputs trip every check")


def test_perturbed_program():
    from annealkit import ensemble
    original = ensemble.residual_energy
    ensemble.residual_energy = lambda corr: original(corr) + corr.size
    workload = new_workload(TinyNoisefree, "perturbed")
    try:
        tally = w.Tally()
        workload.run(1, tally, None)
    finally:
        ensemble.residual_energy = original
        shutil.rmtree(workload.run_dir, ignore_errors=True)
    assert tally.failures and tally.attempted == 1, tally.failures
    print("ok  a perturbed program fails the run")


def main() -> int:
    w.bootstrap()
    test_benchmark_json()
    test_perturbed_outputs()
    test_perturbed_program()
    test_tiny_untraced()
    test_tiny_traced()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
