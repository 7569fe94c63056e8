"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 3 and 4 consume the long ensemble sweeps and criterion 5 the
single-qubit purity runs committed under results/ (regenerate with
scripts/run_acceptance_sweeps.sh; results/README.md gives the measured
core-hours per file).  Everything else runs live.

Run with `pytest tests/test_acceptance.py -s` to stream the verdict
lines.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from annealkit import ed
from annealkit.analysis import datasets_from_table
from annealkit.chimera import (aggregate_tiles, build_embedding,
                               build_full_embedding, decode_samples,
                               gauge_transform, read_embedding,
                               synthesize_samples, write_coupler_list,
                               write_logical_map)
from annealkit.ensemble import CURVE_COLUMNS
from annealkit.fermion import (ChainSpec, bdg_matrices, correlations, evolve,
                               ground_energy, ground_state, residual_energy)
from annealkit.noise import NoiseSpectrum, sample_signal
from annealkit.qubit import coherence_time
from annealkit.scaling import (KzmInput, fit_global, fit_single, kzm_exponent,
                               master_curve, optimum, optimum_location,
                               prefactor_scaling)
from annealkit.tables import read_table

RESULTS_DIR = Path(os.environ.get("ANNEALKIT_RESULTS_DIR",
                                  Path(__file__).resolve().parent.parent
                                  / "results"))


def verdict(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def load_sweep(name: str, expected_rows: int):
    path = RESULTS_DIR / name
    if not path.exists():
        pytest.fail(
            f"{path} is missing; criteria 3/4 consume the overnight sweeps. "
            f"Regenerate with scripts/run_acceptance_sweeps.sh")
    table = read_table(path)
    assert list(table.columns) == list(CURVE_COLUMNS)
    if len(table) < expected_rows:
        pytest.fail(f"{path} holds {len(table)}/{expected_rows} grid points; "
                    f"the sweep has not finished")
    return table


class TestCriterion1OracleEquivalence:
    def test_bdg_matches_dense_diagonalization(self):
        rng = np.random.default_rng(2026)
        worst_ground = 0.0
        worst_evolved = 0.0
        for L in range(2, 11):
            for case in range(20):
                spec = NoiseSpectrum(n_modes=64)
                signals = tuple(
                    sample_signal(spec, (320, "acc1", L, case, site))
                    for site in range(L))
                chain = ChainSpec(size=L, coupling=0.01, signals=signals)
                s = rng.uniform(0.0, 1.0)
                t = rng.uniform(0.0, 10.0)
                diff = abs(ground_energy(chain, s, t)
                           - ed.spectrum_exact(chain, s, t)[0])
                worst_ground = max(worst_ground, diff)
            for case in range(20):
                spec = NoiseSpectrum(n_modes=64)
                signals = tuple(
                    sample_signal(spec, (321, "acc1e", L, case, site))
                    for site in range(L))
                chain = ChainSpec(size=L, coupling=0.01, signals=signals)
                T = float(np.exp(rng.uniform(np.log(2.0), np.log(20.0))))
                modes = ground_state(*bdg_matrices(chain, 0.0, 0.0))
                final = evolve(modes, chain, T, rtol=1e-10, atol=1e-12)
                de = residual_energy(correlations(final))
                de_ed = ed.residual_energy_exact(ed.anneal_exact(chain, T))
                worst_evolved = max(worst_evolved, abs(de - de_ed))
        verdict(1, worst_ground < 1e-10 and worst_evolved < 1e-5,
                f"ground max dev {worst_ground:.2e} (tol 1e-10), "
                f"evolved max dev {worst_evolved:.2e} (tol 1e-5), "
                f"L=2..10 x 20 cases each")


class TestCriterion2NoiseFreeKzmExponent:
    def test_velocity_scaling_slope(self):
        L = 256
        chain = ChainSpec(size=L)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        vs = np.logspace(-3, -1, 9)
        des = np.array([
            residual_energy(correlations(evolve(modes, chain, T=1.0 / v,
                                                rtol=1e-8, atol=1e-10)))
            for v in vs])
        slope = float(np.polyfit(np.log(vs), np.log(des), 1)[0])
        verdict(2, abs(slope - 0.5) <= 0.05,
                f"L=256 noise-free log-log slope {slope:.4f} over "
                f"v in [1e-3, 1e-1] (target 0.50 +- 0.05)")


class TestCriterion3NoisyMinimaCollapse:
    def test_minima_shift_and_collapse(self):
        table = load_sweep("allsites_curve.tsv", expected_rows=39)
        datasets = datasets_from_table(table, "delta_e")
        assert sorted(datasets) == [32, 64, 128]

        interior = {}
        for L, (v, f, s) in datasets.items():
            k = int(np.argmin(f))
            interior[L] = 0 < k < len(v) - 1
        fit = fit_global(datasets)
        v_mins = {L: optimum(fit, L).v_min for L in (32, 64, 128)}
        decreasing = v_mins[32] > v_mins[64] > v_mins[128]

        alpha_ok = abs(fit.alpha - 0.5) <= 0.1
        beta_ok = abs(fit.beta - 1.0) <= 0.2

        # extensivity stand-in for the full paper scale: Delta_E / L for
        # L = 64 vs 128 in the scaling window where the freeze-out length
        # v^(-1/2) stays below L/4 for both sizes (v >= (4/64)^2 ~ 4e-3)
        v64, f64, _ = datasets[64]
        v128, f128, _ = datasets[128]
        common = sorted(set(np.round(v64, 12)) & set(np.round(v128, 12)))
        window = [v for v in common if 4e-3 <= v <= 6e-2]
        rel = []
        for v in window:
            e64 = f64[np.isclose(v64, v)][0] / 64
            e128 = f128[np.isclose(v128, v)][0] / 128
            rel.append(abs(e64 - e128) / e128)
        extensive_ok = len(window) >= 3 and max(rel) < 0.05

        detail = (f"alpha={fit.alpha:.3f}+-{fit.alpha_error:.3f} (0.5+-0.1), "
                  f"beta={fit.beta:.3f}+-{fit.beta_error:.3f} (1.0+-0.2), "
                  f"v_min={{32: {v_mins[32]:.2e}, 64: {v_mins[64]:.2e}, "
                  f"128: {v_mins[128]:.2e}}} strictly decreasing={decreasing}, "
                  f"interior minima={interior}, "
                  f"extensivity max dev={max(rel) if rel else float('nan'):.3f} "
                  f"over {len(window)} velocities (<0.05)")
        verdict(3, all(interior.values()) and decreasing and alpha_ok
                and beta_ok and extensive_ok, detail)


class TestCriterion4SingleSiteNoise:
    def test_bath_prefactor_size_dependence(self):
        single = load_sweep("single_curve.tsv", expected_rows=33)
        allsites = load_sweep("allsites_curve.tsv", expected_rows=39)

        fit_s = fit_global(datasets_from_table(single, "delta_e"))
        b = {L: fit_s.b[j] for j, L in enumerate(fit_s.sizes)}
        berr = {L: fit_s.b_error(L) for L in fit_s.sizes}
        pairs = [(32, 64), (64, 128), (32, 128)]
        within = {
            f"{a}-{c}": abs(b[a] - b[c]) / np.hypot(berr[a], berr[c])
            for a, c in pairs}
        flat_ok = all(z <= 1.0 for z in within.values())

        fit_a = fit_global(datasets_from_table(allsites, "delta_e"))
        sizes = list(fit_a.sizes)
        slope, slope_err = prefactor_scaling(
            sizes, [fit_a.b[j] for j in range(len(sizes))],
            [fit_a.b_error(L) for L in sizes])
        slope_ok = abs(slope - 1.0) <= 0.2

        detail = (f"single-site b_L {{32: {b[32]:.3g}, 64: {b[64]:.3g}, "
                  f"128: {b[128]:.3g}}}, pairwise |db|/sigma={ {k: round(v, 2) for k, v in within.items()} } "
                  f"(all <= 1); all-sites b_L slope {slope:.3f}+-{slope_err:.3f} "
                  f"(1.0 +- 0.2)")
        verdict(4, flat_ok and slope_ok, detail)


class TestCriterion5SingleQubitCoherence:
    @staticmethod
    def stored_coherence_time(name: str) -> float:
        path = RESULTS_DIR / name
        if not path.exists():
            pytest.fail(f"{path} is missing; regenerate the cached qubit "
                        f"runs with scripts/run_acceptance_sweeps.sh")
        table = read_table(path)
        from annealkit.qubit import PurityCurve
        curve = PurityCurve(times=table["t"], purity=table["purity"],
                            run=None)
        return coherence_time(curve)

    def test_coherence_time_and_field_trend(self):
        # Three longitudinal fields at N_r = 10^3, paper noise parameters
        # (cached CLI runs: the field pushes T_r beyond 10^3 time units,
        # far past a live-test budget on one core).
        runs = {0.0: self.stored_coherence_time("purity_hz0.tsv"),
                0.1: self.stored_coherence_time("purity_hz01.tsv"),
                0.2: self.stored_coherence_time("purity_hz02.tsv")}
        value_ok = abs(runs[0.0] - 55.0) <= 0.15 * 55.0
        monotone_ok = runs[0.0] < runs[0.1] < runs[0.2]

        # seed-split stability of the h_z = 0 estimate
        alt = self.stored_coherence_time("purity_hz0_twin.tsv")
        split_ok = abs(alt - runs[0.0]) / runs[0.0] <= 0.10

        verdict(5, value_ok and monotone_ok and split_ok,
                f"T_r(0)={runs[0.0]:.1f} (target 55 +- 15%), "
                f"T_r(0.1)={runs[0.1]:.1f}, T_r(0.2)={runs[0.2]:.1f} "
                f"monotone={monotone_ok}; disjoint-seed twin {alt:.1f} "
                f"within 10%={split_ok}")


class TestCriterion6ScalingMath:
    def test_closed_forms_and_exponents(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        from scipy.optimize import brentq
        for _ in range(100):
            a, b = rng.uniform(0.05, 20.0, size=2)
            alpha, beta = rng.uniform(0.1, 3.0, size=2)
            vm = optimum_location(a, b, alpha, beta)

            def slope(v):
                return a * alpha * v ** (alpha - 1) - b * beta * v ** (-beta - 1)

            root = brentq(slope, vm / 16, vm * 16, xtol=1e-300, rtol=8.9e-16)
            worst = max(worst, abs(vm - root) / root)
        g1 = [master_curve(1.0, *rng.uniform(0.1, 3.0, size=2))
              for _ in range(50)]
        g1_exact = all(g == 1.0 for g in g1)
        kzm_vals = (round(kzm_exponent(KzmInput(d=1, z=1, nu=1.0)), 3),
                    round(kzm_exponent(KzmInput(d=2, z=1, nu=0.630)), 3),
                    round(kzm_exponent(KzmInput(d=2, z=1, nu=0.630,
                                                kappa=0.326)), 3))
        kzm_ok = kzm_vals == (0.5, 0.773, 0.973)
        verdict(6, worst < 1e-8 and g1_exact and kzm_ok,
                f"optimum closed form vs numerical minimization worst rel dev "
                f"{worst:.2e} (<1e-8) over 100 random sets; g(1)=1 exact; "
                f"exponent predictions {kzm_vals}")


class TestCriterion7FitRecovery:
    def test_paper_like_synthetic_recovery(self):
        rng = np.random.default_rng(7)
        alpha, beta = 0.77, 0.5

        def make(a, b, seed):
            r = np.random.default_rng(seed)
            v = np.logspace(-2.5, 0.5, 18)
            f0 = a * v ** alpha + b * v ** (-beta)
            return v, f0 * (1 + 0.02 * r.standard_normal(v.size)), 0.02 * f0

        v, f, s = make(3.0, 0.08, 71)
        fit1 = fit_single(v, f, s)
        single_ok = (abs(fit1.alpha - alpha) < 3 * fit1.alpha_error
                     and abs(fit1.beta - beta) < 3 * fit1.beta_error)

        fit2 = fit_global({10: make(3.0, 0.08, 72),
                           20: make(12.0, 0.08, 73)})
        global_ok = (abs(fit2.alpha - alpha) < 3 * fit2.alpha_error
                     and abs(fit2.beta - beta) < 3 * fit2.beta_error)
        verdict(7, single_ok and global_ok,
                f"single fit alpha={fit1.alpha:.3f}+-{fit1.alpha_error:.3f}, "
                f"beta={fit1.beta:.3f}+-{fit1.beta_error:.3f}; global "
                f"alpha={fit2.alpha:.3f}+-{fit2.alpha_error:.3f}, "
                f"beta={fit2.beta:.3f}+-{fit2.beta_error:.3f} "
                f"(truth 0.77 / 0.5, within 3 combined errors)")


class TestCriterion8EmbeddingAudit:
    def test_census_roundtrip_gauge_decode(self, tmp_path):
        emb = build_embedding(32)
        census = emb.census()
        census_ok = census == {"hc": 1024, "intra": 2048, "inter": 960}

        # independent audit from the flat coupler list alone
        couplers = emb.coupler_list()
        by_value = {}
        for q1, q2, val in couplers:
            by_value.setdefault(round(val, 12), []).append((q1, q2))
        audit_ok = (len(by_value.get(-1.0, ())) == 1024
                    and len(by_value.get(-0.25, ())) == 2048
                    and len(by_value.get(-0.5, ())) == 960
                    and len(couplers) == len(set((a, b) for a, b, _ in couplers)))

        cpath, mpath = tmp_path / "c.txt", tmp_path / "m.json"
        write_coupler_list(cpath, emb)
        write_logical_map(mpath, emb)
        round_trip_ok = read_embedding(cpath, mpath).coupler_list() == couplers

        emb3 = build_embedding(3)
        rng = np.random.default_rng(8)
        gauge = np.array([int(rng.choice((-1, 1))) for _ in emb3.x])
        spec0 = _tile_spectrum(emb3)
        spec1 = _tile_spectrum(gauge_transform(emb3, gauge))
        gauge_ok = np.allclose(spec0, spec1)

        full = build_full_embedding(4)
        cols = decode_samples(synthesize_samples(full, 5), full)
        decode_ok = all(np.all(cols[name] == 0) for name in (
            "delta_e_phys", "delta_m_phys", "delta_e_logical",
            "delta_m_logical", "hc_violations"))
        verdict(8, census_ok and audit_ok and round_trip_ok and gauge_ok
                and decode_ok,
                f"census {census} (=1024/2048/960), independent list audit "
                f"{audit_ok}, round-trip bit-identical {round_trip_ok}, L=3 "
                f"gauge spectrum preserved {gauge_ok}, all-up decode clean "
                f"{decode_ok}")


def _tile_spectrum(emb):
    sites = emb.active_sites(0)
    pos = {s: i for i, s in enumerate(sites)}
    confs = 1 - 2 * ((np.arange(2 ** len(sites))[:, None]
                      >> np.arange(len(sites))) & 1)
    energy = np.zeros(2 ** len(sites))
    site = list(zip(emb.x.tolist(), emb.y.tolist()))
    for val, (e1, e2) in zip(emb.values.tolist(), emb.ends.tolist()):
        if e1 != e2:      # a bond coupler, not a high-cost one
            energy += val * confs[:, pos[site[e1]]] * confs[:, pos[site[e2]]]
    return np.sort(energy)


class TestCriterion9SyntheticDevicePipeline:
    def test_decode_fit_pipeline_on_known_statistics(self):
        # Device-figure reproduction needs hardware; accept the pipeline on
        # synthetic sample sets whose defect statistics follow a known
        # two-power-law in the annealing velocity.
        emb = build_full_embedding(8)
        n_sites = 64
        alpha, beta = 0.77, 0.5
        a, b = 0.04, 0.002
        vs = np.logspace(-2, 0.5, 10)
        rows = []
        for j, v in enumerate(vs):
            q = float(np.clip((a * v ** alpha + b * v ** (-beta)) / 2, 0.0,
                              0.45))
            ss = synthesize_samples(emb, 80, flip_probability=q, seed=900 + j,
                                    annealing_time=1.0 / v)
            decoded = decode_samples(ss, emb)
            agg = aggregate_tiles(decoded, L=8, v=v)
            rows.append((agg["delta_m_logical_mean"] / n_sites,
                         agg["delta_m_logical_stderr"] / n_sites))
        f = np.array([r[0] for r in rows])
        s = np.array([r[1] for r in rows])
        fit = fit_single(vs, f, s)
        ok = (abs(fit.alpha - alpha) < 3 * fit.alpha_error
              and abs(fit.beta - beta) < 3 * fit.beta_error)
        verdict(9, ok,
                f"synthetic device pipeline recovered alpha="
                f"{fit.alpha:.3f}+-{fit.alpha_error:.3f}, beta={fit.beta:.3f}"
                f"+-{fit.beta_error:.3f} from decoded tiles (truth 0.77/0.5); "
                f"device figures themselves require hardware and are out of "
                f"scope")
