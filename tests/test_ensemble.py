"""Sweep orchestration: seeding, binning, persistence, failure handling."""

import hashlib
import json

import numpy as np
import pytest

from annealkit import cli, ensemble
from annealkit.ensemble import (PointRow, SweepPlan, bin_stats, build_chain,
                                run_point, run_sweep)
from annealkit.errors import IntegrationAbort, ParameterError, SchemaError
from annealkit.noise import NoiseSpectrum
from annealkit.tables import read_table

FAST_SPECTRUM = NoiseSpectrum(p=0.75, omega0=1.0, coupling=0.01, n_modes=16)


def noisy_plan(**kw):
    defaults = dict(sizes=(4,), velocities=(1.0,), n_realizations=100,
                    noise_mode="all", spectrum=FAST_SPECTRUM, master_seed=5,
                    rtol=1e-7, atol=1e-9)
    defaults.update(kw)
    return SweepPlan(**defaults)


class TestPlanValidation:
    def test_default_velocity_grid_shifts_down_with_size(self):
        plan = SweepPlan(sizes=(32, 128), n_realizations=1,
                         noise_mode="none")
        g32 = plan.velocities_for(32)
        g128 = plan.velocities_for(128)
        assert len(g32) == len(g128) == 20
        assert min(g128) < min(g32)
        assert max(g32) == max(g128) == pytest.approx(0.5)

    def test_velocities_sorted_positive(self):
        with pytest.raises(ParameterError):
            noisy_plan(velocities=(0.5, 0.1))
        with pytest.raises(ParameterError):
            noisy_plan(velocities=(-0.5, 0.1))

    def test_noisy_runs_need_enough_realizations(self):
        with pytest.raises(ParameterError):
            noisy_plan(n_realizations=10)
        # noise-free plans may use a single realization
        SweepPlan(sizes=(4,), velocities=(0.5,), n_realizations=1,
                  noise_mode="none")

    def test_mode_names(self):
        with pytest.raises(ParameterError):
            noisy_plan(noise_mode="some")

    def test_digest_changes_with_plan(self):
        p1 = noisy_plan()
        p2 = noisy_plan(master_seed=6)
        assert p1.digest() != p2.digest()
        assert p1.digest() == noisy_plan().digest()


class TestBuildChain:
    def test_all_sites_mode(self):
        chain = build_chain(noisy_plan(), 4, 1.0, 0)
        assert all(sig is not None for sig in chain.signals)

    def test_single_site_mode(self):
        plan = noisy_plan(noise_mode="single", single_site=0)
        chain = build_chain(plan, 4, 1.0, 0)
        assert chain.signals[0] is not None
        assert all(sig is None for sig in chain.signals[1:])

    def test_none_mode(self):
        plan = SweepPlan(sizes=(4,), velocities=(1.0,), n_realizations=1,
                         noise_mode="none")
        chain = build_chain(plan, 4, 1.0, 0)
        assert chain.signals is None and chain.coupling == 0.0

    def test_realizations_get_distinct_signals(self):
        plan = noisy_plan()
        c0 = build_chain(plan, 4, 1.0, 0)
        c1 = build_chain(plan, 4, 1.0, 1)
        assert not np.array_equal(c0.signals[0].omega, c1.signals[0].omega)


class TestBinStats:
    def test_single_value(self):
        mean, err, nb = bin_stats(np.array([3.3]), 20)
        assert (mean, err, nb) == (3.3, 0.0, 1)

    def test_equal_bins_mean_uses_all_data(self):
        x = np.arange(100.0)
        mean, err, nb = bin_stats(x, 20)
        assert mean == pytest.approx(x.mean())
        assert nb == 20
        bins = x.reshape(20, 5).mean(axis=1)
        assert err == pytest.approx(bins.std(ddof=1) / np.sqrt(20))

    def test_enough_bins_for_large_ensembles(self):
        _, _, nb = bin_stats(np.arange(100.0), 20)
        assert nb >= 10


class TestRunPoint:
    def test_noise_free_single_realization(self):
        plan = SweepPlan(sizes=(8,), velocities=(0.1,), n_realizations=1,
                         noise_mode="none")
        row = run_point(8, 0.1, plan)
        assert row.n_real == 1
        assert row.delta_e_stderr == 0.0
        assert row.delta_e_mean == pytest.approx(2.4398766685, abs=1e-6)

    def test_sudden_quench_limit(self):
        plan = SweepPlan(sizes=(12,), velocities=(1000.0,), n_realizations=1,
                         noise_mode="none")
        row = run_point(12, 1000.0, plan)
        assert row.delta_e_mean == pytest.approx(11.0, rel=0.01)

    def test_deterministic_mean(self):
        plan = noisy_plan()
        r1 = run_point(4, 1.0, plan)
        r2 = run_point(4, 1.0, plan)
        assert r1.delta_e_mean == r2.delta_e_mean
        assert r1.delta_e_stderr == r2.delta_e_stderr

    def test_order_independence_of_aggregation(self):
        plan = noisy_plan()
        health = {}
        row = run_point(4, 1.0, plan, health=health)
        energies = np.empty(plan.n_realizations)
        order = np.random.default_rng(0).permutation(plan.n_realizations)
        for r in order:  # shuffled execution, indexed storage
            energies[r], = ensemble._realizations(
                plan, 4, 1.0, range(r, r + 1), health["steps"])
        mean, err, nb = bin_stats(energies, plan.n_bins)
        assert mean == row.delta_e_mean
        assert err == row.delta_e_stderr


ALLSITES = SweepPlan(sizes=(32,), velocities=(0.01,), n_realizations=100,
                     spectrum=NoiseSpectrum(n_modes=100),
                     master_seed=20260810, rtol=1e-6, atol=1e-9)


@pytest.fixture(scope="module")
def allsites_steps():
    return ensemble._pilot(ALLSITES, 32, 0.01).steps


class TestEngine:
    @pytest.mark.parametrize("r, expected", [(0, 3.1743892444),
                                             (1, 3.2012727500),
                                             (2, 3.1649918978)])
    def test_allsites_realizations_match_tight_reference(self, r, expected,
                                                         allsites_steps):
        # DOP853 at rtol=1e-11, atol=1e-13; the engine at the sweep's
        # tolerance errs by ~4e-6, about its own Richardson estimate
        de, = ensemble._realizations(ALLSITES, 32, 0.01, range(r, r + 1),
                                     allsites_steps)
        assert de == pytest.approx(expected, abs=2e-5)

    def test_pilot_is_realization_zero(self):
        plan = noisy_plan()
        health = {}
        row = run_point(4, 1.0, plan, health=health)
        assert health["engine"] == ensemble.ENGINE
        steps = health["steps"]
        assert steps % 2 == 0
        assert 0 < health["error_ratio"] <= 1.0
        assert health["orthogonality_defect"] <= 1e-12
        assert health["richardson_delta_e"] >= 0.0
        energies = [ensemble._realizations(plan, 4, 1.0, range(r, r + 1),
                                           steps)[0]
                    for r in range(plan.n_realizations)]
        assert row.delta_e_mean == bin_stats(np.array(energies),
                                             plan.n_bins)[0]

    def test_tolerance_domain(self):
        for rtol in (0.0, -1e-6):
            with pytest.raises(ParameterError):
                noisy_plan(rtol=rtol)
        with pytest.raises(ParameterError):
            noisy_plan(atol=-1e-9)

    def test_digest_names_the_engine(self, monkeypatch):
        plan = noisy_plan()
        before = plan.digest()
        monkeypatch.setattr(ensemble, "ENGINE", "another-engine")
        assert plan.digest() != before


class TestRunSweep:
    def test_grid_cardinality(self, tmp_path):
        plan = SweepPlan(sizes=(4, 6), velocities=(0.5, 1.0, 2.0),
                         n_realizations=1, noise_mode="none")
        result = run_sweep(plan, out_path=tmp_path / "c.tsv")
        assert len(result.rows) == 6
        assert result.complete

    def test_persistence_and_resume(self, tmp_path):
        plan = SweepPlan(sizes=(4,), velocities=(0.5, 1.0, 2.0),
                         n_realizations=1, noise_mode="none")
        path = tmp_path / "c.tsv"
        first = run_sweep(plan, out_path=path)
        # drop the last data line to simulate an interrupted sweep
        lines = path.read_text().strip().split("\n")
        path.write_text("\n".join(lines[:-1]) + "\n")
        computed = []
        second = run_sweep(plan, out_path=path, progress=computed.append)
        assert len(computed) == 1  # only the missing point re-ran
        assert sorted(r.v for r in second.rows) == sorted(r.v for r in first.rows)
        table = read_table(path)
        assert len(table) == 3

    def test_resume_refuses_foreign_plan(self, tmp_path):
        path = tmp_path / "c.tsv"
        run_sweep(SweepPlan(sizes=(4,), velocities=(1.0,), n_realizations=1,
                            noise_mode="none"), out_path=path)
        other = SweepPlan(sizes=(4,), velocities=(1.0,), n_realizations=1,
                          noise_mode="none", master_seed=9)
        with pytest.raises(SchemaError):
            run_sweep(other, out_path=path)

    @pytest.mark.parametrize("old, new", [
        ("delta_e_mean delta_e_stderr", "delta_e_stderr delta_e_mean"),
        ("\n4 ", "\n4.5 "),
    ], ids=["columns_swapped", "fractional_L"])
    def test_resume_refuses_a_malformed_table(self, tmp_path, old, new):
        plan = SweepPlan(sizes=(4,), velocities=(1.0, 2.0), n_realizations=1,
                         noise_mode="none")
        path = tmp_path / "c.tsv"
        run_sweep(plan, out_path=path)
        # a complete table: no point is left to compute and append
        content = path.read_text().replace(old, new, 1)
        path.write_text(content)
        with pytest.raises(SchemaError):
            run_sweep(plan, out_path=path)
        assert path.read_text() == content

    def test_failed_point_recorded_and_sweep_continues(self, tmp_path,
                                                       monkeypatch):
        plan = SweepPlan(sizes=(4,), velocities=(0.5, 1.0), n_realizations=1,
                         noise_mode="none")
        real_fn = ensemble._pilot

        def sometimes_fails(p, L, v):
            if v == 0.5:
                raise IntegrationAbort("stiff", t=0.1, step=1e-14)
            return real_fn(p, L, v)

        monkeypatch.setattr(ensemble, "_pilot", sometimes_fails)
        result = run_sweep(plan, out_path=tmp_path / "c.tsv")
        assert len(result.failures) == 1
        assert result.failures[0][:2] == (4, 0.5)
        bad = [r for r in result.rows if r.v == 0.5][0]
        assert np.isnan(bad.delta_e_mean)
        good = [r for r in result.rows if r.v == 1.0][0]
        assert np.isfinite(good.delta_e_mean)

    def test_rerun_identical_file(self, tmp_path):
        plan = SweepPlan(sizes=(4,), velocities=(0.5, 1.0), n_realizations=1,
                         noise_mode="none")
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run_sweep(plan, out_path=p1)
        run_sweep(plan, out_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_pool_matches_serial(self, monkeypatch):
        # 100 realizations after the pilot, in one chunk, then in chunks
        # of 8 with a last one of 4, serial and pooled
        plan = noisy_plan(n_realizations=101)
        whole = run_point(4, 1.0, plan, workers=1)
        monkeypatch.setattr(ensemble, "_CHUNK_ELEMENTS", 8 * 4 * 16)
        assert ensemble._chunk_size(4, 16) == 8
        serial = run_point(4, 1.0, plan, workers=1)
        pooled = run_point(4, 1.0, plan, workers=2)
        assert whole == serial == pooled

    def test_chunk_budget(self):
        # 100 modes, as in the sweep configs: batching pays below L=128
        assert [ensemble._chunk_size(L, 100) for L in (32, 64, 128, 256)] \
            == [4, 2, 1, 1]


# sha256 of the table `simulate` writes for GOLDEN_SWEEP, the path-dependent
# config_digest line left out.  The point's 116 steps cross a phasor
# re-anchor and end in a short read of the noise moments.
GOLDEN_SWEEP = {"sizes": [8], "velocities": [0.02], "n_realizations": 100,
                "noise_mode": "all", "spectrum": {"n_modes": 100},
                "rtol": 1e-6, "atol": 1e-9, "output": "curve.tsv"}
GOLDEN_TABLE = \
    "835f67f1130a03eecbb83b5a342ec3a556c68703917fade6c818096475f7b126"


def test_golden_allsites_table(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"master_seed": 20260810,
                                  "output_dir": str(tmp_path),
                                  "simulate": GOLDEN_SWEEP}))
    assert cli.main(["simulate", "--config", str(config)]) == 0
    lines = (tmp_path / "curve.tsv").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines
                    if not line.startswith(b"# config_digest:"))
    assert hashlib.sha256(kept).hexdigest() == GOLDEN_TABLE
