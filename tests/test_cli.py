"""End-to-end CLI verbs on small configurations."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annealkit import cli
from annealkit.chimera import (build_full_embedding, synthesize_samples,
                               write_samples)
from annealkit.config import (apply_override, config_digest, load_config,
                              validate_config)
from annealkit.ensemble import ENGINE, SweepPlan
from annealkit.errors import ConfigError, SchemaError
from annealkit.noise import NoiseSpectrum
from annealkit.tables import read_table, write_table


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"simulte": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"simulate": {"sizs": [8]}})
        with pytest.raises(ConfigError):
            validate_config({"qubit": {"spectrum": {"pp": 1}}})

    def test_type_checking(self):
        with pytest.raises(ConfigError):
            validate_config({"master_seed": "abc"})
        validate_config({"simulate": {"rtol": 1}})  # int coerces to float

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError) as err:
            load_config(bad)
        assert "line 2" in str(err.value)

    def test_override_paths(self):
        doc = {"simulate": {"rtol": 1e-8}}
        apply_override(doc, "simulate.rtol=1e-6")
        apply_override(doc, "simulate.noise_mode=none")
        assert doc["simulate"]["rtol"] == 1e-6
        assert doc["simulate"]["noise_mode"] == "none"

    def test_digest_stable_under_key_order(self):
        a = config_digest({"x": 1, "y": 2})
        b = config_digest({"y": 2, "x": 1})
        assert a == b


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ("a", "b"), [(1, 2.5), (3, 4.25)],
                    {"schema": "x/1"})
        table = read_table(path)
        assert table.meta["schema"] == "x/1"
        assert np.array_equal(table["a"], [1.0, 3.0])
        assert np.array_equal(table["b"], [2.5, 4.25])

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ("a",), [(1,)], {})
        with pytest.raises(SchemaError):
            read_table(path)["b"]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a b\n1 2\n3\n")
        with pytest.raises(SchemaError):
            read_table(path)


class TestSimulateVerb:
    def test_minimal_config_one_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path / "out"),
            "simulate": {"sizes": [8], "velocities": [0.1],
                         "noise_mode": "none", "output": "t.tsv"}})
        assert cli.main(["simulate", "--config", cfg]) == 0
        table = read_table(tmp_path / "out" / "t.tsv")
        assert len(table) == 1
        assert table["delta_e_mean"][0] == pytest.approx(2.43988, abs=1e-4)

    def test_idempotent_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path / "o1"),
            "simulate": {"sizes": [6], "velocities": [0.2, 0.5],
                         "noise_mode": "none", "output": "t.tsv"}})
        assert cli.main(["simulate", "--config", cfg]) == 0
        first = (tmp_path / "o1" / "t.tsv").read_bytes()
        cfg2 = write_config(tmp_path, {
            "output_dir": str(tmp_path / "o2"),
            "simulate": {"sizes": [6], "velocities": [0.2, 0.5],
                         "noise_mode": "none", "output": "t.tsv"}},
            name="config2.json")
        assert cli.main(["simulate", "--config", cfg2]) == 0
        assert (tmp_path / "o2" / "t.tsv").read_bytes() == first

    def test_velocity_range_form(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "simulate": {"sizes": [4],
                         "velocities": {"min": 0.1, "max": 1.0, "count": 3},
                         "noise_mode": "none", "output": "t.tsv"}})
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert len(read_table(tmp_path / "t.tsv")) == 3

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"unknown_key": 1}})
        assert cli.main(["simulate", "--config", cfg]) == 1

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        from annealkit import ensemble
        from annealkit.errors import IntegrationAbort
        real_fn = ensemble._pilot

        def sometimes_fails(p, L, v):
            if v == 0.2:
                raise IntegrationAbort("stiff", t=0.0, step=1e-15)
            return real_fn(p, L, v)

        monkeypatch.setattr(ensemble, "_pilot", sometimes_fails)
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "simulate": {"sizes": [4], "velocities": [0.2, 0.5],
                         "noise_mode": "none", "output": "t.tsv"}})
        assert cli.main(["simulate", "--config", cfg]) == 3
        sidecar = json.loads((tmp_path / "t.tsv.meta.json").read_text())
        assert len(sidecar["failures"]) == 1


class TestQubitVerb:
    def test_summary_and_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "qubit": {"t_max": 25.0, "n_realizations": 60,
                      "spectrum": {"coupling": 0.08, "n_modes": 64},
                      "output": "purity.tsv"}})
        assert cli.main(["qubit", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "coherence_time T_r" in out
        table = read_table(tmp_path / "purity.tsv")
        assert table["purity"][0] == pytest.approx(1.0)
        sidecar = json.loads((tmp_path / "purity.tsv.meta.json").read_text())
        assert sidecar["coherence_time"] > 0

    def test_sidecar_carries_engine_diagnostics(self, tmp_path):
        from annealkit.qubit import ENGINE

        tables = []
        for name in ("a", "b"):
            cfg = write_config(tmp_path, {
                "output_dir": str(tmp_path / name),
                "qubit": {"h_z": 0.1, "t_max": 25.0, "n_realizations": 30,
                          "spectrum": {"coupling": 0.08, "n_modes": 64},
                          "output": "purity.tsv"}})
            assert cli.main(["qubit", "--config", cfg]) == 0
            tables.append((tmp_path / name / "purity.tsv").read_bytes())
        # diagnostics go to the sidecar; the table holds seed-determined
        # numbers only
        assert tables[0] == tables[1]
        table = read_table(tmp_path / "a" / "purity.tsv")
        assert set(table.meta) == {"schema", "config_digest", "h_z",
                                   "n_realizations"}
        sidecar = json.loads(
            (tmp_path / "a" / "purity.tsv.meta.json").read_text())
        assert sidecar["engine"] == ENGINE
        assert sidecar["substeps_per_dt_out"] >= 4
        assert 0 < sidecar["purity_error_estimate"] <= 1e-10
        assert sidecar["trace_defect"] < 1e-12
        assert sidecar["hermiticity_defect"] < 1e-12
        assert sidecar["min_eigenvalue"] > -1e-12
        assert sidecar["wall_s"] >= 0
        assert sidecar["coherence_time"] > 0
        # one entry per pass, the last at the accepted substep count
        passes = sidecar["passes"]
        assert [p["substeps"] for p in passes][-1] \
            == sidecar["substeps_per_dt_out"]
        assert all(p["chunks"] == 1 and p["wall_s"] >= 0 for p in passes)

    def test_progress_lines_leave_the_table_unchanged(self, tmp_path,
                                                      capsys):
        repo = Path(__file__).resolve().parents[1]
        assert cli.main(["qubit", "--config",
                         str(repo / "configs" / "qubit_hz0.json"),
                         "--output-dir", str(tmp_path)]) == 0
        lines = [line.split(" (")[0].strip()
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  substeps")]
        # one line per pass: 1000 realizations of 1000 modes run in 125
        # chunks of 8, and h_z = 0 is accepted at the first substep count
        assert lines == ["substeps 2: 125 chunks"]
        assert (tmp_path / "purity_hz0.tsv").read_bytes() \
            == (repo / "results" / "purity_hz0.tsv").read_bytes()

    def test_horizon_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "qubit": {"t_max": 5.0, "n_realizations": 20,
                      "spectrum": {"coupling": 0.01, "n_modes": 64},
                      "output": "purity.tsv"}})
        assert cli.main(["qubit", "--config", cfg]) == 2


class TestKzmVerb:
    def test_paper_numbers(self, capsys):
        assert cli.main(["kzm", "--set", "kzm.d=2", "--set", "kzm.z=1",
                         "--set", "kzm.nu=0.630", "--set", "kzm.kappa=0"]) == 0
        out = capsys.readouterr().out
        assert "alpha_kzm = 0.773" in out
        assert "alpha_lzm = 0.5" in out


class TestFitVerbs:
    @staticmethod
    def synthetic_table(tmp_path, alpha=0.5, beta=1.0):
        rng = np.random.default_rng(8)
        rows = []
        for L, a, b in ((32, 1.0, 0.02), (64, 2.0, 0.04)):
            v = np.logspace(-3, 0, 14)
            f0 = a * v ** alpha + b * v ** (-beta)
            f = f0 * (1 + 0.02 * rng.standard_normal(14))
            for vv, ff, ss in zip(v, f, 0.02 * f0):
                rows.append((L, vv, ff, ss, 100, 20))
        path = tmp_path / "curve.tsv"
        write_table(path, ("L", "v", "delta_e_mean", "delta_e_stderr",
                           "n_real", "n_bins"), rows,
                    {"schema": "ensemble-curve/1"})
        return path

    def test_fit_recovers_exponents(self, tmp_path):
        path = self.synthetic_table(tmp_path)
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "fit": {"input": str(path), "output_prefix": "f"}})
        assert cli.main(["fit", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "f_summary.json").read_text())
        assert summary["alpha"] == pytest.approx(0.5, abs=0.05)
        assert summary["beta"] == pytest.approx(1.0, abs=0.15)
        assert len(summary["per_size"]) == 2
        rescaled = read_table(tmp_path / "f_rescaled.tsv")
        assert set(rescaled.columns) == {"L", "v", "u", "g", "g_stderr"}
        master = read_table(tmp_path / "f_master.tsv")
        assert len(master) == 200

    def test_u_max_cutoff_drops_high_velocity_points(self, tmp_path):
        path = self.synthetic_table(tmp_path)
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "fit": {"input": str(path), "u_max": 30.0,
                    "output_prefix": "cut"}})
        assert cli.main(["fit", "--config", cfg]) == 0
        rescaled = read_table(tmp_path / "cut_rescaled.tsv")
        assert rescaled["u"].max() <= 30.0
        summary = json.loads((tmp_path / "cut_summary.json").read_text())
        assert summary["alpha"] == pytest.approx(0.5, abs=0.06)

    def test_collapse_with_precomputed_summary(self, tmp_path):
        path = self.synthetic_table(tmp_path)
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "fit": {"input": str(path), "output_prefix": "f"}})
        cli.main(["fit", "--config", cfg])
        cfg2 = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "collapse": {"input": str(path),
                         "fit_summary": str(tmp_path / "f_summary.json"),
                         "output_prefix": "c"}}, name="c2.json")
        assert cli.main(["collapse", "--config", cfg2]) == 0
        resc = read_table(tmp_path / "c_rescaled.tsv")
        # collapsed points follow the master curve shape near the minimum
        near_min = np.abs(np.log(resc["u"])) < 0.3
        assert np.all(resc["g"][near_min] < 1.35)


class TestVerbDispatch:
    def test_unknown_or_missing_verb_exits_2(self, capsys):
        for argv in (["bogus"], [], ["--config", "x.json"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_each_verb_reaches_its_command(self, monkeypatch, verb):
        func, help_text = cli.VERBS[verb]
        assert func is getattr(cli, "cmd_" + verb.replace("-", "_"))
        seen = []
        monkeypatch.setitem(cli.VERBS, verb,
                            (lambda args: seen.append(args) or 7, help_text))
        assert cli.main(["--output-dir", "out", verb, "--set", "a=1",
                         "--workers", "2", "--master-seed", "5"]) == 7
        (args,) = seen
        assert (args.verb, args.output_dir, args.set, args.workers,
                args.master_seed, args.config) == \
            (verb, "out", ["a=1"], 2, 5, None)

    def test_help_lists_every_verb_and_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for verb, (_, help_text) in cli.VERBS.items():
            assert f"  {verb} " in out and help_text in " ".join(out.split())
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("annealkit ")

    def test_verb_errors_keep_their_exit_codes(self, tmp_path, capsys):
        assert cli.main(["fit", "--config", str(tmp_path / "none.json")]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")


class TestEmbedDecodeAggregate:
    def test_embed_one_cell_enumeration(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "embed": {"L": 2, "tiled": False, "output_prefix": "emb"}})
        assert cli.main(["embed", "--config", cfg]) == 0
        _, rows = __import__("annealkit.chimera", fromlist=["read_coupler_list"]
                             ).read_coupler_list(tmp_path / "emb.couplers.txt")
        assert len(rows) == 12  # 4 high-cost + 8 half-strength bonds
        values = sorted(val for _, _, val in rows)
        assert values == [-1.0] * 4 + [-0.25] * 8

    def test_full_pipeline(self, tmp_path):
        emb = build_full_embedding(8)
        ss = synthesize_samples(emb, 30, flip_probability=0.02, seed=5,
                                annealing_time=40.0)
        write_samples(tmp_path / "samples.txt", ss, fmt="text")
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "embed": {"L": 8, "tiled": True, "output_prefix": "emb"},
            "decode": {"samples": str(tmp_path / "samples.txt"),
                       "couplers": str(tmp_path / "emb.couplers.txt"),
                       "logical_map": str(tmp_path / "emb.map.json"),
                       "output": "decoded.tsv"},
            "aggregate": {"input": str(tmp_path / "decoded.tsv"),
                          "output": "device.tsv"}})
        assert cli.main(["embed", "--config", cfg]) == 0
        assert cli.main(["decode", "--config", cfg]) == 0
        decoded = read_table(tmp_path / "decoded.tsv")
        assert len(decoded) == 16 * 30
        assert cli.main(["aggregate", "--config", cfg]) == 0
        device = read_table(tmp_path / "device.tsv")
        assert len(device) == 1
        assert device["L"][0] == 8
        assert device["v"][0] == pytest.approx(1.0 / 40.0)
        assert device["delta_m_logical_mean"][0] == pytest.approx(
            2 * 64 * 0.02, rel=0.3)


class TestDeviceObservableAlias:
    def test_fit_reads_physical_columns_from_device_tables(self, tmp_path):
        from annealkit.analysis import datasets_from_table
        from annealkit.chimera import DEVICE_CURVE_COLUMNS
        rows = []
        rng = np.random.default_rng(3)
        for v in np.logspace(-2, 0, 8):
            de = 2.0 * v ** 0.7 + 0.05 / v
            rows.append((8, v, de, 0.02 * de, 2 * de, 0.04 * de,
                         de, 0.02 * de, 2 * de, 0.04 * de, 100, 10))
        path = tmp_path / "dev.tsv"
        write_table(path, DEVICE_CURVE_COLUMNS, rows,
                    {"schema": "device-curve/1"})
        ds = datasets_from_table(read_table(path), "delta_e",
                                 plateau_mode="none")
        assert 8 in ds and len(ds[8][0]) == 8


class TestOracleCheckVerb:
    def test_small_check_passes(self, capsys):
        assert cli.main(["oracle-check", "--set", "oracle_check.max_size=4",
                         "--set", "oracle_check.n_cases=3",
                         "--set", "oracle_check.anneal_time=5.0"]) == 0
        assert "PASSED" in capsys.readouterr().out


class TestSimulateSidecar:
    def test_stopped_sweep_keeps_sidecar(self, tmp_path, monkeypatch):
        from annealkit import ensemble

        class Stop(Exception):
            pass

        real_point = ensemble.run_point
        calls = []

        def stop_after_first(*args, **kwargs):
            if calls:
                raise Stop
            calls.append(args)
            return real_point(*args, **kwargs)

        monkeypatch.setattr(ensemble, "run_point", stop_after_first)
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "simulate": {"sizes": [4], "velocities": [0.2, 0.5],
                         "noise_mode": "none", "output": "t.tsv"}})
        with pytest.raises(Stop):
            cli.main(["simulate", "--config", cfg])
        table = read_table(tmp_path / "t.tsv")
        assert len(table) == 1
        sidecar = json.loads((tmp_path / "t.tsv.meta.json").read_text())
        assert sidecar["plan_digest"] == table.meta["plan_digest"]
        assert "failures" not in sidecar  # the grid did not finish

    def test_refused_resume_leaves_sidecar_alone(self, tmp_path):
        doc = {"output_dir": str(tmp_path),
               "simulate": {"sizes": [4], "velocities": [0.5],
                            "noise_mode": "none", "output": "t.tsv"}}
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        before = (tmp_path / "t.tsv.meta.json").read_bytes()
        doc["simulate"]["rtol"] = 1e-6  # another plan digest
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        assert (tmp_path / "t.tsv.meta.json").read_bytes() == before


class TestCollapseSharesFitWriter:
    def test_fit_and_collapse_write_identical_tables(self, tmp_path):
        path = TestFitVerbs.synthetic_table(tmp_path)
        section = {"input": str(path), "output_prefix": "same"}
        fit_dir, collapse_dir = tmp_path / "fit", tmp_path / "collapse"
        cfg = write_config(tmp_path, {"output_dir": str(fit_dir),
                                      "fit": section})
        assert cli.main(["fit", "--config", cfg]) == 0
        cfg = write_config(tmp_path, {
            "output_dir": str(collapse_dir),
            "collapse": dict(section,
                             fit_summary=str(fit_dir / "same_summary.json"))},
            name="c.json")
        assert cli.main(["collapse", "--config", cfg]) == 0
        for name in ("same_rescaled.tsv", "same_master.tsv"):
            fitted = read_table(fit_dir / name)
            collapsed = read_table(collapse_dir / name)
            assert fitted.columns == collapsed.columns
            assert fitted.data.tobytes() == collapsed.data.tobytes()


class TestSweepEngineProvenance:
    REPO = Path(__file__).resolve().parent.parent

    def test_allsites_digest_moved_with_the_engine(self):
        # the committed allsites rows came from DOP853 under 59b41100e4acb11e
        doc = load_config(str(self.REPO / "configs" / "sweep_allsites.json"))
        sec = dict(doc["simulate"])
        sec.pop("output")
        sec["spectrum"] = NoiseSpectrum(**sec["spectrum"])
        plan = SweepPlan(master_seed=doc["master_seed"], **sec)
        assert plan.digest() != "59b41100e4acb11e"

    def test_resuming_the_dop853_table_is_refused(self, tmp_path, capsys):
        table = self.REPO / "results" / "allsites_curve.tsv"
        assert read_table(table).meta["plan_digest"] == "59b41100e4acb11e"
        shutil.copy(table, tmp_path / "allsites_curve.tsv")
        config = str(self.REPO / "configs" / "sweep_allsites.json")
        assert cli.main(["simulate", "--config", config,
                         "--output-dir", str(tmp_path)]) == 1
        assert "different plan" in capsys.readouterr().err
        assert (tmp_path / "allsites_curve.tsv").read_bytes() == \
            table.read_bytes()
        assert not (tmp_path / "allsites_curve.tsv.meta.json").exists()

    def test_sidecar_records_point_health(self, tmp_path):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "simulate": {"sizes": [4, 128], "velocities": [0.5, 1.0],
                         "noise_mode": "none", "output": "t.tsv"}})
        assert cli.main(["simulate", "--config", cfg]) == 0
        sidecar = json.loads((tmp_path / "t.tsv.meta.json").read_text())
        points = sidecar["points"]
        assert [(p["L"], p["v"]) for p in points] == \
            [(4, 1.0), (4, 0.5), (128, 1.0), (128, 0.5)]
        for point in points:
            assert point["engine"] == ENGINE
            assert point["steps"] >= 2 and point["steps"] % 2 == 0
            # dE and its error grow with the chain: 1e-6 at L = 4
            assert 0 <= point["richardson_delta_e"] < 2.5e-7 * point["L"]
            assert 0 < point["error_ratio"] <= 1.0
            assert point["orthogonality_defect"] <= 1e-12
            assert point["wall_s"] > 0
            # every attempt of the step search, the accepted one last;
            # from L = 128 on a rejection may come from the row sample
            *rejected, accepted = point["search"]
            assert accepted == [point["steps"], point["error_ratio"], "all"]
            assert rejected and all(ratio > 1.0 for _, ratio, _ in rejected)
            kinds = {"sample"} if point["L"] == 128 else {"all"}
            assert {rows for _, _, rows in rejected} == kinds
        table = read_table(tmp_path / "t.tsv")
        assert set(table.meta) == {"schema", "generated_by", "plan_digest",
                                   "config_digest"}
        # a resume keeps the entries of the points it does not recompute
        lines = (tmp_path / "t.tsv").read_text().splitlines()
        (tmp_path / "t.tsv").write_text("\n".join(lines[:-1]) + "\n")
        assert cli.main(["simulate", "--config", cfg]) == 0
        again = json.loads((tmp_path / "t.tsv.meta.json").read_text())
        assert again["points"][:-1] == points[:-1]
        last, redone = points[-1], again["points"][-1]
        assert {k: v for k, v in redone.items() if k != "wall_s"} == \
            {k: v for k, v in last.items() if k != "wall_s"}

    def test_table_bytes_independent_of_workers_and_blas_threads(
            self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulate": {"sizes": [4, 6], "velocities": [0.2, 1.0],
                         "n_realizations": 100,
                         "spectrum": {"n_modes": 16, "coupling": 0.05},
                         "output": "t.tsv"}})
        tables = set()
        for workers, threads in (("1", "1"), ("2", "1"), ("1", "2"),
                                 ("2", "2")):
            out = tmp_path / f"w{workers}-b{threads}"
            env = dict(os.environ, PYTHONPATH=str(self.REPO / "src"),
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "annealkit.cli", "simulate",
                            "--config", cfg, "--workers", workers,
                            "--output-dir", str(out)],
                           env=env, check=True, capture_output=True)
            tables.add((out / "t.tsv").read_bytes())
        assert len(tables) == 1


def _scipy_modules_after(statement: str) -> str:
    import annealkit

    src = os.path.dirname(os.path.dirname(annealkit.__file__))
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy.optimize alone takes ~0.6 s to import; every verb pays for
    what `annealkit.cli` imports at start-up, so scipy stays lazy."""
    assert _scipy_modules_after("import annealkit.cli") == "[]"


def test_ensemble_import_loads_no_scipy():
    """The sweep path (ensemble, fermion, noise) runs without scipy."""
    assert _scipy_modules_after("import annealkit.ensemble") == "[]"
