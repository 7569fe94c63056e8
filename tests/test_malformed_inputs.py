"""Malformed input files and configs end in SchemaError / ConfigError.

Through the CLI every such case exits with code 1 and a one-line
'error:' message; the property tests feed the parsers arbitrary bytes
and the validator arbitrary JSON values.
"""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from annealkit import cli
from annealkit.analysis import bin_stats, rescaled_rows
from annealkit.chimera import (DECODED_COLUMNS, N_QUBITS, SAMPLES_MAGIC,
                               DefectList, build_embedding,
                               build_full_embedding, read_coupler_list,
                               read_decoded, read_embedding, read_samples,
                               synthesize_samples, tile_partition,
                               write_coupler_list, write_logical_map,
                               write_samples)
from annealkit.config import _SCHEMA, validate_config
from annealkit.ensemble import SweepPlan
from annealkit.errors import ConfigError, ParameterError, SchemaError
from annealkit.noise import NoiseSpectrum
from annealkit.qubit import QubitRun
from annealkit.tables import append_row, read_table


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_clean_exit(capsys, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture
def device_files(tmp_path):
    """Valid one-tile coupler list, logical map and text samples."""
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path),
        "embed": {"L": 4, "tiled": False, "output_prefix": "emb"}})
    assert cli.main(["embed", "--config", cfg]) == 0
    emb = build_embedding(4)
    write_samples(tmp_path / "samples.txt", synthesize_samples(emb, 2))
    return {"samples": str(tmp_path / "samples.txt"),
            "couplers": str(tmp_path / "emb.couplers.txt"),
            "logical_map": str(tmp_path / "emb.map.json")}


@pytest.fixture
def tiled_files(tmp_path):
    """Valid coupler list and logical map of the 64 tiles of side 4, and
    text samples taken on them."""
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path),
        "embed": {"L": 4, "output_prefix": "tiled"}})
    assert cli.main(["embed", "--config", cfg]) == 0
    write_samples(tmp_path / "samples.txt",
                  synthesize_samples(build_full_embedding(4), 5))
    return {"samples": str(tmp_path / "samples.txt"),
            "couplers": str(tmp_path / "tiled.couplers.txt"),
            "logical_map": str(tmp_path / "tiled.map.json")}


def edit_map(files, edit):
    """Rewrite the logical map with edit(doc) applied."""
    path = Path(files["logical_map"])
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def run_decode(tmp_path, capsys, files):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                  "decode": files})
    assert_clean_exit(capsys, ["decode", "--config", cfg])


def decoded_table(tmp_path, files):
    """Decode the valid device files; returns the decoded table's path."""
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                  "decode": files})
    assert cli.main(["decode", "--config", cfg]) == 0
    return tmp_path / "decoded.tsv"


def run_aggregate(tmp_path, capsys, path):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                  "aggregate": {"input": str(path)}})
    assert_clean_exit(capsys, ["aggregate", "--config", cfg])


class TestMalformedFilesExitCleanly:
    @pytest.mark.parametrize("content", [
        b"# schema: ensemble-curve/1\nL v delta_e_mean delta_e_stderr\n"
        b"32 0.1 abc 0.01\n",
        b"L v\n\xff\xfe 0.1\n",
    ], ids=["non_numeric_token", "non_utf8_bytes"])
    def test_fit_input_table(self, tmp_path, capsys, content):
        path = tmp_path / "curve.tsv"
        path.write_bytes(content)
        with pytest.raises(SchemaError):
            read_table(path)
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                      "fit": {"input": str(path)}})
        assert_clean_exit(capsys, ["fit", "--config", cfg])

    def test_truncated_binary_samples(self, tmp_path, capsys, device_files):
        path = tmp_path / "samples.bin"
        path.write_bytes(SAMPLES_MAGIC + struct.pack("<II", N_QUBITS, 3)
                         + b"\x01" * (N_QUBITS + 5))
        with pytest.raises(SchemaError):
            read_samples(path)
        run_decode(tmp_path, capsys, dict(device_files, samples=str(path)))

    @pytest.mark.parametrize("n_records, tail", [(3, b""), (1, b"\x01")],
                             ids=["more_records", "trailing_bytes"])
    def test_binary_samples_beyond_their_header(self, tmp_path, capsys,
                                                device_files, n_records,
                                                tail):
        path = tmp_path / "samples.bin"
        path.write_bytes(SAMPLES_MAGIC + struct.pack("<II", N_QUBITS, 1)
                         + b"\x01" * (N_QUBITS * n_records) + tail)
        with pytest.raises(SchemaError):
            read_samples(path)
        run_decode(tmp_path, capsys, dict(device_files, samples=str(path)))

    def test_truncated_binary_header(self, tmp_path):
        path = tmp_path / "samples.bin"
        path.write_bytes(SAMPLES_MAGIC + b"\x00\x08")
        with pytest.raises(SchemaError):
            read_samples(path)

    def test_huge_run_count_is_refused_before_reading(self, tmp_path):
        path = tmp_path / "samples.bin"
        path.write_bytes(SAMPLES_MAGIC + struct.pack("<II", N_QUBITS,
                                                     2 ** 32 - 1))
        with pytest.raises(SchemaError):
            read_samples(path)

    def test_non_numeric_text_sample(self, tmp_path, capsys, device_files):
        path = tmp_path / "samples.txt"
        path.write_text("# schema: sample-set/1\n1 -1 x 1\n")
        with pytest.raises(SchemaError):
            read_samples(path)
        run_decode(tmp_path, capsys, dict(device_files, samples=str(path)))

    def test_coupler_row_of_wrong_width(self, tmp_path, capsys, device_files):
        path = tmp_path / "emb.couplers.txt"
        path.write_text(path.read_text() + "0 4 -1.0 7\n")
        with pytest.raises(SchemaError):
            read_coupler_list(path)
        run_decode(tmp_path, capsys, device_files)

    def test_non_integer_qubit_index(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# schema: coupler-list/1\nq1 q2 J\n0.5 4 -1.0\n")
        with pytest.raises(SchemaError):
            read_coupler_list(path)

    def test_coupler_on_unowned_qubit(self, tmp_path, capsys, device_files):
        path = tmp_path / "emb.couplers.txt"
        path.write_text(path.read_text() + "2046 2047 -0.25\n")
        run_decode(tmp_path, capsys, device_files)

    def test_coupler_across_tiles(self, tmp_path, capsys, device_files):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "embed": {"L": 4, "output_prefix": "tiled"}})
        assert cli.main(["embed", "--config", cfg]) == 0
        couplers = tmp_path / "tiled.couplers.txt"
        logical_map = tmp_path / "tiled.map.json"
        sites = json.loads(logical_map.read_text())["sites"]
        first = {}
        for site in sites:
            if not site["vacancy"]:
                first.setdefault(site["tile"], site["qubits"][0])
        assert len(first) > 1
        q1, q2 = first[0], first[1]
        couplers.write_text(couplers.read_text() + f"{q1} {q2} -0.25\n")
        with pytest.raises(SchemaError, match="tiles"):
            read_embedding(couplers, logical_map)
        run_decode(tmp_path, capsys, dict(device_files, couplers=str(couplers),
                                          logical_map=str(logical_map)))

    @pytest.mark.parametrize("extra", ["0 4 -1.0\n", "4 0 -1.0\n",
                                       "0 5 -0.25\n", "5 0 -0.25\n"],
                             ids=["high_cost", "high_cost_reversed", "bond",
                                  "bond_reversed"])
    def test_coupler_listed_twice(self, tmp_path, capsys, device_files,
                                  extra):
        path = tmp_path / "emb.couplers.txt"
        assert "\n0 4 -1.0\n" in path.read_text()
        assert "\n0 5 -0.25\n" in path.read_text()
        path.write_text(path.read_text() + extra)
        with pytest.raises(SchemaError, match="twice"):
            read_embedding(path, device_files["logical_map"])
        run_decode(tmp_path, capsys, device_files)

    def test_coupler_joining_a_qubit_to_itself(self, tmp_path, capsys,
                                               device_files):
        path = tmp_path / "emb.couplers.txt"
        path.write_text(path.read_text() + "4 4 -1.0\n")
        with pytest.raises(SchemaError, match="itself"):
            read_coupler_list(path)
        run_decode(tmp_path, capsys, device_files)

    def test_qubit_of_two_sites(self, tmp_path, capsys, device_files):
        path = tmp_path / "emb.map.json"
        doc = json.loads(path.read_text())
        doc["sites"][1]["qubits"][0] = doc["sites"][0]["qubits"][0]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="belongs to sites"):
            read_embedding(device_files["couplers"], path)
        run_decode(tmp_path, capsys, device_files)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_coupler_value_not_finite(self, tmp_path, capsys, device_files,
                                      value):
        path = tmp_path / "emb.couplers.txt"
        assert "\n0 4 -1.0\n" in path.read_text()
        path.write_text(path.read_text().replace("\n0 4 -1.0\n",
                                                 f"\n0 4 {value}\n"))
        (tmp_path / "samples.txt.meta.json").unlink()  # no coupler digest
        with pytest.raises(SchemaError, match="not finite"):
            read_coupler_list(path)
        run_decode(tmp_path, capsys, device_files)

    @pytest.mark.parametrize("value", [
        "abc", [1], True, -3.0, 0.0, float("inf"), float("nan"), 10 ** 400,
    ], ids=["text", "list", "bool", "negative", "zero", "inf", "nan",
            "huge_int"])
    def test_sample_annealing_time_not_real(self, tmp_path, capsys,
                                            device_files, value):
        path = tmp_path / "samples.txt.meta.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        annealing_time=value)))
        with pytest.raises(SchemaError):
            read_samples(device_files["samples"])
        run_decode(tmp_path, capsys, device_files)

    @pytest.mark.parametrize("header, replacement", [
        ("tile_side", ""), ("tile_side", "# tile_side: 4.5\n"),
        ("tile_side", "# tile_side: -7\n"), ("tile_side", "# tile_side: 33\n"),
        ("annealing_time", ""), ("annealing_time", "# annealing_time: abc\n"),
        ("annealing_time", "# annealing_time: -3.0\n"),
        ("annealing_time", "# annealing_time: 0.0\n"),
        ("annealing_time", "# annealing_time: -0.0\n"),
        ("annealing_time", "# annealing_time: inf\n"),
    ], ids=["no_tile_side", "fractional_tile_side", "negative_tile_side",
            "tile_side_beyond_the_chip", "no_annealing_time",
            "annealing_time_text", "annealing_time_negative",
            "annealing_time_zero", "annealing_time_negative_zero",
            "annealing_time_inf"])
    def test_decoded_table_header(self, tmp_path, capsys, device_files,
                                  header, replacement):
        path = decoded_table(tmp_path, device_files)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(replacement if line.startswith(f"# {header}:")
                                else line for line in lines))
        run_aggregate(tmp_path, capsys, path)
        assert not (tmp_path / "device_curve.tsv").exists()

    @pytest.mark.parametrize("edit", [
        lambda cols: cols[:-1],
        lambda cols: [cols[1], cols[0]] + cols[2:],
        lambda cols: cols[:2] + [cols[3], cols[2]] + cols[4:],
    ], ids=["missing_last_column", "tile_run_swapped",
            "observables_swapped"])
    def test_decoded_table_columns(self, tmp_path, capsys, device_files,
                                   edit):
        path = decoded_table(tmp_path, device_files)
        lines = path.read_text().splitlines()
        header = lines.index(" ".join(DECODED_COLUMNS))
        for i in range(header, len(lines)):
            lines[i] = " ".join(edit(lines[i].split()))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="columns"):
            read_decoded(path)
        run_aggregate(tmp_path, capsys, path)

    @pytest.mark.parametrize("column, value", [
        (0, "-1"), (0, "0.5"), (1, "-2"), (1, "nan"), (6, "1.5"),
        (6, "-1"), (6, "inf"), (7, "2"), (7, "0.5"), (7, "-1"),
    ])
    def test_decoded_table_cell_domain(self, tmp_path, capsys, device_files,
                                       column, value):
        path = decoded_table(tmp_path, device_files)
        lines = path.read_text().splitlines()
        cells = lines[-1].split()
        cells[column] = value
        lines[-1] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            read_decoded(path)
        run_aggregate(tmp_path, capsys, path)

    def test_decoded_annealing_time_missing_gives_nan_velocity(
            self, tmp_path, capsys, device_files):
        meta = tmp_path / "samples.txt.meta.json"
        doc = json.loads(meta.read_text())
        del doc["annealing_time"]
        meta.write_text(json.dumps(doc))
        path = decoded_table(tmp_path, device_files)
        assert "# annealing_time: nan\n" in path.read_text()
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                      "aggregate": {"input": str(path)}})
        assert cli.main(["aggregate", "--config", cfg]) == 0
        assert np.isnan(read_table(tmp_path / "device_curve.tsv")["v"][0])

    def test_aggregate_refuses_a_foreign_output_table(self, tmp_path, capsys,
                                                      device_files):
        path = decoded_table(tmp_path, device_files)
        curve = tmp_path / "curve.tsv"
        curve.write_text("# schema: ensemble-curve/1\n"
                         "L v delta_e_mean delta_e_stderr n_real n_bins\n"
                         "4 0.1 0.5 0.01 10 5\n")
        before = curve.read_bytes()
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path),
                                      "aggregate": {"input": str(path),
                                                    "output": "curve.tsv"}})
        assert_clean_exit(capsys, ["aggregate", "--config", cfg])
        assert curve.read_bytes() == before
        assert len(read_table(curve)) == 1

    @pytest.mark.parametrize("content", [
        "# schema: other/1\na b\n1 2\n",
        "# schema: x/1\nb a\n1 2\n",
        "a b\n1 2\n",
        "# schema: x/1\n",
        "# schema: x/1\na b c\n1 2 3\n",
        "# schema: x/1\na b\n1 abc\n",
    ], ids=["other_schema", "other_columns", "no_schema", "no_column_line",
            "extra_column", "malformed_body"])
    def test_append_row_refuses_a_foreign_table(self, tmp_path, content):
        path = tmp_path / "t.tsv"
        path.write_text(content)
        with pytest.raises(SchemaError):
            append_row(path, ("a", "b"), (3, 4.5), {"schema": "x/1"})
        assert path.read_text() == content

    def test_append_row_extends_its_own_table(self, tmp_path):
        path = tmp_path / "t.tsv"
        for row in ((1, 2.5), (3, 4.5)):
            append_row(path, ("a", "b"), row,
                       {"schema": "x/1", "config_digest": "abc"})
        assert path.read_text() == ("# schema: x/1\n# config_digest: abc\n"
                                    "a b\n1 2.5\n3 4.5\n")

    @pytest.mark.parametrize("content", ["[1, 2]", "{broken", "\udcff"],
                             ids=["not_an_object", "bad_json", "non_utf8"])
    def test_bad_fit_summary(self, tmp_path, capsys, content):
        table = tmp_path / "curve.tsv"
        table.write_text("L v delta_e_mean delta_e_stderr\n")
        summary = tmp_path / "summary.json"
        summary.write_bytes(content.encode("utf-8", "surrogateescape"))
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "collapse": {"input": str(table), "fit_summary": str(summary)}})
        assert_clean_exit(capsys, ["collapse", "--config", cfg])


class TestLogicalMapHoles:
    """Maps that each decoded to exit 0 before these checks, with sites
    silently replaced, tiles decoded twice or tiles dropped."""

    def test_site_listed_twice(self, tmp_path, capsys, tiled_files):
        def edit(doc):
            doc["sites"][1].update(x=doc["sites"][0]["x"],
                                   y=doc["sites"][0]["y"])
        edit_map(tiled_files, edit)
        with pytest.raises(SchemaError, match="listed twice"):
            read_embedding(tiled_files["couplers"], tiled_files["logical_map"])
        run_decode(tmp_path, capsys, tiled_files)

    def test_placement_listed_twice(self, tmp_path, capsys, tiled_files):
        edit_map(tiled_files,
                 lambda doc: doc["placements"].append(doc["placements"][-1]))
        with pytest.raises(SchemaError, match="placed twice"):
            read_embedding(tiled_files["couplers"], tiled_files["logical_map"])
        run_decode(tmp_path, capsys, tiled_files)
        assert not (tmp_path / "decoded.tsv").exists()

    def test_sites_of_a_tile_that_is_not_placed(self, tmp_path, capsys,
                                                tiled_files):
        def edit(doc):
            for site in doc["sites"]:
                if site["tile"] == 63:
                    site["tile"] = 99
        edit_map(tiled_files, edit)
        with pytest.raises(SchemaError, match="not a placement"):
            read_embedding(tiled_files["couplers"], tiled_files["logical_map"])
        run_decode(tmp_path, capsys, tiled_files)

    @pytest.mark.parametrize("tile_side", [0, 1, 3, 5, 33])
    def test_tile_side_not_that_of_the_tiles(self, tmp_path, capsys,
                                             tiled_files, tile_side):
        edit_map(tiled_files, lambda doc: doc.update(tile_side=tile_side))
        with pytest.raises(SchemaError, match=" is not in | lies outside "
                                              "|placement corners"):
            read_embedding(tiled_files["couplers"], tiled_files["logical_map"])
        run_decode(tmp_path, capsys, tiled_files)

    @pytest.mark.parametrize("tile_side", [3, 5])
    def test_tile_side_not_that_of_the_one_tile(self, tmp_path, capsys,
                                                device_files, tile_side):
        edit_map(device_files, lambda doc: doc.update(tile_side=tile_side))
        with pytest.raises(SchemaError):
            read_embedding(device_files["couplers"],
                           device_files["logical_map"])
        run_decode(tmp_path, capsys, device_files)

    def test_site_outside_its_tile(self, tmp_path, capsys, tiled_files):
        def edit(doc):
            site = next(site for site in doc["sites"] if site["tile"] == 0
                        and (site["x"], site["y"]) == (3, 0))
            site["tile"] = 1     # (3, 0) lies in tile 0's window only
        edit_map(tiled_files, edit)
        with pytest.raises(SchemaError, match=" lies outside "):
            read_embedding(tiled_files["couplers"], tiled_files["logical_map"])
        run_decode(tmp_path, capsys, tiled_files)

    def test_tile_with_a_site_missing(self, tmp_path, capsys, device_files):
        edit_map(device_files, lambda doc: doc["sites"].pop())
        with pytest.raises(SchemaError, match="15 sites, not 16"):
            read_embedding(device_files["couplers"],
                           device_files["logical_map"])
        run_decode(tmp_path, capsys, device_files)


class TestConfigShape:
    def test_non_object_section(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            validate_config({"simulate": 5})
        cfg = write_config(tmp_path, {"simulate": 5})
        assert_clean_exit(capsys, ["simulate", "--config", cfg])

    def test_root_schema_is_not_a_section(self):
        with pytest.raises(ConfigError):
            validate_config({"": {"workers": 3}})

    @pytest.mark.parametrize("span", [
        {"min": 1e-3, "max": 0.1},
        {"max": 0.1, "count": 4},
        {"min": 1e-3, "count": 4},
        {"min": 0.1, "max": 1e-3, "count": 4},
        {"min": 0.0, "max": 0.1, "count": 4},
        {"min": 1e-3, "max": 0.1, "count": 0},
    ])
    def test_incomplete_or_empty_velocity_range(self, tmp_path, capsys, span):
        doc = {"output_dir": str(tmp_path),
               "simulate": {"sizes": [4], "velocities": span,
                            "noise_mode": "none"}}
        with pytest.raises(ConfigError):
            validate_config(doc)
        assert_clean_exit(capsys, ["simulate", "--config",
                                   write_config(tmp_path, doc)])

    @pytest.mark.parametrize("verb, doc", [
        ("simulate", {"simulate": {"sizes": ["a"], "velocities": [0.5],
                                   "noise_mode": "none"}}),
        ("simulate", {"simulate": {"sizes": [4], "velocities": [0.5, "x"],
                                   "noise_mode": "none"}}),
        ("embed", {"embed": {"L": 4, "defects": {"qubits": ["x"]}}}),
        ("embed", {"embed": {"L": 4, "defects": {"couplers": [[0, "x"]]}}}),
        ("embed", {"embed": {"L": 4, "defects": {"couplers": [[0, 4, 5]]}}}),
    ], ids=["sizes", "velocities", "defect_qubits", "defect_coupler_element",
            "defect_coupler_length"])
    def test_wrong_list_element(self, tmp_path, capsys, verb, doc):
        cfg = write_config(tmp_path, dict(doc, output_dir=str(tmp_path)))
        assert_clean_exit(capsys, [verb, "--config", cfg])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestRequiredKeys:
    @pytest.mark.parametrize("verb, doc", [
        ("simulate", {"simulate": {"velocities": [0.5], "noise_mode": "none"}}),
        ("simulate", {"simulate": {"sizes": [], "velocities": [0.5],
                                   "noise_mode": "none"}}),
        ("fit", {"fit": {"output_prefix": "f"}}),
        ("collapse", {"collapse": {"fit_summary": "summary.json"}}),
        ("kzm", {"kzm": {"z": 1, "nu": 1}}),
        ("kzm", {"kzm": {"d": 1, "nu": 1}}),
        ("kzm", {"kzm": {"d": 1, "z": 1}}),
        ("embed", {"embed": {"tiled": False}}),
        ("decode", {"decode": {"couplers": "c.txt", "logical_map": "m.json"}}),
        ("decode", {"decode": {"samples": "s.txt", "logical_map": "m.json"}}),
        ("decode", {"decode": {"samples": "s.txt", "couplers": "c.txt"}}),
        ("aggregate", {"aggregate": {"output": "curve.tsv"}}),
    ], ids=["simulate_sizes", "simulate_empty_sizes", "fit_input",
            "collapse_input", "kzm_d", "kzm_z", "kzm_nu", "embed_L",
            "decode_samples", "decode_couplers", "decode_logical_map",
            "aggregate_input"])
    def test_missing_key_exits_cleanly(self, tmp_path, capsys, verb, doc):
        cfg = write_config(tmp_path, dict(doc, output_dir=str(tmp_path)))
        assert_clean_exit(capsys, [verb, "--config", cfg])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_single_site_beyond_the_smallest_chain(self, tmp_path, capsys):
        # L=64 would run and be appended before L=8 found the site missing
        doc = {"output_dir": str(tmp_path),
               "simulate": {"sizes": [64, 8], "velocities": [0.5],
                            "noise_mode": "single", "single_site": 20,
                            "spectrum": {"n_modes": 4}}}
        assert_clean_exit(capsys, ["simulate", "--config",
                                   write_config(tmp_path, doc)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        with pytest.raises(ParameterError):
            SweepPlan(sizes=(64, 8), noise_mode="single", single_site=8)
        assert SweepPlan(sizes=(64, 8), noise_mode="single",
                         single_site=7).single_site == 7

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("source", ["flag", "config", "set"])
    def test_worker_count_below_one(self, tmp_path, capsys, workers, source):
        doc = {"output_dir": str(tmp_path),
               "simulate": {"sizes": [4], "velocities": [0.5],
                            "noise_mode": "none"}}
        argv = []
        if source == "flag":
            argv = ["--workers", str(workers)]
        elif source == "set":
            argv = ["--set", f"workers={workers}"]
        else:
            doc["workers"] = workers
        with pytest.raises(ConfigError):
            validate_config(dict(doc, workers=workers))
        assert_clean_exit(capsys, ["simulate", "--config",
                                   write_config(tmp_path, doc)] + argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("n_bins", [-1, 0, 1])
    @pytest.mark.parametrize("verb", ["simulate", "aggregate"])
    def test_bin_count_below_two(self, tmp_path, capsys, device_files, verb,
                                 n_bins):
        if verb == "simulate":
            section = {"sizes": [4], "velocities": [0.5],
                       "noise_mode": "none", "n_bins": n_bins}
        else:
            section = {"input": str(decoded_table(tmp_path, device_files)),
                       "n_bins": n_bins}
        before = sorted(p.name for p in tmp_path.iterdir())
        doc = {"output_dir": str(tmp_path), verb: section}
        assert_clean_exit(capsys, [verb, "--config",
                                   write_config(tmp_path, doc)])
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(set(before) | {"config.json"})
        with pytest.raises(ParameterError):
            bin_stats(np.arange(4.0), n_bins)

    def test_empty_sizes_rejected_by_plan(self):
        with pytest.raises(ParameterError):
            SweepPlan(sizes=())

    def test_run_sections_name_only_dataclass_fields(self):
        """simulate/qubit sections pass straight to their dataclasses."""
        for section, cls in (("simulate", SweepPlan), ("qubit", QubitRun)):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert set(_SCHEMA[section]) - {"output"} <= fields
            assert set(_SCHEMA[section]["spectrum"]) <= \
                {f.name for f in dataclasses.fields(NoiseSpectrum)}


class TestMissingOrHollowInputs:
    @pytest.mark.parametrize("verb", ["fit", "aggregate"])
    def test_missing_input_file(self, tmp_path, capsys, verb):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            verb: {"input": str(tmp_path / "nope.tsv")}})
        assert_clean_exit(capsys, [verb, "--config", cfg])

    @pytest.mark.parametrize("edit", [
        lambda doc: {"schema": doc["schema"]},
        lambda doc: dict(doc, tile_side="4"),
        lambda doc: dict(doc, placements=[[0, 0]]),
        lambda doc: dict(doc, sites=[{k: v for k, v in site.items()
                                      if k != "qubits"}
                                     for site in doc["sites"]]),
        lambda doc: dict(doc, sites=[dict(site, vacancy=0)
                                     for site in doc["sites"]]),
        lambda doc: dict(doc, sites=[5]),
    ], ids=["no_entries", "tile_side_text", "short_placement",
            "site_without_qubits", "vacancy_not_bool", "site_not_object"])
    def test_hollow_logical_map(self, tmp_path, capsys, device_files, edit):
        path = tmp_path / "emb.map.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(SchemaError):
            read_embedding(device_files["couplers"], path)
        run_decode(tmp_path, capsys, device_files)

    def test_qubit_off_chip(self, tmp_path, capsys, device_files):
        """Map and couplers agree on a qubit index the chip does not have."""
        def renumber(q):
            return str(N_QUBITS) if q == "0" else q

        cpath = tmp_path / "emb.couplers.txt"
        lines = []
        for line in cpath.read_text().splitlines():
            parts = line.split()
            if parts[0].isdigit():
                parts[:2] = map(renumber, parts[:2])
            lines.append(" ".join(parts))
        cpath.write_text("\n".join(lines) + "\n")
        mpath = tmp_path / "emb.map.json"
        doc = json.loads(mpath.read_text())
        for site in doc["sites"]:
            site["qubits"] = [int(renumber(str(q))) for q in site["qubits"]]
        mpath.write_text(json.dumps(doc))
        (tmp_path / "samples.txt.meta.json").unlink()  # no coupler digest
        with pytest.raises(SchemaError):
            read_embedding(cpath, mpath)
        run_decode(tmp_path, capsys, device_files)

    @pytest.mark.parametrize("observable", ["delta_e", "delta_m"])
    def test_fit_table_lacking_a_column(self, tmp_path, capsys, observable):
        table = tmp_path / "curve.tsv"
        table.write_text("L v delta_e_mean\n4 0.1 0.5\n4 0.2 0.6\n")
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "fit": {"input": str(table), "observable": observable}})
        assert cli.main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table} has no column ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("summary", [
        {},
        {"alpha": 0.5, "beta": 1.0},
        {"alpha": "0.5", "beta": 1.0,
         "per_size": [{"L": 4, "v_min": 0.1, "f_min": 0.5}]},
        {"alpha": 0.5, "beta": 1.0, "per_size": [{"L": 4, "v_min": 0.1}]},
        {"alpha": 0.5, "beta": 1.0, "per_size": [[4, 0.1, 1.0]]},
    ], ids=["no_entries", "no_per_size", "alpha_text", "entry_without_f_min",
            "entry_not_object"])
    def test_hollow_fit_summary(self, tmp_path, capsys, summary):
        table = tmp_path / "curve.tsv"
        table.write_text("L v delta_e_mean delta_e_stderr\n"
                         "4 0.1 0.5 0.01\n4 0.2 0.6 0.01\n")
        summary = dict(summary, schema="fit-summary/1")
        with pytest.raises(SchemaError):
            rescaled_rows(summary, {4: ([0.1], [0.5], [0.01])})
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path),
            "collapse": {"input": str(table), "fit_summary": str(path)}})
        assert_clean_exit(capsys, ["collapse", "--config", cfg])


def test_environment_does_not_override_config(tmp_path, monkeypatch):
    """Workers and output directory come from config, --set and flags only."""
    monkeypatch.setenv("ANNEALKIT_WORKERS", "two")
    monkeypatch.setenv("ANNEALKIT_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "embed": {"L": 4, "tiled": False, "output_prefix": "emb"}})
    assert cli.main(["embed", "--config", cfg]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["emb.couplers.txt", "emb.map.json"]
    assert not (tmp_path / "elsewhere").exists()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

# derandomized: the suite gives the same verdict on every run
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

_TEXT_TOKENS = st.sampled_from([
    "# schema: coupler-list/1\n", "# schema: sample-set/1\n", "# n: 3\n",
    "q1 q2 J\n", "L v x\n", "1", "-1", "0", "4", "2047", "2048", "-0.5",
    "1e999", "nan", "inf", "0.5", "abc", "#", ":", " ", "\t", "\n", "\r\n",
    "\r", "\x00", "é", "٣"])

_TEXTISH = st.lists(_TEXT_TOKENS, max_size=40).map(
    lambda parts: "".join(parts).encode("utf-8"))

_BINARY_SAMPLES = st.builds(
    lambda n_qubits, n_runs, body: (SAMPLES_MAGIC
                                    + struct.pack("<II", n_qubits, n_runs)
                                    + body),
    st.sampled_from([N_QUBITS, 7, 0]),
    st.one_of(st.integers(0, 3), st.integers(0, 2 ** 32 - 1)),
    st.one_of(st.binary(max_size=64),
              st.sampled_from([b"\x01" * N_QUBITS,
                               (b"\x01\xff" * N_QUBITS)[:N_QUBITS],
                               b"\x01" * (2 * N_QUBITS)])))

_ANY_BYTES = st.one_of(st.binary(max_size=200), _TEXTISH)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(content=_ANY_BYTES)
def test_read_table_raises_only_schema_error(fuzz_file, content):
    fuzz_file.write_bytes(content)
    try:
        table = read_table(fuzz_file)
    except SchemaError:
        return
    assert table.data.shape == (len(table), len(table.columns))


@FUZZ
@given(content=st.one_of(_ANY_BYTES, _BINARY_SAMPLES))
def test_read_samples_raises_only_schema_error(fuzz_file, content):
    fuzz_file.write_bytes(content)
    try:
        samples = read_samples(fuzz_file)
    except SchemaError:
        return
    assert samples.values.shape[1] == N_QUBITS


@FUZZ
@given(content=_ANY_BYTES)
def test_read_coupler_list_raises_only_schema_error(fuzz_file, content):
    fuzz_file.write_bytes(content)
    try:
        meta, rows = read_coupler_list(fuzz_file)
    except SchemaError:
        return
    assert all(isinstance(q1, int) and isinstance(q2, int)
               for q1, q2, _ in rows)


def _json_containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(st.text(max_size=8), children,
                                     max_size=4))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    _json_containers, max_leaves=20)

_SECTION_NAMES = st.sampled_from([
    "master_seed", "output_dir", "workers", "simulate", "qubit", "fit",
    "collapse", "kzm", "embed", "decode", "aggregate", "oracle_check"])
_SECTION_KEYS = st.sampled_from([
    "sizes", "velocities", "spectrum", "defects", "min", "max", "count",
    "n_modes", "p", "input", "L", "qubits", "output"])
_CONFIGISH = st.dictionaries(
    _SECTION_NAMES,
    _JSON | st.dictionaries(_SECTION_KEYS,
                            _JSON | st.dictionaries(_SECTION_KEYS, _JSON,
                                                    max_size=4),
                            max_size=4),
    max_size=4)


@FUZZ
@given(doc=st.one_of(_JSON, _CONFIGISH))
def test_validate_config_raises_only_config_error(doc):
    try:
        clean = validate_config(doc)
    except ConfigError:
        return
    assert isinstance(clean, dict)


@pytest.fixture(scope="module")
def map_documents(tmp_path_factory):
    """The coupler list and the logical map document of three tiles of
    side 4, one of them with a vacancy."""
    directory = tmp_path_factory.mktemp("maps")
    emb = build_embedding(4, defects=DefectList(qubits={5}),
                          placements=tile_partition(4)[:3])
    write_coupler_list(directory / "c.txt", emb)
    write_logical_map(directory / "m.json", emb)
    return (directory / "c.txt",
            json.loads((directory / "m.json").read_text()))


_BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "4", "", 4.0, 0.5, float("nan"),
                     float("inf"), [], [1], [1, 2, 3], [True, 4], ["1", 4],
                     [4.0, 5], {}, {"x": 1}, -1, 0, 1, 2, 32, 2047, 2048,
                     2 ** 63, 10 ** 30, -(10 ** 30)]),
    st.integers(-3, 40))
_SITE_FIELDS = st.sampled_from(["x", "y", "tile", "qubits", "vacancy"])
_TOP_FIELDS = st.sampled_from(["tile_side", "j_ising", "j_hc", "placements",
                               "sites"])


def _mutate(doc, data):
    """Apply one drawn mutation to the JSON document in place: a wrong
    value or type (bools for ints among them), a missing key, a short or
    ragged list, or a duplicated entry."""
    sites, placements = doc["sites"], doc["placements"]
    kind = data.draw(st.sampled_from([
        "site_value", "site_missing", "qubit_value", "qubits_length",
        "site_duplicate", "site_not_object", "placement_value",
        "placement_length", "placement_duplicate", "top_value",
        "top_missing"]))
    i = data.draw(st.integers(0, len(sites) - 1))
    p = data.draw(st.integers(0, len(placements) - 1))
    if kind == "site_value":
        sites[i][data.draw(_SITE_FIELDS)] = data.draw(_BAD_VALUES)
    elif kind == "site_missing":
        del sites[i][data.draw(_SITE_FIELDS)]
    elif kind == "qubit_value":
        sites[i]["qubits"][data.draw(st.integers(0, 1))] = \
            data.draw(_BAD_VALUES)
    elif kind == "qubits_length":
        sites[i]["qubits"] = data.draw(st.sampled_from([
            [], sites[i]["qubits"][:1], sites[i]["qubits"] * 2,
            [sites[i]["qubits"]]]))
    elif kind == "site_duplicate":
        sites.append(dict(sites[i]))
    elif kind == "site_not_object":
        sites[i] = data.draw(_BAD_VALUES)
    elif kind == "placement_value":
        placements[p][data.draw(st.integers(0, 2))] = data.draw(_BAD_VALUES)
    elif kind == "placement_length":
        placements[p] = data.draw(st.sampled_from([
            placements[p][:2], placements[p] + [0], [], placements[p][0]]))
    elif kind == "placement_duplicate":
        placements.append(list(placements[p]))
    elif kind == "top_value":
        doc[data.draw(_TOP_FIELDS)] = data.draw(_BAD_VALUES)
    else:
        del doc[data.draw(_TOP_FIELDS)]


@FUZZ
@given(data=st.data())
def test_read_embedding_raises_only_schema_error(map_documents, fuzz_file,
                                                 data):
    couplers, document = map_documents
    doc = json.loads(json.dumps(document))
    _mutate(doc, data)
    fuzz_file.write_text(json.dumps(doc))
    try:
        emb = read_embedding(couplers, fuzz_file)
    except SchemaError:
        return
    assert emb.qubits.shape == (len(emb.x), 2)
