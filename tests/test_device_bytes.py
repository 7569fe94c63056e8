"""The device-data path writes the same bytes for the same records.

Golden digests pin the decoded table and the device curve written by
`decode` and `aggregate` (the path-dependent `config_digest` line left
out), for text and binary sample files of the same records.  The
inputs have an excluded tile, a vacancy in a kept tile, high-cost
violations and a checkerboard-gauged j_ising = 0.4 embedding, whose
coupler values are not exact binary fractions, so any change in the
order of a sum shows.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealkit import cli
from annealkit.chimera import (DECODED_COLUMNS, DefectList, SampleSet,
                               build_embedding, checkerboard_gauge,
                               decode_samples, gauge_transform,
                               physical_pair, read_samples,
                               synthesize_samples, tile_partition,
                               write_samples)
from annealkit.tables import read_table, write_table

# four vacancies in tile 0 exclude it at L=4 and L=8; one at (20, 20)
# leaves its L=8 tile in (1/64 < 5%) and excludes its L=4 tile
DEFECT_SITES = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (20, 20, 1))
J_ISING = 0.4

GOLDEN = {
    # L: (decoded table, device curve), sha256 without config_digest
    4: ("bf120e617090c425b1729190afd7a10cdb590e539f2674757e1809c240d075fa",
        "16168cd3caa7c3fb42db6899ed766a4c2b7af1f4a8bfcb547330635c47b52414"),
    8: ("a302c880e9513080f6c420ac67303ea807edfb1c7c4df41765a6fffcff640a49",
        "72ac4ef401e37993b8416b80e5d27e3219deac709f3efc70a9f08d11f150703f"),
}


def _defect_qubits():
    return [physical_pair(x, y)[k] for x, y, k in DEFECT_SITES]


def _records(L, n_runs=7, seed=11):
    """Samples of the gauged embedding with logical flips and, on top,
    independent single-qubit flips that break high-cost pairs."""
    emb = build_embedding(L, J_ISING, DefectList(qubits=_defect_qubits()),
                          tile_partition(L))
    emb = gauge_transform(emb, checkerboard_gauge(emb))
    ss = synthesize_samples(emb, n_runs, flip_probability=0.15, seed=seed,
                            annealing_time=12.5)
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(ss.values.shape) < 0.02, -ss.values,
                      ss.values).astype(np.int8)
    return SampleSet(values=values, metadata=ss.metadata)


def _digest_without_config(path):
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines
                    if not line.startswith(b"# config_digest:"))
    return hashlib.sha256(kept).hexdigest()


def _device_digests(tmp_path, L, fmt):
    """(decoded, device curve) digests of one decode + aggregate."""
    config = tmp_path / "embed.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path), "embed": {
        "L": L, "j_ising": J_ISING, "gauge": "checkerboard",
        "defects": {"qubits": _defect_qubits()}, "output_prefix": "emb"}}))
    assert cli.main(["embed", "--config", str(config)]) == 0
    samples = tmp_path / f"samples.{fmt}"
    write_samples(samples, _records(L), fmt)
    config.write_text(json.dumps({"output_dir": str(tmp_path), "decode": {
        "samples": str(samples), "couplers": str(tmp_path / "emb.couplers.txt"),
        "logical_map": str(tmp_path / "emb.map.json")}, "aggregate": {
        "input": str(tmp_path / "decoded.tsv")}}))
    assert cli.main(["decode", "--config", str(config)]) == 0
    assert cli.main(["aggregate", "--config", str(config)]) == 0
    return (_digest_without_config(tmp_path / "decoded.tsv"),
            _digest_without_config(tmp_path / "device_curve.tsv"))


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("L", [4, 8])
def test_golden_decoded_table_and_device_curve(tmp_path, L, fmt):
    assert _device_digests(tmp_path, L, fmt) == GOLDEN[L]


def test_golden_inputs_exclude_a_tile_and_break_pairs():
    emb = build_embedding(4, J_ISING, DefectList(qubits=_defect_qubits()),
                          tile_partition(4))
    emb = gauge_transform(emb, checkerboard_gauge(emb))
    decoded = decode_samples(_records(4), emb)
    assert decoded["excluded"].any() and not decoded["excluded"].all()
    assert decoded["hc_violations"].max() > 0


def test_table_round_trip_is_bit_exact(tmp_path):
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                     1.7976931348623157e308, 0.1, -2.5e-310])
    path = tmp_path / "edge.tsv"
    write_table(path, ("x",), {"x": edge})
    back = read_table(path)["x"]
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), edge.view(np.uint64))
    write_table(path, ("x", "y"), zip(edge, edge[::-1]))
    back = read_table(path)
    assert np.array_equal(back["x"].view(np.uint64), edge.view(np.uint64))
    assert np.array_equal(back["y"].view(np.uint64),
                          edge[::-1].view(np.uint64))


_PROPERTY_EMB = build_embedding(
    4, J_ISING, DefectList(qubits=_defect_qubits()[-1:]), tile_partition(4))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n_runs=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       p=st.floats(0.0, 0.5))
def test_text_and_binary_files_decode_to_identical_columns(tmp_path_factory,
                                                           n_runs, seed, p):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((n_runs, 2048)) < p, -1, 1).astype(np.int8)
    directory = tmp_path_factory.mktemp("records")
    decoded = []
    for fmt in ("text", "binary"):
        path = directory / fmt
        write_samples(path, SampleSet(values=values), fmt)
        back = read_samples(path)
        assert np.array_equal(back.values, values)
        decoded.append(decode_samples(back, _PROPERTY_EMB))
    text, binary = decoded
    for name in DECODED_COLUMNS:
        assert text[name].dtype == binary[name].dtype
        assert np.array_equal(text[name], binary[name], equal_nan=True)
