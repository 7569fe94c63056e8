"""The device-data path writes the same bytes for the same records.

Golden digests pin the decoded table and the device curve written by
`decode` and `aggregate` (the path-dependent `config_digest` line left
out), for text and binary sample files of the same records.  The
inputs have an excluded tile, a vacancy in a kept tile, high-cost
violations and a checkerboard-gauged j_ising = 0.4 embedding, whose
coupler values are not exact binary fractions, so any change in the
order of a sum shows.  Further digests pin the coupler list and logical
map written by `embed` (the `generated_by` version line left out) and
the sample files written by `write_samples`.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealkit import cli
from annealkit.chimera import (DECODED_COLUMNS, DefectList, SampleSet,
                               build_embedding, build_full_embedding,
                               checkerboard_gauge, decode_samples,
                               gauge_transform, physical_pair, read_samples,
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


EMBED_DEFECTS = {"qubits": [3, 17, 130, 900, 1500, 2047],
                 "couplers": [[40, 44], [264, 268]]}

GOLDEN_EMBED = {
    # (L, variant): (coupler list, logical map), sha256 without the
    # generated_by line
    (4, "plain"): (
        "33f16a980dc2b0e87d7372620594404fc2895d18baa8797fdc92dcb9092e44fe",
        "d17b5cfacaf39f9da60c593cdddf46b22fc018c6622382ea0d196c0ac59e256b"),
    (4, "gauged"): (
        "ef6ad30e4b4ac71bf3dd9a50736d701add62964c9bfa3d842542bb4de456be05",
        "9dd90fa3a4db9706e66c5a671ebc043a58f8020911a80d59c994ee8023923ba5"),
    (8, "plain"): (
        "5a305fc9429071e0552254a91ebf4db992e7ca855edbb20cf57e390ee0c95080",
        "72e9a9db8d78d170c9f6b61882ac1019d73c9646a867a31e011f2af93686b33d"),
    (8, "gauged"): (
        "66db0137759566a0b7b2737a78da4f83c97cb6fc7a7be6567790f500abc4ca8f",
        "8c979d9002bc1dd2d1daf3d8b11f998fa342d8749baeddea9750ae101fc2af73"),
    (16, "plain"): (
        "f0b7cc467628644944d669805c1cc1e6a1ddce5d2656928638eac926c3b04350",
        "f77367d760ba0c6c93fb90e22c4afd8476d2bc0c40c1cee9e104fa0308b9cfc8"),
    (16, "gauged"): (
        "1373d573e624c90a8065ed33e53c9eb1d9a868e0956f69858b962547ee83fb1a",
        "eb0e9c929113cd1bd8bf679258d5391a1bda298447a3009c8e37efcc79827df0"),
}


def _digest_without_version(path):
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines
                                   if b"generated_by" not in line)).hexdigest()


@pytest.mark.parametrize("L, variant", sorted(GOLDEN_EMBED))
def test_golden_embed_documents(tmp_path, capsys, L, variant):
    """Tiled embeddings, plain, and with defect qubits and couplers, the
    checkerboard gauge and j_ising = 0.4."""
    section = {"L": L, "output_prefix": "emb"}
    if variant == "gauged":
        section.update(j_ising=0.4, gauge="checkerboard",
                       defects=EMBED_DEFECTS)
    config = tmp_path / "embed.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path),
                                  "embed": section}))
    assert cli.main(["embed", "--config", str(config)]) == 0
    vacancies = "0 vacancies" if variant == "plain" else "10 vacancies"
    assert capsys.readouterr().out.rstrip().endswith(vacancies)
    assert (_digest_without_version(tmp_path / "emb.couplers.txt"),
            _digest_without_version(tmp_path / "emb.map.json")) == \
        GOLDEN_EMBED[(L, variant)]


GOLDEN_SAMPLES = {
    # format: (sample file, sidecar) sha256
    "text": ("fd57d870d77ea1e13038b76c84daea7075b5894e50b77469be301c1f0e284b16",
             "0bfdeae2627e4dd3ac2ddfac21d24a1c15913646bb4b84029017f57ba749757c"),
    "binary": (
        "1b0fba346d2dcae09b1b61bf27f70bd0ae6c441b50f779d6fe29d695ed80b3bc",
        "3b5852de6c062cfc72b43d6802a25859cb11f54d2f0f1ff39ed71b763e98ea02"),
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SAMPLES))
def test_golden_sample_files(tmp_path, fmt):
    """150 runs of flips drawn in the built site order, with vacancies."""
    emb = build_full_embedding(4, j_ising=0.4,
                               defects=DefectList(qubits={5, 600, 1999}))
    samples = synthesize_samples(emb, 150, 0.1, seed=3, annealing_time=7.5)
    path = tmp_path / fmt
    write_samples(path, samples, fmt)
    assert (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256((tmp_path / f"{fmt}.meta.json").read_bytes())
            .hexdigest()) == GOLDEN_SAMPLES[fmt]
    if fmt == "text":
        lines = path.read_text().splitlines()[2:]
        assert lines == [" ".join(str(int(v)) for v in run)
                         for run in samples.values]
