"""Embedding construction, gauge symmetry, decoding, file round trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from annealkit.chimera import (DECODED_COLUMNS, GRID, LOGICAL_SIDE,
                               N_QUBITS, DefectList, Embedding, SampleSet,
                               TilePlacement,
                               aggregate_tiles, build_embedding,
                               build_full_embedding, checkerboard_gauge,
                               chimera_edge_exists, decode_samples,
                               gauge_transform, physical_pair, qubit_index,
                               read_coupler_list, read_embedding,
                               read_samples, synthesize_samples,
                               tile_partition, write_coupler_list,
                               write_logical_map, write_samples)
from annealkit.errors import ParameterError, SchemaError


def site_index(emb, site):
    """Index of logical site (x, y) in the embedding's site arrays."""
    (i,) = np.flatnonzero((emb.x == site[0]) & (emb.y == site[1]))
    return i


def pair_of(emb, site):
    return tuple(emb.qubits[site_index(emb, site)].tolist())


def is_vacancy(emb, site):
    return bool(emb.vacancy[site_index(emb, site)])


def bond_mask(emb):
    """Couplers between two different sites (not high-cost)."""
    return emb.ends[:, 0] != emb.ends[:, 1]


def bonds_of(emb):
    """{(site_a, site_b): [(q1, q2, value), ...]} of the bond couplers,
    bonds in order of their first coupler in the sorted coupler list."""
    sites = list(zip(emb.x.tolist(), emb.y.tolist()))
    bonds = {}
    for (q1, q2, val), (e1, e2) in zip(emb.coupler_list(),
                                        emb.ends.tolist()):
        if e1 != e2:
            key = tuple(sorted((sites[e1], sites[e2])))
            bonds.setdefault(key, []).append((q1, q2, val))
    return bonds


def tile_of(emb, site):
    return int(emb.tile[site_index(emb, site)])


def logical_energies(emb, tile_id=0):
    """Exhaustive classical spectrum over the tile's bond couplers."""
    sites = emb.active_sites(tile_id)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    confs = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    energy = np.zeros(2 ** n)
    for (s1, s2), couplers in bonds_of(emb).items():
        if tile_of(emb, s1) != tile_id:
            continue
        for _, _, val in couplers:
            energy += val * confs[:, pos[s1]] * confs[:, pos[s2]]
    return np.sort(energy)


def random_gauge(emb, rng):
    """+-1 for every non-vacancy site, drawn site by site; 1 at vacancies."""
    gauge = np.ones(len(emb.x), dtype=int)
    gauge[~emb.vacancy] = [int(rng.choice((-1, 1)))
                           for _ in range(np.count_nonzero(~emb.vacancy))]
    return gauge


def flip_logical(values, emb, site):
    """Flip both member qubits of one logical site in a record array."""
    q1, q2 = pair_of(emb, site)
    values = values.copy()
    values[:, [q1, q2]] *= -1
    return values


class TestTopology:
    def test_qubit_indexing(self):
        assert qubit_index(0, 0, 0) == 0
        assert qubit_index(0, 1, 0) == 8
        assert qubit_index(1, 0, 3) == 131
        assert N_QUBITS == 2048

    def test_intra_cell_edges_are_bipartite(self):
        assert chimera_edge_exists(0, 4)
        assert chimera_edge_exists(3, 7)
        assert not chimera_edge_exists(0, 1)
        assert not chimera_edge_exists(4, 5)

    def test_inter_cell_edges(self):
        # vertical shore couples vertically, same k
        assert chimera_edge_exists(qubit_index(0, 0, 2), qubit_index(1, 0, 2))
        assert not chimera_edge_exists(qubit_index(0, 0, 2),
                                       qubit_index(0, 1, 2))
        # horizontal shore couples horizontally
        assert chimera_edge_exists(qubit_index(3, 3, 6), qubit_index(3, 4, 6))
        assert not chimera_edge_exists(qubit_index(3, 3, 6),
                                       qubit_index(4, 3, 6))

    def test_every_site_pair_is_a_real_edge(self):
        for y in range(LOGICAL_SIDE):
            for x in range(LOGICAL_SIDE):
                qv, qh = physical_pair(x, y)
                assert chimera_edge_exists(qv, qh)

    def test_pairing_is_a_perfect_matching(self):
        used = set()
        for y in range(LOGICAL_SIDE):
            for x in range(LOGICAL_SIDE):
                for q in physical_pair(x, y):
                    assert q not in used
                    used.add(q)
        assert len(used) == N_QUBITS


class TestBuildEmbedding:
    def test_full_graph_census(self):
        emb = build_embedding(32)
        assert emb.census() == {"hc": 1024, "intra": 2048, "inter": 960}
        assert len(emb.x) == 1024
        couplers = emb.coupler_list()
        assert len(couplers) == 4032
        assert all(abs(val) <= 1.0 for _, _, val in couplers)
        assert all(chimera_edge_exists(q1, q2) for q1, q2, _ in couplers)

    def test_single_cell_tile(self):
        emb = build_embedding(2)
        assert emb.census() == {"hc": 4, "intra": 8, "inter": 0}
        intra = emb.values[bond_mask(emb)]
        assert np.allclose(intra, -0.25)  # -j_ising / 2 at the default 0.5

    def test_parallel_paths_sum_to_bond_strength(self):
        emb = build_embedding(32, j_ising=0.5)
        for couplers in bonds_of(emb).values():
            assert sum(abs(val) for _, _, val in couplers) == pytest.approx(0.5)

    def test_parameter_domains(self):
        with pytest.raises(ParameterError):
            build_embedding(1)
        with pytest.raises(ParameterError):
            build_embedding(33)
        with pytest.raises(ParameterError):
            build_embedding(8, j_ising=0.0)
        with pytest.raises(ParameterError):
            build_embedding(8, j_ising=1.5)


class TestTilePartition:
    def test_known_partitions(self):
        assert len(tile_partition(16)) == 4
        assert len(tile_partition(8)) == 16
        assert len(tile_partition(10)) == 9

    def test_single_tile_fallback_for_large_sides(self):
        with pytest.warns(UserWarning):
            assert tile_partition(20) == [TilePlacement(0, 0, 0)]

    def test_margin_sites_unused(self):
        emb = build_full_embedding(10)
        assert len(emb.x) == 9 * 100
        xs = set(emb.x.tolist())
        assert max(xs) == 29  # 2-wide margin left bare
        margin_qubits = {q for x in range(30, 32) for y in range(32)
                         for q in physical_pair(x, y)}
        for q1, q2, _ in emb.coupler_list():
            assert q1 not in margin_qubits and q2 not in margin_qubits

    def test_no_coupler_crosses_tile_boundaries(self):
        emb = build_full_embedding(8)
        for (s1, s2) in bonds_of(emb):
            assert tile_of(emb, s1) == tile_of(emb, s2)
        assert np.all(emb.tile[emb.ends[:, 0]] == emb.tile[emb.ends[:, 1]])


class TestDefects:
    def test_vacancy_isolated(self):
        emb0 = build_embedding(32)
        pair = pair_of(emb0, (0, 0))
        emb = build_embedding(32, defects=DefectList(qubits={pair[0]}))
        assert is_vacancy(emb, (0, 0))
        for q1, q2, _ in emb.coupler_list():
            assert pair[0] not in (q1, q2)
            assert pair[1] not in (q1, q2)

    def test_broken_coupler_also_creates_vacancy(self):
        emb0 = build_embedding(32)
        pair = pair_of(emb0, (5, 7))
        emb = build_embedding(
            32, defects=DefectList(couplers={tuple(sorted(pair))}))
        assert is_vacancy(emb, (5, 7))

    def test_defects_never_add_couplers(self):
        base = len(build_embedding(16).coupler_list())
        rng = np.random.default_rng(7)
        qubits = set()
        for _ in range(5):
            qubits.add(int(rng.integers(0, N_QUBITS)))
            emb = build_embedding(16, defects=DefectList(qubits=qubits))
            now = len(emb.coupler_list())
            assert now <= base
            base = now

    def test_defect_bounds_checked(self):
        with pytest.raises(ParameterError):
            DefectList(qubits={N_QUBITS})


class TestGauge:
    def test_identity_gauge(self):
        emb = build_embedding(4)
        same = gauge_transform(emb, np.ones(len(emb.x), dtype=int))
        assert same.coupler_list() == emb.coupler_list()

    def test_checkerboard_flips_all_bonds(self):
        emb = build_embedding(4)
        anti = gauge_transform(emb, checkerboard_gauge(emb))
        for (s1, s2), couplers in bonds_of(anti).items():
            for _, _, val in couplers:
                assert val > 0  # ferromagnet became antiferromagnet
        hc_vals = anti.values[~bond_mask(anti)]
        assert np.allclose(hc_vals, -emb.j_hc)  # high-cost untouched

    def test_spectrum_preserved_exhaustively(self):
        emb = build_embedding(3)
        rng = np.random.default_rng(3)
        gauge = random_gauge(emb, rng)
        transformed = gauge_transform(emb, gauge)
        assert np.allclose(logical_energies(emb), logical_energies(transformed))

    def test_ground_energy_preserved_brute_force_l4(self):
        emb = build_embedding(4)
        rng = np.random.default_rng(11)
        gauge = random_gauge(emb, rng)
        transformed = gauge_transform(emb, gauge)
        assert logical_energies(emb)[0] == pytest.approx(
            logical_energies(transformed)[0])

    def test_gauge_must_cover_sites(self):
        emb = build_embedding(2)
        with pytest.raises(ParameterError):
            gauge_transform(emb, np.ones(len(emb.x) - 1, dtype=int))


def reference_decode(samples, emb, vacancy_threshold=0.05):
    """Tile-by-tile, run-by-run decode: the reference decode_samples must
    match bit for bit, since both sum each tile's energy in one
    matrix-vector product over the same couplers in the same order: the
    tile's bonds in order of their first coupler in the sorted coupler
    list, each bond's couplers sorted."""
    vals = samples.values
    rows = []
    bonds = bonds_of(emb)
    for tile in emb.placements:
        sites = emb.active_sites(tile.tile_id)
        in_tile = np.flatnonzero(emb.tile == tile.tile_id)
        if not sites:
            rows += [(tile.tile_id, run, np.nan, np.nan, np.nan, np.nan, 0,
                      True) for run in range(samples.n_runs)]
            continue
        excluded = (len(in_tile) - len(sites)) / len(in_tile) \
            > vacancy_threshold
        qv = np.array([pair_of(emb, s)[0] for s in sites])
        qh = np.array([pair_of(emb, s)[1] for s in sites])
        site_pos = {s: i for i, s in enumerate(sites)}
        cq1, cq2, cj, bq1, bq2, bj = [], [], [], [], [], []
        for (s1, s2), cs in bonds.items():
            if tile_of(emb, s1) != tile.tile_id:
                continue
            for q1, q2, val in cs:
                cq1.append(q1)
                cq2.append(q2)
                cj.append(val)
            bq1.append(site_pos[s1])
            bq2.append(site_pos[s2])
            bj.append(sum(val for _, _, val in cs))
        cj, bj = np.array(cj, float), np.array(bj, float)
        e_phys = (vals[:, cq1] * vals[:, cq2]).astype(float) @ cj
        e_phys -= -np.abs(cj).sum()
        m_phys = vals[:, qv].sum(axis=1) + vals[:, qh].sum(axis=1)
        agree = vals[:, qv] == vals[:, qh]
        logical = np.where(agree, vals[:, qv], vals[:, np.minimum(qv, qh)])
        e_log = (logical[:, bq1] * logical[:, bq2]).astype(float) @ bj
        e_log -= -np.abs(bj).sum()
        dm_log = len(sites) - np.abs(logical.sum(axis=1))
        for run in range(samples.n_runs):
            rows.append((tile.tile_id, run, float(e_phys[run]),
                         float(2 * len(sites) - abs(m_phys[run])),
                         float(e_log[run]), float(dm_log[run]),
                         int((~agree[run]).sum()), excluded))
    dtypes = (np.int64, np.int64) + (np.float64,) * 4 + (np.int64, bool)
    return {name: np.array([r[i] for r in rows], dtype=dtype)
            for i, (name, dtype) in enumerate(zip(DECODED_COLUMNS, dtypes))}


class TestDecode:
    def test_all_up_is_perfect(self):
        emb = build_full_embedding(4)
        cols = decode_samples(synthesize_samples(emb, 2), emb)
        assert np.all(cols["delta_e_phys"] == 0.0)
        assert np.all(cols["delta_m_phys"] == 0.0)
        assert np.all(cols["delta_e_logical"] == 0.0)
        assert np.all(cols["delta_m_logical"] == 0.0)
        assert np.all(cols["hc_violations"] == 0)

    def test_columns_are_tile_major_and_typed(self):
        emb = build_full_embedding(8)
        cols = decode_samples(synthesize_samples(emb, 3), emb)
        assert list(cols) == list(DECODED_COLUMNS)
        assert np.array_equal(cols["tile"], np.repeat(np.arange(16), 3))
        assert np.array_equal(cols["run"], np.tile(np.arange(3), 16))
        assert cols["tile"].dtype == cols["hc_violations"].dtype == np.int64
        assert cols["delta_e_phys"].dtype == np.float64
        assert cols["excluded"].dtype == bool

    def test_single_bulk_flip(self):
        emb = build_embedding(4)  # single tile at origin, j_ising = 0.5
        ss = synthesize_samples(emb, 1)
        vals = flip_logical(ss.values, emb, (1, 1))  # bulk site: 4 bonds
        cols = decode_samples(SampleSet(values=vals), emb)
        assert len(cols["tile"]) == 1
        assert cols["delta_e_phys"][0] == pytest.approx(4.0)  # 4 bonds * 2 * 0.5
        assert cols["delta_e_logical"][0] == pytest.approx(4.0)
        assert cols["delta_m_logical"][0] == pytest.approx(2.0)
        assert cols["delta_m_phys"][0] == pytest.approx(4.0)
        assert cols["hc_violations"][0] == 0

    def test_hc_violation_and_tie_rule(self):
        emb = build_embedding(4)
        ss = synthesize_samples(emb, 1)
        site = (2, 2)
        q_low = min(pair_of(emb, site))
        vals = ss.values.copy()
        vals[0, q_low] = -1  # violate the pair; lower index carries the tie
        cols = decode_samples(SampleSet(values=vals), emb)
        assert cols["hc_violations"][0] == 1
        # logical spin flipped: same bond damage as a full logical flip
        assert cols["delta_m_logical"][0] == pytest.approx(2.0)

    def test_record_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            SampleSet(values=np.ones((2, 100), dtype=np.int8))

    def test_coupler_mismatch_rejected(self):
        emb = build_embedding(4)
        ss = synthesize_samples(emb, 1)
        other = build_embedding(4, j_ising=0.4)
        with pytest.raises(SchemaError):
            decode_samples(ss, other)
        # samples without a recorded digest decode against anything
        bare = SampleSet(values=ss.values.copy())
        decode_samples(bare, other)

    @pytest.mark.parametrize("L, seed", [(2, 0), (3, 1), (4, 2), (8, 3),
                                         (10, 4), (16, 5), (32, 6)])
    def test_matches_the_tile_by_tile_reference(self, tmp_path, L, seed):
        rng = np.random.default_rng(seed)
        defects = DefectList(qubits=set(rng.integers(0, N_QUBITS, 12)))
        emb = build_embedding(L, 0.4, defects, tile_partition(L))
        emb = gauge_transform(emb, random_gauge(emb, rng))
        cpath, mpath = tmp_path / "c.txt", tmp_path / "m.json"
        write_coupler_list(cpath, emb)
        write_logical_map(mpath, emb)
        samples = SampleSet(values=np.where(
            rng.random((9, N_QUBITS)) < 0.3, -1, 1).astype(np.int8))
        for decoded_emb in (emb, read_embedding(cpath, mpath)):
            for threshold in (0.0, 0.05):
                got = decode_samples(samples, decoded_emb, threshold)
                want = reference_decode(samples, decoded_emb, threshold)
                for name in DECODED_COLUMNS:
                    assert got[name].dtype == want[name].dtype
                    assert np.array_equal(got[name].view(np.uint8),
                                          want[name].view(np.uint8)), name

    def test_vacancy_threshold_flags_tiles(self):
        emb0 = build_embedding(2)
        qubits = set(pair_of(emb0, (0, 0)))
        emb = build_embedding(2, defects=DefectList(qubits=qubits))
        cols = decode_samples(synthesize_samples(emb, 1), emb,
                              vacancy_threshold=0.05)
        assert cols["excluded"][0]  # 1/4 vacancies > 5%


class TestAggregate:
    def test_single_measurement_has_missing_error(self):
        emb = build_embedding(4)
        cols = decode_samples(synthesize_samples(emb, 1), emb)
        agg = aggregate_tiles(cols, L=4, v=1.0)
        assert agg["n_real"] == 1
        assert np.isnan(agg["delta_e_phys_stderr"])

    def test_identical_runs_have_zero_error(self):
        emb = build_embedding(4)
        cols = decode_samples(synthesize_samples(emb, 2), emb)
        agg = aggregate_tiles(cols, L=4, v=1.0)
        assert agg["delta_e_phys_stderr"] == 0.0

    def test_bernoulli_generator_closed_form(self):
        q = 0.03
        emb = build_full_embedding(8)
        ss = synthesize_samples(emb, 40, flip_probability=q, seed=21)
        cols = decode_samples(ss, emb)
        agg = aggregate_tiles(cols, L=8, v=1.0)
        n = 64
        # exact E[N - |N - 2K|], K ~ Binomial(n, q)
        k = np.arange(n + 1)
        dm_exact = float(np.sum(binom.pmf(k, n, q) * (n - np.abs(n - 2 * k))))
        assert abs(agg["delta_m_logical_mean"] - dm_exact) \
            < 3 * agg["delta_m_logical_stderr"]
        # each bond breaks independently with probability 2q(1-q)
        n_bonds = 2 * 8 * 7
        de_exact = n_bonds * 2 * q * (1 - q) * 2 * emb.j_ising
        assert abs(agg["delta_e_phys_mean"] - de_exact) \
            < 3 * agg["delta_e_phys_stderr"]

    def test_all_excluded_raises(self):
        emb = build_embedding(4)
        cols = decode_samples(synthesize_samples(emb, 1), emb,
                              vacancy_threshold=-1.0)
        with pytest.raises(ParameterError):
            aggregate_tiles(cols, L=4, v=1.0)


class TestFileFormats:
    def test_coupler_and_map_round_trip(self, tmp_path):
        emb = build_full_embedding(8, defects=DefectList(qubits={17, 900}))
        cpath, mpath = tmp_path / "c.txt", tmp_path / "m.json"
        write_coupler_list(cpath, emb)
        write_logical_map(mpath, emb)
        back = read_embedding(cpath, mpath)
        assert back.coupler_list() == emb.coupler_list()
        assert np.array_equal(back.x, emb.x) and np.array_equal(back.y, emb.y)
        assert np.array_equal(back.qubits, emb.qubits)
        assert np.array_equal(back.vacancy, emb.vacancy)
        assert np.array_equal(back.ends, emb.ends)
        assert bonds_of(back) == bonds_of(emb)

    def test_read_back_digest_matches_the_couplers(self, tmp_path):
        emb = gauge_transform(build_full_embedding(4, j_ising=0.4),
                              checkerboard_gauge(build_full_embedding(4)))
        cpath, mpath = tmp_path / "c.txt", tmp_path / "m.json"
        write_coupler_list(cpath, emb)
        write_logical_map(mpath, emb)
        back = read_embedding(cpath, mpath)
        assert back.coupler_digest() == emb.coupler_digest()
        # the digest is that of the file's 'q1 q2 J' rows, J with repr
        _, rows = read_coupler_list(cpath)
        blob = "\n".join(f"{q1} {q2} {val!r}" for q1, q2, val in sorted(rows))
        assert back.coupler_digest() == \
            hashlib.sha256(blob.encode()).hexdigest()[:16]

    def test_round_trip_after_gauge(self, tmp_path):
        emb = gauge_transform(build_embedding(4),
                              checkerboard_gauge(build_embedding(4)))
        cpath, mpath = tmp_path / "c.txt", tmp_path / "m.json"
        write_coupler_list(cpath, emb)
        write_logical_map(mpath, emb)
        assert read_embedding(cpath, mpath).coupler_list() == emb.coupler_list()

    def test_coupler_schema_guard(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# schema: something-else/9\nq1 q2 J\n0 4 -1.0\n")
        with pytest.raises(SchemaError):
            read_coupler_list(path)

    def test_samples_text_round_trip(self, tmp_path):
        emb = build_embedding(4)
        ss = synthesize_samples(emb, 3, flip_probability=0.2, seed=2,
                                annealing_time=12.5)
        path = tmp_path / "s.txt"
        write_samples(path, ss, fmt="text")
        back = read_samples(path)
        assert np.array_equal(back.values, ss.values)
        assert back.metadata["annealing_time"] == 12.5

    def test_samples_binary_round_trip(self, tmp_path):
        emb = build_embedding(4)
        ss = synthesize_samples(emb, 5, flip_probability=0.1, seed=3)
        path = tmp_path / "s.bin"
        write_samples(path, ss, fmt="binary")
        back = read_samples(path)
        assert np.array_equal(back.values, ss.values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(L=st.sampled_from([2, 3, 4, 5, 8, 10, 16, 32]), tiled=st.booleans(),
       j_ising=st.sampled_from([0.5, 0.4, 1 / 3, 1.0]),
       defect_qubits=st.sets(st.integers(0, N_QUBITS - 1), max_size=12),
       defect_sites=st.sets(st.tuples(st.integers(0, LOGICAL_SIDE - 1),
                                      st.integers(0, LOGICAL_SIDE - 1)),
                            max_size=3),
       gauge_seed=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_read_back_gives_the_built_arrays(tmp_path_factory, L, tiled,
                                          j_ising, defect_qubits,
                                          defect_sites, gauge_seed):
    """Writing an embedding and reading it back gives the built site and
    coupler arrays, with random defect qubits, broken high-cost couplers
    and gauges."""
    defects = DefectList(qubits=defect_qubits, couplers={
        tuple(sorted(physical_pair(x, y))) for x, y in defect_sites})
    placements = tile_partition(L) if tiled and L <= 16 else None
    emb = build_embedding(L, j_ising, defects, placements)
    if gauge_seed is not None:
        emb = gauge_transform(emb, random_gauge(
            emb, np.random.default_rng(gauge_seed)))
    directory = tmp_path_factory.mktemp("round_trip")
    cpath, mpath = directory / "c.txt", directory / "m.json"
    write_coupler_list(cpath, emb)
    write_logical_map(mpath, emb)
    back = read_embedding(cpath, mpath)
    assert (back.L, back.j_ising, back.j_hc, back.placements) == \
        (emb.L, emb.j_ising, emb.j_hc, emb.placements)
    for name in ("x", "y", "tile", "qubits", "vacancy", "couplers", "values",
                 "ends"):
        built, read = getattr(emb, name), getattr(back, name)
        assert read.dtype == built.dtype, name
        assert np.array_equal(read, built), name
    assert back.coupler_digest() == emb.coupler_digest()
    assert back.census() == emb.census()
