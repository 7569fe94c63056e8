"""Chimera-graph embeddings of open square Ising lattices, and decoding.

The 2048-qubit target graph is a 16x16 grid of 8-qubit cells; qubit
index = 8*(16*row + col) + k with k in 0..3 one shore and 4..7 the
other.  Within a cell the shores are completely bipartitely coupled;
between cells, same-k qubits couple vertically for the 0..3 shore and
horizontally for the 4..7 shore.

Each cell hosts a 2x2 block of logical sites.  A logical site is a pair
(one qubit per shore) locked by a strong ferromagnetic coupler -J_hc.
Nearest-neighbor lattice bonds inside a cell are realized as two
parallel couplers of -J_ising/2; bonds crossing cells use the single
available inter-cell coupler at -J_ising.  Two cell wirings (A and B)
alternate in a checkerboard so that every crossing bond lands on a
same-k inter-cell coupler.

Broken qubits or couplers turn the touched logical sites into vacancies:
every coupler touching either member qubit is omitted, and vacancies are
excluded from all statistics.

The device-data path is columnar.  `read_samples` parses a text sample
file with one numpy call; `decode_samples` returns a dict of arrays
named by DECODED_COLUMNS, one entry per tile-run, which `write_table`
writes column by column; `read_decoded` reads such a table back and
`aggregate_tiles` takes its columns by name.  Malformed inputs raise
SchemaError: a decoded table whose column line is not DECODED_COLUMNS,
whose tile, run or hc_violations is not a non-negative integer or whose
excluded flag is not 0 or 1; an annealing time that is present but not
positive and finite; a qubit claimed by two sites; a coupler listed
twice or joining a qubit to itself.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence
import warnings

import numpy as np

from . import __version__
from .analysis import bin_stats
from .errors import ParameterError, SchemaError
from .seeds import stream
from .tables import (read_document, read_table, require_fields,
                     write_document)

GRID = 16                 # cells per side
CELL = 8                  # qubits per cell
N_QUBITS = GRID * GRID * CELL
LOGICAL_SIDE = 2 * GRID   # 32x32 logical lattice

COUPLER_SCHEMA = "coupler-list/1"
LOGICAL_MAP_SCHEMA = "logical-map/1"
SAMPLES_TEXT_SCHEMA = "sample-set/1"
SAMPLES_MAGIC = b"ANKSMP01"
DECODED_SCHEMA = "decoded-tiles/1"
DEVICE_CURVE_SCHEMA = "device-curve/1"

DECODED_COLUMNS = ("tile", "run", "delta_e_phys", "delta_m_phys",
                   "delta_e_logical", "delta_m_logical", "hc_violations",
                   "excluded")
DEVICE_CURVE_COLUMNS = ("L", "v", "delta_e_mean", "delta_e_stderr",
                        "delta_m_mean", "delta_m_stderr",
                        "delta_e_logical_mean", "delta_e_logical_stderr",
                        "delta_m_logical_mean", "delta_m_logical_stderr",
                        "n_real", "n_bins")


def qubit_index(row: int, col: int, k: int) -> int:
    return CELL * (GRID * row + col) + k


def cell_pattern(row: int, col: int) -> str:
    """Checkerboard wiring label of a cell."""
    return "A" if (row + col) % 2 == 0 else "B"


def physical_pair(x: int, y: int) -> tuple:
    """(vertical-shore qubit, horizontal-shore qubit) of logical site (x, y)."""
    row, col = y // 2, x // 2
    dx, dy = x % 2, y % 2
    if cell_pattern(row, col) == "A":
        kv = dx + 2 * dy
        kh = dx + 2 * dy
    else:
        kv = dx + 2 * (1 - dy)
        kh = (1 - dx) + 2 * dy
    return qubit_index(row, col, kv), qubit_index(row, col, 4 + kh)


def chimera_edge_exists(q1: int, q2: int) -> bool:
    """Whether (q1, q2) is a coupler of the target graph."""
    c1, k1 = divmod(q1, CELL)
    c2, k2 = divmod(q2, CELL)
    r1, col1 = divmod(c1, GRID)
    r2, col2 = divmod(c2, GRID)
    if c1 == c2:
        return (k1 < 4) != (k2 < 4)
    if k1 != k2:
        return False
    if k1 < 4:
        return col1 == col2 and abs(r1 - r2) == 1
    return r1 == r2 and abs(col1 - col2) == 1


@dataclass(frozen=True)
class DefectList:
    qubits: frozenset = frozenset()
    couplers: frozenset = frozenset()  # of sorted (q1, q2) tuples

    def __post_init__(self):
        if any(len(c) != 2 for c in self.couplers):
            raise ParameterError("a defect coupler must name two qubits")
        object.__setattr__(self, "qubits", frozenset(int(q) for q in self.qubits))
        object.__setattr__(
            self, "couplers",
            frozenset(tuple(sorted((int(a), int(b)))) for a, b in self.couplers))
        for q in self.qubits:
            if not (0 <= q < N_QUBITS):
                raise ParameterError(f"defect qubit {q} outside topology")
        for a, b in self.couplers:
            if not (0 <= a < N_QUBITS and 0 <= b < N_QUBITS):
                raise ParameterError(f"defect coupler ({a},{b}) outside topology")

    def touched_qubits(self) -> frozenset:
        touched = set(self.qubits)
        for a, b in self.couplers:
            touched.add(a)
            touched.add(b)
        return frozenset(touched)


class TilePlacement(NamedTuple):
    tile_id: int
    x0: int
    y0: int


def tile_partition(L: int) -> list:
    """Disjoint L x L tile placements over the 32x32 logical grid.

    For L > 16 only a single tile fits; callers get one placement and a
    warning note.
    """
    if L > 16:
        if L < LOGICAL_SIDE:
            warnings.warn(f"L={L} > 16 admits a single tile only", stacklevel=2)
        return [TilePlacement(0, 0, 0)]
    n = LOGICAL_SIDE // L
    return [TilePlacement(ty * n + tx, tx * L, ty * L)
            for ty in range(n) for tx in range(n)]


@dataclass
class Embedding:
    """Full programming of the target graph for tiles of side L."""

    L: int
    j_ising: float
    j_hc: float
    placements: tuple
    pairs: dict          # site (x, y) -> (q_vertical, q_horizontal)
    site_tile: dict      # site -> tile_id
    vacancies: frozenset
    hc_couplers: dict    # site -> (q1, q2, value); non-vacancy sites only
    bonds: dict          # (site_a, site_b) -> tuple of (q1, q2, value)
    # coupler_digest() as computed from the coupler list read back by
    # read_embedding; None makes coupler_digest() compute it
    digest: Optional[str] = None

    def active_sites(self, tile_id: Optional[int] = None):
        out = [s for s in self.pairs if s not in self.vacancies]
        if tile_id is not None:
            out = [s for s in out if self.site_tile[s] == tile_id]
        return sorted(out)

    def coupler_list(self) -> list:
        """All programmed couplers as sorted (q1, q2, value) rows."""
        rows = {}
        for q1, q2, val in self.hc_couplers.values():
            key = (min(q1, q2), max(q1, q2))
            rows[key] = val
        for cs in self.bonds.values():
            for q1, q2, val in cs:
                key = (min(q1, q2), max(q1, q2))
                if key in rows:
                    raise ParameterError(f"duplicate coupler {key}")
                rows[key] = val
        return [(q1, q2, rows[(q1, q2)]) for q1, q2 in sorted(rows)]

    def census(self) -> dict:
        """Counts by coupler role: high-cost, intra-cell bond, inter-cell bond."""
        n_intra = sum(len(c) for c in self.bonds.values() if len(c) == 2)
        n_inter = sum(len(c) for c in self.bonds.values() if len(c) == 1)
        return {"hc": len(self.hc_couplers), "intra": n_intra, "inter": n_inter}

    def coupler_digest(self) -> str:
        """Fingerprint of the programmed couplers; stamped into sample
        metadata so decoding against the wrong embedding is caught."""
        return self.digest or _digest(self.coupler_list())


def _digest(rows) -> str:
    """Fingerprint of sorted (q1, q2, value) coupler rows, q1 < q2."""
    blob = "\n".join(f"{q1} {q2} {val!r}" for q1, q2, val in rows)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _in_same_cell(s1, s2) -> bool:
    return (s1[0] // 2, s1[1] // 2) == (s2[0] // 2, s2[1] // 2)


def build_embedding(L: int, j_ising: float = 0.5,
                    defects: Optional[DefectList] = None,
                    placements: Optional[Sequence[TilePlacement]] = None,
                    j_hc: float = 1.0) -> Embedding:
    """Compile L x L ferromagnetic tiles onto the target graph.

    With the default single placement at the origin this programs one
    tile; pass tile_partition(L) to fill the whole graph.
    """
    if not (2 <= L <= LOGICAL_SIDE):
        raise ParameterError(f"tile side must be in [2, {LOGICAL_SIDE}], got {L}")
    if not (0.0 < j_ising <= 1.0):
        raise ParameterError("j_ising must be in (0, 1]")
    if not (0.0 < j_hc <= 1.0):
        raise ParameterError("j_hc must be in (0, 1]")
    defects = defects or DefectList()
    if placements is None:
        placements = [TilePlacement(0, 0, 0)]
    touched = defects.touched_qubits()

    pairs, site_tile = {}, {}
    vacancies = set()
    for tile in placements:
        if tile.x0 + L > LOGICAL_SIDE or tile.y0 + L > LOGICAL_SIDE:
            raise ParameterError(f"tile {tile} overflows the logical grid")
        for y in range(tile.y0, tile.y0 + L):
            for x in range(tile.x0, tile.x0 + L):
                site = (x, y)
                if site in pairs:
                    raise ParameterError(f"overlapping tiles at {site}")
                pairs[site] = physical_pair(x, y)
                site_tile[site] = tile.tile_id
                if set(pairs[site]) & touched:
                    vacancies.add(site)

    hc = {site: (qv, qh, -j_hc)
          for site, (qv, qh) in pairs.items() if site not in vacancies}

    bonds = {}
    for tile in placements:
        for y in range(tile.y0, tile.y0 + L):
            for x in range(tile.x0, tile.x0 + L):
                s1 = (x, y)
                for s2 in ((x + 1, y), (x, y + 1)):
                    if s2[0] >= tile.x0 + L or s2[1] >= tile.y0 + L:
                        continue
                    if s1 in vacancies or s2 in vacancies:
                        continue
                    qv1, qh1 = pairs[s1]
                    qv2, qh2 = pairs[s2]
                    if _in_same_cell(s1, s2):
                        cs = ((qv1, qh2, -j_ising / 2.0),
                              (qv2, qh1, -j_ising / 2.0))
                    elif s2[0] > s1[0]:      # horizontal crossing
                        cs = ((qh1, qh2, -j_ising),)
                    else:                    # vertical crossing
                        cs = ((qv1, qv2, -j_ising),)
                    for q1, q2, _ in cs:
                        if not chimera_edge_exists(q1, q2):
                            raise ParameterError(
                                f"internal wiring error: ({q1},{q2}) is not an edge")
                    bonds[(s1, s2)] = tuple(sorted(cs))

    emb = Embedding(L=L, j_ising=j_ising, j_hc=j_hc,
                    placements=tuple(placements), pairs=pairs,
                    site_tile=site_tile, vacancies=frozenset(vacancies),
                    hc_couplers=hc, bonds=bonds)
    emb.coupler_list()  # audits duplicates
    return emb


def build_full_embedding(L: int, j_ising: float = 0.5,
                         defects: Optional[DefectList] = None,
                         j_hc: float = 1.0) -> Embedding:
    """Embedding covering every disjoint tile the graph admits."""
    return build_embedding(L, j_ising, defects, tile_partition(L), j_hc)


def gauge_transform(emb: Embedding, gauge: dict) -> Embedding:
    """Flip coupler signs by J -> J g_a g_b; high-cost couplers unchanged.

    gauge maps every non-vacancy site to +1 or -1.  The classical
    spectrum of each tile is preserved.
    """
    g = {}
    for site in emb.pairs:
        if site in emb.vacancies:
            continue
        if site not in gauge:
            raise ParameterError(f"gauge value missing for site {site}")
        val = int(gauge[site])
        if val not in (-1, 1):
            raise ParameterError("gauge values must be +1 or -1")
        g[site] = val
    bonds = {}
    for (s1, s2), cs in emb.bonds.items():
        f = g[s1] * g[s2]
        bonds[(s1, s2)] = tuple((q1, q2, val * f) for q1, q2, val in cs)
    return Embedding(L=emb.L, j_ising=emb.j_ising, j_hc=emb.j_hc,
                     placements=emb.placements, pairs=dict(emb.pairs),
                     site_tile=dict(emb.site_tile), vacancies=emb.vacancies,
                     hc_couplers=dict(emb.hc_couplers), bonds=bonds)


def checkerboard_gauge(emb: Embedding) -> dict:
    """The ferromagnet <-> antiferromagnet relabeling."""
    return {(x, y): (1 if (x + y) % 2 == 0 else -1)
            for (x, y) in emb.pairs if (x, y) not in emb.vacancies}


@dataclass
class SampleSet:
    """Projective measurement records: one row of +-1 per annealing run."""

    values: np.ndarray               # (n_runs, N_QUBITS) int8
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int8)
        if vals.ndim != 2 or vals.shape[1] != N_QUBITS:
            raise SchemaError(f"sample records must have {N_QUBITS} entries")
        if not np.all(np.abs(vals) == 1):
            raise SchemaError("sample values must be +-1")
        self.values = vals

    @property
    def n_runs(self) -> int:
        return self.values.shape[0]


def decode_samples(samples: SampleSet, emb: Embedding,
                   vacancy_threshold: float = 0.05) -> dict:
    """Per-tile, per-run observables from the raw records, as columns.

    Returns a dict mapping each of DECODED_COLUMNS to a 1-D array with
    one entry per tile-run, tile-major in placement order: `tile`,
    `run` and `hc_violations` are int64, the four observables float64
    and `excluded` bool.

    Vacancy sites are excluded everywhere; tiles whose vacancy fraction
    exceeds the threshold are flagged excluded.  Energies are energy
    differences to the perfectly ordered state in programmed coupler
    units; the physical variant sums the embedded Ising couplers (never
    the high-cost ones), the logical variant first collapses each pair
    to one spin (ties resolved by the lower-indexed qubit).
    """
    recorded = samples.metadata.get("coupler_digest")
    if recorded is not None:
        programmed = emb.coupler_digest()
        if recorded != programmed:
            raise SchemaError(
                f"sample set was taken with couplers {recorded}, but the "
                f"embedding programs {programmed}")
    # one pass over the sites and one over the bonds, grouped by tile
    n_sites, active, couplers, bonds = {}, {}, {}, {}
    for site in sorted(emb.pairs):
        tile = emb.site_tile[site]
        n_sites[tile] = n_sites.get(tile, 0) + 1
        if site not in emb.vacancies:
            active.setdefault(tile, []).append(site)
    for (s1, s2), cs in emb.bonds.items():
        tile = emb.site_tile[s1]
        couplers.setdefault(tile, []).extend(cs)
        bonds.setdefault(tile, []).append((s1, s2, len(cs)))

    n_runs = samples.n_runs
    tile_ids = [tile.tile_id for tile in emb.placements]
    size = len(tile_ids) * n_runs
    out = {"tile": np.repeat(np.array(tile_ids, dtype=np.int64), n_runs),
           "run": np.tile(np.arange(n_runs, dtype=np.int64), len(tile_ids))}
    for name in DECODED_COLUMNS[2:6]:
        out[name] = np.full(size, np.nan)
    out["hc_violations"] = np.zeros(size, dtype=np.int64)
    out["excluded"] = np.ones(size, dtype=bool)   # tiles without sites
    live = [tile for tile in tile_ids if tile in active]
    if not live:
        return out
    rows = np.repeat([tile in active for tile in tile_ids], n_runs)
    counts = np.array([len(active[tile]) for tile in live])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    vacancy_fraction = [(n_sites[tile] - len(active[tile])) / n_sites[tile]
                        for tile in live]
    out["excluded"][rows] = np.repeat(
        np.array(vacancy_fraction) > vacancy_threshold, n_runs)

    # every live site's spins as rows of a (sites, runs) array; the
    # integer observables are per-tile sums of its row blocks
    spins = np.ascontiguousarray(samples.values.T)
    sites = [site for tile in live for site in active[tile]]
    row_of = {site: i for i, site in enumerate(sites)}
    qv = np.array([emb.pairs[s][0] for s in sites])
    qh = np.array([emb.pairs[s][1] for s in sites])
    sv, sh = spins[qv], spins[qh]
    agree = sv == sh
    logical = np.where(agree, sv, spins[np.minimum(qv, qh)])  # tie rule

    def tile_sums(x):
        return np.add.reduceat(x, starts, axis=0, dtype=np.int64)

    out["delta_m_phys"][rows] = \
        (2 * counts[:, None] - np.abs(tile_sums(sv) + tile_sums(sh))).ravel()
    out["delta_m_logical"][rows] = \
        (counts[:, None] - np.abs(tile_sums(logical))).ravel()
    out["hc_violations"][rows] = tile_sums(~agree).ravel()

    # energies tile by tile, each one matrix-vector product of the
    # tile's (runs, couplers) products held column-major: BLAS picks its
    # kernel, and so the rounding of every sum, by that layout
    e_phys = np.zeros((len(live), n_runs))
    e_log = np.zeros((len(live), n_runs))
    for k, tile in enumerate(live):
        if tile not in couplers:
            continue
        cq1, cq2, cj = map(np.array, zip(*couplers[tile]))
        products = (spins[cq1] * spins[cq2]).T.astype(float)
        e_phys[k] = products @ cj + np.abs(cj).sum()
        s1, s2, sizes = zip(*bonds[tile])
        bj = np.add.reduceat(cj, np.cumsum((0,) + sizes[:-1]))  # per bond
        products = (logical[[row_of[s] for s in s1]]
                    * logical[[row_of[s] for s in s2]])
        e_log[k] = products.T.astype(float) @ bj + np.abs(bj).sum()
    out["delta_e_phys"][rows] = e_phys.ravel()
    out["delta_e_logical"][rows] = e_log.ravel()
    return out


def aggregate_tiles(decoded, L: int, v: float, n_bins: int = 20) -> dict:
    """Means with binned errors over all non-excluded tile-runs.

    `decoded` maps the DECODED_COLUMNS names to 1-D arrays: the result
    of decode_samples, or the Table of read_decoded.  Each tile-run
    counts as one independent measurement.  With a single measurement
    the errors are reported as NaN (missing); identical repeated
    measurements give 0.
    """
    kept = ~np.asarray(decoded["excluded"], dtype=bool)
    n_real = int(np.count_nonzero(kept))
    if not n_real:
        raise ParameterError("no tile-runs left after exclusions")
    result = {"L": L, "v": v, "n_real": n_real}
    for name in DECODED_COLUMNS[2:6]:
        mean, stderr, result["n_bins"] = bin_stats(
            np.asarray(decoded[name], dtype=float)[kept], n_bins)
        result[name + "_mean"] = mean
        result[name + "_stderr"] = stderr if n_real > 1 else float("nan")
    return result


def synthesize_samples(emb: Embedding, n_runs: int, flip_probability: float = 0.0,
                       seed: int = 0, annealing_time: float = 1.0) -> SampleSet:
    """Generator-side synthetic records: independent logical flips.

    Every non-vacancy logical site flips with the given probability
    (both member qubits together, so the high-cost constraint is never
    violated); unused qubits read +1.
    """
    if not (0.0 <= flip_probability < 0.5):
        raise ParameterError("flip_probability must be in [0, 0.5)")
    rng = stream(seed, "synthetic-samples")
    vals = np.ones((n_runs, N_QUBITS), dtype=np.int8)
    sites = [s for s in emb.pairs if s not in emb.vacancies]
    if sites and flip_probability > 0.0:
        qv = np.array([emb.pairs[s][0] for s in sites])
        qh = np.array([emb.pairs[s][1] for s in sites])
        flips = rng.random((n_runs, len(sites))) < flip_probability
        spin = np.where(flips, -1, 1).astype(np.int8)
        for r in range(n_runs):
            vals[r, qv] = spin[r]
            vals[r, qh] = spin[r]
    meta = {"generator": "bernoulli-logical-flips",
            "flip_probability": flip_probability, "seed": seed,
            "annealing_time": annealing_time,
            "coupler_digest": emb.coupler_digest()}
    return SampleSet(values=vals, metadata=meta)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_coupler_list(path, emb: Embedding) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema: {COUPLER_SCHEMA}\n")
        fh.write(f"# generated_by: annealkit {__version__}\n")
        fh.write(f"# tile_side: {emb.L}\n")
        fh.write(f"# j_ising: {emb.j_ising!r}\n")
        fh.write(f"# j_hc: {emb.j_hc!r}\n")
        fh.write("q1 q2 J\n")
        for q1, q2, val in emb.coupler_list():
            fh.write(f"{q1} {q2} {val!r}\n")


def _coupler_arrays(path) -> tuple:
    """(metadata, qubits, values) of a coupler-list document: qubits is
    an (n, 2) int64 array holding two different qubit indices of the chip
    per coupler, values the n coupler values."""
    table = read_table(path)
    if table.meta.get("schema") != COUPLER_SCHEMA:
        raise SchemaError(f"{path} is not a {COUPLER_SCHEMA} document")
    if table.columns != ["q1", "q2", "J"]:
        raise SchemaError(f"unexpected coupler header: {' '.join(table.columns)}")
    qubits = table.data[:, :2]
    if not np.all((qubits == np.trunc(qubits)) & (qubits >= 0)
                  & (qubits < N_QUBITS)):
        raise SchemaError(f"{path} has a qubit index that is not an "
                          f"integer in [0, {N_QUBITS})")
    if np.any(qubits[:, 0] == qubits[:, 1]):
        raise SchemaError(f"{path}: a coupler joins a qubit to itself")
    return table.meta, qubits.astype(np.int64), table.data[:, 2]


def read_coupler_list(path):
    """(metadata, [(q1, q2, J)]) of a coupler-list document; q1 and q2
    are two different qubit indices of the chip."""
    meta, qubits, values = _coupler_arrays(path)
    return meta, list(zip(*qubits.T.tolist(), values.tolist()))


def write_logical_map(path, emb: Embedding) -> None:
    doc = {
        "schema": LOGICAL_MAP_SCHEMA,
        "generated_by": f"annealkit {__version__}",
        "tile_side": emb.L,
        "j_ising": emb.j_ising,
        "j_hc": emb.j_hc,
        "placements": [[t.tile_id, t.x0, t.y0] for t in emb.placements],
        "sites": [
            {"x": x, "y": y, "tile": emb.site_tile[(x, y)],
             "qubits": list(emb.pairs[(x, y)]),
             "vacancy": (x, y) in emb.vacancies}
            for (x, y) in sorted(emb.pairs)
        ],
    }
    write_document(path, doc)


def _int_list(value, length: int, bound: Optional[int]) -> bool:
    """Whether value is a list of `length` ints, each in [0, bound) if given."""
    return isinstance(value, list) and len(value) == length and all(
        isinstance(q, int) and not isinstance(q, bool)
        and (bound is None or 0 <= q < bound) for q in value)


def read_embedding(coupler_path, map_path) -> Embedding:
    """Rebuild an Embedding from its two emitted documents.

    Every qubit belongs to at most one site, and every coupler is listed
    once and joins two qubits of non-vacancy sites of one tile; anything
    else raises SchemaError.
    """
    _, qubits, values = _coupler_arrays(coupler_path)
    doc = require_fields(read_document(map_path, LOGICAL_MAP_SCHEMA),
                         {"tile_side": int, "j_ising": float, "j_hc": float,
                          "placements": list, "sites": list}, str(map_path))
    if not all(_int_list(p, 3, None) for p in doc["placements"]):
        raise SchemaError(f"{map_path}: a placement is not [tile, x0, y0]")
    site_fields = {"x": int, "y": int, "tile": int, "qubits": list,
                   "vacancy": bool}
    where = f"{map_path} site entry"
    pairs, site_tile, vacancies, owner = {}, {}, set(), {}
    for entry in doc["sites"]:
        require_fields(entry, site_fields, where)
        pair = entry["qubits"]
        if not _int_list(pair, 2, N_QUBITS):
            raise SchemaError(f"{map_path}: site qubits {pair} "
                              f"are not two qubit indices")
        site = (entry["x"], entry["y"])
        for q in pair:
            if q in owner:
                raise SchemaError(f"{map_path}: qubit {q} belongs to sites "
                                  f"{owner[q]} and {site}")
            owner[q] = site
        pairs[site] = tuple(pair)
        site_tile[site] = entry["tile"]
        if entry["vacancy"]:
            vacancies.add(site)
    hc, bond_map = {}, {}
    for q1, q2, val in zip(*qubits.T.tolist(), values.tolist()):
        s1, s2 = owner.get(q1), owner.get(q2)
        if s1 is None or s2 is None or s1 in vacancies or s2 in vacancies:
            raise SchemaError(f"coupler ({q1}, {q2}) touches a qubit that no "
                              f"site of {map_path} owns")
        if s1 == s2:      # the two qubits of one site
            hc[s1] = (*pairs[s1], val)
            continue
        if site_tile[s1] != site_tile[s2]:
            raise SchemaError(f"coupler ({q1}, {q2}) joins sites of tiles "
                              f"{site_tile[s1]} and {site_tile[s2]}")
        bond = (s1, s2) if (s1 < s2) else (s2, s1)
        bond_map.setdefault(bond, []).append((q1, q2, val))
    bonds = {bond: tuple(sorted(cs)) for bond, cs in bond_map.items()}
    # the couplers as coupler_list() orders them, for the digest
    key = np.sort(qubits, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key = key[order]
    repeated = np.flatnonzero(np.all(key[1:] == key[:-1], axis=1))
    if len(repeated):
        raise SchemaError(f"{coupler_path}: coupler "
                          f"{tuple(key[repeated[0]].tolist())} is listed twice")
    return Embedding(L=doc["tile_side"], j_ising=doc["j_ising"],
                     j_hc=doc["j_hc"],
                     placements=tuple(TilePlacement(*p) for p in doc["placements"]),
                     pairs=pairs, site_tile=site_tile,
                     vacancies=frozenset(vacancies), hc_couplers=hc,
                     bonds=bonds, digest=_digest(
                         zip(*key.T.tolist(), values[order].tolist())))


def write_samples(path, samples: SampleSet, fmt: str = "text") -> None:
    """Emit records as text (one run per line) or the compact binary form."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# schema: {SAMPLES_TEXT_SCHEMA}\n")
            fh.write(f"# n_qubits: {N_QUBITS}\n")
            for row in samples.values:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(SAMPLES_MAGIC)
            fh.write(struct.pack("<II", N_QUBITS, samples.n_runs))
            fh.write(samples.values.astype("<i1").tobytes())
    else:
        raise ParameterError("fmt must be 'text' or 'binary'")
    sidecar = dict(samples.metadata)
    sidecar["schema"] = SAMPLES_TEXT_SCHEMA
    sidecar["format"] = fmt
    write_document(str(path) + ".meta.json", sidecar)


def read_samples(path) -> SampleSet:
    """Parse either sample format, sniffing the binary magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(SAMPLES_MAGIC))
        if head == SAMPLES_MAGIC:
            header = fh.read(8)
            if len(header) != 8:
                raise SchemaError(f"{path}: truncated binary sample header")
            n_qubits, n_runs = struct.unpack("<II", header)
            if n_qubits != N_QUBITS:
                raise SchemaError(f"binary sample file has {n_qubits} qubits")
            # size check before reading: a corrupt run count must not
            # make the read allocate for records the file does not hold
            remaining = os.fstat(fh.fileno()).st_size - fh.tell()
            if remaining < n_qubits * n_runs:
                raise SchemaError(f"{path}: truncated binary sample file "
                                  f"({remaining} bytes for {n_runs} records)")
            data = np.frombuffer(fh.read(n_qubits * n_runs), dtype="<i1")
            values = data.reshape(n_runs, n_qubits)
        else:
            values = None
    if values is None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [line.strip() for line in fh.read().split("\n")]
            records = [line for line in lines
                       if line and not line.startswith("#")]
            values = (np.loadtxt(records, dtype=np.int8, comments=None, ndmin=2)
                      if records else np.empty((0, 0), dtype=np.int8))
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: malformed sample records: {exc}") from None
    metadata = {}
    sidecar = str(path) + ".meta.json"
    if os.path.exists(sidecar):
        metadata = read_document(sidecar)
        if "annealing_time" in metadata:
            require_fields(metadata, {"annealing_time": float}, sidecar)
            if not 0 < metadata["annealing_time"] <= sys.float_info.max:
                raise SchemaError(f"{sidecar}: 'annealing_time' must be "
                                  f"positive and finite")
    return SampleSet(values=values, metadata=metadata)


def read_decoded(path) -> tuple:
    """(table, tile side, annealing time) of a decoded-tiles table.

    The column line must equal DECODED_COLUMNS; `tile`, `run` and
    `hc_violations` must be non-negative integers and `excluded` 0 or
    1.  The `tile_side` header must be an int and `annealing_time` a
    positive finite float or nan (samples without one).  Anything else
    raises SchemaError.
    """
    table = read_table(path)
    if table.meta.get("schema") != DECODED_SCHEMA:
        raise SchemaError(f"{path} is not a {DECODED_SCHEMA} table")
    if table.columns != list(DECODED_COLUMNS):
        raise SchemaError(f"{path}: columns '{' '.join(table.columns)}' are "
                          f"not '{' '.join(DECODED_COLUMNS)}'")
    header = {}
    for key, kind in (("tile_side", int), ("annealing_time", float)):
        try:
            header[key] = kind(table.meta[key])
        except (KeyError, ValueError):
            raise SchemaError(f"{path}: header {key!r} is missing or not "
                              f"{kind.__name__}") from None
    anneal_time = header["annealing_time"]
    if not (np.isnan(anneal_time) or 0 < anneal_time < np.inf):
        raise SchemaError(f"{path}: annealing_time {anneal_time!r} is not "
                          f"positive and finite")
    counts = np.stack([table[name] for name in ("tile", "run",
                                                "hc_violations")])
    if not np.all(np.isfinite(counts) & (counts >= 0)
                  & (counts == np.trunc(counts))):
        raise SchemaError(f"{path}: tile, run and hc_violations must be "
                          f"non-negative integers")
    if not np.all(np.isin(table["excluded"], (0, 1))):
        raise SchemaError(f"{path}: excluded must be 0 or 1")
    return table, header["tile_side"], anneal_time
