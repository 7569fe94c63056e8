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

An Embedding is a set of columns.  Its sites, placement-major and
row-major within a tile, are the arrays `x`, `y`, `tile` (the tile id),
`qubits` ((n, 2): vertical-shore, then horizontal-shore qubit) and
`vacancy`.  Its couplers, sorted by qubit pair, are `couplers` ((m, 2),
q1 < q2), `values` and `ends` (the site index of each qubit).  A
coupler whose two ends are one site is that site's high-cost coupler;
every other coupler belongs to the bond between its two sites.
`build_embedding`, `read_embedding` and `gauge_transform` give this
layout, so an embedding read back from its two documents equals the one
built, array for array.

The device-data path is columnar.  `read_samples` parses a text sample
file with one numpy call; `decode_samples` groups sites and couplers by
tile straight from the embedding's arrays and returns a dict of arrays
named by DECODED_COLUMNS, one entry per tile-run, which `write_table`
writes column by column; `read_decoded` reads such a table back and
`aggregate_tiles` takes its columns by name.  Malformed inputs raise
SchemaError: a decoded table whose column line is not DECODED_COLUMNS,
whose tile_side is not in [2, 32], whose tile, run or hc_violations is
not a non-negative integer or whose excluded flag is not 0 or 1; an
annealing time that is present but not positive and finite; a binary
sample file that does not hold exactly the records its header counts;
a coupler listed twice, joining a qubit to itself or with a value that
is not finite; a logical map whose tile_side is not in [2, 32], that
places a tile twice or beyond the grid, or whose sites repeat an
(x, y), name a tile that is not a placement, lie outside their tile's
L x L window or leave it incomplete; a qubit claimed by two sites.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
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


def physical_pair(x, y) -> tuple:
    """(vertical-shore qubit, horizontal-shore qubit) of logical site
    (x, y); x and y may be ints or int arrays.

    Cells alternate two wirings in a checkerboard.  Wiring A (row + col
    even) puts the site's qubits at k = dx + 2 dy on both shores; wiring
    B mirrors dy on the vertical shore and dx on the horizontal one.
    """
    row, col = y // 2, x // 2
    dx, dy, b = x % 2, y % 2, (row + col) % 2
    return (qubit_index(row, col, dx + 2 * (dy ^ b)),
            qubit_index(row, col, 4 + (dx ^ b) + 2 * dy))


def chimera_edge_exists(q1, q2):
    """Whether (q1, q2) is a coupler of the target graph; q1 and q2 may
    be ints or int arrays."""
    (c1, k1), (c2, k2) = divmod(q1, CELL), divmod(q2, CELL)
    (r1, col1), (r2, col2) = divmod(c1, GRID), divmod(c2, GRID)
    same_k = k1 == k2
    return (((c1 == c2) & ((k1 < 4) != (k2 < 4)))
            | (same_k & (k1 < 4) & (col1 == col2) & (abs(r1 - r2) == 1))
            | (same_k & (k1 >= 4) & (r1 == r2) & (abs(col1 - col2) == 1)))


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


@dataclass(frozen=True)
class Embedding:
    """Full programming of the target graph for tiles of side L, as
    site and coupler columns (see the module docstring)."""

    L: int
    j_ising: float
    j_hc: float
    placements: tuple
    x: np.ndarray         # (n,) int64
    y: np.ndarray         # (n,) int64
    tile: np.ndarray      # (n,) int64 tile id
    qubits: np.ndarray    # (n, 2) int64 (q_vertical, q_horizontal)
    vacancy: np.ndarray   # (n,) bool
    couplers: np.ndarray  # (m, 2) int64, q1 < q2, rows sorted
    values: np.ndarray    # (m,) float64
    ends: np.ndarray      # (m, 2) int64 site index of each qubit

    def active_sites(self, tile_id: Optional[int] = None) -> list:
        """Sorted (x, y) of the non-vacancy sites, of one tile if given."""
        keep = ~self.vacancy
        if tile_id is not None:
            keep &= self.tile == tile_id
        return sorted(zip(self.x[keep].tolist(), self.y[keep].tolist()))

    def coupler_list(self) -> list:
        """All programmed couplers as sorted (q1, q2, value) rows."""
        return list(zip(*self.couplers.T.tolist(), self.values.tolist()))

    def census(self) -> dict:
        """Counts by coupler role: high-cost, intra-cell bond, inter-cell bond."""
        bonds, starts = _bonds(self, _site_rank(self))
        sizes = np.diff(starts, append=len(bonds))
        return {"hc": len(self.values) - len(bonds),
                "intra": int(sizes[sizes == 2].sum()),
                "inter": int(sizes[sizes == 1].sum())}

    def coupler_digest(self) -> str:
        """Fingerprint of the programmed couplers; stamped into sample
        metadata so decoding against the wrong embedding is caught."""
        text = _coupler_text(self.couplers, self.values)
        return hashlib.sha256(text[:-1].encode()).hexdigest()[:16]


def _coupler_text(couplers, values) -> str:
    """'q1 q2 J' lines of coupler rows, J written with repr; each
    distinct value (bit pattern) is formatted once."""
    bits, where = np.unique(np.ascontiguousarray(values, dtype=np.float64)
                            .view(np.uint64), return_inverse=True)
    words = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    cells = np.empty((len(where), 3), dtype=object)
    cells[:, :2] = couplers
    cells[:, 2] = words[where]
    return "%d %d %s\n" * len(cells) % tuple(cells.ravel().tolist())


def _site_rank(emb: Embedding) -> np.ndarray:
    """Placement index of each site's tile."""
    rank = {t.tile_id: i for i, t in enumerate(emb.placements)}
    return np.fromiter(map(rank.__getitem__, emb.tile.tolist()), np.int64,
                       len(emb.tile))


def _bonds(emb: Embedding, rank) -> tuple:
    """(index, starts): the bond couplers grouped by bond, and where
    each bond starts in them.  Bonds are in placement order of their
    tile and, within a tile, in order of their first coupler; a bond's
    couplers keep their (sorted) order."""
    index = np.flatnonzero(emb.ends[:, 0] != emb.ends[:, 1])
    ends = np.sort(emb.ends[index], axis=1)
    _, first, inverse = np.unique(ends[:, 0] * len(emb.x) + ends[:, 1],
                                  return_index=True, return_inverse=True)
    first = first[inverse]
    order = np.lexsort((first, rank[ends[:, 0]]))
    return index[order], np.flatnonzero(np.diff(first[order], prepend=-1))


def _sorted_couplers(couplers, values) -> tuple:
    """(couplers, values, repeated): the rows with q1 < q2 in sorted
    order, their values, and the index of each row equal to the one
    before it."""
    q1 = np.minimum(couplers[:, 0], couplers[:, 1])
    q2 = np.maximum(couplers[:, 0], couplers[:, 1])
    key = q1 * N_QUBITS + q2
    order = np.argsort(key, kind="stable")   # linear on sorted lists
    key = key[order]
    return (np.stack((q1[order], q2[order]), axis=1), values[order],
            np.flatnonzero(key[1:] == key[:-1]))


def _owner(qubits) -> np.ndarray:
    """Site index of every chip qubit, -1 for qubits of no site."""
    owner = np.full(N_QUBITS, -1, dtype=np.int64)
    owner[qubits] = np.arange(len(qubits))[:, None]
    return owner


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
    placements = tuple(placements)
    for tile in placements:
        if not (0 <= tile.x0 <= LOGICAL_SIDE - L
                and 0 <= tile.y0 <= LOGICAL_SIDE - L):
            raise ParameterError(f"tile {tile} overflows the logical grid")

    # sites, placement-major and row-major within a tile
    dy, dx = np.divmod(np.tile(np.arange(L * L), len(placements)), L)
    tile, x0, y0 = np.array(placements, dtype=np.int64).reshape(-1, 3) \
        .repeat(L * L, axis=0).T
    x, y = x0 + dx, y0 + dy
    counts = np.bincount(x * LOGICAL_SIDE + y, minlength=1)
    if counts.max() > 1:
        raise ParameterError(f"overlapping tiles at "
                             f"{divmod(int(counts.argmax()), LOGICAL_SIDE)}")
    qubits = np.stack(physical_pair(x, y), axis=1)
    touched = np.zeros(N_QUBITS, dtype=bool)
    touched[np.fromiter(defects.touched_qubits(), np.int64)] = True
    vacancy = touched[qubits].any(axis=1)

    # bonds to the right and downward neighbour inside the tile, between
    # non-vacancy sites: two parallel couplers inside a cell, the one
    # same-k coupler across cells
    site = np.arange(len(x))
    s1 = np.concatenate((site[dx < L - 1], site[dy < L - 1]))
    s2 = np.concatenate((site[dx < L - 1] + 1, site[dy < L - 1] + L))
    live = ~vacancy[s1] & ~vacancy[s2]
    s1, s2 = s1[live], s2[live]
    across = y[s1] == y[s2]                       # horizontal bond
    inner = np.where(across, x[s1] % 2 == 0, y[s1] % 2 == 0)
    shore = np.where(across, 1, 0)[~inner]        # shore of the crossing
    p1, p2 = qubits[s1[inner]], qubits[s2[inner]]
    couplers = np.concatenate((
        qubits[~vacancy],                                     # high-cost
        np.stack((p1[:, 0], p2[:, 1]), axis=1),
        np.stack((p2[:, 0], p1[:, 1]), axis=1),
        np.stack((qubits[s1[~inner], shore], qubits[s2[~inner], shore]),
                 axis=1)))
    values = np.concatenate((np.full(np.count_nonzero(~vacancy), -j_hc),
                             np.full(2 * np.count_nonzero(inner),
                                     -j_ising / 2.0),
                             np.full(np.count_nonzero(~inner), -j_ising)))
    if not np.all(chimera_edge_exists(couplers[:, 0], couplers[:, 1])):
        raise ParameterError("internal wiring error: a coupler is not an edge")
    couplers, values, repeated = _sorted_couplers(couplers, values)
    if len(repeated):
        raise ParameterError(f"duplicate coupler {couplers[repeated[0]]}")
    return Embedding(L=L, j_ising=j_ising, j_hc=j_hc, placements=placements,
                     x=x, y=y, tile=tile, qubits=qubits, vacancy=vacancy,
                     couplers=couplers, values=values,
                     ends=_owner(qubits)[couplers])


def build_full_embedding(L: int, j_ising: float = 0.5,
                         defects: Optional[DefectList] = None,
                         j_hc: float = 1.0) -> Embedding:
    """Embedding covering every disjoint tile the graph admits."""
    return build_embedding(L, j_ising, defects, tile_partition(L), j_hc)


def gauge_transform(emb: Embedding, gauge) -> Embedding:
    """Flip coupler signs by J -> J g_a g_b.

    gauge holds +1 or -1 for every site, in the embedding's site order;
    entries at vacancies are not read.  A high-cost coupler's two ends
    are one site, so it keeps its sign.  The classical spectrum of each
    tile is preserved.
    """
    g = np.asarray(gauge)
    if g.shape != emb.x.shape:
        raise ParameterError(f"gauge must hold one value for each of the "
                             f"{len(emb.x)} sites, got shape {g.shape}")
    if not np.all(np.isin(g[~emb.vacancy], (-1, 1))):
        raise ParameterError("gauge values must be +1 or -1")
    same = g[emb.ends[:, 0]] == g[emb.ends[:, 1]]
    return replace(emb, values=emb.values * np.where(same, 1.0, -1.0))


def checkerboard_gauge(emb: Embedding) -> np.ndarray:
    """The ferromagnet <-> antiferromagnet relabeling, one value per site."""
    return np.where((emb.x + emb.y) % 2 == 0, 1, -1)


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
    rank = _site_rank(emb)
    n_tiles, n_runs = len(emb.placements), samples.n_runs
    tile_ids = np.array([tile.tile_id for tile in emb.placements],
                        dtype=np.int64)
    size = n_tiles * n_runs
    out = {"tile": np.repeat(tile_ids, n_runs),
           "run": np.tile(np.arange(n_runs, dtype=np.int64), n_tiles)}
    for name in DECODED_COLUMNS[2:6]:
        out[name] = np.full(size, np.nan)
    out["hc_violations"] = np.zeros(size, dtype=np.int64)
    out["excluded"] = np.ones(size, dtype=bool)   # tiles without sites
    # the non-vacancy sites grouped by tile, tiles in placement order
    active = np.flatnonzero(~emb.vacancy)
    active = active[np.argsort(rank[active], kind="stable")]
    counts = np.bincount(rank[active], minlength=n_tiles)
    live = np.flatnonzero(counts)
    if not len(live):
        return out
    rows = np.repeat(counts > 0, n_runs)
    n_sites = np.bincount(rank, minlength=n_tiles)[live]
    counts = counts[live]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    out["excluded"][rows] = np.repeat(
        (n_sites - counts) / n_sites > vacancy_threshold, n_runs)

    # every live site's spins as rows of a (sites, runs) array; the
    # integer observables are per-tile sums of its row blocks
    spins = np.ascontiguousarray(samples.values.T)
    qv, qh = emb.qubits[active].T
    sv, sh = spins[qv], spins[qh]
    agree = sv == sh
    logical = np.where(agree, sv, spins[np.minimum(qv, qh)])  # tie rule

    def tile_sums(x):
        return np.add.reduceat(x, starts, axis=0, dtype=np.int64)

    out["delta_m_phys"][rows] = \
        (2 * counts[:, None] - np.abs(tile_sums(sv + sh))).ravel()
    out["delta_m_logical"][rows] = \
        (counts[:, None] - np.abs(tile_sums(logical))).ravel()
    out["hc_violations"][rows] = tile_sums(~agree).ravel()

    # the bond couplers tile by tile, each tile's bonds in order of their
    # first coupler and a bond's couplers sorted, and per bond the sum of
    # its couplers and the product of its two logical spins
    index, bond_starts = _bonds(emb, rank)
    cq, cj = emb.couplers[index], emb.values[index]
    abs_cj = np.abs(cj)
    products = spins[cq[:, 0]] * spins[cq[:, 1]]
    row_of = np.zeros(len(emb.x), dtype=np.int64)
    row_of[active] = np.arange(len(active))
    bond_ends = row_of[emb.ends[index[bond_starts]]]
    bond_products = logical[bond_ends[:, 0]] * logical[bond_ends[:, 1]]
    bj = np.add.reduceat(cj, bond_starts) if len(cj) else cj
    abs_bj = np.abs(bj)
    tiles = np.arange(n_tiles + 1)
    c_edge = np.searchsorted(rank[emb.ends[index, 0]], tiles)
    b_edge = np.searchsorted(rank[emb.ends[index[bond_starts], 0]], tiles)

    # energies tile by tile, each one matrix-vector product of the
    # tile's (runs, couplers) products held column-major: BLAS picks its
    # kernel, and so the rounding of every sum, by that layout
    e_phys = np.zeros((len(live), n_runs))
    e_log = np.zeros((len(live), n_runs))
    for k, tile in enumerate(live):
        c = slice(c_edge[tile], c_edge[tile + 1])
        b = slice(b_edge[tile], b_edge[tile + 1])
        if c.start == c.stop:
            continue
        e_phys[k] = products[c].T.astype(float) @ cj[c] + abs_cj[c].sum()
        e_log[k] = bond_products[b].T.astype(float) @ bj[b] + abs_bj[b].sum()
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
    qv, qh = emb.qubits[~emb.vacancy].T    # in the embedding's site order
    if len(qv) and flip_probability > 0.0:
        flips = rng.random((n_runs, len(qv))) < flip_probability
        spin = np.where(flips, -1, 1).astype(np.int8)
        vals[:, qv] = spin
        vals[:, qh] = spin
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
        fh.write(_coupler_text(emb.couplers, emb.values))


def _coupler_arrays(path) -> tuple:
    """(metadata, qubits, values) of a coupler-list document: qubits is
    an (n, 2) int64 array holding two different qubit indices of the chip
    per coupler, values the n coupler values, each finite."""
    table = read_table(path, COUPLER_SCHEMA, ("q1", "q2", "J"))
    qubits = table.counts(("q1", "q2"), N_QUBITS)
    if np.any(qubits[:, 0] == qubits[:, 1]):
        raise SchemaError(f"{path}: a coupler joins a qubit to itself")
    values = table["J"]
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{path}: a coupler value is not finite")
    return table.meta, qubits, values


def read_coupler_list(path):
    """(metadata, [(q1, q2, J)]) of a coupler-list document; q1 and q2
    are two different qubit indices of the chip."""
    meta, qubits, values = _coupler_arrays(path)
    return meta, list(zip(*qubits.T.tolist(), values.tolist()))


def write_logical_map(path, emb: Embedding) -> None:
    order = np.lexsort((emb.y, emb.x))     # sites by (x, y)
    columns = (emb.x, emb.y, emb.tile, emb.qubits[:, 0], emb.qubits[:, 1],
               emb.vacancy)
    doc = {
        "schema": LOGICAL_MAP_SCHEMA,
        "generated_by": f"annealkit {__version__}",
        "tile_side": emb.L,
        "j_ising": emb.j_ising,
        "j_hc": emb.j_hc,
        "placements": [[t.tile_id, t.x0, t.y0] for t in emb.placements],
        "sites": [
            {"x": x, "y": y, "tile": tile, "qubits": [qv, qh],
             "vacancy": vacancy}
            for x, y, tile, qv, qh, vacancy in zip(
                *(column[order].tolist() for column in columns))
        ],
    }
    write_document(path, doc)


def _lists_of(values, length: int) -> bool:
    """Whether every one of values is a list of `length` entries."""
    return set(map(type, values)) <= {list} and \
        set(map(len, values)) <= {length}


def _int_column(values, low: int, high: int, what: str) -> np.ndarray:
    """values as an int64 array; each must be an int in [low, high)."""
    if not set(map(type, values)) <= {int} or \
            (values and not (low <= min(values) and max(values) < high)):
        raise SchemaError(f"{what} must be ints in [{low}, {high})")
    return np.array(values, dtype=np.int64)


_SITE_KEYS = ("x", "y", "tile", "qubits", "vacancy")


def _site(x, y, i) -> tuple:
    """(x, y) of site i, as ints for messages."""
    return int(x[i]), int(y[i])


def _site_columns(entries, where: str) -> tuple:
    """(x, y, tile ids, qubits, vacancy) of the site entries: x, y and
    the (n, 2) qubits as int64 arrays, the tile ids as a tuple of ints
    (checked against the placements by the caller) and vacancy as a
    bool array."""
    if not set(map(type, entries)) <= {dict}:
        raise SchemaError(f"{where}: a site entry is not a JSON object")
    try:
        columns = list(zip(*map(itemgetter(*_SITE_KEYS), entries)))
    except KeyError as exc:
        raise SchemaError(f"{where}: a site entry lacks {exc.args[0]!r}") \
            from None
    x, y, tile, qubits, vacancy = columns or [()] * len(_SITE_KEYS)
    if not set(map(type, tile)) <= {int}:
        raise SchemaError(f"{where}: a site's 'tile' is not an int")
    if not set(map(type, vacancy)) <= {bool}:
        raise SchemaError(f"{where}: a site's 'vacancy' is not a bool")
    if not _lists_of(qubits, 2):
        raise SchemaError(f"{where}: a site's 'qubits' is not a list of two "
                          f"qubit indices")
    return (_int_column(x, 0, LOGICAL_SIDE, f"{where}: site x"),
            _int_column(y, 0, LOGICAL_SIDE, f"{where}: site y"), tile,
            _int_column(list(chain.from_iterable(qubits)), 0, N_QUBITS,
                        f"{where}: site qubits").reshape(-1, 2),
            np.array(vacancy, dtype=bool))


def read_embedding(coupler_path, map_path) -> Embedding:
    """Rebuild an Embedding from its two emitted documents.

    The tile side is in [2, 32]; each placement names a distinct tile
    whose L x L window lies on the logical grid; the sites fill those
    windows, each (x, y) once and inside its tile's window; every qubit
    belongs to at most one site; every coupler is listed once and joins
    two qubits of non-vacancy sites of one tile.  Anything else raises
    SchemaError.  The checks are array operations over all sites and
    couplers at once.
    """
    doc = require_fields(read_document(map_path, LOGICAL_MAP_SCHEMA),
                         {"tile_side": int, "j_ising": float, "j_hc": float,
                          "placements": list, "sites": list}, str(map_path))
    L = doc["tile_side"]
    if not 2 <= L <= LOGICAL_SIDE:
        raise SchemaError(f"{map_path}: tile_side {L} is not in "
                          f"[2, {LOGICAL_SIDE}]")
    placements = doc["placements"]
    if not _lists_of(placements, 3):
        raise SchemaError(f"{map_path}: a placement is not [tile, x0, y0]")
    ids = _int_column([p[0] for p in placements], 0, 2 ** 63,
                      f"{map_path}: tile ids")
    corner = _int_column([c for p in placements for c in p[1:]], 0,
                         LOGICAL_SIDE - L + 1, f"{map_path}: with tile_side "
                         f"{L}, placement corners").reshape(-1, 2)
    rank_of = {tile: i for i, tile in enumerate(ids.tolist())}
    if len(rank_of) < len(ids):
        placed, times = np.unique(ids, return_counts=True)
        raise SchemaError(f"{map_path}: tile {placed[times.argmax()]} is "
                          f"placed twice")

    x, y, tile, qubits, vacancy = _site_columns(doc["sites"],
                                                f"{map_path} site entry")
    unknown = set(tile).difference(rank_of)
    if unknown:
        i = tile.index(min(unknown))
        raise SchemaError(f"{map_path}: site {_site(x, y, i)} names tile "
                          f"{tile[i]}, which is not a placement")
    rank = np.fromiter(map(rank_of.__getitem__, tile), np.int64, len(tile))
    x0, y0 = corner[rank].T
    outside = np.flatnonzero((x < x0) | (x >= x0 + L) | (y < y0)
                             | (y >= y0 + L))
    if len(outside):
        i = outside[0]
        raise SchemaError(f"{map_path}: site {_site(x, y, i)} lies outside "
                          f"the {L}x{L} window of its tile {tile[i]}")
    repeats = np.bincount(x * LOGICAL_SIDE + y, minlength=1)
    if repeats.max() > 1:
        raise SchemaError(f"{map_path}: site "
                          f"{divmod(int(repeats.argmax()), LOGICAL_SIDE)} "
                          f"is listed twice")
    filled = np.bincount(rank, minlength=len(ids))
    if np.any(filled != L * L):
        short = np.argmax(filled != L * L)
        raise SchemaError(f"{map_path}: tile {ids[short]} has "
                          f"{filled[short]} sites, not {L * L}")
    claims = np.bincount(qubits.ravel(), minlength=N_QUBITS)
    if claims.max() > 1:
        q = int(claims.argmax())
        holders = np.flatnonzero(np.any(qubits == q, axis=1))
        raise SchemaError(f"{map_path}: qubit {q} belongs to sites "
                          f"{_site(x, y, holders[0])} and "
                          f"{_site(x, y, holders[-1])}")
    # sites placement-major and row-major within a tile, as built
    order = np.lexsort((x, y, rank))
    x, y, qubits, vacancy = x[order], y[order], qubits[order], vacancy[order]
    tile = ids[rank[order]]
    owner = _owner(qubits)

    _, couplers, values = _coupler_arrays(coupler_path)
    ends = owner[couplers]
    # a qubit of no site has owner -1, which reads the appended False
    unowned = ~np.all(np.append(~vacancy, False)[ends], axis=1)
    if unowned.any():
        q1, q2 = couplers[np.argmax(unowned)].tolist()
        raise SchemaError(f"coupler ({q1}, {q2}) touches a qubit that no "
                          f"non-vacancy site of {map_path} owns")
    across = np.flatnonzero(tile[ends[:, 0]] != tile[ends[:, 1]])
    if len(across):
        (q1, q2), (t1, t2) = couplers[across[0]].tolist(), \
            tile[ends[across[0]]].tolist()
        raise SchemaError(f"coupler ({q1}, {q2}) joins sites of tiles "
                          f"{t1} and {t2}")
    couplers, values, repeated = _sorted_couplers(couplers, values)
    if len(repeated):
        raise SchemaError(f"{coupler_path}: coupler "
                          f"{tuple(couplers[repeated[0]].tolist())} is "
                          f"listed twice")
    return Embedding(L=L, j_ising=doc["j_ising"], j_hc=doc["j_hc"],
                     placements=tuple(TilePlacement(*p) for p in placements),
                     x=x, y=y, tile=tile, qubits=qubits, vacancy=vacancy,
                     couplers=couplers, values=values, ends=owner[couplers])


# runs formatted per write of a text sample file: bounds the words held
# in memory at once
_WRITE_RUNS = 16


def write_samples(path, samples: SampleSet, fmt: str = "text") -> None:
    """Emit records as text (one run per line) or the compact binary form."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# schema: {SAMPLES_TEXT_SCHEMA}\n")
            fh.write(f"# n_qubits: {N_QUBITS}\n")
            # every value is -1 or +1: one of two words, looked up a
            # block of runs at a time
            words = np.array(["-1", "1"], dtype=object)
            for start in range(0, samples.n_runs, _WRITE_RUNS):
                block = samples.values[start:start + _WRITE_RUNS] > 0
                fh.writelines(" ".join(run) + "\n"
                              for run in words[block.view(np.int8)].tolist())
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
            if remaining != n_qubits * n_runs:
                raise SchemaError(f"{path}: {remaining} bytes of records "
                                  f"for a header of {n_runs} records")
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
    1.  The `tile_side` header must be an int in [2, 32] and
    `annealing_time` a positive finite float or nan (samples without
    one).  Anything else raises SchemaError.
    """
    table = read_table(path, DECODED_SCHEMA, DECODED_COLUMNS)
    header = {}
    for key, kind in (("tile_side", int), ("annealing_time", float)):
        try:
            header[key] = kind(table.meta[key])
        except (KeyError, ValueError):
            raise SchemaError(f"{path}: header {key!r} is missing or not "
                              f"{kind.__name__}") from None
    L, anneal_time = header["tile_side"], header["annealing_time"]
    if not 2 <= L <= LOGICAL_SIDE:
        raise SchemaError(f"{path}: tile_side {L} is not in "
                          f"[2, {LOGICAL_SIDE}]")
    if not (np.isnan(anneal_time) or 0 < anneal_time < np.inf):
        raise SchemaError(f"{path}: annealing_time {anneal_time!r} is not "
                          f"positive and finite")
    table.counts(("tile", "run", "hc_violations"))
    table.counts(("excluded",), 2)
    return table, L, anneal_time
