"""Free-fermion representation of the open noisy Ising chain.

The spin chain

    H(s, t) = -J(s) * sum_i sigma^z_i sigma^z_{i+1}
              - sum_i Gamma_i(s, t) * sigma^x_i,

with J(s) = s^2 and Gamma_i(s, t) = (1-s)^2 + lambda * eta_i(t) by
default, maps under the Jordan-Wigner transformation to the quadratic
fermion form

    H = sum_ij A_ij c+_i c_j
        + (1/2) sum_ij (B_ij c+_i c+_j + h.c.)
        - sum_i Gamma_i,

where A has 2*Gamma_i on the diagonal and -J on the nearest-neighbor
off-diagonals, and B is antisymmetric with -J on the upper off-diagonal.
(The string convention pairs sigma^x with 1 - 2n; correctness of the
sign choices is pinned by the exact-diagonalization cross-checks, not by
the convention itself.)

The state is carried by Bogoliubov mode matrices (U, V) whose columns
are the quasiparticle annihilators; correlations() gives its Wick data.

Time evolution works on Majorana operators a_i = c_i + c+_i and
b_i = -i (c_i - c+_i), in which

    H = sum_i i Gamma_i a_i b_i + sum_i i J b_i a_{i+1} + const.

A term i theta x y turns the Heisenberg pair (x, y) by the angle
2 theta dt, so the evolved Majoranas are c(t) = R(t) c(0) with R real
orthogonal, and every term is an exact 2x2 rotation.  The field terms
(pairs a_i, b_i) commute with each other at all times, as do the bond
terms (pairs b_i, a_{i+1}) at one time, so each kind forms a layer of
independent rotations.  propagator() composes the layers with the
fourth-order S6 splitting of Blanes & Moan, J. Comput. Appl. Math. 142,
313 (2002):

    a1 b1 a2 b2 a3 b3 a4 b3 a3 b2 a2 b1 a1,
    a1 = 0.0792036964311957, a2 = 0.353172906049774,
    a3 = -0.0420650803577195, a4 = 1 - 2 (a1 + a2 + a3),
    b1 = 0.209515106613362, b2 = -0.143851773179818, b3 = 1/2 - b1 - b2.

Time advances in the field layers: an a_k layer turns pair i by
2 int Gamma_i dt over its sub-interval of length a_k h (a3 < 0 runs
backwards), with the schedule part from 3-point Gauss-Legendre and the
noise part exact, from the mode phasors of noise.PhasorMoments.  A b_k
layer turns every bond by 2 b_k h J(t/T) at the time the field layers
have reached.  The last field layer of a step and the first of the next
merge into one.

The angles are computed for blocks of noise.BLOCK steps at a time.  For
each block, one PhasorMoments read gives the 7 sub-interval noise angles
of every noisy row and step of the block, with the centre shifts folded
into its weights.  That is the engine's only BLAS call; noise.py states
why its bytes do not depend on the thread count, and since they depend
on the block size, ENGINE names it.  The schedule angles, the merge of
the last layer into the next step and the field turns cos - i sin are
also computed once per block.

R is stored transposed with its Majorana columns
interleaved (a_1, b_1, a_2, ...), so both layer kinds are one complex
multiply over a view: pairs (a_i, b_i) are the complex columns of the
array, pairs (b_i, a_{i+1}) those of the array shifted by one column.
A batch of chains that share size, schedules and coupling (the noise
realizations of a sweep point) runs as one (B, 2L, 2L) array: the
schedule angles and bond factors are computed once, one PhasorMoments
covers every noisy (chain, site) row, and each propagator of the batch
is bit for bit the one its chain gives alone.

Every entry of R below _FLUSH = 1e-50 in size is set to 0 after each
block of a noisy batch and after every _BAND_FLUSH = 3 steps of a
noise-free one, and after the last step.  In a short anneal the
Lieb-Robinson cone of a long chain never fills it: the entries far
outside the cone are products of many small rotation sines and fall
into the subnormal range, where a multiply costs tens of times more
than on normal numbers (unflushed, 4,608 of the 262,144 entries at
L = 256, T = 10, 42 steps).  The flush cannot move a result: each row
of R evolves under an orthogonal map, so zeroing entries below 1e-50
moves any later entry by at most their norm, about 1e-47 per flush,
some 30 orders of magnitude below the rounding of any residual energy.
On whole rows it runs once per block: a flush is one more pass over R,
and flushing every 24 layers measured slower on the noise-free L = 256
anneal.

A noise-free row is instead stored on a band: W column pairs from a
pair offset of its own, one W for the batch, so the layers multiply
(B, r, 2W) and the straddle entries recur every W pairs.  A layer moves
a row's support by at most one column, 12 per step.  At each flush a
row whose support lies within _MARGIN = 12 _BAND_FLUSH + 2 columns of
an edge inside the chain widens the band: one gather re-centres every
row on its support with that margin, with W _BAND_GROW pairs wider than
the widest row needs, up to L.  Between flushes the columns outside a
band therefore stay exact zeros, as they do in a whole-row run (or
zeros of the other sign, which the flush equalizes), and the columns
inside take the same multiplies: a banded row equals, bit for bit, that
row of a whole-row run flushed every _BAND_FLUSH steps.  Only that
cadence enters the bytes, so a row's bytes do not depend on W or on the
rows beside it, and ENGINE names it.  At v = 0.1 ... 0.01 on the
L = 256 slice, 51-78% of R ends as flushed zeros, and the band skips
most of them.  The rows are scattered into whole rows before the last
field turn.  Noisy rows stay whole, W = L, and keep the per-block flush.

Accuracy follows the per-step tolerance of an adaptive Runge-Kutta run:
propagate() accepts n steps when

    RMS( (R_n - R_{n/2}) / 15 / (atol + rtol max(|R_n|, |R_{n/2}|)) ) <= n,

the Richardson estimate of the error of R_n summed against n per-step
allowances.  The search starts at h = 1/2, grows n by 1.1 (e)^(1/5) after
a failed ratio e and aborts beyond _MAX_STEPS steps.

Every layer acts on the columns of the stored R, so its rows evolve
independently: started from some rows of the identity, propagator()
gives exactly those rows of the full propagator, bit for bit.  The
search takes one path per attempt: it fills the attempt's (2L, 2L) pair
with the computed rows that its first judgement reads and judges the
pair's sample rows.  Below 2L = _SAMPLE_FROM the sample is every row.
From it on, where a rejected attempt would cost a full pair, it is
_SAMPLE_ROWS rows spread evenly over both Majorana kinds, and a ratio
above 1 rejects the attempt.  Otherwise the rest of the rows are filled
the same way and the attempt is judged on all of them, so an accepted n,
its ratio and its propagators are those of the full pair.  On the
noise-free L = 256 slice at rtol 1e-8 the opening guess fails at every
velocity, and the sample takes that rejection at about a tenth of the
cost.  The first rows and the rest of an attempt share one noise kernel
per step count, which PhasorMoments.restart() rewinds for the rest.  The
rest is the complement of a boolean mask: np.setdiff1d would import
numpy.ma, about 1 MB, on its first call.

A chain without noise signals is mirror-symmetric.  The signed mirror
a_i -> b_{L-1-i}, b_i -> -a_{L-1-i} maps every field term a_i b_i onto
a_{L-1-i} b_{L-1-i} and every bond term b_i a_{i+1} onto
b_{L-2-i} a_{L-1-i}, and without noise every site has the same field
at every time, so the mirror commutes with R for any schedule.  In the
stored layout that reads

    S[2L-1-k, 2L-1-c] = s(k) s(c) S[k, c],

with s = +1 on the a (even) and -1 on the b (odd) columns.  propagate()
therefore computes only the rows k < L of a noise-free chain: each fill
writes the signed mirror of a computed row k into row 2L-1-k, and a
sample row k >= L is read from there.  That is half the layer
multiplies.  A mirrored row is not bit for bit the row propagator()
computes.  The mirror swaps the real and imaginary halves of every
complex pair, and numpy computes a complex product with a fused
multiply-add, which rounds the two halves differently; the rows differ
by a few 1e-15, and ENGINE names the mirror.  Noisy chains never take
it, nor does a chain that carries signals at coupling 0, nor
propagator() itself, so batches and the noise realizations of a sweep
keep their bytes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationAbort, ParameterError
from .noise import BLOCK, PhasorMoments, interval_weights

# Blanes & Moan S6, J. Comput. Appl. Math. 142, 313 (2002): field (alpha,
# time-advancing) and bond (beta) coefficients of a fourth-order splitting
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
_ALPHA = np.array([_A1, _A2, _A3, 1.0 - 2.0 * (_A1 + _A2 + _A3), _A3, _A2, _A1])
_BETA = np.array([_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1])
_EDGES = np.concatenate([[0.0], np.cumsum(_ALPHA)])    # in units of h
_CENTRES = 0.5 * (_EDGES[:-1] + _EDGES[1:])
# 3-point Gauss-Legendre on [-1/2, 1/2], weights summing to 1
_GL_NODES = np.array([-math.sqrt(0.15), 0.0, math.sqrt(0.15)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
_FIRST_STEP = 0.5
_MAX_STEPS = 1 << 24
# propagate's step search tries an attempt on a sample of _SAMPLE_ROWS
# rows of R first, from 2L >= _SAMPLE_FROM on.  Measured noise-free at
# rtol 1e-8, one BLAS thread: 200 steps on 64 rows take 23 ms against
# 229 ms for all rows at L = 256 (13 against 46 ms at L = 128); at
# v = 0.001 ... 0.1 the opening guess h = 1/2 fails by 9-22x, and the
# sample's ratio lies within 5% of the full one
_SAMPLE_ROWS = 64
_SAMPLE_FROM = 4 * _SAMPLE_ROWS
# entries of R below this are set to 0 after each block of a noisy batch
# and every _BAND_FLUSH steps of a noise-free one: far below any result's
# rounding, and it keeps the layer multiplies out of subnormals
_FLUSH = 1e-50
_BAND_FLUSH = 3
# a noise-free row's band is widened at a flush when its support comes
# within _MARGIN columns of an inner edge; the 12 layers of a step move
# the support by at most 12 columns
_MARGIN = 12 * _BAND_FLUSH + 2
_BAND_GROW = 32                 # pairs of slack in a band's width
ENGINE = (f"majorana-s6-block{BLOCK}-sample{_SAMPLE_ROWS}-mirror"
          f"-band{_BAND_FLUSH}")
_TINY = np.finfo(float).tiny


def ramp_up(s: float) -> float:
    """Default bond schedule J(s) = s^2."""
    return s * s


def ramp_down(s: float) -> float:
    """Default transverse-field schedule (1-s)^2."""
    return (1.0 - s) * (1.0 - s)


@dataclass(frozen=True)
class ChainSpec:
    """Open chain of `size` spins with schedules and optional noise.

    signals is a per-site tuple of NoiseSignal or None; the field at site
    i is base_field(s) + coupling * eta_i(t) where a signal is attached.
    The propagator calls the two schedules with arrays of s.
    """

    size: int
    bond_coupling: Callable[[float], float] = ramp_up
    base_field: Callable[[float], float] = ramp_down
    coupling: float = 0.0
    signals: Optional[tuple] = None

    def __post_init__(self):
        if self.size < 2:
            raise ParameterError(f"chain needs at least 2 sites, got {self.size}")
        if self.signals is not None and len(self.signals) != self.size:
            raise ParameterError("signals must have one entry (or None) per site")

    def field_per_site(self, s: float, t: float) -> np.ndarray:
        """Gamma_i(s, t) for all sites."""
        gam = np.full(self.size, self.base_field(s))
        if self.signals is not None and self.coupling != 0.0:
            for i, sig in enumerate(self.signals):
                if sig is not None:
                    gam[i] += self.coupling * sig.eval(t)
        return gam


@dataclass
class BdgModes:
    """Bogoliubov transformation matrices; columns annihilate the state."""

    U: np.ndarray
    V: np.ndarray

    @property
    def size(self) -> int:
        return self.U.shape[0]

    def orthonormality_defect(self) -> float:
        """max |U+U + V+V - 1|; zero for an exact Nambu frame."""
        eye = np.eye(self.size)
        g = self.U.conj().T @ self.U + self.V.conj().T @ self.V - eye
        return float(np.abs(g).max())

    def pairing_defect(self) -> float:
        """max |U^T V + V^T U|; zero for an exact Nambu frame."""
        g = self.U.T @ self.V + self.V.T @ self.U
        return float(np.abs(g).max())


@dataclass
class CorrelationPair:
    """Two-point functions G_ij = <c+_i c_j> and F_ij = <c_i c_j>."""

    G: np.ndarray
    F: np.ndarray

    @property
    def size(self) -> int:
        return self.G.shape[0]


def bdg_matrices(chain: ChainSpec, s: float, t: float = 0.0):
    """Dense (A, B) of the quadratic form at scaled time s, real time t."""
    L = chain.size
    j = chain.bond_coupling(s)
    gam = chain.field_per_site(s, t)
    A = np.zeros((L, L))
    A[np.arange(L), np.arange(L)] = 2.0 * gam
    off = np.arange(L - 1)
    A[off, off + 1] = -j
    A[off + 1, off] = -j
    B = np.zeros((L, L))
    B[off, off + 1] = -j
    B[off + 1, off] = j
    return A, B


def field_offset(chain: ChainSpec, s: float, t: float = 0.0) -> float:
    """Scalar -sum_i Gamma_i completing the fermion form of the spin energy."""
    return -float(np.sum(chain.field_per_site(s, t)))


def quasiparticle_energies(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Non-negative mode energies (singular values of A + B), descending."""
    return np.linalg.svd(A + B, compute_uv=False)


def ground_state(A: np.ndarray, B: np.ndarray) -> BdgModes:
    """Modes diagonalizing the quadratic form with all energies >= 0.

    Uses the singular value decomposition (A+B) phi_k = eps_k psi_k,
    (A-B) psi_k = eps_k phi_k, then U = (phi+psi)/2, V = (phi-psi)/2.
    Zero modes (degenerate classical point) are fixed deterministically
    by requiring the dominant entry of each phi_k to be positive.
    """
    if not np.allclose(A, A.T, atol=1e-12):
        raise ParameterError("A must be symmetric")
    if not np.allclose(B, -B.T, atol=1e-12):
        raise ParameterError("B must be antisymmetric")
    psi_mat, _, phi_t = np.linalg.svd(A + B)
    phi = phi_t.T
    # deterministic phase: dominant entry of each phi column positive
    idx = np.abs(phi).argmax(axis=0)
    signs = np.sign(phi[idx, np.arange(phi.shape[1])])
    signs[signs == 0] = 1.0
    phi = phi * signs
    psi = psi_mat * signs
    U = 0.5 * (phi + psi)
    V = 0.5 * (phi - psi)
    return BdgModes(U=U.astype(complex), V=V.astype(complex))


def ground_energy(chain: ChainSpec, s: float, t: float = 0.0) -> float:
    """Exact many-body ground energy of the spin chain at (s, t)."""
    A, B = bdg_matrices(chain, s, t)
    eps = quasiparticle_energies(A, B)
    # -1/2 sum eps + 1/2 tr A + offset; the last two cancel exactly here
    return float(-0.5 * eps.sum() + 0.5 * np.trace(A) + field_offset(chain, s, t))


def _on_grid(schedule: Callable, s: np.ndarray) -> np.ndarray:
    """A schedule evaluated on an array of s (constants broadcast)."""
    return np.broadcast_to(np.asarray(schedule(s), dtype=float), s.shape)


def _noise_kernel(chains, h: float):
    """(rows, PhasorMoments) for the noisy sites of a batch, or None.

    `rows` indexes the batch's sites flattened as b * L + i, or is a full
    slice when every site is noisy.  The kernel's 7 integrals per step are
    the noise parts 2 lambda int eta of the field angles over the 7
    sub-intervals of the step, measured from its start.
    """
    coupling, L = chains[0].coupling, chains[0].size
    if coupling == 0.0:
        return None
    rows, sigs = [], []
    for b, chain in enumerate(chains):
        for i, sig in enumerate(chain.signals or ()):
            if sig is not None:
                rows.append(b * L + i)
                sigs.append(sig)
    if not sigs:
        return None
    if len({sig.n_modes for sig in sigs}) != 1:
        raise ParameterError("all signals of a batch must share n_modes")
    omega, amp, phase = (np.stack([getattr(sig, name) for sig in sigs])
                         for name in ("omega", "amp", "phase"))
    scale = 2.0 * coupling / np.sqrt(omega.shape[1])
    # the alpha coefficients are symmetric: 4 distinct sub-interval lengths,
    # and the centres c_{6-k} = 1 - c_k with c_3 = 1/2, so the phasor's
    # shift e^{i c_k h omega} from the step's start to a centre k > 3 is
    # shift_3^2 conj(shift_{6-k})
    lengths = [interval_weights(omega, amp, scale, a * h) for a in _ALPHA[:4]]
    shifts = []
    for c in _CENTRES[:4]:
        arg = (c * h) * omega
        shift = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=shift.real)
        np.sin(arg, out=shift.imag)
        shifts.append(shift)
    whole = shifts[3] * shifts[3]
    shifts += [np.conj(shift) for shift in shifts[2::-1]]
    for shift in shifts[4:]:
        shift *= whole
    # each shift times its interval's weight, in place
    weights = shifts
    for k, weight in enumerate(weights):
        weight *= lengths[min(k, 6 - k)]
    rows = slice(None) if len(rows) == len(chains) * L else np.array(rows)
    return rows, PhasorMoments(omega, phase, h, weights)


def _schedule_angles(chain: ChainSpec, T: float, h: float, first: int,
                     last: int) -> tuple:
    """Schedule parts of steps first..last-1: field angles (steps, 7) and
    bond rotation factors (steps, 6)."""
    start = h * np.arange(first, last)
    # 3-point Gauss-Legendre on each sub-interval, exact for schedules of
    # degree <= 5
    nodes = start[:, None, None] + h * (_CENTRES[:, None]
                                        + _ALPHA[:, None] * _GL_NODES)
    field = 2.0 * h * _ALPHA * (_on_grid(chain.base_field, nodes / T)
                                * _GL_WEIGHTS).sum(axis=-1)
    # bond angles at the times the field layers have advanced to
    bond_s = (start[:, None] + h * _EDGES[1:-1]) / T
    bond = np.exp(-2j * h * _BETA * _on_grid(chain.bond_coupling, bond_s))
    return field, bond


def _shared(chain: ChainSpec) -> tuple:
    return chain.size, chain.bond_coupling, chain.base_field, chain.coupling


def propagator(chains, T: float, steps: int, rows=None) -> np.ndarray:
    """The Majorana propagators of the anneal after `steps` S6 steps.

    `chains` is one ChainSpec, giving its (2L, 2L) propagator, or a
    sequence of B chains, giving theirs stacked as (B, 2L, 2L).  The
    chains of a batch share size, schedules, coupling and n_modes; the
    schedule angles and bond factors are computed once for the batch, and
    each propagator is bit for bit the one its chain gives alone.

    A propagator is returned transposed with interleaved columns: entry
    [k, 2i] is R[a_i, k] and [k, 2i + 1] is R[b_i, k], where row c of R
    expands the Heisenberg-evolved Majorana c in the Majoranas at t = 0.

    `rows`, an index into the 2L initial Majoranas k, propagates only
    those rows of the stored propagator, (r, 2L) per chain; they are bit
    for bit those rows of the full one.
    """
    if isinstance(chains, ChainSpec):
        return propagator([chains], T, steps, rows)[0]
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) \
            or steps < 1:
        raise ParameterError(f"step count must be a positive int, got {steps!r}")
    if not 0.0 < T < math.inf:
        raise ParameterError(f"anneal time must be positive and finite, got {T}")
    if not chains:
        raise ParameterError("propagator needs at least one chain")
    lead = chains[0]
    if any(_shared(chain) != _shared(lead) for chain in chains):
        raise ParameterError("the chains of a batch must share size, "
                             "schedules and coupling")
    return _propagated(chains, T, steps, rows,
                       _noise_kernel(chains, T / steps))


def _band(low: np.ndarray, high: np.ndarray, L: int, width: int) -> tuple:
    """(width, offsets) of a band for rows whose nonzero columns span
    low..high: each row's W pairs from its offset on reach _MARGIN columns
    past its support, or the chain's end, and W is _BAND_GROW pairs more
    than the widest row needs, at least `width` and at most L."""
    first = np.maximum(low - _MARGIN, 0) // 2
    need = np.minimum(high + _MARGIN, 2 * L - 1) // 2 + 1 - first
    width = min(L, max(width, int(need.max()) + _BAND_GROW))
    return width, np.clip(first - (width - need) // 2, 0, L - width)


def _widened(S: np.ndarray, offset: np.ndarray, L: int) -> tuple:
    """(S, offset) of flushed banded rows S re-gathered onto _band() of
    their supports."""
    width = S.shape[-1] // 2
    nonzero = S != 0.0
    low = 2 * offset + nonzero.argmax(axis=-1)
    high = 2 * (offset + width) - 1 - nonzero[..., ::-1].argmax(axis=-1)
    wider, moved = _band(low, high, L, width)
    # a column beyond the old band reads the old edge column, which is 0:
    # the support stayed _MARGIN - 12 _BAND_FLUSH columns inside it
    source = np.arange(2 * wider) + 2 * (moved - offset)[..., None]
    np.clip(source, 0, 2 * width - 1, out=source)
    return np.take_along_axis(S, source, axis=-1), moved


def _views(S: np.ndarray) -> tuple:
    """(pairs, links, straddle, magnitude) of rows S of one band width."""
    width = S.shape[-1] // 2
    # the array shifted by one entry, as one flat run of b_i + i a_{i+1};
    # every width-th entry pairs the last b of a row with the first a of
    # the next (also across propagators), and is put back after each bond
    # layer
    links = S.reshape(-1)[1:-1].view(complex)
    return (S.view(complex),                # columns a_i + i b_i
            links, slice(width - 1, None, width),
            np.empty_like(S))               # |S|, for the flush


def _propagated(chains, T: float, steps: int, rows, noise) -> np.ndarray:
    """propagator() of checked arguments, given the batch's noise kernel
    _noise_kernel(chains, T / steps); the kernel restarts at step 0 here,
    so one kernel serves several calls."""
    lead = chains[0]
    B, L = len(chains), lead.size
    h = T / steps
    picked = np.arange(2 * L)[slice(None) if rows is None else rows]
    if picked.ndim != 1 or not len(picked):
        raise ParameterError("rows must select at least one Majorana")
    # row j of every propagator holds pairs offset[b, j] ... + width - 1;
    # noisy rows are whole (module docstring)
    start = np.broadcast_to(picked, (B, len(picked)))
    if noise is None:
        width, offset = _band(start, start, L, 0)
        cadence = _BAND_FLUSH
    else:
        width, offset = L, np.zeros(start.shape, dtype=int)
        cadence = BLOCK
    S = np.zeros(start.shape + (2 * width,))
    np.put_along_axis(S, (start - 2 * offset)[..., None], 1.0, axis=-1)
    kept = np.empty(S[..., 0].size - 1, dtype=complex)
    # a block's field angles are (step, layer) + sites: per (propagator,
    # -, site), broadcast over rows
    sites = (B, 1, L) if noise is not None else (1, 1, 1)
    if noise is not None:
        rows, kernel = noise
        kernel.restart()
    carry = np.zeros(sites)                 # last sub-interval, merged on
    pairs, links, straddle, magnitude = _views(S)
    for first in range(0, steps, BLOCK):
        n = min(BLOCK, steps - first)
        field, bond = _schedule_angles(lead, T, h, first, first + n)
        angle = np.empty((n, 7) + sites)
        angle[:] = field.reshape((n, 7, 1, 1, 1))
        if noise is not None:
            noisy = angle.reshape(n, 7, -1)
            noisy[:, :, rows] += kernel.integrals(n).transpose(1, 2, 0)
        angle[0, 0] += carry
        angle[1:, 0] += angle[:-1, 6]
        carry = angle[-1, 6].copy()
        # e^{-i angle}, written as cos and sin of -angle
        np.negative(angle, out=angle)
        turn = np.empty((n, 6) + sites, dtype=complex)
        np.cos(angle[:, :6], out=turn.real)
        np.sin(angle[:, :6], out=turn.imag)
        for step in range(n):
            for turn_j, bond_j in zip(turn[step], bond[step]):
                pairs *= turn_j
                kept[:] = links[straddle]
                links *= bond_j
                links[straddle] = kept
            done = first + step + 1
            if done % cadence and done < steps:
                continue
            np.abs(S, out=magnitude)
            np.copyto(S, 0.0, where=magnitude < _FLUSH)
            if width == L or done == steps:
                continue
            # widen where a row's support nears an edge inside the chain
            near = (offset > 0) & S[..., :_MARGIN].any(axis=-1)
            near |= (offset < L - width) & S[..., -_MARGIN:].any(axis=-1)
            if near.any():
                S, offset = _widened(S, offset, L)
                width = S.shape[-1] // 2
                pairs, links, straddle, magnitude = _views(S)
    if width < L:
        del magnitude
        full = np.zeros(start.shape + (2 * L,))
        np.put_along_axis(full, 2 * offset[..., None] + np.arange(2 * width),
                          S, axis=-1)
        S = full
    pairs = S.view(complex)
    pairs *= np.exp(-1j * carry)
    return S


@dataclass
class Propagation:
    """Fine and coarse propagators of an accepted step count."""

    fine: np.ndarray
    coarse: np.ndarray
    steps: int
    error_ratio: float      # Richardson error over its allowance, <= 1
    # one (steps, ratio, "sample" | "all") per attempt, in order: the
    # ratio that decided it and the rows it was taken on
    search: list


def propagate(chain: ChainSpec, T: float, rtol: float = 1e-8,
              atol: float = 1e-10) -> Propagation:
    """Propagators for n and n/2 steps, with n the first accepted count.

    n is accepted when RMS((R_n - R_{n/2}) / 15 / (atol + rtol *
    max(|R_n|, |R_{n/2}|))) <= n, the sum of the per-step tolerances an
    adaptive Runge-Kutta run promises.  The search starts at h = 1/2 and,
    after a ratio e = RMS / n above 1, continues at the even count
    ceil(1.1 n e^(1/5)).  A count beyond _MAX_STEPS, the first one
    included, raises IntegrationAbort before it runs.  With atol = 0,
    entries that the propagator flushes to 0 (below 1e-50) compare as
    0 = 0 rather than against their own size.

    Each attempt fills its pair with the computed rows that its first
    judgement reads, and for a chain with no signals their signed mirrors
    (module docstring), then judges the pair's sample rows.  Below
    2L = _SAMPLE_FROM the sample is every row, and the attempt is decided
    there.  From it on the sample is _SAMPLE_ROWS rows spread evenly over
    R: a ratio above 1 rejects the attempt and sets the next count;
    otherwise the other rows are filled the same way and the attempt is
    judged on all rows.  So an accepted pair and its ratio are those of
    the full propagators.  A count that follows a rejection by the sample
    comes from the sample's ratio, so near a rounding edge it can differ
    from the one a search on all rows tries.
    """
    if not rtol > 0.0:
        raise ParameterError(f"rtol must be positive, got {rtol}")
    if not atol >= 0.0:
        raise ParameterError(f"atol must be non-negative, got {atol}")
    if not 0.0 < T < math.inf:
        raise ParameterError(f"anneal time must be positive and finite, got {T}")
    size = 2 * chain.size
    # a noise-free chain computes its rows k < L and mirrors the others
    mirror = chain.signals is None
    first = np.arange(chain.size if mirror else size)
    sampled = size >= _SAMPLE_FROM
    sample = slice(None)
    if sampled:
        sample = np.linspace(0, size - 1, _SAMPLE_ROWS).astype(int)
        # the computed rows the sample reads, the sample's own or those
        # it mirrors; a mask, as np.setdiff1d would import numpy.ma
        read = np.zeros(len(first), dtype=bool)
        read[np.minimum(sample, size - 1 - sample) if mirror else sample] = True
        first, rest = np.flatnonzero(read), np.flatnonzero(~read)
    pair = np.empty((size, size)), np.empty((size, size))
    search = []
    grown, step, reason = T / _FIRST_STEP, _FIRST_STEP, "the first attempt"
    while True:
        if not grown <= _MAX_STEPS:         # also when inf or NaN
            raise IntegrationAbort(
                f"{reason} asks for {grown:.3g} steps, beyond the cap of "
                f"{_MAX_STEPS}", t=T, step=step)
        n = _even(grown)
        # one noise kernel per step count, for the first rows and the rest
        runs = [(m, _noise_kernel([chain], T / m)) for m in (n, n // 2)]
        _fill(pair, first, chain, T, runs, mirror)
        ratio = _error_ratio(*(S[sample] for S in pair), n, rtol, atol)
        rows = "sample" if sampled else "all"
        if sampled and ratio <= 1.0:
            _fill(pair, rest, chain, T, runs, mirror)
            ratio, rows = _error_ratio(*pair, n, rtol, atol), "all"
        search.append((n, ratio, rows))
        if rows == "all" and ratio <= 1.0:
            return Propagation(*pair, n, ratio, search)
        grown, step = 1.1 * n * ratio ** 0.2, T / n
        reason = (f"a Richardson error {ratio:.3g} times its allowance "
                  f"at {n} steps")


def _fill(pair: tuple, rows: np.ndarray, chain: ChainSpec, T: float,
          runs: list, mirror: bool) -> None:
    """Writes rows `rows` of the chain's propagators into `pair`, one per
    run = (step count, its noise kernel).  With `mirror` they are rows
    k < L of a noise-free chain, and each row 2L-1-k is also written, as
    (-1)^(k+1+c) S[k, 2L-1-c] at column c."""
    columns = np.where(np.arange(2 * chain.size) % 2, -1.0, 1.0)
    for S, (steps, noise) in zip(pair, runs):
        values = _propagated([chain], T, steps, rows, noise)[0]
        S[rows] = values
        if mirror:
            values = values[:, ::-1] * columns
            values *= np.where(rows % 2, 1.0, -1.0)[:, None]
            S[len(S) - 1 - rows] = values


def _error_ratio(fine: np.ndarray, coarse: np.ndarray, n: int, rtol: float,
                 atol: float) -> float:
    """The RMS Richardson error of an n-step pair over n allowances,
    computed in place in two buffers of the pair's size."""
    allowed = np.abs(fine)
    np.maximum(allowed, np.abs(coarse), out=allowed)
    allowed *= rtol
    allowed += atol
    np.maximum(allowed, _TINY, out=allowed)
    scaled = np.subtract(fine, coarse)
    with np.errstate(over="ignore"):        # an overflow reads as inf
        scaled /= 15.0
        scaled /= allowed
        np.square(scaled, out=scaled)
        return float(np.sqrt(np.mean(scaled))) / n


def _even(x: float) -> int:
    return max(2, 2 * math.ceil(x / 2.0))


def orthogonality_defect(S: np.ndarray) -> float:
    """max |R R^T - 1|; zero for an exact propagator.  Computed in place
    in the one Gram matrix."""
    gram = S.T @ S
    gram.flat[::len(gram) + 1] -= 1.0
    return float(np.abs(gram, out=gram).max())


def vacuum_residual_energy(S: np.ndarray) -> float:
    """Residual energy of the anneal when it starts from the vacuum.

    The vacuum, the ground state wherever J = 0 and every Gamma_i > 0, has
    <c_k c_l> = delta_kl + i Omega_kl with Omega[a_j, b_j] = 1, so the
    bond correlator <sigma^z_i sigma^z_{i+1}> = -i <b_i a_{i+1}> is
    sum_j R[b_i, a_j] R[a_{i+1}, b_j] - R[b_i, b_j] R[a_{i+1}, a_j].
    """
    b_a, b_b = S[0::2, 1:-1:2], S[1::2, 1:-1:2]
    n_a, n_b = S[0::2, 2::2], S[1::2, 2::2]
    return _bond_deficit((b_a * n_b - b_b * n_a).sum(axis=0))


def evolve(modes: BdgModes, chain: ChainSpec, T: float,
           rtol: float = 1e-8, atol: float = 1e-10) -> BdgModes:
    """Evolve the mode matrices from t=0 to t=T along the schedule.

    In Majorana form the modes are P = (phi_1, -i psi_1, phi_2, ...),
    phi = U + V and psi = U - V, and they evolve as P -> R P.
    """
    S = propagate(chain, T, rtol, atol).fine
    L = chain.size
    P = np.empty((2 * L, L), dtype=complex)
    P[0::2] = modes.U + modes.V
    P[1::2] = -1j * (modes.U - modes.V)
    P = S.T @ P
    phi, psi = P[0::2], 1j * P[1::2]
    return BdgModes(U=0.5 * (phi + psi), V=0.5 * (phi - psi))


def correlations(modes: BdgModes) -> CorrelationPair:
    """Wick data of the state: G = V V+, F = U V+."""
    G = modes.V @ modes.V.conj().T
    F = modes.U @ modes.V.conj().T
    return CorrelationPair(G=G, F=F)


def residual_energy(corr: CorrelationPair) -> float:
    """Excess classical Ising energy over the ordered ground state.

    Each open-chain bond contributes 1 - <sigma^z_i sigma^z_{i+1}>, with
    the bond correlator assembled from the quadratic Wick functions.
    Tiny negative floating-point results in [-1e-8, 0) clamp to 0.
    """
    G, F = corr.G, corr.F
    i = np.arange(corr.size - 1)
    return _bond_deficit(2.0 * np.real(G[i, i + 1])
                         + 2.0 * np.real(F[i + 1, i]))


def _bond_deficit(bond: np.ndarray) -> float:
    """sum_i (1 - <sigma^z_i sigma^z_{i+1}>), clamping [-1e-8, 0) to 0."""
    delta = float(np.sum(1.0 - bond))
    if -1e-8 <= delta < 0.0:
        return 0.0
    return delta


def energy_expectation(corr: CorrelationPair, A: np.ndarray, B: np.ndarray,
                       offset: float) -> float:
    """<H> of the state for the quadratic form (A, B) plus scalar offset."""
    hop = np.sum(A * corr.G).real
    pair = np.trace(B @ corr.F).real
    return float(hop + pair + offset)


def transverse_magnetization(corr: CorrelationPair) -> np.ndarray:
    """<sigma^x_i> per site (1 - 2 <n_i> in the fermion picture)."""
    return 1.0 - 2.0 * np.real(np.diag(corr.G))
