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

The angles are computed for blocks of _BLOCK steps at a time.  For each
block, PhasorMoments fills a (steps, rows, modes) table of unweighted
mode phasors, one complex multiply per entry, and one matmul per noisy
row contracts the table's real view with a (2 modes, 7) weight matrix
built once per call: all 7 sub-interval noise angles of every step of
the block at once.  That product is the engine's only BLAS call.  Its
bytes do not depend on the BLAS thread count, because OpenBLAS splits a
product over its rows and columns, never over the inner sum, and they
do not depend on the other rows of a batch, because each row is its own
product of a fixed shape.  They do depend on the block size through the
kernels the library picks for it, so _BLOCK is a constant and part of
ENGINE.  The schedule angles, the merge of the last layer into the next
step and the field turns cos - i sin are also computed once per block.

R is stored transposed with its Majorana columns
interleaved (a_1, b_1, a_2, ...), so both layer kinds are one complex
multiply over a view: pairs (a_i, b_i) are the complex columns of the
array, pairs (b_i, a_{i+1}) those of the array shifted by one column.
A batch of chains that share size, schedules and coupling (the noise
realizations of a sweep point) runs as one (B, 2L, 2L) array: the
schedule angles and bond factors are computed once, one PhasorMoments
covers every noisy (chain, site) row, and each propagator of the batch
is bit for bit the one its chain gives alone.

After each block, every entry of R below _FLUSH = 1e-50 in size is set
to 0.  In a short anneal the Lieb-Robinson cone of a long chain never
fills it: the entries far outside the cone are products of many small
rotation sines and fall into the subnormal range, where a multiply
costs tens of times more than on normal numbers (unflushed, 4,608 of
the 262,144 entries at L = 256, T = 10, 42 steps).  The flush cannot move a result:
each row of R evolves under an orthogonal map, so zeroing entries below
1e-50 moves any later entry by at most their norm, about 1e-47 per
block, some 30 orders of magnitude below the rounding of any residual
energy.  It runs once per block: a flush is one more pass over R, and
flushing every 24 layers measured slower on the noise-free L = 256
anneal.

Accuracy follows the per-step tolerance of an adaptive Runge-Kutta run:
propagate() accepts n steps when

    RMS( (R_n - R_{n/2}) / 15 / (atol + rtol max(|R_n|, |R_{n/2}|)) ) <= n,

the Richardson estimate of the error of R_n summed against n per-step
allowances.  The search starts at h = 1/2, grows n by 1.1 (e)^(1/5) after
a failed ratio e and aborts beyond _MAX_STEPS steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationAbort, ParameterError
from .noise import PhasorMoments, interval_weights

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
# steps whose angles and turns are computed at once: one matrix product
# per block gives the noise angles.  A divisor of noise.REANCHOR, so the
# exact phasor evaluations fall on block starts; and a constant, because
# the product's rounding depends on it
_BLOCK = 8
ENGINE = f"majorana-s6-block{_BLOCK}"
# entries of R below this are set to 0 after each block: far below any
# result's rounding, and it keeps the layer multiplies out of subnormals
_FLUSH = 1e-50
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


def spin_spectrum(A: np.ndarray, B: np.ndarray, offset: float) -> np.ndarray:
    """All 2^L spin energies reconstructed from the quasiparticle modes.

    Only sensible for small L; used to cross-check against dense
    diagonalization.
    """
    eps = quasiparticle_energies(A, B)
    L = len(eps)
    if L > 16:
        raise ParameterError("spectrum reconstruction limited to L <= 16")
    e0 = -0.5 * eps.sum() + 0.5 * np.trace(A) + offset
    energies = np.zeros(1)
    for e in eps:
        energies = np.concatenate([energies, energies + e])
    return np.sort(energies + e0)


def _on_grid(schedule: Callable, s: np.ndarray) -> np.ndarray:
    """A schedule evaluated on an array of s (constants broadcast)."""
    return np.broadcast_to(np.asarray(schedule(s), dtype=float), s.shape)


def _noise_kernel(chains, h: float):
    """(rows, PhasorMoments, weights) for the noisy sites of a batch, or None.

    `rows` indexes the batch's sites flattened as b * L + i, or is a full
    slice when every site is noisy.  `weights` has shape (rows,
    2 modes, 7): against the real view of a row's unweighted phasors
    (re, im per mode) it holds (Re w, -Im w) per mode, so the product is
    the noise parts 2 lambda int eta of the field angles over the 7
    sub-intervals of a step, measured from its start.
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
    # the alpha coefficients are symmetric: 4 distinct sub-interval lengths
    lengths = [interval_weights(omega, amp, scale, a * h) for a in _ALPHA[:4]]
    weights = np.empty(omega.shape + (2, len(_ALPHA)))
    for k, c in enumerate(_CENTRES):
        # w = length e^{i c h omega}, the phasor's shift to the centre
        length, arg = lengths[min(k, 6 - k)], (c * h) * omega
        weights[..., 0, k] = length * np.cos(arg)
        weights[..., 1, k] = length * -np.sin(arg)
    rows = slice(None) if len(rows) == len(chains) * L else np.array(rows)
    return (rows, PhasorMoments(omega, phase, h),
            weights.reshape(len(sigs), -1, len(_ALPHA)))


def _noise_angles(kernel: PhasorMoments, weights: np.ndarray,
                  table: np.ndarray) -> np.ndarray:
    """Noise parts of the field angles of the next len(table) steps, shape
    (rows, steps, 7), from one matrix product per row; `table` is a
    (steps, rows, modes) complex buffer that the phasors are filled into.
    """
    phasors = kernel.fill(table).view(float)    # (steps, rows, 2 modes)
    return np.matmul(phasors.transpose(1, 0, 2), weights)


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


def propagator(chains, T: float, steps: int) -> np.ndarray:
    """The Majorana propagators of the anneal after `steps` S6 steps.

    `chains` is one ChainSpec, giving its (2L, 2L) propagator, or a
    sequence of B chains, giving theirs stacked as (B, 2L, 2L).  The
    chains of a batch share size, schedules, coupling and n_modes; the
    schedule angles and bond factors are computed once for the batch, and
    each propagator is bit for bit the one its chain gives alone.

    A propagator is returned transposed with interleaved columns: entry
    [k, 2i] is R[a_i, k] and [k, 2i + 1] is R[b_i, k], where row c of R
    expands the Heisenberg-evolved Majorana c in the Majoranas at t = 0.
    """
    if isinstance(chains, ChainSpec):
        return propagator([chains], T, steps)[0]
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
    B, L = len(chains), lead.size
    h = T / steps
    noise = _noise_kernel(chains, h)

    S = np.empty((B, 2 * L, 2 * L))
    S[:] = np.eye(2 * L)
    pairs = S.view(complex)                 # columns a_i + i b_i
    # the array shifted by one entry, as one flat run of b_i + i a_{i+1};
    # every L-th entry pairs the last b of a row with the first a of the
    # next (also across propagators), and is put back after each bond layer
    links = S.reshape(-1)[1:-1].view(complex)
    straddle = slice(L - 1, None, L)
    kept = np.empty(2 * B * L - 1, dtype=complex)
    magnitude = np.empty_like(S)            # |S|, for the flush
    # a block's field angles are (step, layer) + sites: per (propagator,
    # -, site), broadcast over rows
    sites = (B, 1, L) if noise is not None else (1, 1, 1)
    if noise is not None:
        rows, kernel, weights = noise
        table = np.empty((_BLOCK,) + kernel.omega.shape, dtype=complex)
    carry = np.zeros(sites)                 # last sub-interval, merged on
    for first in range(0, steps, _BLOCK):
        n = min(_BLOCK, steps - first)
        field, bond = _schedule_angles(lead, T, h, first, first + n)
        angle = np.empty((n, 7) + sites)
        angle[:] = field.reshape((n, 7, 1, 1, 1))
        if noise is not None:
            noisy = angle.reshape(n, 7, -1)
            noisy[:, :, rows] += _noise_angles(kernel, weights,
                                               table[:n]).transpose(1, 2, 0)
        angle[0, 0] += carry
        angle[1:, 0] += angle[:-1, 6]
        carry = angle[-1, 6].copy()
        # e^{-i angle}, written as cos and sin of -angle
        np.negative(angle, out=angle)
        turn = np.empty((n, 6) + sites, dtype=complex)
        np.cos(angle[:, :6], out=turn.real)
        np.sin(angle[:, :6], out=turn.imag)
        for turn_j, bond_j in zip(turn.reshape((6 * n,) + sites),
                                  bond.reshape(-1)):
            pairs *= turn_j
            kept[:] = links[straddle]
            links *= bond_j
            links[straddle] = kept
        np.abs(S, out=magnitude)
        np.copyto(S, 0.0, where=magnitude < _FLUSH)
    pairs *= np.exp(-1j * carry)
    return S


@dataclass
class Propagation:
    """Fine and coarse propagators of an accepted step count."""

    fine: np.ndarray
    coarse: np.ndarray
    steps: int
    error_ratio: float      # Richardson error over its allowance, <= 1


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
    """
    if not rtol > 0.0:
        raise ParameterError(f"rtol must be positive, got {rtol}")
    if not atol >= 0.0:
        raise ParameterError(f"atol must be non-negative, got {atol}")
    if not 0.0 < T < math.inf:
        raise ParameterError(f"anneal time must be positive and finite, got {T}")
    grown, step, reason = T / _FIRST_STEP, _FIRST_STEP, "the first attempt"
    while True:
        if not grown <= _MAX_STEPS:         # also when inf or NaN
            raise IntegrationAbort(
                f"{reason} asks for {grown:.3g} steps, beyond the cap of "
                f"{_MAX_STEPS}", t=T, step=step)
        n = _even(grown)
        fine = propagator(chain, T, n)
        coarse = propagator(chain, T, n // 2)
        allowed = atol + rtol * np.maximum(np.abs(fine), np.abs(coarse))
        with np.errstate(over="ignore"):    # an overflow reads as inf
            scaled = (fine - coarse) / 15.0 / np.maximum(allowed, _TINY)
            ratio = float(np.sqrt(np.mean(scaled * scaled))) / n
        if ratio <= 1.0:
            return Propagation(fine, coarse, n, ratio)
        grown, step = 1.1 * n * ratio ** 0.2, T / n
        reason = (f"a Richardson error {ratio:.3g} times its allowance "
                  f"at {n} steps")


def _even(x: float) -> int:
    return max(2, 2 * math.ceil(x / 2.0))


def orthogonality_defect(S: np.ndarray) -> float:
    """max |R R^T - 1|; zero for an exact propagator."""
    return float(np.abs(S.T @ S - np.eye(S.shape[0])).max())


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
