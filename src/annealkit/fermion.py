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
are the quasiparticle annihilators.  Time evolution integrates

    i d/dt [U; V] = [[A, B], [-B, -A]] [U; V]

which in the half-sum variables phi = U + V, psi = U - V decouples into
two bidiagonal products,

    i dphi/dt = (A - B) psi,     i dpsi/dt = (A + B) phi,

the form actually used in the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import DOP853

from .errors import IntegrationAbort, ParameterError
from .noise import NoiseSignal, SignalBank


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


class _Rhs:
    """Hot-loop right-hand side in the (phi, psi) = (U+V, U-V) variables."""

    def __init__(self, chain: ChainSpec, T: float):
        self.L = chain.size
        self.T = T
        self.bond = chain.bond_coupling
        self.base = chain.base_field
        self.coupling = chain.coupling
        self.bank = SignalBank(chain.signals or [None] * chain.size, chain.size)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        L = self.L
        s = t / self.T
        j2 = 2.0 * self.bond(s)
        # a bank without signals evaluates to zeros, so base + 0.0 = base
        g2 = 2.0 * (self.base(s) + self.coupling * self.bank.eval_at(t))
        w = y.reshape(2 * L, L)
        phi, psi = w[:L], w[L:]
        out = np.empty_like(w)
        dphi, dpsi = out[:L], out[L:]
        # (A - B) psi: diagonal 2*Gamma, subdiagonal -2J
        np.multiply(psi, g2[:, None], out=dphi)
        dphi[1:] -= j2 * psi[:-1]
        # (A + B) phi: diagonal 2*Gamma, superdiagonal -2J
        np.multiply(phi, g2[:, None], out=dpsi)
        dpsi[:-1] -= j2 * phi[1:]
        out *= -1j
        return out.ravel()


def _integrate(rhs: Callable, y0: np.ndarray, t0: float, t1: float,
               rtol: float, atol: float) -> np.ndarray:
    """DOP853 from t0 to t1; the chain and the dense oracle both use it."""
    stepper = DOP853(rhs, t0, y0, t_bound=t1, rtol=rtol, atol=atol)
    while stepper.status == "running":
        stepper.step()
    # the solver's `fun` closures refer back to it: cut them so its stage
    # arrays are freed on return, not at the next full cyclic collection
    stepper.fun = stepper.fun_vectorized = None
    if stepper.status != "finished":
        raise IntegrationAbort("evolution stalled", t=stepper.t,
                               step=float(getattr(stepper, "h_abs", np.nan)))
    return stepper.y


def _pack(modes: BdgModes) -> np.ndarray:
    phi = modes.U + modes.V
    psi = modes.U - modes.V
    return np.concatenate([phi, psi]).astype(complex).ravel()


def _unpack(y: np.ndarray, L: int) -> BdgModes:
    w = y.reshape(2 * L, L)
    return BdgModes(U=0.5 * (w[:L] + w[L:]), V=0.5 * (w[:L] - w[L:]))


def evolve(modes: BdgModes, chain: ChainSpec, T: float,
           rtol: float = 1e-8, atol: float = 1e-10) -> BdgModes:
    """Integrate the mode matrices from t=0 to t=T along the schedule."""
    rhs = _Rhs(chain, T)
    y = _integrate(rhs, _pack(modes), 0.0, T, rtol, atol)
    return _unpack(y, chain.size)


def evolve_checkpointed(modes: BdgModes, chain: ChainSpec, T: float,
                        times: Sequence[float], rtol: float = 1e-8,
                        atol: float = 1e-10):
    """Like evolve but returns [(t, BdgModes)] at the requested times."""
    rhs = _Rhs(chain, T)
    y = _pack(modes)
    t_prev = 0.0
    out = []
    for t in times:
        if t < t_prev or t > T:
            raise ParameterError("checkpoint times must be sorted within [0, T]")
        if t > t_prev:
            y = _integrate(rhs, y, t_prev, t, rtol, atol)
            t_prev = t
        out.append((t, _unpack(y, chain.size)))
    return out


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
    bond = 2.0 * np.real(G[i, i + 1]) + 2.0 * np.real(F[i + 1, i])
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
