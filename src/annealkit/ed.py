"""Brute-force reference for small chains: dense 2^L Hilbert space.

Used to validate the free-fermion route on identical schedules and
identical noise realizations.  Basis convention: site 0 is the
least-significant bit of the basis index; a cleared bit is spin up
(sigma^z = +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import DOP853

from .errors import CapacityError, IntegrationAbort, ParameterError
from .fermion import ChainSpec

MAX_SITES = 12


@dataclass
class DenseState:
    """Normalized state vector over the 2^L spin basis."""

    amplitudes: np.ndarray
    size: int

    def __post_init__(self):
        if self.amplitudes.shape != (2 ** self.size,):
            raise ParameterError("amplitude vector length must be 2^L")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ParameterError(f"state not normalized: |psi| = {norm}")


class ClassicalStats(NamedTuple):
    energy: float      # <H_class> = -sum <sigma^z_i sigma^z_{i+1}>
    deficit: float     # <L - |sum_i sigma^z_i|>


def _check_capacity(L: int):
    if L > MAX_SITES:
        raise CapacityError(f"dense oracle supports L <= {MAX_SITES}, got {L}")


def _spin_values(L: int) -> np.ndarray:
    """z[i, n] = sigma^z of site i in basis state n."""
    n = np.arange(2 ** L)
    bits = (n[None, :] >> np.arange(L)[:, None]) & 1
    return 1.0 - 2.0 * bits


def _bond_diagonal(L: int) -> np.ndarray:
    """sum_i z_i z_{i+1} for every basis state."""
    z = _spin_values(L)
    return np.sum(z[:-1] * z[1:], axis=0)


def build_hamiltonian(chain: ChainSpec, s: float, t: float = 0.0) -> np.ndarray:
    """Dense spin Hamiltonian -J(s) sum zz - sum Gamma_i(s,t) x_i."""
    L = chain.size
    _check_capacity(L)
    dim = 2 ** L
    j = chain.bond_coupling(s)
    gam = chain.field_per_site(s, t)
    H = np.zeros((dim, dim))
    idx = np.arange(dim)
    H[idx, idx] = -j * _bond_diagonal(L)
    for i in range(L):
        H[idx, idx ^ (1 << i)] -= gam[i]
    return H


def ground_state_exact(chain: ChainSpec, s: float, t: float = 0.0) -> DenseState:
    H = build_hamiltonian(chain, s, t)
    _, vecs = np.linalg.eigh(H)
    return DenseState(amplitudes=vecs[:, 0].astype(complex), size=chain.size)


def spectrum_exact(chain: ChainSpec, s: float, t: float = 0.0) -> np.ndarray:
    return np.linalg.eigvalsh(build_hamiltonian(chain, s, t))


def _integrate(rhs: Callable, y0: np.ndarray, t0: float, t1: float,
               rtol: float, atol: float) -> np.ndarray:
    """DOP853 from t0 to t1: the oracle's integrator and the test reference."""
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


def evolve_exact(initial: DenseState, chain: ChainSpec, T: float,
                 rtol: float = 1e-10, atol: float = 1e-12) -> DenseState:
    """Adaptive full-Hilbert-space integration of the same schedule."""
    L = chain.size
    _check_capacity(L)
    dim = 2 ** L
    bond_diag = _bond_diagonal(L)
    flips = [np.arange(dim) ^ (1 << i) for i in range(L)]

    def rhs(t, psi):
        s = t / T
        j = chain.bond_coupling(s)
        gam = chain.field_per_site(s, t)
        h_psi = -j * bond_diag * psi
        for i in range(L):
            h_psi -= gam[i] * psi[flips[i]]
        return -1j * h_psi

    psi = _integrate(rhs, initial.amplitudes.astype(complex), 0.0, T,
                     rtol, atol)
    psi = psi / np.linalg.norm(psi)
    return DenseState(amplitudes=psi, size=L)


def anneal_exact(chain: ChainSpec, T: float, rtol: float = 1e-10,
                 atol: float = 1e-12) -> DenseState:
    """Ground state at t=0, then the full annealing evolution to t=T."""
    start = ground_state_exact(chain, s=0.0, t=0.0)
    return evolve_exact(start, chain, T, rtol=rtol, atol=atol)


def classical_stats(state: DenseState) -> ClassicalStats:
    """Ising energy and magnetization deficit over the z-basis distribution."""
    L = state.size
    prob = np.abs(state.amplitudes) ** 2
    energy = float(np.sum(prob * (-_bond_diagonal(L))))
    total_z = np.sum(_spin_values(L), axis=0)
    deficit = float(np.sum(prob * (L - np.abs(total_z))))
    return ClassicalStats(energy=energy, deficit=deficit)


def residual_energy_exact(state: DenseState) -> float:
    """<H_class> minus the ordered ground-state energy -(L-1)."""
    return classical_stats(state).energy + (state.size - 1)
