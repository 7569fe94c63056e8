"""Stochastic single-qubit evolution under noise, purity, coherence time.

One qubit with Hamiltonian h_z * sigma_z + lambda * eta(t) * sigma_x is
prepared in the sigma_z = +1 state; the realization-averaged density
matrix gives the purity curve Tr[rho(t)^2], which decays from 1 toward
1/2.  The coherence time is the first crossing of 3/4.

Engine: the realizations are propagated together, on arrays of shape
(realizations, n_modes), by a fourth-order Magnus step (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)) with n substeps per dt_out.  For
a substep of length h and midpoint t_m the noise enters through two exact
moments of lambda * eta, one mode at a time:

    D0 = lambda/sqrt(N) sum_k a_k h sinc(w_k h/2) cos(w_k t_m - phi_k)
    E1 = -lambda/sqrt(N) sum_k a_k (h/2) q(w_k h/2) sin(w_k t_m - phi_k)

with q(x) = (sin x / x - cos x) / x.  The step exponent is
Omega = -i [h h_z sigma_z + D0 sigma_x - 2 h h_z E1 sigma_y], applied as
the exact 2x2 exponential [[alpha, -beta*], [beta, alpha*]].  At h_z = 0
each step is an exact rotation about x, so the closed form
psi = cos(Phi)|up> - i sin(Phi)|down>, Phi = lambda * int eta, is
reproduced to rounding.  The moments come from `noise.PhasorMoments`,
with the shift e^{i w h/2} from a substep's start to its midpoint folded
into the weights.

The substeps are composed as arrays, one output interval at a time.  A
chunk of realizations runs the time grid in segments of _SEGMENT output
intervals.  For each segment it reads the moments _READ = BLOCK^2 = 64
substeps at a time, across dt_out boundaries, from a kernel that stores
one phasor every BLOCK substeps (_SEGMENT n is a multiple of _READ, so
only a chunk's last read is short); builds every fine and coarse
substep's (alpha, beta) with one set of array operations; multiplies the
n substeps of each dt_out pairwise in time order; and advances psi once
per dt_out.  Memory grows with n but not with t_max.  With no Python
left per substep, a chunk is sized for the cache, not to amortize calls:
_CHUNK_ELEMENTS = 8,192 mode entries, 8 rows of 1,000 modes, timed at
1,000 realizations among 4 to 64 rows (4 to 32 within the spread of
repeated runs, 64 slower).  The stride folds the shifts from a stored
phasor to the 7 substeps after it into the moments' weights, so the
purity moved in the last bits against the stride-1 reads of 8 substeps
of `magnus4-block8-composed`; the chain's kernel stays at stride 1 and
kept its bytes.

`rtol` bounds the estimated purity error.  One pass gives the curves P_n
and P_{n/2} for n and n/2 substeps per dt_out (a coarse step uses the
moments of two fine ones), and P_n is accepted once the Richardson
estimate max|P_n - P_{n/2}| / 15 is at most rtol.  Otherwise n grows by
the factor the n^-4 error law asks for, at least 2; beyond
_MAX_SUBSTEPS substeps per dt_out the run aborts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, IntegrationAbort, ParameterError
from .noise import (BLOCK, NoiseSpectrum, PhasorMoments,
                    first_moment_weights, interval_weights, sample_signal)

QUBIT_STREAM_TAG = "qubit"
_MAX_SUBSTEPS = 1024    # per dt_out
_CHUNK_ELEMENTS = 1 << 13
_SEGMENT = 64           # output intervals per segment
_READ = BLOCK * BLOCK   # substeps per read of the moments, stride BLOCK
ENGINE = f"magnus4-stride{BLOCK}-read{_READ}"


@dataclass(frozen=True)
class QubitRun:
    h_z: float = 0.0
    spectrum: NoiseSpectrum = field(default_factory=NoiseSpectrum)
    t_max: float = 150.0
    dt_out: float = 0.5
    n_realizations: int = 1000
    master_seed: int = 1
    rtol: float = 1e-10

    def __post_init__(self):
        if self.t_max <= 0.0:
            raise ParameterError("t_max must be positive")
        if self.n_realizations < 1:
            raise ParameterError("n_realizations must be >= 1")
        if not (0.0 < self.dt_out <= self.t_max):
            raise ParameterError("dt_out must lie in (0, t_max]")
        if not self.rtol > 0.0:
            raise ParameterError("rtol must be positive")


@dataclass
class PurityCurve:
    times: np.ndarray
    purity: np.ndarray
    run: QubitRun
    trace_defect: float = 0.0
    hermiticity_defect: float = 0.0
    min_eigenvalue: float = 0.0
    substeps: int = 0               # Magnus substeps per dt_out
    error_estimate: float = 0.0     # Richardson estimate of the purity error


def _chunk_rows(n_modes: int) -> int:
    """Realizations per chunk: about _CHUNK_ELEMENTS mode entries."""
    return max(1, _CHUNK_ELEMENTS // n_modes)


def _su2(a_x, a_y=None, a_z=None):
    """(alpha, beta) of exp(-i (a_x sigma_x + a_y sigma_y + a_z sigma_z)) =
    [[alpha, -beta*], [beta, alpha*]], elementwise.  Without a_y and a_z
    it is a rotation about x, taken exactly."""
    if a_y is None:
        return np.cos(a_x), -1j * np.sin(a_x)
    r = np.sqrt(a_x * a_x + a_y * a_y + a_z * a_z)
    f = np.sin(r) / r
    return np.cos(r) - 1j * (f * a_z), f * (a_y - 1j * a_x)


def _compose(alpha, beta):
    """Products of adjacent pairs along the last axis, the later one on the
    left: U(1::2) U(0::2)."""
    a1, a2 = alpha[..., 0::2], alpha[..., 1::2]
    b1, b2 = beta[..., 0::2], beta[..., 1::2]
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


def _propagate(run: QubitRun, omega, amp, phase, n_out: int,
               n: int) -> np.ndarray:
    """Density matrices (2, n_out, 2, 2) from n Magnus substeps per dt_out
    and, from the same moments, from n/2.

    Realizations run in chunks of _chunk_rows rows, so the phase arrays
    stay in cache; each chunk runs the whole time grid, _SEGMENT output
    intervals at a time.
    """
    n_real, n_modes = omega.shape
    h = run.dt_out / n
    scale = run.spectrum.coupling / np.sqrt(n_modes)
    a_z = h * run.h_z
    rows = _chunk_rows(n_modes)
    rho = np.zeros((2, n_out, 2, 2), dtype=complex)
    for lo in range(0, n_real, rows):
        om, am, ph = (a[lo:lo + rows] for a in (omega, amp, phase))
        # a_x and a_y = -2 h h_z E1 as integrals of the kernel: substep j
        # is centred on (j + 1/2) h
        shift = np.exp(0.5j * h * om)
        weights = [shift * interval_weights(om, am, scale, h)]
        if a_z:
            weights.append(-1j * shift * first_moment_weights(
                om, am, scale * h * h * run.h_z, h))
        kernel = PhasorMoments(om, ph, h, weights, stride=BLOCK)
        # (component, fine/coarse, realization)
        state = np.zeros((2, 2, om.shape[0]), dtype=complex)
        state[0] = 1.0
        for start in range(1, n_out, _SEGMENT):
            stop = min(start + _SEGMENT, n_out)
            m = (stop - start) * n
            # whole reads across dt_out boundaries: _SEGMENT n is a
            # multiple of _READ, so only a chunk's last read can be short
            moments = np.concatenate(
                [kernel.integrals(min(_READ, m - j))
                 for j in range(0, m, _READ)], axis=1)
            # the m fine substeps, then the m/2 coarse ones; coarse
            # substep i spans fine substeps 2i and 2i + 1
            a_x = moments[..., 0]
            x0, x1 = a_x[:, 0::2], a_x[:, 1::2]
            angles = [np.concatenate([a_x, x0 + x1], axis=1)]
            if a_z:
                a_y = moments[..., 1]
                y0, y1 = a_y[:, 0::2], a_y[:, 1::2]
                angles += [np.concatenate([a_y, y0 + y1 + a_z * (x0 - x1)],
                                          axis=1),
                           np.repeat([a_z, 2 * a_z], [m, m // 2])]
            alpha, beta = _su2(*angles)
            # the fine pairs, then fine and coarse together: n/2 factors
            # per dt_out each
            fine = _compose(alpha[:, :m], beta[:, :m])
            alpha, beta = (
                np.stack([f, c[:, m:]]).reshape(2, -1, stop - start, n // 2)
                for f, c in zip(fine, (alpha, beta)))
            while alpha.shape[-1] > 1:
                alpha, beta = _compose(alpha, beta)
            # u[k, i, j] = [[alpha, -beta*], [beta, alpha*]] of interval k,
            # over (fine/coarse, realization)
            alpha, beta = (a[..., 0].transpose(2, 0, 1) for a in (alpha, beta))
            u = np.stack([alpha, -beta.conj(), beta, alpha.conj()], axis=1)
            u = u.reshape((-1, 2, 2) + alpha.shape[1:])
            # psi over (time, component, fine/coarse, realization)
            psi = np.empty_like(u[:, 0])
            for k in range(stop - start):
                terms = u[k] * state
                state = psi[k]
                np.add(terms[:, 0], terms[:, 1], out=state)
            rho[:, start:stop] += np.einsum("tirw,tjrw->rtij", psi,
                                            psi.conj())
    rho /= n_real
    rho[:, 0, 0, 0] = 1.0
    return rho


def _purity(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...tij,...tji->...t", rho, rho).real


def evolve_qubit(run: QubitRun, progress=None) -> PurityCurve:
    """Realization-averaged density matrix and its purity on a fixed grid.

    `progress`, if given, is called as progress(substeps, chunks, wall_s)
    after each pass over all realization chunks.
    """
    n_out = int(np.floor(run.t_max / run.dt_out + 1e-9)) + 1
    times = np.arange(n_out) * run.dt_out
    signals = [sample_signal(run.spectrum,
                             (run.master_seed, QUBIT_STREAM_TAG, r))
               for r in range(run.n_realizations)]
    modes = [np.stack([getattr(s, name) for s in signals])
             for name in ("omega", "amp", "phase")]

    chunks = -(-run.n_realizations // _chunk_rows(run.spectrum.n_modes))
    n = 2
    while True:
        start = time.perf_counter()
        rho, rho_coarse = _propagate(run, *modes, n_out, n)
        if progress is not None:
            progress(n, chunks, time.perf_counter() - start)
        fine, coarse = _purity(rho), _purity(rho_coarse)
        estimate = float(np.abs(fine - coarse).max()) / 15.0
        if estimate <= run.rtol:
            break
        # the error falls as n^-4: jump to the n expected to meet rtol
        growth = np.ceil(np.log2(estimate / run.rtol) / 4)
        if not n * 2.0 ** growth <= _MAX_SUBSTEPS:     # also when NaN
            raise IntegrationAbort(
                f"purity error estimate {estimate:.3g} above rtol "
                f"{run.rtol:g} at {n} substeps per dt_out",
                t=float(times[-1]), step=run.dt_out / n)
        n *= 2 ** int(growth)

    trace_defect = float(np.abs(np.einsum("tii->t", rho) - 1.0).max())
    herm_defect = float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max())
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().transpose(0, 2, 1)))
    return PurityCurve(times=times, purity=fine, run=run,
                       trace_defect=trace_defect,
                       hermiticity_defect=herm_defect,
                       min_eigenvalue=float(eigs.min()),
                       substeps=n, error_estimate=estimate)


def coherence_time(curve: PurityCurve, threshold: float = 0.75) -> float:
    """First downward crossing of the threshold, linearly interpolated."""
    p = curve.purity
    t = curve.times
    below = np.nonzero(p < threshold)[0]
    if below.size == 0:
        raise HorizonError("purity never crossed the threshold; extend t_max",
                           final_purity=float(p[-1]))
    k = int(below[0])
    if k == 0:
        return float(t[0])
    frac = (p[k - 1] - threshold) / (p[k - 1] - p[k])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))
