"""Stochastic single-qubit evolution under noise, purity, coherence time.

One qubit with Hamiltonian h_z * sigma_z + lambda * eta(t) * sigma_x is
prepared in the sigma_z = +1 state; the realization-averaged density
matrix gives the purity curve Tr[rho(t)^2], which decays from 1 toward
1/2.  The coherence time is the first crossing of 3/4.

Engine: the realizations are propagated together, on arrays of shape
(realizations, n_modes) in cache-sized chunks, by a fourth-order Magnus
step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) with n
substeps per dt_out.  For a substep of length h and midpoint t_m the
noise enters through two exact moments of lambda * eta, one mode at a
time:

    D0 = lambda/sqrt(N) sum_k a_k h sinc(w_k h/2) cos(w_k t_m - phi_k)
    E1 = -lambda/sqrt(N) sum_k a_k (h/2) q(w_k h/2) sin(w_k t_m - phi_k)

with q(x) = (sin x / x - cos x) / x.  The step exponent is
Omega = -i [h h_z sigma_z + D0 sigma_x - 2 h h_z E1 sigma_y], applied as
the exact 2x2 exponential.  At h_z = 0 each step is an exact rotation, so
the closed form psi = cos(Phi)|up> - i sin(Phi)|down>, Phi = lambda * int
eta, is reproduced to rounding.  The moments come from
`noise.PhasorMoments`, read min(n, noise.BLOCK) substeps at a time, with
the shift e^{i w h/2} from a substep's start to its midpoint folded into
the weights.

`rtol` bounds the estimated purity error.  One pass gives the curves P_n
and P_{n/2} for n and n/2 substeps per dt_out (a coarse step uses the
moments of two fine ones), and P_n is accepted once the Richardson
estimate max|P_n - P_{n/2}| / 15 is at most rtol.  Otherwise n grows by
the factor the n^-4 error law asks for, at least 2; beyond
_MAX_SUBSTEPS substeps per dt_out the run aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, IntegrationAbort, ParameterError
from .noise import (BLOCK, NoiseSpectrum, PhasorMoments,
                    first_moment_weights, interval_weights, sample_signal)

QUBIT_STREAM_TAG = "qubit"
ENGINE = f"magnus4-block{BLOCK}"
_MAX_SUBSTEPS = 1024    # per dt_out
_CHUNK_ELEMENTS = 1 << 16


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


def _step(up, down, a_x, a_y, a_z):
    """(up, down) after exp(-i (a_x sigma_x + a_y sigma_y + a_z sigma_z))."""
    if a_z == 0.0:      # h_z = 0, so a_y = 0: a rotation about x
        c, s = np.cos(a_x), -1j * np.sin(a_x)
        return c * up + s * down, s * up + c * down
    r = np.sqrt(a_x * a_x + a_y * a_y + a_z * a_z)
    f = np.sin(r) / r
    # [[alpha, -beta*], [beta, alpha*]]
    alpha = np.cos(r) - 1j * (f * a_z)
    beta = f * (a_y - 1j * a_x)
    return alpha * up - beta.conj() * down, beta * up + alpha.conj() * down


def _propagate(run: QubitRun, omega, amp, phase, n_out: int, n: int,
               progress=None) -> np.ndarray:
    """Density matrices (2, n_out, 2, 2) from n Magnus substeps per dt_out
    and, from the same moments, from n/2.

    Realizations run in chunks of about _CHUNK_ELEMENTS mode entries, so
    the phase arrays stay in cache; each chunk runs the whole time grid.
    `progress`, if given, is called as progress(n, chunks_done, chunks)
    after each chunk.
    """
    n_real, n_modes = omega.shape
    h = run.dt_out / n
    scale = run.spectrum.coupling / np.sqrt(n_modes)
    a_z = h * run.h_z
    rows = max(1, _CHUNK_ELEMENTS // n_modes)
    per_read = min(n, BLOCK)    # divides n, a power of two
    rho = np.zeros((2, n_out, 2, 2), dtype=complex)
    chunks = range(0, n_real, rows)
    for done, lo in enumerate(chunks, 1):
        om, am, ph = (a[lo:lo + rows] for a in (omega, amp, phase))
        # a_x and a_y = -2 h h_z E1 as integrals of the kernel: substep j
        # is centred on (j + 1/2) h
        shift = np.exp(0.5j * h * om)
        weights = [shift * interval_weights(om, am, scale, h)]
        if a_z:
            weights.append(-1j * shift * first_moment_weights(
                om, am, scale * h * h * run.h_z, h))
        kernel = PhasorMoments(om, ph, h, weights)
        # psi over (fine/coarse, time, component, realization)
        psi = np.zeros((2, n_out, 2, om.shape[0]), dtype=complex)
        psi[:, 0, 0] = 1.0
        up, down = psi[0, 0]
        up_c, down_c = psi[1, 0]
        a_y = 0.0
        for k in range(1, n_out):
            for i in range(n):
                if i % per_read == 0:
                    moments = kernel.integrals(per_read)
                a_x = moments[:, i % per_read, 0]
                if a_z:
                    a_y = moments[:, i % per_read, 1]
                up, down = _step(up, down, a_x, a_y, a_z)
                if i % 2 == 0:
                    first_x, first_y = a_x, a_y
                    continue
                # the coarse step spans this substep and the one before
                up_c, down_c = _step(
                    up_c, down_c, first_x + a_x,
                    first_y + a_y + a_z * (first_x - a_x), 2 * a_z)
            psi[:, k] = ((up, down), (up_c, down_c))
        rho += (psi[:, :, :, None] * psi[:, :, None, :].conj()).sum(axis=-1)
        if progress is not None:
            progress(n, done, len(chunks))
    return rho / n_real


def _purity(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...tij,...tji->...t", rho, rho).real


def evolve_qubit(run: QubitRun, progress=None) -> PurityCurve:
    """Realization-averaged density matrix and its purity on a fixed grid.

    `progress`, if given, is called as progress(substeps, chunks_done,
    chunks) after each realization chunk of each pass.
    """
    n_out = int(np.floor(run.t_max / run.dt_out + 1e-9)) + 1
    times = np.arange(n_out) * run.dt_out
    signals = [sample_signal(run.spectrum,
                             (run.master_seed, QUBIT_STREAM_TAG, r))
               for r in range(run.n_realizations)]
    modes = [np.stack([getattr(s, name) for s in signals])
             for name in ("omega", "amp", "phase")]

    n = 2
    while True:
        rho, rho_coarse = _propagate(run, *modes, n_out, n, progress)
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
