"""Stationary Gaussian noise with a power-law / exponential-cutoff spectrum.

A signal is a finite sum of harmonic modes,

    eta(t) = (1/sqrt(N_m)) * sum_i [ x_i cos(w_i t) + p_i sin(w_i t) ],

with x_i, p_i standard normal and the frequencies w_i drawn from the
gamma distribution with shape (1 - p) and scale omega0, whose density is

    S(w) = (w/omega0)^(-p) exp(-w/omega0) / (omega0 * Gamma(1 - p)).

The marginal variance of eta(t) is 1 at every t, and the ensemble
autocorrelation <eta(t) eta(t+tau)> equals the real part of the gamma
characteristic function, Re[(1 - i*omega0*tau)^(-(1-p))], in the limit of
many modes.  Signals are immutable and evaluated exactly at any requested
time; nothing is cached on a grid.

The evolution engines never sample a signal.  They take exact integrals
of lambda * eta over the sub-intervals of each step from `PhasorMoments`:
over an interval of signed length d centred on t_c,

    int amp cos(w t - phi) dt = Re[ amp d sinc(w d/2) e^{i(w t_c - phi)} ],

so with complex weights computed once per run (`interval_weights`, and
`first_moment_weights` for the first moment, times the shift e^{i w c}
from a step's start to the centre c) every integral of step j is
Re sum_modes w e^{i(w j h - phi)}.  The phasors advance by e^{i w h} per
step and are recomputed exactly every REANCHOR steps, so rounding cannot
drift.  `PhasorMoments.integrals` writes the phasors of up to BLOCK steps
into a table, one complex multiply per entry, and contracts the table's
real view with the real weight matrix [Re w; -Im w] in one matrix
product per row.

That product is the engines' only BLAS call.  Its bytes do not depend on
the BLAS thread count, because OpenBLAS splits a product over its rows
and columns, never over the inner sum over modes, and they do not depend
on the other rows, because each row is its own product of a fixed shape.
They do depend on the number of steps read at once, through the kernels
the library picks for the shape, so BLOCK is a constant and the engines
read fixed step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .seeds import stream

REANCHOR = 64       # steps between exact evaluations of the phasors
BLOCK = 8           # most steps per read; divides REANCHOR


@dataclass(frozen=True)
class NoiseSpectrum:
    """Parameters of the mode-frequency distribution and system coupling.

    p:        spectral exponent, 0 < p < 1
    omega0:   cutoff frequency (inverse natural time units), > 0
    coupling: field-coupling strength lambda, >= 0
    n_modes:  number of harmonic modes per signal, >= 1
    """

    p: float = 0.75
    omega0: float = 1.0
    coupling: float = 0.01
    n_modes: int = 1000

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"spectral exponent p must be in (0, 1), got {self.p}")
        if self.omega0 <= 0.0:
            raise ParameterError(f"cutoff omega0 must be positive, got {self.omega0}")
        if self.coupling < 0.0:
            raise ParameterError(f"coupling must be non-negative, got {self.coupling}")
        if int(self.n_modes) < 1:
            raise ParameterError(f"n_modes must be >= 1, got {self.n_modes}")


@dataclass(frozen=True)
class NoiseSignal:
    """One realization of the noise field; immutable and exact at any t."""

    omega: np.ndarray
    x: np.ndarray
    p: np.ndarray
    spectrum: NoiseSpectrum
    # derived amplitude/phase form: x cos(wt) + p sin(wt) = amp cos(wt - phase)
    amp: np.ndarray = field(init=False, repr=False)
    phase: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if omega.ndim != 1 or omega.shape != x.shape or omega.shape != p.shape:
            raise ParameterError("omega, x, p must be 1-d arrays of equal length")
        if np.any(omega <= 0.0):
            raise ParameterError("all mode frequencies must be positive")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "amp", np.hypot(x, p))
        object.__setattr__(self, "phase", np.arctan2(p, x))

    @property
    def n_modes(self) -> int:
        return self.omega.size

    def eval(self, t: float) -> float:
        """Normalized mode sum at time t."""
        return float(np.sum(self.amp * np.cos(self.omega * t - self.phase))) / np.sqrt(self.n_modes)


def sample_signal(spec: NoiseSpectrum, seed) -> NoiseSignal:
    """Draw a signal realization; reproducible from the seed.

    `seed` is either an int or a tuple (master_seed, *key) naming a
    derived stream.
    """
    rng = stream(*seed) if isinstance(seed, tuple) else stream(int(seed))
    n = spec.n_modes
    omega = rng.gamma(shape=1.0 - spec.p, scale=spec.omega0, size=n)
    # gamma sampling with shape < 1 is exact (rejection-based, no tail cut);
    # guard only against denormal underflow to exactly 0
    while np.any(omega == 0.0):
        bad = omega == 0.0
        omega[bad] = rng.gamma(shape=1.0 - spec.p, scale=spec.omega0, size=int(bad.sum()))
    x = rng.standard_normal(n)
    p = rng.standard_normal(n)
    return NoiseSignal(omega=omega, x=x, p=p, spectrum=spec)


def autocorrelation_exact(spec: NoiseSpectrum, tau: float) -> float:
    """Infinite-mode autocorrelation C(tau) = Re[(1 - i omega0 tau)^(-(1-p))]."""
    return float(np.real((1.0 - 1j * spec.omega0 * tau) ** (-(1.0 - spec.p))))


def interval_weights(omega, amp, scale: float, length: float) -> np.ndarray:
    """scale * amp * length * sinc(omega * length / 2), elementwise.

    The real part of the weighted phasor w e^{i(w t_c - phi)} is then the
    exact integral of scale * amp cos(w t - phi) over the interval of
    signed length `length` centred on t_c.
    """
    x = 0.5 * length * omega
    return scale * length * amp * (np.sin(x) / x)


def _q(x: np.ndarray) -> np.ndarray:
    """(sin x / x - cos x) / x, by its series below x = 0.1."""
    out = np.empty_like(x)
    small = x < 0.1
    xs = x[small]
    x2 = xs * xs
    out[small] = xs * (1 / 3 - x2 * (1 / 30 - x2 * (1 / 840 - x2 / 45360)))
    xl = x[~small]
    out[~small] = (np.sin(xl) / xl - np.cos(xl)) / xl
    return out


def first_moment_weights(omega, amp, factor: float, length: float) -> np.ndarray:
    """factor * amp * q(omega * length / 2), q(x) = (sin x / x - cos x) / x.

    Minus the imaginary part of the weighted phasor is then
    2 factor / length^2 times the first moment int (t - t_c) amp
    cos(w t - phi) dt over the interval of length `length` centred on t_c.
    """
    return factor * amp * _q(0.5 * length * omega)


class PhasorMoments:
    """Exact noise integrals of steps j = 0, 1, ... of length h.

    `omega` and `phase` have shape (rows, modes); `weights` is a sequence
    of k complex arrays of that shape.  Integral k of step j is
    Re sum_modes weights[k] e^{i(w j h - phi)}.  The phasors advance by
    e^{i w h} per step and are evaluated exactly at every step j with
    j % REANCHOR == 0.
    """

    def __init__(self, omega, phase, h: float, weights):
        self.omega = omega
        self.phase = phase
        self.h = h
        # [Re w; -Im w] against the real view (re, im per mode) of a row's
        # phasors
        rows, modes = np.shape(omega)
        matrix = np.empty((rows, modes, 2, len(weights)))
        for k, w in enumerate(weights):
            matrix[..., 0, k] = w.real
            matrix[..., 1, k] = -w.imag
        self.weights = matrix.reshape(rows, 2 * modes, -1)
        self.advance = np.exp(1j * h * omega)
        self.table = np.empty((BLOCK,) + np.shape(omega), dtype=complex)
        self.last = 0       # the table entry holding the step before
        self.step = 0

    def integrals(self, steps: int) -> np.ndarray:
        """The integrals of the next `steps` <= BLOCK steps, shape (rows,
        steps, k)."""
        table = self.table[:steps]
        last = self.table[self.last]
        for out in table:
            j = self.step
            self.step += 1
            if j % REANCHOR:
                np.multiply(last, self.advance, out=out)
            else:
                arg = j * self.h * self.omega - self.phase
                np.cos(arg, out=out.real)
                np.sin(arg, out=out.imag)
            last = out
        self.last = steps - 1
        return np.matmul(table.view(float).transpose(1, 0, 2), self.weights)
