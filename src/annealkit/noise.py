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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .seeds import stream


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
    seed_key: tuple = ()
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

    def eval_many(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        arg = np.outer(times, self.omega) - self.phase
        return (np.cos(arg) @ self.amp) / np.sqrt(self.n_modes)


def sample_signal(spec: NoiseSpectrum, seed) -> NoiseSignal:
    """Draw a signal realization; reproducible from the seed.

    `seed` is either an int or a tuple (master_seed, *key) naming a
    derived stream.
    """
    if isinstance(seed, tuple):
        rng = stream(*seed)
        key = seed
    else:
        rng = stream(int(seed))
        key = (int(seed),)
    n = spec.n_modes
    omega = rng.gamma(shape=1.0 - spec.p, scale=spec.omega0, size=n)
    # gamma sampling with shape < 1 is exact (rejection-based, no tail cut);
    # guard only against denormal underflow to exactly 0
    while np.any(omega == 0.0):
        bad = omega == 0.0
        omega[bad] = rng.gamma(shape=1.0 - spec.p, scale=spec.omega0, size=int(bad.sum()))
    x = rng.standard_normal(n)
    p = rng.standard_normal(n)
    return NoiseSignal(omega=omega, x=x, p=p, spectrum=spec, seed_key=key)


def autocorrelation_exact(spec: NoiseSpectrum, tau: float) -> float:
    """Infinite-mode autocorrelation C(tau) = Re[(1 - i omega0 tau)^(-(1-p))]."""
    return float(np.real((1.0 - 1j * spec.omega0 * tau) ** (-(1.0 - spec.p))))


class SignalBank:
    """Stacked evaluation of many signals at a common time.

    Used in the evolution hot loop: one call returns eta_i(t) for every
    site.  Sites without a signal evaluate to 0.
    """

    def __init__(self, signals, size: int):
        self.size = size
        self.active = [i for i, s in enumerate(signals) if s is not None]
        sigs = [signals[i] for i in self.active]
        if sigs:
            n_modes = {s.n_modes for s in sigs}
            if len(n_modes) != 1:
                raise ParameterError("all signals in a bank must share n_modes")
            self._omega = np.stack([s.omega for s in sigs])
            self._amp = np.stack([s.amp for s in sigs])
            self._phase = np.stack([s.phase for s in sigs])
            self._norm = 1.0 / np.sqrt(self._omega.shape[1])
            self._buf = np.empty_like(self._omega)
        else:
            self._omega = None
        self._out = np.zeros(size)

    def eval_at(self, t: float) -> np.ndarray:
        """eta_i(t) for i = 0..size-1 (zeros where no signal is attached)."""
        if self._omega is None:
            return self._out
        buf = self._buf
        np.multiply(self._omega, t, out=buf)
        np.subtract(buf, self._phase, out=buf)
        np.cos(buf, out=buf)
        np.multiply(buf, self._amp, out=buf)
        self._out[self.active] = buf.sum(axis=1)
        self._out[self.active] *= self._norm
        return self._out
