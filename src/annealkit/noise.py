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
Re sum_modes w e^{i(w j h - phi)}.  `PhasorMoments` stores the phasor at
every stride-th step only, advancing it by e^{i w stride h} and
recomputing it exactly every REANCHOR stored phasors, so rounding cannot
drift; the shifts e^{i w r h} to the steps r < stride in between are
folded into the weights once per kernel, as powers of e^{i w h}.
`PhasorMoments.integrals` writes up to BLOCK stored phasors into a table,
one complex multiply per entry, and contracts the table's real view with
the real weight matrix [Re w e^{i w r h}; -Im w e^{i w r h}], 2 modes by
stride k, in one matrix product per row, giving up to BLOCK stride steps.

The chain runs at stride 1: it reads one block of BLOCK steps at a time,
and at that read size stride 8 read 1.4-1.5x slower on the L=32
all-sites shape (128 rows x 100 modes x 7 weights, one BLAS thread),
with a weight matrix 8 times larger (11.5 MB) and about 10 times slower
to build.  The qubit reads BLOCK BLOCK = 64 substeps at stride BLOCK: an
eighth of the phasor multiplies, and a product 8 times wider than the
stride-1 one, which has only 1 or 2 columns for 2,000 inner terms.

That product is the engines' only BLAS call.  Its bytes do not depend on
the BLAS thread count, because OpenBLAS splits a product over its rows
and columns, never over the inner sum over modes, and they do not depend
on the other rows, because each row is its own product of a fixed shape.
They do depend on the number of steps read at once and on the stride,
through the kernels the library picks for the shape and the weights the
shifts give, so BLOCK and each engine's stride are constants and the
engines read fixed step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .seeds import stream

REANCHOR = 64       # stored phasors between exact evaluations
BLOCK = 8           # most stored phasors per read


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
    Re sum_modes weights[k] e^{i(w j h - phi)}.  The phasor is stored at
    every `stride`-th step, advanced by e^{i w stride h} and evaluated
    exactly at every REANCHOR-th stored phasor; the shifts e^{i w r h},
    r < stride, to the steps in between are folded into the weights.
    """

    def __init__(self, omega, phase, h: float, weights, stride: int = 1):
        self.omega = omega
        self.phase = phase
        self.h = h
        self.stride = stride
        advance = np.exp(1j * h * omega)
        # [Re w; -Im w] against the real view (re, im per mode) of a row's
        # phasors, column r k + k' for integral k' of the step r past a
        # stored phasor, whose weights are w e^{i w h}^r
        rows, modes = np.shape(omega)
        matrix = np.empty((rows, modes, 2, stride, len(weights)))
        for r in range(stride):
            if r:
                weights = [w * advance for w in weights]
            for k, w in enumerate(weights):
                matrix[..., 0, r, k] = w.real
                matrix[..., 1, r, k] = -w.imag
        self.weights = matrix.reshape(rows, 2 * modes, -1)
        self.advance = advance if stride == 1 else np.exp(
            1j * (stride * h) * omega)
        self.table = np.empty((BLOCK,) + np.shape(omega), dtype=complex)
        self.last = 0       # the table entry holding the stored phasor before
        self.step = 0

    def restart(self) -> None:
        """Read from step 0 again, as a new kernel would: that read
        evaluates its first phasor exactly."""
        self.last = self.step = 0

    def integrals(self, steps: int) -> np.ndarray:
        """The integrals of the next `steps` steps, shape (rows, steps, k):
        1 <= steps <= BLOCK stride, from a stored phasor on."""
        stride = self.stride
        if not 1 <= steps <= BLOCK * stride:
            raise ParameterError(
                f"a read takes 1 to {BLOCK * stride} steps, got {steps}")
        if self.step % stride:
            raise ParameterError(
                f"a read must start at a stored phasor, every {stride} "
                f"steps; step {self.step} is not one")
        table = self.table[:-(-steps // stride)]
        last = self.table[self.last]
        for g, out in enumerate(table, self.step // stride):
            if g % REANCHOR:
                np.multiply(last, self.advance, out=out)
            else:
                arg = g * stride * self.h * self.omega - self.phase
                np.cos(arg, out=out.real)
                np.sin(arg, out=out.imag)
            last = out
        self.last = len(table) - 1
        self.step += steps
        moments = np.matmul(table.view(float).transpose(1, 0, 2),
                            self.weights)
        # (rows, stored, stride k) -> (rows, steps, k)
        return moments.reshape(len(moments), len(table) * stride,
                               -1)[:, :steps]
