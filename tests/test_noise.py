"""Noise synthesis: spectrum sampling, evaluation, exact autocorrelation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

from annealkit.errors import ParameterError
from annealkit.noise import (BLOCK, REANCHOR, NoiseSignal, NoiseSpectrum,
                             PhasorMoments, autocorrelation_exact,
                             first_moment_weights, interval_weights,
                             sample_signal)

SPEC = NoiseSpectrum(p=0.75, omega0=1.0, coupling=0.01, n_modes=1000)


def spectral_density(w, spec=SPEC):
    return (w / spec.omega0) ** (-spec.p) * np.exp(-w / spec.omega0) / (
        spec.omega0 * math.gamma(1.0 - spec.p))


def quadrature_autocorrelation(tau, spec=SPEC):
    """Independent oracle: C(tau) = int S(w) cos(w tau) dw."""
    val, _ = quad(lambda w: spectral_density(w, spec) * np.cos(w * tau),
                  0.0, np.inf, limit=800)
    return val


class TestSpectrumValidation:
    def test_exponent_domain(self):
        with pytest.raises(ParameterError):
            NoiseSpectrum(p=1.0)
        with pytest.raises(ParameterError):
            NoiseSpectrum(p=0.0)
        with pytest.raises(ParameterError):
            NoiseSpectrum(p=-0.3)

    def test_other_domains(self):
        with pytest.raises(ParameterError):
            NoiseSpectrum(omega0=0.0)
        with pytest.raises(ParameterError):
            NoiseSpectrum(coupling=-0.1)
        with pytest.raises(ParameterError):
            NoiseSpectrum(n_modes=0)


class TestSampling:
    def test_mode_frequency_mean(self):
        # gamma mean (1-p)*omega0; cross-checked by quadrature of w * S(w)
        mean_quad, _ = quad(lambda w: w * spectral_density(w), 0.0, np.inf,
                            limit=400)
        assert mean_quad == pytest.approx(0.25, abs=1e-9)
        draws = np.concatenate([sample_signal(SPEC, (42, r)).omega
                                for r in range(100)])
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - mean_quad) < 5 * se

    def test_single_mode_signal(self):
        spec = NoiseSpectrum(n_modes=1)
        sig = sample_signal(spec, 7)
        assert sig.n_modes == 1
        assert sig.eval(0.0) == pytest.approx(sig.x[0], abs=1e-14)

    def test_determinism(self):
        s1 = sample_signal(SPEC, (3, 1, 5))
        s2 = sample_signal(SPEC, (3, 1, 5))
        assert np.array_equal(s1.omega, s2.omega)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.p, s2.p)

    def test_distinct_keys_distinct_streams(self):
        s1 = sample_signal(SPEC, (3, 1, 5))
        s2 = sample_signal(SPEC, (3, 1, 6))
        assert not np.array_equal(s1.omega, s2.omega)

    def test_goodness_of_fit_against_density(self):
        rng_draws = np.concatenate([sample_signal(SPEC, (1111, r)).omega
                                    for r in range(100)])
        assert rng_draws.size == 100_000
        stat = kstest(rng_draws, gamma_dist(a=1.0 - SPEC.p,
                                            scale=SPEC.omega0).cdf)
        assert stat.pvalue > 0.01

    def test_all_frequencies_positive(self):
        sig = sample_signal(SPEC, 0)
        assert np.all(sig.omega > 0)


class TestEval:
    def test_unit_cosine_amplitudes(self):
        n = 64
        sig = NoiseSignal(omega=np.linspace(0.1, 2.0, n), x=np.ones(n),
                          p=np.zeros(n), spectrum=SPEC)
        assert sig.eval(0.0) == pytest.approx(np.sqrt(n), rel=1e-12)

    def test_zero_amplitudes(self):
        n = 16
        sig = NoiseSignal(omega=np.linspace(0.1, 2.0, n), x=np.zeros(n),
                          p=np.zeros(n), spectrum=SPEC)
        for t in (0.0, 0.7, 13.1):
            assert sig.eval(t) == 0.0

    def test_variance_at_zero(self):
        spec = NoiseSpectrum(n_modes=100)
        vals = np.array([sample_signal(spec, (5, r)).eval(0.0)
                         for r in range(10_000)])
        assert vals.var() == pytest.approx(1.0, abs=0.05)

    def test_mean_is_zero(self):
        spec = NoiseSpectrum(n_modes=100)
        t = 2.31
        vals = np.array([sample_signal(spec, (6, r)).eval(t)
                         for r in range(10_000)])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean()) < 5 * se


class TestAutocorrelation:
    def test_zero_lag_is_unit_variance(self):
        assert autocorrelation_exact(SPEC, 0.0) == 1.0

    def test_closed_form_at_unit_lag(self):
        expected = float(np.real((1.0 - 1.0j) ** (-0.25)))
        assert autocorrelation_exact(SPEC, 1.0) == pytest.approx(expected,
                                                                 rel=1e-14)
        assert autocorrelation_exact(SPEC, 1.0) == pytest.approx(
            quadrature_autocorrelation(1.0), abs=1e-8)

    def test_long_lag_decay(self):
        c10 = autocorrelation_exact(SPEC, 10.0)
        c100 = autocorrelation_exact(SPEC, 100.0)
        assert abs(c10) == pytest.approx(abs(quadrature_autocorrelation(10.0)),
                                         abs=1e-6)
        assert abs(c100) < abs(c10) < 1.0
        # magnitude envelope (1 + w0^2 tau^2)^(-(1-p)/2) decreases monotonically
        taus = np.logspace(-1, 3, 40)
        env = (1 + taus ** 2) ** (-(1 - SPEC.p) / 2)
        assert np.all(np.diff(env) < 0)

    def test_empirical_autocorrelation(self):
        spec = NoiseSpectrum(n_modes=64)
        n_seeds = 10_000
        t0 = 0.9
        taus = (0.0, 0.5, 1.0, 5.0)
        ts = np.array([t0] + [t0 + tau for tau in taus])
        prods = np.empty((n_seeds, len(taus)))
        for r in range(n_seeds):
            sig = sample_signal(spec, (77, r))
            vals = np.array([sig.eval(t) for t in ts])
            prods[r] = vals[0] * vals[1:]
        for j, tau in enumerate(taus):
            mean = prods[:, j].mean()
            se = prods[:, j].std() / np.sqrt(n_seeds)
            assert abs(mean - autocorrelation_exact(spec, tau)) < 5 * se, tau

    def test_cross_site_independence(self):
        spec = NoiseSpectrum(n_modes=64)
        t = 1.3
        a = np.array([sample_signal(spec, (88, r, 0)).eval(t)
                      for r in range(10_000)])
        b = np.array([sample_signal(spec, (88, r, 1)).eval(t)
                      for r in range(10_000)])
        prod = a * b
        se = prod.std() / np.sqrt(prod.size)
        assert abs(prod.mean()) < 5 * se

    def test_stationarity(self):
        spec = NoiseSpectrum(n_modes=64)
        v0, v1 = [], []
        for r in range(10_000):
            sig = sample_signal(spec, (99, r))
            v0.append(sig.eval(0.0))
            v1.append(sig.eval(37.2))
        v0, v1 = np.array(v0), np.array(v1)
        var0, var1 = v0.var(), v1.var()
        # variance-of-variance for近 gaussian samples: var^2 * 2/n
        err = np.sqrt(2.0 / v0.size) * (var0 + var1)
        assert abs(var0 - var1) < 5 * err


class TestPhasorMoments:
    SIGNAL = sample_signal(NoiseSpectrum(n_modes=50), 31)

    def modes(self):
        sig = self.SIGNAL
        return sig.omega[None], sig.amp[None], sig.phase[None]

    @staticmethod
    def read(kernel, total):
        """The integrals of `total` steps, shape (rows, steps, k), read in
        calls of 3, 8 and 5 steps: partial reads in mid-stream, and reads
        that straddle the block and re-anchor boundaries."""
        reads, done = [], 0
        while done < total:
            steps = (3, 8, 5)[len(reads) % 3]
            reads.append(kernel.integrals(steps))
            done += steps
        return np.concatenate(reads, axis=1)

    def test_sub_interval_integrals_are_exact(self):
        # signed lengths and centres within a step, one running backwards
        h = 0.37
        lengths = np.array([0.3, -0.05, 0.75]) * h
        centres = np.array([0.15, 0.275, 0.625]) * h
        omega, amp, phase = self.modes()
        scale = 1.0 / np.sqrt(self.SIGNAL.n_modes)
        weights = [interval_weights(omega, amp, scale, d)
                   * np.exp(1j * c * omega)
                   for d, c in zip(lengths, centres)]
        got = self.read(PhasorMoments(omega, phase, h, weights),
                        2 * REANCHOR + 20)[0]
        for j in range(2 * REANCHOR + 20):
            for d, c, value in zip(lengths, centres, got[j]):
                t_c = j * h + c
                want, _ = quad(self.SIGNAL.eval, t_c - d / 2, t_c + d / 2,
                               epsabs=1e-14, epsrel=1e-13)
                assert value == pytest.approx(want, abs=1e-12), (j, d)

    def test_first_moment(self):
        # the qubit's weights: the integral and minus the first moment over
        # a step of length h, shifted from its start to its midpoint
        h = 0.8
        omega, amp, phase = self.modes()
        scale = 1.0 / np.sqrt(self.SIGNAL.n_modes)
        shift = np.exp(0.5j * h * omega)
        weights = [shift * interval_weights(omega, amp, scale, h),
                   -1j * shift * first_moment_weights(omega, amp,
                                                      scale * h * h / 2, h)]
        got = self.read(PhasorMoments(omega, phase, h, weights),
                        REANCHOR + 3)[0]
        for j in range(REANCHOR + 3):
            t_c = (j + 0.5) * h
            integral, _ = quad(self.SIGNAL.eval, t_c - h / 2, t_c + h / 2,
                               epsabs=1e-14, epsrel=1e-13)
            moment, _ = quad(lambda t: (t - t_c) * self.SIGNAL.eval(t),
                             t_c - h / 2, t_c + h / 2, epsabs=1e-14,
                             epsrel=1e-13)
            assert got[j, 0] == pytest.approx(integral, abs=1e-12), j
            assert -got[j, 1] == pytest.approx(moment, abs=1e-12), j


class ReferenceMoments:
    """The per-step reader: one phasor per step in a (BLOCK, rows, modes)
    table, contracted with [Re w; -Im w] in one matrix product per row and
    read of up to BLOCK steps."""

    def __init__(self, omega, phase, h, weights):
        self.omega = omega
        self.phase = phase
        self.h = h
        rows, modes = np.shape(omega)
        matrix = np.empty((rows, modes, 2, len(weights)))
        for k, w in enumerate(weights):
            matrix[..., 0, k] = w.real
            matrix[..., 1, k] = -w.imag
        self.weights = matrix.reshape(rows, 2 * modes, -1)
        self.advance = np.exp(1j * h * omega)
        self.table = np.empty((BLOCK,) + np.shape(omega), dtype=complex)
        self.last = 0
        self.step = 0

    def integrals(self, steps):
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


def read_in(kernel, total, size):
    """The integrals of `total` steps read `size` at a time, the last read
    shorter if `size` does not divide `total`."""
    return np.concatenate([kernel.integrals(min(size, total - j))
                           for j in range(0, total, size)], axis=1)


class TestStoredPhasors:
    """PhasorMoments against the per-step reader, on the qubit's weights
    for three realizations of 1,000 modes."""

    H = 0.5 / 16

    @classmethod
    def kernel_args(cls, k):
        spec = NoiseSpectrum(n_modes=1000)
        signals = [sample_signal(spec, (41, r)) for r in range(3)]
        omega, amp, phase = (np.stack([getattr(s, name) for s in signals])
                             for name in ("omega", "amp", "phase"))
        h, scale = cls.H, 1.0 / np.sqrt(spec.n_modes)
        shift = np.exp(0.5j * h * omega)
        weights = [shift * interval_weights(omega, amp, scale, h),
                   -1j * shift * first_moment_weights(omega, amp,
                                                      scale * h * h, h)]
        return omega, phase, h, weights[:k]

    @pytest.mark.parametrize("size", range(1, BLOCK + 1))
    def test_stride_one_is_the_per_step_reader(self, size):
        args = self.kernel_args(2)
        total = 2 * REANCHOR + 5
        got = read_in(PhasorMoments(*args), total, size)
        want = read_in(ReferenceMoments(*args), total, size)
        assert got.shape == want.shape == (3, total, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_stride_block_matches_the_per_step_reader(self, k):
        # three re-anchors, at steps 0, BLOCK REANCHOR and twice that, and
        # a last read that ends partway between two stored phasors
        args = self.kernel_args(k)
        total = 2 * BLOCK * REANCHOR + 5 * BLOCK + 3
        got = read_in(PhasorMoments(*args, stride=BLOCK), total,
                      BLOCK * BLOCK)
        want = read_in(ReferenceMoments(*args), total, BLOCK)
        assert got.shape == want.shape == (3, total, k)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("stride", [1, BLOCK])
    def test_read_size_out_of_range(self, stride):
        kernel = PhasorMoments(*self.kernel_args(1), stride=stride)
        for steps in (0, -1, BLOCK * stride + 1):
            with pytest.raises(ParameterError):
                kernel.integrals(steps)

    @pytest.mark.parametrize("stride", [1, BLOCK])
    def test_restart_reads_as_a_new_kernel(self, stride):
        # stopped past a re-anchor, after a short last read, then read
        # again from step 0
        args, size = self.kernel_args(2), BLOCK * stride
        total = (REANCHOR + 3) * stride
        kernel = PhasorMoments(*args, stride=stride)
        read_in(kernel, total + stride, size)
        kernel.restart()
        got = read_in(kernel, total, size)
        want = read_in(PhasorMoments(*args, stride=stride), total, size)
        assert got.tobytes() == want.tobytes()

    def test_read_must_start_at_a_stored_phasor(self):
        kernel = PhasorMoments(*self.kernel_args(1), stride=BLOCK)
        kernel.integrals(2 * BLOCK)
        kernel.integrals(BLOCK + 3)
        with pytest.raises(ParameterError):
            kernel.integrals(BLOCK)
