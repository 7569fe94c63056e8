"""Single-qubit stochastic evolution, purity, coherence time."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import annealkit
from annealkit import qubit
from annealkit.errors import HorizonError, IntegrationAbort, ParameterError
from annealkit.noise import (BLOCK, NoiseSpectrum, PhasorMoments,
                             autocorrelation_exact, first_moment_weights,
                             interval_weights, sample_signal)
from annealkit.qubit import (QUBIT_STREAM_TAG, PurityCurve, QubitRun,
                             coherence_time, evolve_qubit)
from annealkit.tables import read_table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def quick_run(**kw):
    defaults = dict(h_z=0.0,
                    spectrum=NoiseSpectrum(coupling=0.05, n_modes=100),
                    t_max=20.0, dt_out=0.5, n_realizations=50, master_seed=3)
    defaults.update(kw)
    return QubitRun(**defaults)


class TestValidation:
    def test_domains(self):
        with pytest.raises(ParameterError):
            quick_run(t_max=0.0)
        with pytest.raises(ParameterError):
            quick_run(n_realizations=0)
        with pytest.raises(ParameterError):
            quick_run(dt_out=100.0)


class TestPurity:
    def test_no_noise_purity_stays_one(self):
        run = quick_run(spectrum=NoiseSpectrum(coupling=0.0, n_modes=8),
                        h_z=0.3, n_realizations=5, t_max=10.0)
        curve = evolve_qubit(run)
        assert np.abs(curve.purity - 1.0).max() < 1e-9

    def test_single_realization_is_pure(self):
        run = quick_run(n_realizations=1, t_max=10.0)
        curve = evolve_qubit(run)
        assert np.abs(curve.purity - 1.0).max() < 1e-9

    def test_purity_starts_at_one_and_stays_in_range(self):
        curve = evolve_qubit(quick_run(n_realizations=100))
        assert curve.purity[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(curve.purity >= 0.5 - 1e-9)
        assert np.all(curve.purity <= 1.0 + 1e-9)

    def test_density_matrix_diagnostics(self):
        curve = evolve_qubit(quick_run(n_realizations=100))
        assert curve.trace_defect < 1e-9
        assert curve.hermiticity_defect < 1e-9
        assert curve.min_eigenvalue > -1e-9

    def test_noise_decoheres(self):
        curve = evolve_qubit(quick_run(n_realizations=100, t_max=30.0))
        assert curve.purity[-1] < 0.95


class TestCoherenceTime:
    def test_linear_synthetic_crossing(self):
        times = np.linspace(0.0, 100.0, 201)
        curve = PurityCurve(times=times, purity=1.0 - times / 100.0,
                            run=quick_run())
        assert coherence_time(curve) == pytest.approx(25.0, abs=1e-9)

    def test_horizon_error_carries_final_purity(self):
        times = np.linspace(0.0, 10.0, 21)
        curve = PurityCurve(times=times, purity=np.full(21, 0.9),
                            run=quick_run())
        with pytest.raises(HorizonError) as err:
            coherence_time(curve)
        assert err.value.final_purity == pytest.approx(0.9)

    def test_interpolation_between_samples(self):
        times = np.array([0.0, 1.0, 2.0])
        curve = PurityCurve(times=times, purity=np.array([1.0, 0.8, 0.6]),
                            run=quick_run())
        # crosses 0.75 a quarter of the way into [1, 2]
        assert coherence_time(curve) == pytest.approx(1.25, abs=1e-12)

    def test_field_slows_decoherence(self):
        base = dict(n_realizations=100, t_max=60.0,
                    spectrum=NoiseSpectrum(coupling=0.08, n_modes=100))
        t0 = coherence_time(evolve_qubit(quick_run(h_z=0.0, **base)))
        t1 = coherence_time(evolve_qubit(quick_run(h_z=0.15, **base)))
        assert t1 > t0


def signals_of(run):
    return [sample_signal(run.spectrum, (run.master_seed, QUBIT_STREAM_TAG, r))
            for r in range(run.n_realizations)]


def purity_of(states):
    """Purity of the realization average of states (n_real, n_times, 2)."""
    rho = np.einsum("rti,rtj->tij", states, states.conj()) / len(states)
    return np.einsum("tij,tji->t", rho, rho).real


def closed_form_purity(run, times):
    """h_z = 0: psi = cos(Phi)|up> - i sin(Phi)|down>, Phi = lambda int eta,
    each mode integrating to 2 sin(w t/2) cos(w t/2 - phase) / w."""
    states = []
    for signal in signals_of(run):
        half = 0.5 * np.outer(times, signal.omega)
        modes = 2.0 * np.sin(half) * np.cos(half - signal.phase) / signal.omega
        phi = run.spectrum.coupling * (modes * signal.amp).sum(axis=1) \
            / np.sqrt(signal.n_modes)
        states.append(np.stack([np.cos(phi), -1j * np.sin(phi)], axis=1))
    return purity_of(np.array(states))


def dop853_purity(run, times):
    """Per-realization DOP853 reference at rtol 1e-12."""
    from scipy.integrate import solve_ivp

    lam, h_z = run.spectrum.coupling, run.h_z
    states = []
    for signal in signals_of(run):
        def rhs(t, psi):
            drive = lam * signal.eval(t)
            return np.array([-1j * (h_z * psi[0] + drive * psi[1]),
                             -1j * (drive * psi[0] - h_z * psi[1])])
        sol = solve_ivp(rhs, (0.0, times[-1]), np.array([1.0 + 0j, 0j]),
                        t_eval=times, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        states.append(sol.y.T)
    return purity_of(np.array(states))


def gaussian_limit_coherence_time(spectrum, dt=0.01, t_end=100.0):
    """Crossing of (1 + exp(-4 sigma^2)) / 2 = 3/4, where
    sigma^2(t) = 2 lambda^2 int_0^t (t - tau) C(tau) dtau."""
    tau = np.arange(0.0, t_end + dt / 2, dt)
    corr = np.array([autocorrelation_exact(spectrum, x) for x in tau])

    def cumulative(f):
        return np.concatenate([[0.0], np.cumsum(0.5 * dt * (f[1:] + f[:-1]))])

    sigma2 = 2 * spectrum.coupling ** 2 * (tau * cumulative(corr)
                                           - cumulative(tau * corr))
    curve = PurityCurve(times=tau, purity=(1 + np.exp(-4 * sigma2)) / 2,
                        run=None)
    return coherence_time(curve)


class TestMagnusEngine:
    def test_closed_form_at_zero_field(self):
        run = quick_run()
        curve = evolve_qubit(run)
        assert np.abs(curve.purity
                      - closed_form_purity(run, curve.times)).max() <= 1e-12
        assert curve.substeps == 2

    @pytest.mark.parametrize("h_z", [0.1, 0.2])
    def test_matches_dop853_reference(self, h_z):
        run = quick_run(h_z=h_z, n_realizations=20)
        curve = evolve_qubit(run)
        assert curve.purity[-1] < 0.99
        assert curve.error_estimate <= run.rtol
        assert np.abs(curve.purity
                      - dop853_purity(run, curve.times)).max() <= 1e-9

    def test_gaussian_limit_coherence_time(self):
        t_gauss = gaussian_limit_coherence_time(NoiseSpectrum())
        assert t_gauss == pytest.approx(58.72, abs=0.05)
        table = read_table(RESULTS_DIR / "purity_hz0.tsv")
        stored = coherence_time(PurityCurve(times=table["t"],
                                            purity=table["purity"], run=None))
        assert stored == pytest.approx(t_gauss, rel=0.05)

    @pytest.mark.parametrize("rtol", [0.0, -1e-10])
    def test_rtol_must_be_positive(self, rtol):
        with pytest.raises(ParameterError):
            quick_run(rtol=rtol)

    def test_substep_cap_aborts(self, monkeypatch):
        monkeypatch.setattr(qubit, "_MAX_SUBSTEPS", 4)
        run = quick_run(h_z=0.2, n_realizations=5, rtol=1e-14)
        with pytest.raises(IntegrationAbort):
            evolve_qubit(run)

    def test_reruns_are_bit_identical_for_any_blas_thread_count(self):
        """The noise moments come from one matrix product per realization
        and read.  Its bytes must not depend on the BLAS thread count: at
        1,000 modes; at 5,000 modes and h_z = 0, where the product is a
        matrix-vector one; and at 10,000 modes with 8 substeps per read,
        where a product of 8 x 20,000 by 20,000 x 2 exceeds OpenBLAS's
        default threshold for threading, 262,144 multiply-adds."""
        src = os.path.dirname(os.path.dirname(annealkit.__file__))
        code = textwrap.dedent("""
            import hashlib
            from annealkit.noise import NoiseSpectrum
            from annealkit.qubit import QubitRun, evolve_qubit
            for h_z, n_modes, n_real, rtol in ((0.1, 1000, 70, 1e-10),
                                               (0.0, 5000, 20, 1e-10),
                                               (0.1, 10000, 8, 1e-12)):
                c = evolve_qubit(QubitRun(
                    h_z=h_z, t_max=10.0, n_realizations=n_real, rtol=rtol,
                    spectrum=NoiseSpectrum(coupling=0.05, n_modes=n_modes)))
                print(c.substeps, hashlib.sha256(c.purity.tobytes()).hexdigest())
            """)
        outputs = set()
        for threads in ("1", "2", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1
        # the h_z = 0.1 cases read 8 substeps at a time
        substeps = [int(line.split()[0]) for line in outputs.pop().splitlines()]
        assert substeps[0] >= 8 and substeps[2] >= 8, substeps


def reference_step(up, down, a_x, a_y, a_z):
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


def reference_propagate(run, omega, amp, phase, n_out, n):
    """qubit._propagate one substep at a time: psi takes each fine and
    coarse Magnus step in turn, with the moments read min(n, BLOCK)
    substeps at a time inside each dt_out, all realizations at once."""
    n_real, n_modes = omega.shape
    h = run.dt_out / n
    scale = run.spectrum.coupling / np.sqrt(n_modes)
    a_z = h * run.h_z
    per_read = min(n, BLOCK)
    shift = np.exp(0.5j * h * omega)
    weights = [shift * interval_weights(omega, amp, scale, h)]
    if a_z:
        weights.append(-1j * shift * first_moment_weights(
            omega, amp, scale * h * h * run.h_z, h))
    kernel = PhasorMoments(omega, phase, h, weights)
    psi = np.zeros((2, n_out, 2, n_real), dtype=complex)
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
            up, down = reference_step(up, down, a_x, a_y, a_z)
            if i % 2 == 0:
                first_x, first_y = a_x, a_y
                continue
            # the coarse step spans this substep and the one before
            up_c, down_c = reference_step(
                up_c, down_c, first_x + a_x,
                first_y + a_y + a_z * (first_x - a_x), 2 * a_z)
        psi[:, k] = ((up, down), (up_c, down_c))
    return (psi[:, :, :, None] * psi[:, :, None, :].conj()).sum(axis=-1) \
        / n_real


def modes_of(run):
    signals = signals_of(run)
    return [np.stack([getattr(s, name) for s in signals])
            for name in ("omega", "amp", "phase")]


# 20 realizations of 1000 modes span three chunks; 81 output intervals
# leave a last segment of 17, which at 2 substeps per dt_out ends in a
# read of 34, partway between two stored phasors
COMPOSED = dict(spectrum=NoiseSpectrum(coupling=0.05, n_modes=1000),
                n_realizations=20, t_max=40.5)


class TestComposedEngine:
    def test_run_shape_covers_partial_chunk_segment_and_read(self):
        run = quick_run(**COMPOSED)
        assert run.n_realizations % qubit._chunk_rows(1000) \
            and run.n_realizations > qubit._chunk_rows(1000)
        last_segment = round(run.t_max / run.dt_out) % qubit._SEGMENT
        assert last_segment and (last_segment * 2) % BLOCK

    @pytest.mark.parametrize("h_z, rtol", [(0.0, 1e-10), (0.1, 1e-10),
                                           (0.2, 1e-10), (0.1, 1e-6)])
    def test_matches_the_per_substep_reference(self, monkeypatch, h_z, rtol):
        run = quick_run(h_z=h_z, rtol=rtol, **COMPOSED)
        curve = evolve_qubit(run)
        monkeypatch.setattr(qubit, "_propagate", reference_propagate)
        reference = evolve_qubit(run)
        assert curve.substeps == reference.substeps
        assert np.abs(curve.purity - reference.purity).max() <= 1e-13

    @pytest.mark.parametrize("h_z", [0.0, 0.1])
    @pytest.mark.parametrize("n", [2, 8])
    def test_reads_are_whole_blocks(self, monkeypatch, h_z, n):
        run = quick_run(h_z=h_z, **COMPOSED)
        reads = {}      # kernel (one per chunk and pass) -> read sizes
        real_integrals = PhasorMoments.integrals

        def spy(kernel, steps):
            reads.setdefault(kernel, []).append(steps)
            return real_integrals(kernel, steps)

        monkeypatch.setattr(PhasorMoments, "integrals", spy)
        n_out = round(run.t_max / run.dt_out) + 1
        qubit._propagate(run, *modes_of(run), n_out, n)
        assert len(reads) == 3      # chunks of 8, 8 and 4 realizations
        for kernel, sizes in reads.items():
            # a phasor stored every BLOCK substeps, BLOCK of them per read
            assert kernel.stride == BLOCK
            assert sum(sizes) == (n_out - 1) * n
            assert set(sizes[:-1]) == {BLOCK * BLOCK}
            assert 0 < sizes[-1] <= BLOCK * BLOCK


def test_qubit_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(annealkit.__file__))
    code = ("import sys, annealkit.qubit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
