"""Free-fermion chain: matrices, ground state, evolution, observables.

Dense-diagonalization cross-checks pin every sign convention; the
annihilator realizing the module's convention in the spin basis is
c_i = (prod_{j<i} sigma^x_j) (sigma^z - i sigma^y)_i / 2.
"""

import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from annealkit import ed, fermion
from annealkit.errors import IntegrationAbort, ParameterError
from annealkit.fermion import (BdgModes, ChainSpec, bdg_matrices,
                               correlations, energy_expectation, evolve,
                               field_offset, ground_energy, ground_state,
                               orthogonality_defect, propagate, propagator,
                               quasiparticle_energies, residual_energy,
                               transverse_magnetization,
                               vacuum_residual_energy)
from annealkit.noise import BLOCK, NoiseSpectrum, sample_signal

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0])


def site_op(op, i, L):
    ops = [I2] * L
    ops[L - 1 - i] = op  # site 0 is the least-significant bit
    out = np.array([[1.0 + 0j]])
    for o in ops:
        out = np.kron(out, o)
    return out


def annihilator(i, L):
    c = site_op((SZ - 1j * SY) / 2.0, i, L)
    for j in range(i):
        c = c @ site_op(SX, j, L)
    return c


def random_modes(L, seed):
    """A valid Nambu frame from a random quadratic ground state."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((L, L))
    A = A + A.T
    B = rng.standard_normal((L, L))
    B = B - B.T
    return ground_state(A, B)


def noisy_chain(L, seed, coupling=0.01, n_modes=64):
    spec = NoiseSpectrum(n_modes=n_modes)
    signals = tuple(sample_signal(spec, (seed, L, site)) for site in range(L))
    return ChainSpec(size=L, coupling=coupling, signals=signals)


class TestBdgMatrices:
    def test_start_of_schedule(self):
        A, B = bdg_matrices(ChainSpec(size=5), s=0.0)
        assert np.allclose(A, 2.0 * np.eye(5))
        assert np.allclose(B, 0.0)

    def test_classical_point(self):
        A, B = bdg_matrices(ChainSpec(size=5), s=1.0)
        assert np.allclose(np.diag(A), 0.0)
        off = np.arange(4)
        assert np.allclose(A[off, off + 1], -1.0)
        assert np.allclose(B[off, off + 1], -1.0)
        assert np.allclose(B[off + 1, off], 1.0)


class TestGroundState:
    def test_paramagnetic_start(self):
        chain = ChainSpec(size=6)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        corr = correlations(modes)
        assert np.abs(corr.G).max() < 1e-12
        assert np.abs(corr.F).max() < 1e-12
        assert np.allclose(transverse_magnetization(corr), 1.0)
        A, B = bdg_matrices(chain, 0.0)
        e = energy_expectation(corr, A, B, field_offset(chain, 0.0))
        assert e == pytest.approx(-6.0, abs=1e-12)

    def test_ground_energy_vs_ed(self):
        chain = ChainSpec(size=8)
        for s in (0.2, 0.5, 0.9):
            assert ground_energy(chain, s) == pytest.approx(
                ed.spectrum_exact(chain, s)[0], abs=1e-10)

    def test_nambu_constraints(self):
        modes = random_modes(7, seed=5)
        assert modes.orthonormality_defect() < 1e-10
        assert modes.pairing_defect() < 1e-10

    def test_energies_nonnegative_with_zero_mode_at_classical_point(self):
        A, B = bdg_matrices(ChainSpec(size=6), s=1.0)
        eps = quasiparticle_energies(A, B)
        assert np.all(eps >= 0)
        assert eps.min() < 1e-12  # doubly degenerate ordered ground state

    def test_classical_ground_state_has_zero_residual(self):
        modes = ground_state(*bdg_matrices(ChainSpec(size=6), s=1.0))
        assert residual_energy(correlations(modes)) == pytest.approx(0.0,
                                                                     abs=1e-8)

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        with pytest.raises(ParameterError):
            ground_state(M, np.zeros((4, 4)))  # A not symmetric
        with pytest.raises(ParameterError):
            ground_state(np.eye(4), M)  # B not antisymmetric


class TestEvolution:
    def test_energy_conserved_under_frozen_hamiltonian(self):
        L = 8
        chain = ChainSpec(size=L, bond_coupling=lambda s: 0.3,
                          base_field=lambda s: 0.6)
        A, B = bdg_matrices(chain, 0.0)
        offset = field_offset(chain, 0.0)
        modes = ground_state(*bdg_matrices(ChainSpec(size=L), 0.4))
        e0 = energy_expectation(correlations(modes), A, B, offset)
        final = evolve(modes, chain, T=100.0, rtol=1e-10, atol=1e-12)
        e1 = energy_expectation(correlations(final), A, B, offset)
        assert abs(e1 - e0) < 1e-8 * L

    def test_noiseless_evolution_matches_ed(self):
        chain = ChainSpec(size=8)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        final = evolve(modes, chain, T=10.0)
        de = residual_energy(correlations(final))
        de_ed = ed.residual_energy_exact(ed.anneal_exact(chain, T=10.0))
        assert abs(de - de_ed) < 1e-6

    def test_noisy_evolution_matches_ed_with_shared_signals(self):
        chain = noisy_chain(8, seed=1234, n_modes=200)
        modes = ground_state(*bdg_matrices(chain, 0.0, 0.0))
        final = evolve(modes, chain, T=10.0)
        de = residual_energy(correlations(final))
        de_ed = ed.residual_energy_exact(ed.anneal_exact(chain, T=10.0))
        assert abs(de - de_ed) < 1e-5

    def test_nambu_preserved_on_long_run(self):
        chain = ChainSpec(size=32)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        for T in np.linspace(100.0, 1000.0, 10):
            m = evolve(modes, chain, T=T)
            assert m.orthonormality_defect() < 1e-6
            assert m.pairing_defect() < 1e-6

    def test_adiabatic_improvement_across_decades(self):
        chain = ChainSpec(size=32)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        de = {T: residual_energy(correlations(evolve(modes, chain, T=T)))
              for T in (1.0, 100.0, 10_000.0)}
        assert de[10_000.0] < de[100.0] < de[1.0]

    def test_solver_freed_on_return(self, monkeypatch):
        # reference counting alone must release the oracle's stepper and
        # its stage arrays, so peak memory does not depend on when the
        # cyclic collector happens to run
        made = []

        class Recorded(ed.DOP853):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(ed, "DOP853", Recorded)
        chain = ChainSpec(size=4)
        gc.disable()
        try:
            ed.anneal_exact(chain, T=1.0)
            alive = [ref() is not None for ref in made]
        finally:
            gc.enable()
        assert alive == [False]


class TestMajoranaEngine:
    def test_fourth_order_against_dense_oracle(self):
        # a noisy point: the error falls ~16x per halving of h
        chain = noisy_chain(8, seed=7, coupling=0.3)
        T = 10.0
        exact = ed.residual_energy_exact(
            ed.anneal_exact(chain, T, rtol=1e-12, atol=1e-14))
        errors = [abs(vacuum_residual_energy(propagator(chain, T, n)) - exact)
                  for n in (20, 40, 80)]
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(13.0 < r < 20.0 for r in ratios), ratios

    def test_propagator_orthogonal(self):
        chain = noisy_chain(16, seed=2, coupling=0.1)
        for steps in (7, 400, 2000):
            assert orthogonality_defect(propagator(chain, 100.0, steps)) \
                <= 1e-12

    def test_blocked_noise_angles_are_exact(self):
        # steps on both sides of block (8) and re-anchor (64) boundaries,
        # read in full blocks and, in mid-stream, in partial ones
        chain = noisy_chain(3, seed=3, coupling=0.1, n_modes=40)
        h = 0.3
        rows, kernel = fermion._noise_kernel([chain], h)
        reads = [BLOCK] * 7 + [3, 5] + [BLOCK] * 9
        angles = np.concatenate([kernel.integrals(n) for n in reads], axis=1)
        edges = fermion._EDGES * h
        for j in (7, 8, 56, 58, 59, 63, 64, 65, 128):
            for i, sig in enumerate(chain.signals):
                for k in range(7):
                    want, _ = quad(sig.eval, j * h + edges[k],
                                   j * h + edges[k + 1], epsabs=1e-14,
                                   epsrel=1e-13)
                    assert angles[i, j, k] == pytest.approx(
                        2.0 * chain.coupling * want, abs=1e-12), (j, i, k)

    def test_memory_does_not_grow_with_step_count(self):
        chain = noisy_chain(8, seed=6, coupling=0.05, n_modes=16)

        def peak(steps):
            tracemalloc.start()
            try:
                propagator(chain, 100.0, steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 10,000 steps of per-step angles alone would take 560 kB
        short, long = peak(1_000), peak(10_000)
        assert long <= short + 16_384, (short, long)

    def test_propagator_holds_no_subnormals(self):
        # far outside the Lieb-Robinson cone of a short anneal the entries
        # fall into the subnormal range unless they are flushed
        for L in (256, 128):
            magnitude = np.abs(propagator(ChainSpec(size=L), 10.0, 42))
            subnormal = (magnitude > 0) & (magnitude < np.finfo(float).tiny)
            assert not subnormal.any(), (L, int(subnormal.sum()))

    @pytest.mark.parametrize("chains, T, steps", [
        ([ChainSpec(size=256)], 10.0, 42),
        ([noisy_chain(32, seed=r, n_modes=100) for r in range(4)], 100.0,
         224)], ids=["noise-free-L256", "allsites-L32-chunk4"])
    def test_flush_leaves_results_unchanged(self, monkeypatch, chains, T,
                                            steps):
        flushed = propagator(chains, T, steps)
        monkeypatch.setattr(fermion, "_FLUSH", 0.0)     # flushes nothing
        kept = propagator(chains, T, steps)
        assert [vacuum_residual_energy(S) for S in flushed] == \
            [vacuum_residual_energy(S) for S in kept]
        assert np.abs(flushed - kept).max() <= 1e-40

    def test_vacuum_energy_matches_mode_route(self):
        chain = noisy_chain(10, seed=4, coupling=0.05)
        modes = ground_state(*bdg_matrices(chain, 0.0, 0.0))
        final = evolve(modes, chain, T=20.0)
        S = propagate(chain, 20.0).fine
        assert vacuum_residual_energy(S) == pytest.approx(
            residual_energy(correlations(final)), abs=1e-12)

    def test_tolerance_domain(self):
        chain = ChainSpec(size=4)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        for rtol in (0.0, -1e-8, float("nan")):
            with pytest.raises(ParameterError):
                evolve(modes, chain, T=1.0, rtol=rtol)
        with pytest.raises(ParameterError):
            propagate(chain, 1.0, atol=-1.0)

    def test_step_cap_aborts(self):
        with pytest.raises(IntegrationAbort):
            propagate(ChainSpec(size=4), 1.0, rtol=1e-300, atol=0.0)

    def test_step_cap_holds_for_the_first_attempt(self, monkeypatch):
        monkeypatch.setattr(fermion, "_MAX_STEPS", 4)
        assert propagate(ChainSpec(size=4), 2.0, rtol=1e-2,
                         atol=1e-2).steps == 4
        calls = []
        monkeypatch.setattr(fermion, "_propagated",
                            lambda *args: calls.append(args))
        for L in (4, 128):      # the full pair and the sampled one
            with pytest.raises(IntegrationAbort):
                propagate(ChainSpec(size=L), 10.0, rtol=1e-2, atol=1e-2)
        with pytest.raises(IntegrationAbort):     # T / h overflows to inf
            propagate(ChainSpec(size=4), 1e308)
        assert calls == []

    def test_accepted_ratio_and_step_count(self):
        prop = propagate(noisy_chain(6, seed=1), 10.0, rtol=1e-8, atol=1e-10)
        assert 0.0 < prop.error_ratio <= 1.0
        assert prop.steps % 2 == 0 and prop.steps >= 20

    @pytest.mark.parametrize("v, expected", [(0.1, 102.97428946156761),
                                             (0.01, 31.684286836447537)])
    def test_noise_free_reference(self, v, expected):
        # DOP853 at rtol=1e-11, atol=1e-13; the engine at the tolerance of
        # the criterion-2 slice
        S = propagate(ChainSpec(size=256), 1.0 / v, rtol=1e-8,
                      atol=1e-10).fine
        assert vacuum_residual_energy(S) == pytest.approx(expected, abs=5e-5)


def full_width_reference(chains, T, steps, rows=None) -> np.ndarray:
    """Noise-free propagators from a plain S6 loop over whole rows of R,
    with every angle computed up front and every entry below _FLUSH set to
    0 after each _BAND_FLUSH steps and after the last one."""
    L, h = chains[0].size, T / steps
    start = np.eye(2 * L) if rows is None else np.eye(2 * L)[rows]
    S = np.empty((len(chains),) + start.shape)
    S[:] = start
    pairs = S.view(complex)
    links = S.reshape(-1)[1:-1].view(complex)
    straddle = slice(L - 1, None, L)
    field, bond = fermion._schedule_angles(chains[0], T, h, 0, steps)
    field[1:, 0] += field[:-1, 6]
    turn = np.empty((steps, 6), dtype=complex)
    np.cos(-field[:, :6], out=turn.real)
    np.sin(-field[:, :6], out=turn.imag)
    for step in range(steps):
        for turn_j, bond_j in zip(turn[step], bond[step]):
            pairs *= turn_j
            kept = links[straddle].copy()
            links *= bond_j
            links[straddle] = kept
        if (step + 1) % fermion._BAND_FLUSH == 0 or step + 1 == steps:
            S[np.abs(S) < fermion._FLUSH] = 0.0
    pairs *= np.exp(-1j * field[-1, 6])
    return S


class TestBandedRows:
    """A noise-free row is propagated on a band of columns around its
    support; it equals the same row of a full-width run bit for bit."""

    @pytest.mark.parametrize("batch, L, T, steps, rows", [
        (1, 256, 10.0, 42, np.arange(256)),
        (1, 256, 10.0, 42, np.linspace(0, 511, 64).astype(int)),
        (1, 256, 100.0, 358, np.arange(256)),
        (1, 256, 100.0, 358, np.linspace(0, 511, 64).astype(int)),
        (1, 128, 1000.0, 2000, None),   # the band reaches the whole row
        (2, 256, 10.0, 42, np.linspace(0, 511, 64).astype(int)),
    ], ids=["L256_T10", "L256_T10_sample", "L256_T100", "L256_T100_sample",
            "L128_T1000", "batch_of_two"])
    def test_equals_the_full_width_loop(self, batch, L, T, steps, rows):
        chains = [ChainSpec(size=L)] * batch
        assert propagator(chains, T, steps, rows).tobytes() == \
            full_width_reference(chains, T, steps, rows).tobytes()


def record_propagator_calls(monkeypatch) -> list:
    """(steps, rows) of each propagation run on one chain, rows None for
    all of them."""
    calls, real = [], fermion._propagated

    def recorded(chains, T, steps, rows, noise):
        calls.append((steps, None if rows is None else list(rows)))
        return real(chains, T, steps, rows, noise)

    monkeypatch.setattr(fermion, "_propagated", recorded)
    return calls


def record_noise_kernels(monkeypatch) -> list:
    """The step length of each noise kernel built."""
    built, real = [], fermion._noise_kernel

    def recorded(chains, h):
        built.append(h)
        return real(chains, h)

    monkeypatch.setattr(fermion, "_noise_kernel", recorded)
    return built


def noisy_sites(L, sites, seed=7, n_modes=64, coupling=0.01):
    """A chain of L sites with noise signals on `sites`."""
    spec = NoiseSpectrum(n_modes=n_modes)
    signals = [None] * L
    for site in sites:
        signals[site] = sample_signal(spec, (seed, L, site))
    return ChainSpec(size=L, coupling=coupling, signals=tuple(signals))


class TestSampledStepSearch:
    """From L = 128 on, propagate rejects an attempt on 64 sample rows
    before it runs the full pair."""

    def test_rows_are_those_of_the_full_propagator(self):
        # noise-free L=256 at T=10, where the flush is active
        chain = ChainSpec(size=256)
        rows = np.linspace(0, 511, 64).astype(int)
        assert np.array_equal(propagator(chain, 10.0, 42, rows),
                              propagator(chain, 10.0, 42)[rows])
        # an all-sites batch of 3 at L=6: the chosen rows are stored next
        # to each other and to the other chains' rows, across straddles
        chains = batch_chains("all", 3)
        full = propagator(chains, 8.0, 70)
        for rows in ([0, 1], [5, 6, 7], [2, 9, 11], [11]):
            assert np.array_equal(propagator(chains, 8.0, 70, rows),
                                  full[:, rows])

    def test_empty_rows_refused(self):
        with pytest.raises(ParameterError):
            propagator(ChainSpec(size=4), 1.0, 4, [])

    def test_sample_rejects_then_rest_completes(self, monkeypatch):
        # single-site noise at L=128, the first size with a sample
        chain = noisy_sites(128, [0])
        calls = record_propagator_calls(monkeypatch)
        kernels = record_noise_kernels(monkeypatch)
        prop = propagate(chain, 10.0, rtol=1e-8, atol=1e-10)
        sample = list(np.linspace(0, 255, 64).astype(int))
        rest = sorted(set(range(256)) - set(sample))
        assert calls == [(20, sample), (10, sample), (44, sample),
                         (22, sample), (44, rest), (22, rest)]
        # one kernel per step count, shared by the sample and the rest
        assert kernels == [10.0 / 20, 10.0 / 10, 10.0 / 44, 10.0 / 22]
        assert [(n, rows) for n, _, rows in prop.search] == \
            [(20, "sample"), (44, "all")]
        assert prop.search[0][1] > 1.0
        assert prop.search[1][1] == prop.error_ratio <= 1.0
        monkeypatch.undo()
        assert np.array_equal(prop.fine, propagator(chain, 10.0, 44))
        assert np.array_equal(prop.coarse, propagator(chain, 10.0, 22))

    def test_short_chain_runs_whole_pairs(self, monkeypatch):
        chain = noisy_sites(32, range(32))
        calls = record_propagator_calls(monkeypatch)
        prop = propagate(chain, 10.0, rtol=1e-8, atol=1e-10)
        assert calls and all(rows == list(range(64)) for _, rows in calls)
        assert all(rows == "all" for _, _, rows in prop.search)
        monkeypatch.undo()
        assert np.array_equal(prop.fine, propagator(chain, 10.0, prop.steps))
        assert np.array_equal(prop.coarse,
                              propagator(chain, 10.0, prop.steps // 2))

    def test_criterion_two_slice_step_counts(self):
        # the benchmark's slice, then criterion 2's nine velocities
        velocities = [0.01, 0.0178, 0.0316, 0.0562, 0.1,
                      *np.logspace(-3, -1, 9)]
        steps = [propagate(ChainSpec(size=256), 1.0 / v, rtol=1e-8,
                           atol=1e-10).steps
                 for v in velocities]
        assert steps == [358, 212, 112, 68, 42,
                         4008, 2148, 1140, 688, 358, 198, 114, 68, 42]


# propagate(chain, T, 1e-8, 1e-10) of four chains, one per row path: the
# step count, each search entry with the repr of its ratio, and the sha256
# of the fine and the coarse propagator's bytes
GOLDEN_SEARCH = {
    "mirror_whole_L33": (
        lambda: ChainSpec(size=33), 10.0, 50,
        [(20, "59.368779220724775", "all"), (50, "0.27999987510287655", "all")],
        "e3d73504588c6bd97df72f6330edc854e4fe509eb02e3bff809fa19a7795ec9a",
        "1a819d90e0dab3d34ff687a3ddd8c1ff653bd8f3646fffc068dd8288744016f1"),
    "mirror_sample_L128": (
        lambda: ChainSpec(size=128), 30.0, 118,
        [(60, "17.37520444603631", "sample"),
         (118, "0.6071265965264304", "all")],
        "80281e80917744a8cebb255b0c0a20b17254f4e64dd95a15dedcb9ff082290e4",
        "54534df7f156dc411505a3f4de550f03eee6ae8cc2865992d55780ffc3d0b7e5"),
    "sample_single_site_L128": (
        lambda: noisy_sites(128, [0]), 10.0, 44,
        [(20, "30.774478435402415", "sample"),
         (44, "0.2811484302799693", "all")],
        "c82a775f88521856b366d249efae608810342c209c97f12f611ed766c5a9258b",
        "169876e6010bc84d85536c55b822f7b37a2ecc10e011ce0a8b6b1b2328bf9310"),
    "whole_all_sites_L32": (
        lambda: noisy_sites(32, range(32), n_modes=100), 100.0, 448,
        [(200, "34.47551187192545", "all"), (448, "0.5889662630251659", "all")],
        "b907a2e7ea064da487f9637f4f36e7e4bacb7285c2a092a66d65ef57da09ec21",
        "8f4c8324392ad91b886a91f148586f92f53f22cde2e4631aac110d8e327ce193"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_golden_search(name):
    make, T, steps, search, fine, coarse = GOLDEN_SEARCH[name]
    prop = propagate(make(), T, 1e-8, 1e-10)
    assert prop.steps == steps
    assert [(n, repr(ratio), rows) for n, ratio, rows in prop.search] == search
    assert hashlib.sha256(prop.fine.tobytes()).hexdigest() == fine
    assert hashlib.sha256(prop.coarse.tobytes()).hexdigest() == coarse


def test_search_imports_no_masked_arrays():
    """np.setdiff1d and np.intersect1d import numpy.ma, about 1 MB, on
    their first call; the sampled search, mirrored or not, calls neither."""
    src = os.path.dirname(os.path.dirname(fermion.__file__))
    code = textwrap.dedent("""
        import sys
        from annealkit.fermion import ChainSpec, propagate
        from annealkit.noise import NoiseSpectrum, sample_signal
        propagate(ChainSpec(size=128), 30.0)
        signals = [None] * 128
        signals[0] = sample_signal(NoiseSpectrum(n_modes=64), (7, 128, 0))
        propagate(ChainSpec(size=128, coupling=0.01, signals=tuple(signals)),
                  10.0)
        print("numpy.ma" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout == "False\n"


def search_on_all_rows(chain, T, rtol, atol) -> list:
    """The step counts propagate tries, with every row of each attempt
    propagated: the sample's ratio from its rows of the full pair."""
    size = 2 * chain.size
    sample = np.linspace(0, size - 1, fermion._SAMPLE_ROWS).astype(int) \
        if size >= fermion._SAMPLE_FROM else slice(None)
    counts = [fermion._even(T / fermion._FIRST_STEP)]
    while True:
        n = counts[-1]
        fine, coarse = propagator(chain, T, n), propagator(chain, T, n // 2)
        ratio = fermion._error_ratio(fine[sample], coarse[sample], n, rtol,
                                     atol)
        if ratio <= 1.0:
            ratio = fermion._error_ratio(fine, coarse, n, rtol, atol)
        if ratio <= 1.0:
            return counts
        counts.append(fermion._even(1.1 * n * ratio ** 0.2))


class TestMirroredSearch:
    """A noise-free chain propagates its rows k < L and fills the rows
    2L-1-k by its signed mirror."""

    @pytest.mark.parametrize("chain, T", [
        (ChainSpec(size=2), 5.0), (ChainSpec(size=3), 7.0),
        (ChainSpec(size=8), 10.0), (ChainSpec(size=33), 10.0),
        (ChainSpec(size=128), 30.0),
        (ChainSpec(size=9, bond_coupling=lambda s: 0.8,
                   base_field=lambda s: 0.5), 10.0),
    ], ids=["L2", "L3", "L8", "L33", "L128_sample", "constant_schedules"])
    def test_matches_the_search_on_all_rows(self, chain, T):
        rtol, atol = 1e-8, 1e-10
        prop = propagate(chain, T, rtol, atol)
        fine = propagator(chain, T, prop.steps)
        coarse = propagator(chain, T, prop.steps // 2)
        assert np.abs(prop.fine - fine).max() <= 1e-13
        assert np.abs(prop.coarse - coarse).max() <= 1e-13
        # acceptance is judged on all 2L rows of the assembled pair
        assert prop.error_ratio == fermion._error_ratio(
            prop.fine, prop.coarse, prop.steps, rtol, atol)
        # the ratio divides fine - coarse, some 1e-6 of R at rtol 1e-8, by
        # its allowance: the pair's last-bit differences move it by up to
        # their RMS in the same units, 2.5e-9 relative at L=2
        allowed = atol + rtol * np.maximum(np.abs(fine), np.abs(coarse))
        moved = (prop.fine - fine) - (prop.coarse - coarse)
        bound = np.sqrt(np.mean((moved / 15.0 / allowed) ** 2)) / prop.steps
        assert prop.error_ratio == pytest.approx(
            fermion._error_ratio(fine, coarse, prop.steps, rtol, atol),
            rel=1e-12, abs=2.0 * bound)
        assert [n for n, _, _ in prop.search] == \
            search_on_all_rows(chain, T, rtol, atol)
        if chain.size >= 128:
            assert prop.search[0][2] == "sample"

    @pytest.mark.parametrize("L", [8, 128])
    def test_signals_at_coupling_zero_take_no_mirror(self, L):
        chain = noisy_sites(L, range(L), coupling=0.0)
        prop = propagate(chain, 10.0)
        assert np.array_equal(prop.fine, propagator(chain, 10.0, prop.steps))
        assert np.array_equal(prop.coarse,
                              propagator(chain, 10.0, prop.steps // 2))


def batch_chains(noise, count, L=6, n_modes=32):
    """`count` chains of one noise kind, as the sweep builds a chunk."""
    spec = NoiseSpectrum(n_modes=n_modes)
    sites = {"all": range(L), "single": [2], "none": []}[noise]
    chains = []
    for r in range(count):
        signals = [None] * L
        for site in sites:
            signals[site] = sample_signal(spec, (11, r, site))
        chains.append(ChainSpec(size=L, coupling=0.05 if sites else 0.0,
                                signals=tuple(signals) if sites else None))
    return chains


class TestBatchedPropagator:
    @pytest.mark.parametrize("noise", ["all", "single", "none"])
    def test_batch_equals_each_chain_alone(self, noise):
        chains = batch_chains(noise, 7)
        # a chunk of 4 and a smaller last chunk of 3
        for chunk in (chains[:4], chains[4:]):
            batch = propagator(chunk, 8.0, 70)
            assert batch.shape == (len(chunk), 12, 12)
            for b, chain in enumerate(chunk):
                assert np.array_equal(batch[b], propagator(chain, 8.0, 70))

    def test_batch_orthogonal(self):
        for S in propagator(batch_chains("all", 5, L=12), 100.0, 400):
            assert orthogonality_defect(S) <= 1e-12

    def test_orthogonality_defect_is_the_plain_formula(self):
        # computed in place, it must equal the out-of-place formula exactly
        for S in [propagate(ChainSpec(size=256), 10.0).fine,
                  *propagator(batch_chains("all", 3), 8.0, 70)]:
            plain = np.abs(S.T @ S - np.eye(len(S))).max()
            assert orthogonality_defect(S) == plain

    @pytest.mark.parametrize("steps", [0, -2, 2.5, True, "4"])
    def test_step_count_must_be_a_positive_int(self, steps):
        with pytest.raises(ParameterError):
            propagator(ChainSpec(size=4), 1.0, steps)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
    def test_anneal_time_must_be_positive(self, T):
        with pytest.raises(ParameterError):
            propagator(ChainSpec(size=4), T, 4)
        with pytest.raises(ParameterError):
            propagate(ChainSpec(size=4), T)

    def test_numpy_step_count_accepted(self):
        chain = ChainSpec(size=4)
        assert np.array_equal(propagator(chain, 1.0, np.int64(4)),
                              propagator(chain, 1.0, 4))

    @pytest.mark.parametrize("other", [
        ChainSpec(size=7),
        ChainSpec(size=6, bond_coupling=lambda s: s),
        ChainSpec(size=6, base_field=lambda s: 1.0 - s),
        ChainSpec(size=6, coupling=0.01),
    ], ids=["size", "bond_schedule", "field_schedule", "coupling"])
    def test_batch_must_share_chain_parameters(self, other):
        with pytest.raises(ParameterError):
            propagator([ChainSpec(size=6), other], 1.0, 4)

    def test_batch_must_share_n_modes(self):
        chains = batch_chains("all", 1) + batch_chains("all", 1, n_modes=16)
        with pytest.raises(ParameterError):
            propagator(chains, 1.0, 4)

    def test_empty_batch(self):
        with pytest.raises(ParameterError):
            propagator([], 1.0, 4)


def test_propagator_bytes_independent_of_blas_threads():
    """The noise angles come from one matrix product per noisy row.  Its
    bytes must not depend on the BLAS thread count at the sweeps' 100
    modes, at 1,000, or at 5,000, where a block's product of 8 x 10,000 by
    10,000 x 7 exceeds OpenBLAS's default threshold for threading."""
    src = os.path.dirname(os.path.dirname(fermion.__file__))
    code = textwrap.dedent("""
        import hashlib
        from annealkit.fermion import ChainSpec, propagator
        from annealkit.noise import NoiseSpectrum, sample_signal
        for n_modes in (100, 1000, 5000):
            spec = NoiseSpectrum(coupling=0.05, n_modes=n_modes)
            chains = [ChainSpec(size=6, coupling=0.05, signals=tuple(
                sample_signal(spec, (5, r, site)) for site in range(6)))
                for r in range(3)]
            S = propagator(chains, 20.0, 100)
            print(n_modes, hashlib.sha256(S.tobytes()).hexdigest())
        """)
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        outputs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                   check=True, capture_output=True,
                                   text=True).stdout)
    assert len(outputs) == 1


class TestObservables:
    def test_vacuum_residual_energy_is_bond_count(self):
        L = 9
        corr = correlations(BdgModes(U=np.eye(L, dtype=complex),
                                     V=np.zeros((L, L), dtype=complex)))
        assert residual_energy(corr) == pytest.approx(L - 1, abs=1e-12)

    def test_occupation_bounds(self):
        corr = correlations(random_modes(6, seed=9))
        occ = np.trace(corr.G).real
        assert -1e-10 <= occ <= 6 + 1e-10
        eig = np.linalg.eigvalsh(corr.G)
        assert eig.min() > -1e-8 and eig.max() < 1 + 1e-8
        assert np.abs(corr.G - corr.G.conj().T).max() < 1e-10
        assert np.abs(corr.F + corr.F.T).max() < 1e-10

    def test_correlators_match_ed_operators(self):
        L = 6
        chain = ChainSpec(size=L)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        final = evolve(modes, chain, T=3.0, rtol=1e-10, atol=1e-12)
        corr = correlations(final)
        psi = ed.anneal_exact(chain, T=3.0).amplitudes
        cs = [annihilator(i, L) for i in range(L)]
        for i in range(L):
            for j in range(L):
                g = psi.conj() @ (cs[i].conj().T @ cs[j] @ psi)
                f = psi.conj() @ (cs[i] @ cs[j] @ psi)
                assert abs(g - corr.G[i, j]) < 1e-8
                assert abs(f - corr.F[i, j]) < 1e-8

    def test_residual_clamps_tiny_negative(self):
        L = 4
        corr = correlations(ground_state(*bdg_matrices(ChainSpec(size=L), 1.0)))
        # exact classical ground state: the bond sum may dip below 0 by eps
        assert residual_energy(corr) >= 0.0


class TestScalingBehavior:
    def test_kzm_slope_small_size_sanity(self):
        # bulk slope approaches 1/2; loose window at modest size
        chain = ChainSpec(size=64)
        modes = ground_state(*bdg_matrices(chain, 0.0))
        vs = np.array([0.01, 0.03, 0.1])
        des = [residual_energy(correlations(evolve(modes, chain, T=1.0 / v)))
               for v in vs]
        slope = np.polyfit(np.log(vs), np.log(des), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_extensivity_at_fixed_velocity(self):
        v = 0.03
        des = {}
        for L in (64, 128):
            chain = ChainSpec(size=L)
            modes = ground_state(*bdg_matrices(chain, 0.0))
            des[L] = residual_energy(correlations(evolve(modes, chain,
                                                         T=1.0 / v)))
        assert des[128] / 128 == pytest.approx(des[64] / 64, rel=0.05)
