"""Eigensolver, time-grid kernel and fidelity tests, including independent oracles."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolink import (
    ConvergenceError,
    CouplingSpec,
    DIPOLE,
    DisorderConfig,
    DomainError,
    FidelityCurve,
    Geometry,
    NEAREST_NEIGHBOUR,
    NumericInputError,
    ShapeError,
    SiteState,
    SpectralDecomposition,
    Topology,
    build_hamiltonian,
    decompose,
    encoded_end_states,
    end_to_end_summary,
    fidelity,
    fidelity_curve,
    fit_bound_state,
    propagator_abs_grid,
    site_state,
    summarize_transfer,
    uniform_chain,
)
from dipolink import disorder, spectral
from dipolink.cli import main
from dipolink.optimize import optimize_placement

from conftest import direct_abs, nn_chain_eigenpairs, rk4_evolve, run_fresh


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _graded_chain(n):
    """Mirror-symmetric chain whose gaps widen from the centre to the ends."""
    offsets = np.abs(np.arange(n - 1) - (n - 2) / 2.0)
    gaps = 1.0 + 0.5 * offsets / offsets.max()
    return Geometry(Topology.CHAIN, tuple(np.concatenate([[0.0], np.cumsum(gaps)])))


@pytest.fixture(scope="module")
def mirror_chains():
    return {
        "uniform-6": uniform_chain(6),
        "uniform-23": uniform_chain(23),
        "optimized-6": optimize_placement(6).geometry,
        "graded-23": _graded_chain(23),
    }


def _direct_abs(spec, times):
    """|f| for 1 -> N with one exponential per (t, m).

    Energies are measured from E_0 as in the kernel: |f| does not depend on
    the shift, while unshifted float64 phases E_m t lose about 1e-8 at
    N = 64, where E_0 is near -73 and one beat lasts 2.5e6.
    """
    v = spec.eigenvectors
    return direct_abs(v[0] * v[-1], spec.eigenvalues - spec.eigenvalues[0], times)


def _abs_at(spec, input_state, output_state, t):
    """|f(t)| at one time: the grid kernel on a one-point grid."""
    return propagator_abs_grid(spec, input_state, output_state, np.array([t]))[0]


class TestDecompose:
    def test_two_by_two_analytic(self):
        spec = decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(spec.eigenvectors), s, atol=1e-12)

    def test_identity(self):
        spec = decompose(np.eye(4))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.allclose(spec.eigenvectors, np.eye(4))

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_reconstruction_and_orthonormality(self, n):
        h = build_hamiltonian(uniform_chain(n))
        spec = decompose(h)
        v, e = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(v @ np.diag(e) @ v.T - h.matrix)) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        assert np.all(np.diff(e) >= 0)

    def test_deterministic(self):
        h = build_hamiltonian(uniform_chain(9))
        a = decompose(h)
        b = decompose(h)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_symmetric_reconstruction(self, n, seed):
        a = _random_symmetric(np.random.default_rng(seed), n)
        spec = decompose(a)
        v, e = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(v @ np.diag(e) @ v.T - a)) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            decompose(np.ones((2, 3)))

    def test_non_symmetric_rejected(self):
        # eigh reads one triangle: it would give -0.854 and 5.854, the
        # eigenvalues of [[1, 3], [3, 4]], not this matrix's -0.372 and 5.372
        with pytest.raises(DomainError) as info:
            decompose(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert str(info.value) == "matrix is not exactly symmetric"

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            decompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "name", ["uniform-6", "uniform-23", "optimized-6", "graded-23"]
    )
    def test_mirror_magnitudes_and_repeat_calls(self, mirror_chains, name):
        h = build_hamiltonian(mirror_chains[name])
        spec = decompose(h)
        v = spec.eigenvectors
        n = spec.n
        mags = np.abs(v)
        top = mags.max(axis=0)
        # mirror symmetry: |v_j| = |v_{N+1-j}| up to roundoff, which can
        # make either end of a pair the larger one
        assert np.all(np.abs(mags - mags[::-1]) <= 1e-8 * top)
        for m in range(n):
            lead = int(np.flatnonzero(mags[:, m] >= top[m] * (1 - 1e-6))[0])
            assert lead <= (n - 1) // 2
        # the two end-localized lowest states lead with the |v_1|, |v_N| pair
        assert np.all(mags[0, :2] >= top[:2] * (1 - 1e-6))
        again = decompose(h)
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)
        assert np.array_equal(again.eigenvectors, v)

    def test_lapack_failure_is_convergence_error(self, monkeypatch, capsys):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            decompose(np.eye(3))
        assert main(["chain-sweep", "--n-min", "2", "--n-max", "3"]) == 2
        assert "numeric error" in capsys.readouterr().err


class TestSignIndependence:
    """No output depends on the signs LAPACK gives the eigenvectors."""

    @staticmethod
    def _outputs():
        h10 = build_hamiltonian(uniform_chain(10))
        return {
            "summaries": [
                end_to_end_summary(build_hamiltonian(uniform_chain(n), coupling))
                for coupling in (DIPOLE, NEAREST_NEIGHBOUR)
                for n in range(2, 9)
            ],
            "bound_state": fit_bound_state(4, 14).as_dict(),
            "encoded": summarize_transfer(h10, *encoded_end_states(h10, 2)),
            "curve": fidelity_curve(
                decompose(h10), site_state(10, 1), site_state(10, 10), 4000.0, 2000
            ).values.tolist(),
            "disorder": [
                values.tolist() for values, _ in disorder._ensemble(
                    uniform_chain(4), DIPOLE, DisorderConfig(0.02, 50))[1]
            ],
        }

    def test_outputs_unchanged_when_alternate_eigenvectors_flip(self, monkeypatch):
        h = build_hamiltonian(uniform_chain(6))
        signed = decompose(h).eigenvectors
        clean = self._outputs()

        def flipped(matrices):
            vals, vecs = np.linalg.eigh(matrices)
            vecs[..., ::2] *= -1.0
            return vals, vecs

        monkeypatch.setattr(spectral, "_eigh", flipped)
        monkeypatch.setattr(disorder, "_eigh", flipped)
        assert np.array_equal(decompose(h).eigenvectors[:, ::2], -signed[:, ::2])
        assert self._outputs() == clean


class TestSiteState:
    def test_site_state_basis(self):
        s = site_state(4, 2)
        assert np.allclose(s.amplitudes, [0, 1, 0, 0])

    def test_out_of_range_site(self):
        with pytest.raises(DomainError):
            site_state(4, 5)
        with pytest.raises(DomainError):
            site_state(4, 0)

    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            SiteState(np.array([1.0, 1.0]))

    def test_nan_amplitude_refused(self):
        # a NaN norm is not within 1e-12 of 1; accepted, it made
        # summarize_transfer report f_max = nan at a finite t_peak
        with pytest.raises(DomainError, match="deviates from 1 by nan"):
            SiteState(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_construction_leaves_callers_arrays_writeable():
    # the objects hold read-only copies: the caller may reuse its arrays,
    # and editing them changes no object built from them
    e, v = np.array([0.0, 2.0]), np.eye(2)
    a = np.array([1.0, 0.0], dtype=complex)
    spec, state = SpectralDecomposition(e, v), SiteState(a)
    assert e.flags.writeable and v.flags.writeable and a.flags.writeable
    e[0], v[0, 0], a[:] = 5.0, 7.0, [0.0, 1.0]
    assert list(spec.eigenvalues) == [0.0, 2.0]
    assert np.array_equal(spec.eigenvectors, np.eye(2))
    assert list(state.amplitudes) == [1.0, 0.0]
    assert not (spec.eigenvalues.flags.writeable or state.amplitudes.flags.writeable)


class TestPropagator:
    def test_t_zero_identity(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        s = site_state(5, 2)
        assert _abs_at(spec, s, s, 0.0) == pytest.approx(1.0)
        assert _abs_at(spec, s, site_state(5, 4), 0.0) == pytest.approx(0.0)

    def test_two_level_sine(self):
        spec = decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        for t in (0.3, np.pi / 2.0, 2.1):
            f_abs = _abs_at(spec, site_state(2, 1), site_state(2, 2), t)
            assert f_abs == pytest.approx(abs(np.sin(t)), abs=1e-12)

    def test_dimension_mismatch(self):
        spec = decompose(np.eye(3))
        with pytest.raises(ShapeError):
            _abs_at(spec, site_state(3, 1), site_state(4, 1), 1.0)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_unitarity(self, n):
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        for t in (0.7, 13.0, 211.0):
            total = sum(
                _abs_at(spec, site_state(n, 1), site_state(n, s), t) ** 2
                for s in range(1, n + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 8])
    def test_shift_invariance(self, n):
        h = build_hamiltonian(uniform_chain(n)).matrix
        shifted = h + 7.3 * np.eye(n)
        t = np.linspace(0.0, 40.0, 101)
        a = propagator_abs_grid(decompose(h), site_state(n, 1), site_state(n, n), t)
        b = propagator_abs_grid(
            decompose(shifted), site_state(n, 1), site_state(n, n), t
        )
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_matches_rk4_oracle(self, n):
        h = build_hamiltonian(uniform_chain(n))
        spec = decompose(h)
        psi0 = np.zeros(n)
        psi0[0] = 1.0
        times = (1.0, 10.0, 100.0)
        for t, psi in zip(times, rk4_evolve(h.matrix, psi0, times, dt=1e-3)):
            f_oracle = abs(psi[-1])
            f_eig = _abs_at(spec, site_state(n, 1), site_state(n, n), t)
            assert f_eig == pytest.approx(f_oracle, abs=1e-8)

    def test_mirror_transfer_symmetry(self):
        n = 7
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        t = np.linspace(0.0, 50.0, 64)
        fwd = propagator_abs_grid(spec, site_state(n, 1), site_state(n, n), t)
        bwd = propagator_abs_grid(spec, site_state(n, n), site_state(n, 1), t)
        assert np.array_equal(fwd, bwd)


class TestGridKernel:
    @pytest.mark.parametrize("endpoint", [True, False])
    @pytest.mark.parametrize("n", [2, 6, 23, 64])
    def test_matches_direct_sum_over_one_beat(self, n, endpoint):
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        # 30011 points: the last sqrt-sized block is partial
        times = np.linspace(0.0, 2.0 * np.pi / spec.splitting, 30_011, endpoint=endpoint)
        fa = propagator_abs_grid(spec, site_state(n, 1), site_state(n, n), times)
        assert np.max(np.abs(fa - _direct_abs(spec, times))) <= 1e-9

    @pytest.mark.parametrize(
        "n, points, start",
        [(23, 30_011, None), (23, 54_001, None), (64, 54_001, None),
         (128, 20_011, 1.8e7)],
    )
    def test_factored_tables_match_direct_sum(self, n, points, start):
        # Both tables of these grids are factored, each cut from a longer
        # coarse x fine product, and the grid's last block is partial:
        # 30,011 points are 173 blocks of 174, tables of 173 and 174 rows
        # from 13 x 14; 54,001 are 232 of 233 (15 x 16) and 20,011 are 141
        # of 142 (12 x 12). The bound is the peak search's roundoff slack,
        # 8 eps (1 + t_max E_max) at the grid's last time.
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        e = spec.eigenvalues - spec.eigenvalues[0]
        if start is None:  # the search window, one beat
            times = np.linspace(0.0, 2.0 * np.pi / spec.splitting, points)
        else:  # the search's 4 samples per period of the fastest frequency
            step = 2.0 * np.pi / (4.0 * e[-1])
            times = np.linspace(start, start + (points - 1) * step, points)
        block = math.isqrt(points - 1) + 1
        assert n * (points // block) >= spectral._SHORT
        fa = propagator_abs_grid(spec, site_state(n, 1), site_state(n, n), times)
        slack = 8.0 * np.finfo(float).eps * (1.0 + times[-1] * e[-1])
        assert np.max(np.abs(fa - _direct_abs(spec, times))) <= slack

    @pytest.mark.parametrize("n", [1, 2, 4, 23, 64])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_short_tables_take_one_exponential_per_entry(self, n, stride):
        # the longest table below the size rule, on a linspace grid's own
        # points and from 0: one exponential each, to the bit
        rng = np.random.default_rng(n * 10 + stride)
        e = np.sort(rng.uniform(0.0, 5.0, n))
        e -= e[0]
        ie = e[:, None] * -1j
        count = (spectral._SHORT - 1) // n
        grid = np.linspace(5.0, 905.0, count * stride + 1)
        dt = (grid[-1] - grid[0]) / (len(grid) - 1)
        table = spectral._phases(ie, grid, dt, count, stride)
        assert np.array_equal(table, np.exp(-1j * np.outer(e, grid[:-1:stride])))
        table = spectral._phases(ie, None, dt, count, stride)
        offsets = np.arange(count) * stride * dt
        assert np.array_equal(table, np.exp(-1j * np.outer(e, offsets)))
        # one entry more per energy row is factored, within the slack
        table = spectral._phases(ie, grid, dt, count + 1, stride)
        times = grid[0] + np.arange(count + 1) * stride * dt
        slack = 8.0 * np.finfo(float).eps * (1.0 + times[-1] * e[-1])
        assert np.max(np.abs(table - np.exp(-1j * np.outer(e, times)))) <= slack

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_or_two_columns_at_many_energies(self, count):
        # 512 energies put tables of one or two columns at the size rule;
        # they cannot be cut into shorter factors and take one exponential
        # per entry (and the factoring's recursion ends)
        e, v = nn_chain_eigenpairs(512)  # e[0] = 0
        ie = e[:, None] * -1j
        grid = np.linspace(2.0, 9.0, 2 * count + 1)
        dt = (grid[-1] - grid[0]) / (len(grid) - 1)
        assert len(e) * count >= spectral._SHORT
        table = spectral._phases(ie, grid, dt, count, 2)
        assert np.array_equal(table, np.exp(-1j * np.outer(e, grid[:-1:2])))
        table = spectral._phases(ie, None, dt, count, 2)
        offsets = np.arange(count) * 2 * dt
        assert np.array_equal(table, np.exp(-1j * np.outer(e, offsets)))
        # the kernel on one or two points at N = 512, as in the search's
        # one-point height call
        spec = SpectralDecomposition(e, v)
        times = grid[:count]
        fa = propagator_abs_grid(spec, site_state(512, 1), site_state(512, 512), times)
        assert np.max(np.abs(fa - direct_abs(v[-1] * v[0], e, times))) <= 1e-12

    @pytest.mark.parametrize(
        "times",
        [np.linspace(3.0, 400.0, 2000), np.linspace(0.3, 400.1, 7),
         np.linspace(0.3, 400.1, 13), np.arange(17.0, 30.0) * 0.37],
        ids=["linspace-2000", "linspace-7", "linspace-13", "steps-13"],
    )
    def test_short_grid_is_one_product_of_its_points(self, times):
        # N = 6, both tables below the size rule: the kernel is one product
        # of one exponential per entry at the grid's own block starts, to
        # the bit. The 7- and 13-point grids end on a block start, which a
        # start formed as t0 + (b B) dt can miss by an ulp; the last is a
        # grid of the peak search, (lo + i) step
        spec = decompose(build_hamiltonian(uniform_chain(6)))
        w, e = spectral.transfer_terms(spec, site_state(6, 1), site_state(6, 6))
        k = len(times)
        block = math.isqrt(k - 1) + 1
        offsets = np.arange(block) * ((times[-1] - times[0]) / (k - 1))
        rows = np.exp(-1j * np.outer(times[::block], e)) * w
        reference = np.abs(rows @ np.exp(-1j * np.outer(e, offsets))).ravel()[:k]
        fa = propagator_abs_grid(spec, site_state(6, 1), site_state(6, 6), times)
        assert np.array_equal(fa, reference)

    def test_full_chain_sweep_grid(self):
        # the coarse grid that chain-sweep scans at N = 23
        spec = decompose(build_hamiltonian(uniform_chain(23)))
        times = np.linspace(0.0, 2.0 * np.pi / spec.splitting, 774_496)
        fa = propagator_abs_grid(spec, site_state(23, 1), site_state(23, 23), times)
        assert np.max(np.abs(fa - _direct_abs(spec, times))) <= 1e-9

    def test_matches_closed_form_nn_chain(self):
        # the N = 1024 nn chain from its closed-form eigenpairs: neither side
        # of the comparison runs an eigensolver
        n = 1024
        e, v = nn_chain_eigenpairs(n)
        times = np.linspace(0.0, 600.0, 4001)
        fa = propagator_abs_grid(
            SpectralDecomposition(e, v), site_state(n, 1), site_state(n, n), times
        )
        assert np.max(np.abs(fa - direct_abs(v[-1] * v[0], e, times))) <= 1e-12

    def test_short_grids(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        a, b = site_state(5, 1), site_state(5, 5)
        for times in ([3.7], [0.0, 12.5], [1e4, 1e4]):
            fa = propagator_abs_grid(spec, a, b, np.array(times))
            assert np.allclose(fa, _direct_abs(spec, np.array(times)), atol=1e-12)
        assert propagator_abs_grid(spec, a, b, np.array([])).shape == (0,)

    @pytest.mark.parametrize("ends", [(0.0, 1e308), (-1e308, 0.0)])
    def test_phase_overflow_rejected(self, ends):
        # max |t| (E_max - E_0) passes float max: refused before any phase
        # is formed, not NaN with overflow warnings
        spec = decompose(build_hamiltonian(uniform_chain(4)))
        a, b = site_state(4, 1), site_state(4, 4)
        with pytest.raises(DomainError, match="overflow a float"):
            propagator_abs_grid(spec, a, b, np.linspace(*ends, 3))

    def test_non_uniform_grid_rejected(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        a, b = site_state(5, 1), site_state(5, 5)
        with pytest.raises(DomainError):
            propagator_abs_grid(spec, a, b, np.array([0.0, 1.0, 3.0]))
        times = np.linspace(0.0, 100.0, 100_001)
        times[70_000] += 1e-9
        with pytest.raises(DomainError):
            propagator_abs_grid(spec, a, b, times)

    def test_nan_time_rejected(self):
        # a NaN between finite ends is not within tolerance of the uniform
        # grid; accepted, it came back as |f(1)|
        spec = decompose(build_hamiltonian(uniform_chain(4)))
        a, b = site_state(4, 1), site_state(4, 4)
        with pytest.raises(DomainError, match="time grid is not uniform"):
            propagator_abs_grid(spec, a, b, [0.0, np.nan, 2.0])


def _kernel_row_counts(n, count):
    """Row counts that run one row, two rows, one short of and one past a
    whole block, and several blocks, for N = n and ``count`` columns."""
    block = max(spectral._BLOCK_ELEMENTS // count, 1)
    rows = {1, 2, block - 1, block + 1, 2 * block + block // 2 + 1}
    # the reference holds every row at once; at most 2^20 elements (16 MiB)
    # keeps the class near a second
    return sorted(r for r in rows if r >= 1 and r * (n + count) <= 1 << 20)


class TestKernelShape:
    """The grid kernel's cut into row blocks changes no bit of its output.

    The reference is the same product formed in one call over all the rows,
    with the kernel's own column table (a long one is factored, see
    ``_phases``). BLAS computes each element of a multi-row product alike
    whatever the number of rows, but a one-row product goes through
    ``gemv``, whose sums round differently, so the rule under test is that
    the kernel never forms a one-row product where the reference has more
    rows.
    """

    @pytest.mark.parametrize("count", [1, 2, 9, 622, 1024])
    @pytest.mark.parametrize("n", [1, 2, 4, 23, 31, 32, 64])
    def test_bit_identical_to_one_product(self, n, count):
        rng = np.random.default_rng(n * 10_000 + count)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        e = np.sort(rng.uniform(0.0, 5.0, n))
        e -= e[0]
        step = 0.37
        inner = spectral._phases(e[:, None] * -1j, None, step, count)
        for rows in _kernel_row_counts(n, count):
            starts = rng.uniform(0.0, 1e3, rows)
            reference = np.abs((np.exp(-1j * np.outer(starts, e)) * w) @ inner)
            assert np.array_equal(spectral.abs_runs(w, e, starts, step, count), reference)


# With OPENBLAS_NUM_THREADS unset, imports the package (and so numpy), runs
# the paper's chain sweeps and the rings whose eigensolves BLAS would thread
# (N >= 26), and prints the process's thread count and the CPU time spent
# off the main thread.
_THREAD_HARNESS = """
import os
import time
os.environ.pop("OPENBLAS_NUM_THREADS", None)
import dipolink
for coupling in (dipolink.DIPOLE, dipolink.NEAREST_NEIGHBOUR):
    dipolink.chain_sweep(2, 23, coupling)
dipolink.ring_sweep(26, 30)
print(len(os.listdir("/proc/self/task")), time.process_time() - time.thread_time())
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_package_keeps_blas_on_one_thread():
    """Importing the package before numpy pins OpenBLAS to the calling
    thread: no worker thread is started, so none spins (two threads and
    about 0.1 s of CPU off the main one when OpenBLAS starts its worker)."""
    proc = run_fresh(_THREAD_HARNESS)
    assert proc.returncode == 0, proc.stderr
    threads, off_main = proc.stdout.split()
    assert int(threads) == 1
    assert float(off_main) < 0.005


def test_preset_blas_threads_kept():
    """A BLAS thread count set before the import is left as it is."""
    proc = run_fresh(
        "import os\nos.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "import dipolink\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"


class TestFidelity:
    def test_endpoints(self):
        assert fidelity(1.0) == pytest.approx(1.0)
        assert fidelity(0.0) == pytest.approx(0.5)

    def test_half(self):
        assert fidelity(0.5) == pytest.approx(0.5 / 3.0 + 0.25 / 6.0 + 0.5)

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 50)
        ys = [fidelity(x) for x in xs]
        assert np.all(np.diff(ys) > 0)

    def test_clamps_tiny_overshoot(self):
        assert fidelity(1.0 + 1e-12) == pytest.approx(1.0)

    def test_rejects_large_overshoot(self):
        with pytest.raises(DomainError):
            fidelity(1.1)
        with pytest.raises(DomainError):
            fidelity(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(DomainError, match=r"\|f\| = nan outside \[0, 1\]"):
            fidelity(np.nan)
        with pytest.raises(DomainError, match="nan outside"):
            fidelity(np.array([0.5, np.nan]))

    def test_array_matches_scalar(self):
        xs = np.array([0.0, 0.25, 0.5, 0.999, 1.0, 1.0 + 1e-12])
        assert isinstance(fidelity(0.5), float)
        assert np.array_equal(fidelity(xs), [fidelity(x) for x in xs])
        with pytest.raises(DomainError):
            fidelity(np.array([0.5, 1.1]))
        with pytest.raises(DomainError):
            fidelity(np.array([-0.1, 0.5]))


class TestFidelityCurve:
    def test_grid_and_bounds(self):
        n = 6
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        curve = fidelity_curve(
            spec, site_state(n, 1), site_state(n, n), t_max=50.0, n_steps=201
        )
        assert curve.times[0] == 0.0
        assert curve.times[-1] == pytest.approx(50.0)
        assert curve.values[0] == pytest.approx(0.5)
        assert np.all(curve.values >= 0.5 - 1e-9)
        assert np.all(curve.values <= 1.0 + 1e-9)

    def test_two_level_curve_analytic(self):
        spec = decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        curve = fidelity_curve(
            spec, site_state(2, 1), site_state(2, 2), t_max=6.0, n_steps=500
        )
        expected = [fidelity(abs(np.sin(t))) for t in curve.times]
        assert np.allclose(curve.values, expected, atol=1e-10)
        # levels 0 and 2: the fastest period is pi
        assert curve.samples_per_period == pytest.approx(499 * np.pi / 6.0)
        assert not curve.undersampled

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError, match="equal length"):
            FidelityCurve(np.zeros(3), np.zeros(2), None)

    def test_flat_spectrum_has_no_sampling_rate(self):
        s = site_state(2, 1)
        curve = fidelity_curve(decompose(np.eye(2)), s, s, t_max=1.0, n_steps=3)
        assert curve.samples_per_period is None
        assert not curve.undersampled

    def test_csv_format(self, capsys):
        from dipolink.cli import main

        spec = decompose(build_hamiltonian(uniform_chain(3)))
        curve = fidelity_curve(
            spec, site_state(3, 1), site_state(3, 3), t_max=1.0, n_steps=3
        )
        assert main(["fidelity-curve", "--n", "3", "--t-max", "1",
                     "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,F"
        assert lines[1:] == [
            f"{t:.17g},{v:.17g}" for t, v in zip(curve.times, curve.values)
        ]

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_non_finite_window(self, t_max):
        spec = decompose(np.eye(2))
        s = site_state(2, 1)
        with pytest.raises(DomainError):
            fidelity_curve(spec, s, s, t_max=t_max, n_steps=5)

    def test_invalid_grid(self):
        spec = decompose(np.eye(2))
        s = site_state(2, 1)
        with pytest.raises(DomainError):
            fidelity_curve(spec, s, s, t_max=0.0, n_steps=5)
        with pytest.raises(DomainError):
            fidelity_curve(spec, s, s, t_max=1.0, n_steps=1)

    @pytest.mark.parametrize("c_const, t_max, message", [
        # the step t_max / 2 is subnormal, or rounds to 0
        (2.0, 1e-310, "grid step 5e-311 = t_max / 2 is below"),
        (2.0, 5e-324, "grid step 0 = t_max / 2 is below"),
        # t_max (E_max - E_min) is subnormal, or underflows to 0 on a
        # spectrum that is not flat
        (1e-300, 1e-10, "samples per period overflow a float"),
        (1e-300, 1e-30, "samples per period overflow a float"),
    ], ids=["step-1e-310", "step-5e-324", "count-1e-10", "count-1e-30"])
    def test_grid_past_float_range(self, c_const, t_max, message):
        h = build_hamiltonian(uniform_chain(4), CouplingSpec("dipole", c_const))
        with pytest.raises(DomainError, match=message):
            fidelity_curve(decompose(h), site_state(4, 1), site_state(4, 4), t_max, 3)
