"""Eigensolver, propagator and fidelity tests, including independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolink import (
    ConvergenceError,
    DomainError,
    Geometry,
    NumericInputError,
    ShapeError,
    SiteState,
    Topology,
    build_hamiltonian,
    decompose,
    fidelity,
    fidelity_curve,
    propagator,
    propagator_abs_grid,
    site_state,
    uniform_chain,
)
from dipolink.cli import main
from dipolink.optimize import optimize_placement

from conftest import rk4_evolve


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


def _direct_abs(spec, times, chunk=20_000):
    """|f| for 1 -> N with one exponential per (t, m), chunked over t.

    Energies are measured from E_0 as in the kernel: |f| does not depend on
    the shift, while unshifted float64 phases E_m t lose about 1e-8 at
    N = 64, where E_0 is near -73 and one beat lasts 2.5e6.
    """
    v = spec.eigenvectors
    w = v[0] * v[-1]
    e = spec.eigenvalues - spec.eigenvalues[0]
    return np.concatenate([
        np.abs(np.exp(-1j * np.outer(times[lo : lo + chunk], e)) @ w)
        for lo in range(0, len(times), chunk)
    ])


class TestDecompose:
    def test_two_by_two_analytic(self):
        spec = decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(spec.eigenvectors), s, atol=1e-12)
        # sign convention: largest-magnitude component positive
        assert spec.eigenvectors[0, 0] > 0
        assert spec.eigenvectors[0, 1] > 0

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

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            decompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "name", ["uniform-6", "uniform-23", "optimized-6", "graded-23"]
    )
    def test_mirror_ties_resolve_to_lowest_index(self, mirror_chains, name):
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
            assert v[lead, m] > 0
        # the two end-localized lowest states lead with the |v_1|, |v_N| pair
        assert np.all(mags[0, :2] >= top[:2] * (1 - 1e-6))
        assert np.all(v[0, :2] > 0)
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


class TestPropagator:
    def test_t_zero_identity(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        s = site_state(5, 2)
        assert propagator(spec, s, s, 0.0) == pytest.approx(1.0)
        assert propagator(spec, s, site_state(5, 4), 0.0) == pytest.approx(0.0)

    def test_two_level_sine(self):
        spec = decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        for t in (0.3, np.pi / 2.0, 2.1):
            f = propagator(spec, site_state(2, 1), site_state(2, 2), t)
            assert abs(f) == pytest.approx(abs(np.sin(t)), abs=1e-12)

    def test_dimension_mismatch(self):
        spec = decompose(np.eye(3))
        with pytest.raises(ShapeError):
            propagator(spec, site_state(3, 1), site_state(4, 1), 1.0)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_unitarity(self, n):
        spec = decompose(build_hamiltonian(uniform_chain(n)))
        for t in (0.7, 13.0, 211.0):
            total = sum(
                abs(propagator(spec, site_state(n, 1), site_state(n, s), t)) ** 2
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
        for t in (1.0, 10.0, 100.0):
            psi = rk4_evolve(h.matrix, psi0, t, dt=1e-3)
            f_oracle = abs(psi[-1])
            f_eig = abs(propagator(spec, site_state(n, 1), site_state(n, n), t))
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

    def test_full_chain_sweep_grid(self):
        # the coarse grid that chain-sweep scans at N = 23
        spec = decompose(build_hamiltonian(uniform_chain(23)))
        times = np.linspace(0.0, 2.0 * np.pi / spec.splitting, 774_496)
        fa = propagator_abs_grid(spec, site_state(23, 1), site_state(23, 23), times)
        assert np.max(np.abs(fa - _direct_abs(spec, times))) <= 1e-9

    def test_short_grids(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        a, b = site_state(5, 1), site_state(5, 5)
        for times in ([3.7], [0.0, 12.5], [1e4, 1e4]):
            fa = propagator_abs_grid(spec, a, b, np.array(times))
            expected = [abs(propagator(spec, a, b, t)) for t in times]
            assert np.allclose(fa, expected, atol=1e-12)
        assert propagator_abs_grid(spec, a, b, np.array([])).shape == (0,)

    def test_non_uniform_grid_rejected(self):
        spec = decompose(build_hamiltonian(uniform_chain(5)))
        a, b = site_state(5, 1), site_state(5, 5)
        with pytest.raises(DomainError):
            propagator_abs_grid(spec, a, b, np.array([0.0, 1.0, 3.0]))
        times = np.linspace(0.0, 100.0, 100_001)
        times[70_000] += 1e-9
        with pytest.raises(DomainError):
            propagator_abs_grid(spec, a, b, times)


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
