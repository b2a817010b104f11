"""Placement optimizer and encoded-state tests."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolink
from dipolink import optimize
from dipolink import (
    DomainError,
    Geometry,
    InfeasibleConstraintError,
    PlacementResult,
    SearchConfig,
    Topology,
    build_hamiltonian,
    n_free_gaps,
    encoded_end_states,
    optimize_placement,
    site_state,
    summarize_transfer,
    uniform_chain,
)


@pytest.fixture(scope="module")
def four_spin_result():
    return optimize_placement(4)


class TestFreeParameters:
    def test_counts(self):
        assert n_free_gaps(3) == 0
        assert n_free_gaps(4) == 1
        assert n_free_gaps(5) == 1
        assert n_free_gaps(6) == 2
        assert n_free_gaps(7) == 2


class TestOptimizePlacement:
    def test_three_spin_returns_uniform(self):
        res = optimize_placement(3)
        assert res.best_gaps == pytest.approx((0.5, 0.5))

    def test_four_spin_paper_optimum(self, four_spin_result):
        res = four_spin_result
        assert res.best_gaps[0] == pytest.approx(0.314, abs=0.005)
        assert res.best_gaps[1] == pytest.approx(0.373, abs=0.005)
        assert res.best_gaps[2] == pytest.approx(res.best_gaps[0], abs=1e-9)
        assert res.tau == pytest.approx(0.512, abs=0.01)

    def test_mirror_soundness(self, four_spin_result):
        pos = np.asarray(four_spin_result.geometry.positions)
        assert pos[0] == 0.0
        assert pos[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pos, 1.0 - pos[::-1], atol=1e-9)

    def test_never_worse_than_uniform(self, four_spin_result):
        # uniform unit 4-chain: tau = pi / dl with dl from its spectrum
        from dipolink import decompose

        unit_chain = Geometry(Topology.CHAIN, tuple(np.arange(4) * (1.0 / 3)))
        h = build_hamiltonian(unit_chain)
        uniform_tau = np.pi / decompose(h).splitting
        assert four_spin_result.tau <= uniform_tau + 1e-12
        assert uniform_tau == pytest.approx(0.568, abs=0.01)

    def test_fidelity_constraint_verified(self, four_spin_result):
        assert four_spin_result.f_max >= 0.99

    def test_report_fields(self, four_spin_result):
        report = four_spin_result.report
        for key in ("start_gaps", "best_gaps", "tau", "f_max", "evaluations"):
            assert key in report
        assert report["converged"]

    def test_report_is_the_fields_in_order(self, four_spin_result):
        names = [f.name for f in dataclasses.fields(PlacementResult)]
        report = four_spin_result.report
        assert list(report) == [*names, "converged"]
        assert all(report[k] == getattr(four_spin_result, k) for k in names)

    def test_deterministic(self):
        a = optimize_placement(4, config=SearchConfig(restarts=2, seed=7))
        b = optimize_placement(4, config=SearchConfig(restarts=2, seed=7))
        assert a.best_gaps == b.best_gaps
        assert a.tau == b.tau

    def test_too_few_spins(self):
        with pytest.raises(DomainError):
            optimize_placement(2)


def _assert_same_run(func, x0):
    """Run scipy's Nelder-Mead and ``_nelder_mead`` on func from x0 and
    require the same calls and the same bits; returns (fun, x)."""
    from scipy.optimize import minimize

    calls = [0]

    def counted(x):
        calls[0] += 1
        return func(x)

    with np.errstate(invalid="ignore"):
        ref = minimize(counted, x0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 400})
        assert calls[0] == ref.nfev
        calls[0] = 0
        fun, x = optimize._nelder_mead(counted, np.asarray(x0, dtype=float))
    assert calls[0] == ref.nfev
    assert np.array_equal(fun, ref.fun)
    assert np.array_equal(x, ref.x)
    return fun, x


class TestNelderMeadMatchesScipy:
    """``_nelder_mead`` takes scipy's steps: same calls, same bits."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_placement_objective(self, monkeypatch, n):
        # record the objective and the four starts the search hands over
        runs = []
        own = optimize._nelder_mead

        def recording(func, x0):
            runs.append((func, np.array(x0)))
            return own(func, x0)

        monkeypatch.setattr(optimize, "_nelder_mead", recording)
        try:
            optimize_placement(n, config=SearchConfig(restarts=3))
        except InfeasibleConstraintError:
            pass
        monkeypatch.undo()
        assert len(runs) == 4
        assert np.array_equal(runs[0][1], np.full(n_free_gaps(n), 1.0 / (n - 1)))
        for func, x0 in runs:
            _assert_same_run(func, x0)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.7, 1.3]])
    def test_rosenbrock(self, x0):
        from scipy.optimize import rosen

        _assert_same_run(rosen, x0)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.7, 1.3]])
    def test_ties_on_plateaus(self, x0):
        # a staircase makes equal values common, so each `<` or `<=`
        # comparison meets ties
        _assert_same_run(lambda x: float(np.floor(8 * np.sum((x - 0.3) ** 2))), x0)

    def test_infinite_past_a_wall(self):
        # the minimum at (1, 2) lies past the wall x_0 > 0.8, as the gap
        # floor's inf does for placements
        def walled(x):
            if x[0] > 0.8:
                return np.inf
            return float(np.sum((x - np.array([1.0, 2.0])) ** 2))

        fun, x = _assert_same_run(walled, [0.5, 0.5])
        assert x[0] == pytest.approx(0.8, abs=1e-6) and np.isfinite(fun)
        _assert_same_run(walled, [0.9, 0.5])  # starts past the wall


# Runs one placement search and prints whether any scipy module got loaded.
_NO_SCIPY_HARNESS = """
import sys
from dipolink.cli import main
code = main(["optimize-placement", "--n", "5"])
print([name for name in sys.modules if name.startswith("scipy")], code)
"""


def test_placement_runs_without_scipy():
    src = str(Path(dipolink.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_HARNESS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"


class TestEncodedEndStates:
    def test_width_one_is_site_states(self):
        h = build_hamiltonian(uniform_chain(8))
        s_in, s_out = encoded_end_states(h, 1)
        assert np.allclose(np.abs(s_in.amplitudes), site_state(8, 1).amplitudes)
        assert np.allclose(np.abs(s_out.amplitudes), site_state(8, 8).amplitudes)

    def test_orthogonal_supports(self):
        h = build_hamiltonian(uniform_chain(10))
        s_in, s_out = encoded_end_states(h, 3)
        assert np.vdot(s_in.amplitudes, s_out.amplitudes) == 0.0
        assert np.allclose(s_in.amplitudes[3:], 0.0)
        assert np.allclose(s_out.amplitudes[:7], 0.0)

    def test_mirror_image(self):
        h = build_hamiltonian(uniform_chain(10))
        s_in, s_out = encoded_end_states(h, 2)
        assert np.allclose(
            s_out.amplitudes[::-1][:2], s_in.amplitudes[:2]
        )

    def test_encoded_raises_fidelity(self):
        h = build_hamiltonian(uniform_chain(10))
        single = summarize_transfer(h, site_state(10, 1), site_state(10, 10))
        s_in, s_out = encoded_end_states(h, 2)
        encoded = summarize_transfer(h, s_in, s_out)
        assert encoded.f_max > single.f_max
        assert encoded.f_max > 0.997

    def test_width_out_of_range(self):
        h = build_hamiltonian(uniform_chain(6))
        with pytest.raises(DomainError):
            encoded_end_states(h, 0)
        with pytest.raises(DomainError):
            encoded_end_states(h, 4)


class TestOffEndTransfer:
    @staticmethod
    def between(h, r, s):
        return summarize_transfer(h, site_state(h.n, r), site_state(h.n, s))

    def test_degraded_off_ends(self):
        h = build_hamiltonian(uniform_chain(10))
        base = self.between(h, 1, 10)
        assert self.between(h, 2, 10).f_max < base.f_max
        assert self.between(h, 1, 9).f_max < base.f_max

    def test_identity_transfer_is_trivial(self):
        h = build_hamiltonian(uniform_chain(5))
        s = self.between(h, 1, 1)
        assert s.f_max == pytest.approx(1.0, abs=1e-9)

    def test_site_bounds(self):
        h = build_hamiltonian(uniform_chain(5))
        with pytest.raises(DomainError):
            self.between(h, 0, 5)
        with pytest.raises(DomainError):
            self.between(h, 1, 6)
