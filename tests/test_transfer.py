"""Peak extraction, sweeps and timing-metric tests."""

import numpy as np
import pytest

from dipolink import (
    DIPOLE,
    DomainError,
    Geometry,
    NEAREST_NEIGHBOUR,
    Topology,
    antipodal_site,
    build_hamiltonian,
    chain_sweep,
    decompose,
    default_window,
    end_to_end_summary,
    find_peak,
    propagator_abs_grid,
    ring_sweep,
    site_state,
    summarize_transfer,
    uniform_chain,
)
from dipolink import transfer

from conftest import expm_transfer_abs


@pytest.fixture(scope="module")
def dipole_rows():
    return chain_sweep(2, 23)


class TestSummarizeTransfer:
    def test_two_spin_analytic(self):
        s = end_to_end_summary(build_hamiltonian(uniform_chain(2)))
        assert s.f_max == pytest.approx(1.0, abs=1e-9)
        assert s.t_peak == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert s.delta_lambda == pytest.approx(2.0, abs=1e-10)
        assert s.period == pytest.approx(np.pi, abs=1e-9)
        assert s.tau == pytest.approx(np.pi / 2.0, abs=1e-6)

    def test_period_matches_splitting(self, dipole_rows):
        for row in dipole_rows:
            s = row.summary
            assert s.period == pytest.approx(2.0 * np.pi / s.delta_lambda)

    def test_ten_spin_peak_near_half_period(self):
        # two-level beating: the first peak sits within ~10% of pi/dl (the
        # fast ripple shifts it slightly off the beat top)
        s = end_to_end_summary(build_hamiltonian(uniform_chain(10)))
        assert s.t_peak == pytest.approx(np.pi / s.delta_lambda, rel=0.1)

    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_scale_covariance(self, coupling):
        # the nn chain's default window is in units of its own nn coupling,
        # so it must scale with the spacing read from the Hamiltonian
        base = end_to_end_summary(build_hamiltonian(uniform_chain(5), coupling))
        scale = 1.7
        g = Geometry(
            Topology.CHAIN, tuple(scale * p for p in uniform_chain(5).positions)
        )
        scaled = end_to_end_summary(build_hamiltonian(g, coupling))
        assert scaled.t_peak == pytest.approx(base.t_peak * scale**3, rel=1e-8)
        assert scaled.f_max == pytest.approx(base.f_max, abs=1e-8)
        assert scaled.tau == pytest.approx(base.tau, rel=1e-8)

    def test_reversal_symmetry(self):
        h = build_hamiltonian(uniform_chain(6))
        fwd = summarize_transfer(h, site_state(6, 1), site_state(6, 6))
        bwd = summarize_transfer(h, site_state(6, 6), site_state(6, 1))
        assert fwd == bwd

    def test_boundary_peak_flagged(self):
        # a window ending well before the first maximum leaves |f| rising at
        # the trailing edge
        h = build_hamiltonian(uniform_chain(2))
        s = end_to_end_summary(h, t_max=0.5)
        assert s.boundary_peak

    def test_refined_peak_beats_coarse_grid(self, monkeypatch):
        h = build_hamiltonian(uniform_chain(7))
        spec = decompose(h)
        t_max = default_window(h, spec)
        monkeypatch.setattr(transfer, "_grid_size", lambda t_max, bandwidth: 2000)
        f_abs, t_peak, _ = find_peak(spec, site_state(7, 1), site_state(7, 7), t_max)
        grid = np.linspace(0.0, t_max, 2000)
        coarse = propagator_abs_grid(
            spec, site_state(7, 1), site_state(7, 7), grid
        ).max()
        assert f_abs >= coarse

    def test_invalid_window(self):
        h = build_hamiltonian(uniform_chain(3))
        with pytest.raises(DomainError):
            end_to_end_summary(h, t_max=-1.0)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_non_finite_window(self, t_max):
        spec = decompose(build_hamiltonian(uniform_chain(3)))
        with pytest.raises(DomainError):
            find_peak(spec, site_state(3, 1), site_state(3, 3), t_max)


class TestWindowMaximum:
    """find_peak returns the maximum of |f| over its window.

    The known-peak cases hold a peak that a parabolic screen of the coarse
    grid dropped: the value returned must reach the matrix-exponential |f|
    at the known peak time. The other cases check that neither the coarse
    grid nor how its kept intervals are batched changes the peak.
    """

    @pytest.mark.parametrize(
        "n, coupling, t_max, t_known",
        [
            (4, DIPOLE, 5e4, 38867.118),
            (4, DIPOLE, 1e6, 442869.979),
            (5, NEAREST_NEIGHBOUR, None, 2773.397),
        ],
    )
    def test_reaches_oracle_at_known_peak(self, n, coupling, t_max, t_known):
        h = build_hamiltonian(uniform_chain(n), coupling)
        spec = decompose(h)
        if t_max is None:
            t_max = default_window(h, spec)
        f_abs, t_peak, _ = find_peak(spec, site_state(n, 1), site_state(n, n), t_max)
        oracle = expm_transfer_abs(
            uniform_chain(n).positions, t_known, model=coupling.model.value
        )
        assert f_abs >= oracle - 1e-9
        assert expm_transfer_abs(
            uniform_chain(n).positions, t_peak, model=coupling.model.value
        ) == pytest.approx(f_abs, abs=1e-9)

    def test_earliest_of_equal_peaks(self):
        # |f| = |sin t| on the 2-spin chain: every peak reaches 1, and the
        # first one is reported
        h = build_hamiltonian(uniform_chain(2))
        f_abs, t_peak, _ = find_peak(
            decompose(h), site_state(2, 1), site_state(2, 2), 1000.0
        )
        assert f_abs == pytest.approx(1.0, abs=1e-12)
        assert t_peak == pytest.approx(np.pi / 2.0, abs=1e-6)

    @pytest.mark.parametrize(
        "n, output, t_max, grid_points",
        [
            (7, 7, None, 50),
            # every one of the 40 000 intervals is kept, so the screen runs
            # in batches, and the later ones lose all their intervals to the
            # maximum found in the first
            (4, 4, 1e5, 40_000),
            (4, 1, 1e5, 40_000),
        ],
    )
    def test_sub_nyquist_grid_still_finds_maximum(
        self, monkeypatch, n, output, t_max, grid_points
    ):
        # a coarse grid far below Nyquist only widens the screen's bound
        h = build_hamiltonian(uniform_chain(n))
        spec = decompose(h)
        if t_max is None:
            t_max = default_window(h, spec)
        args = (spec, site_state(n, 1), site_state(n, output), t_max)
        fine = find_peak(*args)
        monkeypatch.setattr(
            transfer, "_grid_size", lambda t_max, bandwidth: grid_points
        )
        coarse = find_peak(*args)
        assert coarse[0] == pytest.approx(fine[0], abs=1e-9)
        assert coarse[1] == pytest.approx(fine[1], rel=1e-7, abs=1e-6)
        oracle = expm_transfer_abs(uniform_chain(n).positions, coarse[1], target=output)
        assert oracle == pytest.approx(coarse[0], abs=1e-9)

    def test_batch_size_does_not_change_the_peak(self, monkeypatch):
        h = build_hamiltonian(uniform_chain(4))
        args = (decompose(h), site_state(4, 1), site_state(4, 4), 5e4)
        whole = find_peak(*args)
        monkeypatch.setattr(transfer, "_BATCH", 16)
        assert find_peak(*args) == whole


class TestChainSweep:
    def test_row_ordering_and_shape(self, dipole_rows):
        assert [r.n for r in dipole_rows] == list(range(2, 24))
        assert all(r.model == "dipole" and r.topology == "chain" for r in dipole_rows)

    def test_high_fidelity_band(self, dipole_rows):
        for row in dipole_rows:
            assert row.summary.f_max >= 0.9, f"N={row.n}"

    def test_pinned_fidelities(self, dipole_rows):
        pinned = {
            2: 1.0,
            3: 0.998312,
            4: 0.991050,
            5: 0.939487,
            10: 0.982561,
            15: 0.964156,
            23: 0.960159,
        }
        by_n = {r.n: r.summary.f_max for r in dipole_rows}
        for n, f in pinned.items():
            assert by_n[n] == pytest.approx(f, abs=1e-4)

    def test_cubic_scaling_of_peak_time(self, dipole_rows):
        rows = [r for r in dipole_rows if 15 <= r.n <= 23]
        x = np.log([r.summary.length for r in rows])
        y = np.log([r.summary.t_peak for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_nn_dips_at_multiples_of_three(self):
        rows = chain_sweep(5, 13, NEAREST_NEIGHBOUR)
        by_n = {r.n: r.summary.f_max for r in rows}
        for n in (6, 9, 12):
            assert by_n[n] < by_n[n - 1]
            assert by_n[n] < by_n[n + 1]

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            chain_sweep(5, 3)
        with pytest.raises(DomainError):
            chain_sweep(1, 5)

    def test_csv_format(self, dipole_rows, capsys):
        from dipolink.cli import main

        assert main(["chain-sweep", "--n-min", "2", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "n,model,topology,f_max,t_peak,delta_lambda,tau,period,length,"
            "boundary_peak"
        )
        assert len(lines) == 4
        for line, row in zip(lines[1:], dipole_rows):
            s = row.summary
            assert line == (
                f"{row.n},dipole,chain,{s.f_max:.17g},{s.t_peak:.17g},"
                f"{s.delta_lambda:.17g},{s.tau:.17g},{s.period:.17g},"
                f"{s.length:.17g},False"
            )


class TestRingSweep:
    def test_antipodal_site(self):
        assert antipodal_site(6) == 4
        assert antipodal_site(7) == 4
        assert antipodal_site(4) == 3

    def test_triangle_models_agree(self):
        d = ring_sweep(3, 3, DIPOLE)[0].summary
        n = ring_sweep(3, 3, NEAREST_NEIGHBOUR)[0].summary
        assert d.f_max == pytest.approx(n.f_max, abs=1e-9)

    def test_rows_have_no_tau(self):
        rows = ring_sweep(4, 6)
        for row in rows:
            assert row.summary.tau is None
            assert row.summary.length is None

    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_degenerate_rings_have_no_period(self, coupling):
        # odd rings split their two lowest levels only by roundoff
        rows = ring_sweep(3, 9, coupling)
        for row in rows:
            s = row.summary
            assert (s.period is None) == (row.n % 2 == 1), f"N={row.n}"
            if s.period is not None:
                assert s.period == 2.0 * np.pi / s.delta_lambda

    def test_transfer_times_rise_with_n(self):
        # optimum transfer times trend upward with ring size for both models
        for coupling in (DIPOLE, NEAREST_NEIGHBOUR):
            rows = ring_sweep(4, 16, coupling)
            t = np.array([r.summary.t_peak for r in rows])
            assert np.polyfit(np.arange(len(t)), t, 1)[0] > 0

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            ring_sweep(2, 5)


class TestNormalizedTime:
    def test_minimum_at_four(self):
        pairs = [(r.n, r.summary.tau) for r in chain_sweep(2, 8)]
        best = min(pairs, key=lambda p: p[1])
        assert best[0] == 4
        by_n = dict(pairs)
        assert by_n[4] == pytest.approx(0.5759, abs=1e-3)
        assert by_n[2] == pytest.approx(np.pi / 2.0, abs=1e-4)
