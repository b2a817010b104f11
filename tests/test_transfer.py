"""Peak extraction, sweeps and timing-metric tests."""

import json

import numpy as np
import pytest

from dipolink import (
    DIPOLE,
    CouplingSpec,
    DomainError,
    ExcitationHamiltonian,
    Geometry,
    NEAREST_NEIGHBOUR,
    SiteState,
    SpectralDecomposition,
    Topology,
    build_hamiltonian,
    chain_sweep,
    decompose,
    default_window,
    end_to_end_summary,
    find_peak,
    propagator_abs_grid,
    ring,
    ring_sweep,
    site_state,
    summarize_transfer,
    uniform_chain,
)
from dipolink import transfer

from conftest import (
    direct_abs,
    expm_transfer_abs,
    krawtchouk_matrix,
    nn_chain_eigenpairs,
    ring_transfer_terms,
    run_fresh,
)


def _counting(monkeypatch):
    """Patch the grid kernel as find_peak sees it; returns the lengths of
    its multi-point calls."""
    scans = []

    def counted(spec, input_state, output_state, times):
        if len(times) > 1:
            scans.append(len(times))
        return propagator_abs_grid(spec, input_state, output_state, times)

    monkeypatch.setattr(transfer, "propagator_abs_grid", counted)
    return scans


class TestSummarizeTransfer:
    def test_two_spin_analytic(self):
        s = end_to_end_summary(build_hamiltonian(uniform_chain(2)))
        assert s.f_max == pytest.approx(1.0, abs=1e-9)
        assert s.t_peak == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert s.delta_lambda == pytest.approx(2.0, abs=1e-10)
        assert s.period == pytest.approx(np.pi, abs=1e-9)
        assert s.tau == pytest.approx(np.pi / 2.0, abs=1e-6)

    def test_period_matches_splitting(self, dipole_rows):
        for s in dipole_rows:
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

    @pytest.mark.parametrize("t_max", [1e-320, 5e-324])
    def test_window_whose_step_underflows(self, t_max):
        # t_max / 4999 rounds to 0: refused before any scan
        h = build_hamiltonian(uniform_chain(4))
        with pytest.raises(DomainError, match="below the smallest normal float"):
            end_to_end_summary(h, t_max=t_max)

    def test_tiny_window_with_a_normal_step(self):
        s = end_to_end_summary(build_hamiltonian(uniform_chain(4)), t_max=1e-300)
        assert (s.f_max, s.t_peak, s.boundary_peak) == (0.5, 0.0, True)

    def test_window_the_search_cannot_prune(self):
        """At t_max = 1e15 the 4-spin chain's roundoff slack
        8 eps (1 + t_max e_max), 6.9, passes sum_m |w_m| <= 1, so every
        interval would survive every round of the screen. It is refused
        before any scan; the scan itself ran out of a 3 GB address space."""
        proc = run_fresh(_UNPRUNABLE_WINDOW)
        assert proc.returncode == 0, proc.stderr
        assert "roundoff slack" in proc.stdout
        assert float(proc.stdout.split()[0]) < 1.0

    def test_degenerate_dipole_chain_has_no_default_window(self):
        # equal lowest levels do not beat, so one beat period is no window
        h = ExcitationHamiltonian(np.eye(2), 0.0, uniform_chain(2), DIPOLE)
        with pytest.raises(DomainError, match="degenerate lowest levels"):
            default_window(h, decompose(h))


# Runs the 4-spin chain's search over t_max = 1e15 in a 3 GB address space;
# prints the seconds until DomainError and its message.
_UNPRUNABLE_WINDOW = """
import time
from dipolink import DomainError, build_hamiltonian, end_to_end_summary, uniform_chain
h = build_hamiltonian(uniform_chain(4))
start = time.perf_counter()
try:
    end_to_end_summary(h, t_max=1e15)
except DomainError as exc:
    print(time.perf_counter() - start, exc)
"""


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

    @pytest.mark.parametrize("chunk", [4096, 4097])
    @pytest.mark.parametrize(
        "t_max, grid_points",
        [
            (5e4, None),
            # every coarse interval is kept, in ranges of one chunk each
            (1e5, 40_000),
        ],
    )
    def test_chunk_size_does_not_change_the_peak(
        self, monkeypatch, chunk, t_max, grid_points
    ):
        if grid_points is not None:
            monkeypatch.setattr(
                transfer, "_grid_size", lambda t_max, bandwidth: grid_points
            )
        h = build_hamiltonian(uniform_chain(4))
        args = (decompose(h), site_state(4, 1), site_state(4, 4), t_max)
        whole = find_peak(*args)
        monkeypatch.setattr(transfer, "_CHUNK", chunk)
        assert find_peak(*args) == whole

    def test_certified_peak_stops_the_scan(self, monkeypatch):
        # |f| = |sin t| on the 2-spin chain reaches the cap sum_m |w_m| = 1
        # in the first of the window's three chunks, and no later point can
        # beat it
        scans = _counting(monkeypatch)
        h = build_hamiltonian(uniform_chain(2))
        f_abs, t_peak, flag = find_peak(
            decompose(h), site_state(2, 1), site_state(2, 2), 1e6
        )
        assert f_abs == pytest.approx(1.0, abs=1e-12)
        assert t_peak == pytest.approx(np.pi / 2.0, abs=1e-8)
        assert not flag
        assert len(scans) <= 2

    def test_subdivided_sample_at_the_cap_stops_the_scan(self, monkeypatch):
        # criterion 01's N = 3 row: no coarse sample of the 2.08M-point
        # window reaches the cap, but a subdivided one in the first chunk,
        # near t = 5144.82, does, so the second chunk is never sampled
        scans = _counting(monkeypatch)
        s = end_to_end_summary(build_hamiltonian(uniform_chain(3)), 1e6)
        assert sum(scans) <= 2**20 + 1
        assert s.f_max == float.fromhex("0x1.fffffffd06b3cp-1")
        assert s.t_peak == float.fromhex("0x1.418d1ed3e8a7ep+12")

    def test_closed_form_nn_chain(self):
        # N = 1024 from the nn chain's closed-form eigenpairs, no eigensolve:
        # the first arrival at the far end, near t = N / 2J, is the maximum
        n, t_max = 1024, 600.0
        e, v = nn_chain_eigenpairs(n)
        spec = SpectralDecomposition(e, v)
        f_abs, t_peak, _ = find_peak(spec, site_state(n, 1), site_state(n, n), t_max)
        w = v[-1] * v[0]
        assert direct_abs(w, e, [t_peak])[0] == pytest.approx(f_abs, abs=1e-12)
        times = np.linspace(0.0, t_max, 4001)
        assert direct_abs(w, e, times).max() <= f_abs + 1e-9


class TestKrawtchoukChain:
    """|f_1N(t)| = |sin t|^(N-1) in closed form: the peak is exactly 1, at
    t = pi / 2, for every N."""

    @pytest.mark.parametrize("t_max", [np.pi, 10.0, 1e5])
    @pytest.mark.parametrize("n", [3, 10, 64, 256])
    def test_peak_is_certified_in_the_first_range(self, monkeypatch, n, t_max):
        # the first range holds a sample at the cap, so the scan stops there;
        # at N = 256 and t_max = 1e5 that range is 2^20 of 3.2e7 grid points
        scans = _counting(monkeypatch)
        spec = decompose(krawtchouk_matrix(n))
        f_abs, t_peak, flag = find_peak(
            spec, site_state(n, 1), site_state(n, n), t_max
        )
        assert abs(f_abs - 1.0) <= 1e-12
        assert abs(t_peak - np.pi / 2.0) <= 1e-12
        assert not flag
        assert len(scans) == 1

    @pytest.mark.parametrize("n", [3, 10, 64, 256])
    def test_grid_kernel(self, n):
        times = np.linspace(0.0, np.pi, 20001)
        got = propagator_abs_grid(
            decompose(krawtchouk_matrix(n)), site_state(n, 1), site_state(n, n),
            times,
        )
        assert np.abs(got - np.abs(np.sin(times)) ** (n - 1)).max() <= 1e-12


# Runs end_to_end_summary on the uniform dipole chain of argv[1] spins and
# prints its f_max, t_peak and the process's peak RSS (KiB).
_LARGE_N_HARNESS = """
import json, resource, sys
from dipolink import build_hamiltonian, end_to_end_summary, uniform_chain
s = end_to_end_summary(build_hamiltonian(uniform_chain(int(sys.argv[1]))))
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"f_max": s.f_max, "t_peak": s.t_peak, "maxrss_kib": rss}))
"""


@pytest.fixture(scope="module")
def large_chains():
    """Harness output for N = 64 and 128, each in a fresh process.

    The timeout turns a search that stalls into a failure instead of a hang.
    """
    runs = {}
    for n in (64, 128):
        proc = run_fresh(_LARGE_N_HARNESS, str(n))
        assert proc.returncode == 0, proc.stderr
        runs[n] = json.loads(proc.stdout)
    return runs


def _dipole_chain_terms(n, positions=None):
    """Weights <N|m><m|1> and energies E_m - E_0 from numpy eigh of the
    dipole chain's one-flip matrix (uniform unless ``positions`` are given),
    built here from its formula (C = 2, so off-diagonals are 1/r^3; the
    common ground energy is left out, as |f| does not depend on it)."""
    r = np.arange(n, dtype=float) if positions is None else np.asarray(positions)
    sep = np.abs(np.subtract.outer(r, r))
    off = np.divide(1.0, sep**3, out=np.zeros_like(sep), where=sep > 0)
    vals, vecs = np.linalg.eigh(off + np.diag(2.0 * off.sum(axis=1)))
    return vecs[-1] * vecs[0], vals - vals[0]


class TestLargeN:
    """The N = 128 chain's one-beat window needs 6.7e7 grid points and peaks
    past t = 2^23, where adjacent doubles are wider than the tolerance."""

    @staticmethod
    def _f_abs(run):
        # inverse of F = |f|/3 + |f|^2/6 + 1/2
        return np.sqrt(6.0 * run["f_max"] - 2.0) - 1.0

    def test_peak_matches_direct_sum(self, large_chains):
        run = large_chains[128]
        w, e = _dipole_chain_terms(128)
        direct = direct_abs(w, e, [run["t_peak"]])[0]
        assert direct == pytest.approx(self._f_abs(run), abs=1e-9)

    def test_no_higher_point_near_the_peak(self, large_chains):
        # 64 samples per fastest period over 20 fastest periods each side
        run = large_chains[128]
        w, e = _dipole_chain_terms(128)
        period = 2.0 * np.pi / e[-1]
        times = run["t_peak"] + period / 64.0 * np.arange(-20 * 64, 20 * 64 + 1)
        assert direct_abs(w, e, times).max() <= self._f_abs(run) + 1e-9

    def test_memory_does_not_grow_with_n(self, large_chains):
        grown = large_chains[128]["maxrss_kib"] - large_chains[64]["maxrss_kib"]
        assert grown <= 16 * 1024


class TestChainSweep:
    def test_row_ordering_and_shape(self, dipole_rows, capsys):
        from dipolink.cli import main

        assert [r.n for r in dipole_rows] == list(range(2, 24))
        argv = ["chain-sweep", "--n-min", "2", "--n-max", "4", "--format", "json"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert all(r["model"] == "dipole" and r["topology"] == "chain" for r in records)

    def test_high_fidelity_band(self, dipole_rows):
        for row in dipole_rows:
            assert row.f_max >= 0.9, f"N={row.n}"

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
        by_n = {r.n: r.f_max for r in dipole_rows}
        for n, f in pinned.items():
            assert by_n[n] == pytest.approx(f, abs=1e-4)

    def test_cubic_scaling_of_peak_time(self, dipole_rows):
        rows = [r for r in dipole_rows if 15 <= r.n <= 23]
        x = np.log([r.length for r in rows])
        y = np.log([r.t_peak for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_nn_dips_at_multiples_of_three(self):
        rows = chain_sweep(5, 13, NEAREST_NEIGHBOUR)
        by_n = {r.n: r.f_max for r in rows}
        for n in (6, 9, 12):
            assert by_n[n] < by_n[n - 1]
            assert by_n[n] < by_n[n + 1]

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            chain_sweep(5, 3)
        with pytest.raises(DomainError):
            chain_sweep(1, 5)

    @pytest.mark.parametrize("k", [-60, -20, -1, 1, 20, 60])
    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_scale_covariance(self, coupling, k):
        # C -> 2^k C scales the matrix, its eigenvalues and every energy the
        # peak search squares by 2^k exactly, so each row keeps its bits
        base = chain_sweep(2, 12, coupling)
        scaled = chain_sweep(
            2, 12, CouplingSpec(coupling.model, coupling.c_const * 2.0**k)
        )
        for b, s in zip(base, scaled):
            assert s.f_max == b.f_max, f"N={b.n}"
            assert s.t_peak * 2.0**k == b.t_peak, f"N={b.n}"
            assert s.delta_lambda / 2.0**k == b.delta_lambda, f"N={b.n}"
            assert s.boundary_peak == b.boundary_peak, f"N={b.n}"

    def test_csv_format(self, dipole_rows, capsys):
        from dipolink.cli import main

        assert main(["chain-sweep", "--n-min", "2", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "n,model,topology,f_max,t_peak,delta_lambda,tau,period,length,"
            "boundary_peak"
        )
        assert len(lines) == 4
        for line, s in zip(lines[1:], dipole_rows):
            assert line == (
                f"{s.n},dipole,chain,{s.f_max:.17g},{s.t_peak:.17g},"
                f"{s.delta_lambda:.17g},{s.tau:.17g},{s.period:.17g},"
                f"{s.length:.17g},False"
            )


class TestRingSweep:
    def test_far_site(self):
        # where every site-1 transfer ends: the chain's last site, the ring's
        # antipode (on odd rings the first of the two farthest sites)
        for n in range(2, 31):
            assert uniform_chain(n).far_site == n
        assert Geometry(Topology.CHAIN, (0.0, 0.3, 2.0, 2.1, 5.0)).far_site == 5
        for n in range(3, 31):
            assert ring(n).far_site == n // 2 + 1

    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_rows_are_end_to_end_summaries(self, coupling):
        # one far-end rule: a ring's end-to-end summary is its ring_sweep row
        for n in range(3, 31):
            h = build_hamiltonian(ring(n), coupling)
            assert end_to_end_summary(h) == ring_sweep(n, n, coupling)[0], f"N={n}"

    def test_triangle_models_agree(self):
        d = ring_sweep(3, 3, DIPOLE)[0]
        n = ring_sweep(3, 3, NEAREST_NEIGHBOUR)[0]
        assert d.f_max == pytest.approx(n.f_max, abs=1e-9)

    def test_rows_have_no_tau(self):
        rows = ring_sweep(4, 6)
        for row in rows:
            assert row.tau is None
            assert row.length is None

    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_degenerate_rings_have_no_period(self, coupling):
        # odd rings split their two lowest levels only by roundoff
        rows = ring_sweep(3, 9, coupling)
        for s in rows:
            assert (s.period is None) == (s.n % 2 == 1), f"N={s.n}"
            if s.period is not None:
                assert s.period == 2.0 * np.pi / s.delta_lambda

    def test_transfer_times_rise_with_n(self):
        # optimum transfer times trend upward with ring size for both models
        for coupling in (DIPOLE, NEAREST_NEIGHBOUR):
            rows = ring_sweep(4, 16, coupling)
            t = np.array([r.t_peak for r in rows])
            assert np.polyfit(np.arange(len(t)), t, 1)[0] > 0

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            ring_sweep(2, 5)

    @pytest.mark.parametrize("k", [-60, -20, -1, 2, 20, 60])
    @pytest.mark.parametrize(
        "coupling", [DIPOLE, NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    def test_scale_covariance(self, coupling, k):
        # C -> 2^k C scales every energy by 2^k exactly, so f(t) becomes
        # f(2^k t) bit for bit; the window and the degenerate floor are in
        # units of J = C / 2, so the odd rings' roundoff splitting stays
        # degenerate and every row keeps its bits
        base = ring_sweep(3, 14, coupling)
        scaled = ring_sweep(
            3, 14, CouplingSpec(coupling.model, coupling.c_const * 2.0**k)
        )
        for b, s in zip(base, scaled):
            assert s.f_max == b.f_max, f"N={b.n}"
            assert s.t_peak * 2.0**k == b.t_peak, f"N={b.n}"
            assert s.boundary_peak == b.boundary_peak, f"N={b.n}"
            assert (s.period is None) == (b.period is None), f"N={b.n}"

    @pytest.mark.parametrize("n, coupling, model", [
        (31, DIPOLE, "dipole"),
        (256, DIPOLE, "dipole"),
        (1024, DIPOLE, "dipole"),
        (31, NEAREST_NEIGHBOUR, "nn"),
        (256, NEAREST_NEIGHBOUR, "nn"),
    ])
    def test_matches_circulant_oracle(self, n, coupling, model):
        # ring_sweep's configuration over 10 N, the shortest default ring
        # window, against the plane-wave sum of the circulant ring (no
        # eigensolve in the oracle)
        spec = decompose(build_hamiltonian(ring(n), coupling))
        target = ring(n).far_site
        times = np.linspace(0.0, 10.0 * n, 2001)
        fa = propagator_abs_grid(spec, site_state(n, 1), site_state(n, target), times)
        w, e = ring_transfer_terms(n, 1, target, model=model)
        assert np.max(np.abs(fa - direct_abs(w, e, times))) <= 1e-9


@pytest.mark.parametrize("sweep, n_min, n_max, smallest", [
    (chain_sweep, 1, 3, 2),
    (chain_sweep, 5, 3, 2),
    (ring_sweep, 2, 3, 3),
], ids=["chain-too-small", "chain-empty", "ring-too-small"])
def test_sweep_range_messages(sweep, n_min, n_max, smallest):
    # the chain and ring sweeps share one range rule, each with its smallest size
    with pytest.raises(DomainError) as info:
        sweep(n_min, n_max)
    assert str(info.value) == f"need {smallest} <= n_min <= n_max, got ({n_min}, {n_max})"


class TestNormalizedTime:
    def test_minimum_at_four(self):
        pairs = [(r.n, r.tau) for r in chain_sweep(2, 8)]
        best = min(pairs, key=lambda p: p[1])
        assert best[0] == 4
        by_n = dict(pairs)
        assert by_n[4] == pytest.approx(0.5759, abs=1e-3)
        assert by_n[2] == pytest.approx(np.pi / 2.0, abs=1e-4)


def _complex_terms_spec(w, e):
    """A spectrum with eigenvectors I and states whose weights are ``w``.

    With eigenvectors the identity, w_m = conj(out_m) in_m; in_m = sqrt|w_m|
    and out_m = sqrt|w_m| e^{-i arg w_m} give any complex w with
    sum_m |w_m| = 1.
    """
    amp = np.sqrt(np.abs(w))
    spec = SpectralDecomposition(e, np.eye(len(e)))
    return spec, SiteState(amp), SiteState(amp * np.exp(-1j * np.angle(w)))


def _check_window_maximum(f_abs, t_peak, w, e, t_max):
    """f_abs matches the direct sum at t_peak, and no sample of a dense grid
    (12 per fastest period, not aligned with the search grid) beats it."""
    assert direct_abs(w, e, [t_peak])[0] == pytest.approx(f_abs, abs=1e-9)
    count = max(int(12 * t_max * (e.max() - e.min()) / (2.0 * np.pi)), 10_000)
    assert direct_abs(w, e, np.linspace(0.0, t_max, count)).max() <= f_abs + 1e-9


class TestBeatEnvelope:
    """find_peak samples only where |w_a + w_b e^{-i (e_b - e_a) t}| + R,
    R the weight outside the two heaviest terms, can reach the best sample.
    The window's maximum must not move."""

    @pytest.mark.parametrize("n", [5, 12, 23])
    def test_dipole_chain(self, n):
        h = build_hamiltonian(uniform_chain(n))
        spec = decompose(h)
        t_max = default_window(h, spec)
        f_abs, t_peak, _ = find_peak(spec, site_state(n, 1), site_state(n, n), t_max)
        _check_window_maximum(f_abs, t_peak, *_dipole_chain_terms(n), t_max)

    def test_placement_over_twenty_beats(self):
        # optimize_placement(6)'s answer: end gaps 0.425, interior gaps at
        # the 0.05 floor, verified over 20 beats
        positions = np.cumsum([0.0, 0.425, 0.05, 0.05, 0.05, 0.425])
        spec = decompose(build_hamiltonian(Geometry(Topology.CHAIN, tuple(positions))))
        t_max = 20 * 2.0 * np.pi / spec.splitting
        f_abs, t_peak, _ = find_peak(spec, site_state(6, 1), site_state(6, 6), t_max)
        _check_window_maximum(
            f_abs, t_peak, *_dipole_chain_terms(6, positions), t_max
        )

    def test_beat_just_under_the_merge_span(self, monkeypatch):
        # optimize_placement(6, seed=35)'s answer: over 20 beats its two
        # heaviest terms beat every 65.3k grid steps, just under 2^16, so
        # merging ranges up to 2^16 apart sampled all 1.3M grid points
        gaps = [0.4165294686355143, 0.05000000000058281, 0.06694106272780576,
                0.05000000000058281, 0.4165294686355143]
        positions = np.cumsum([0.0, *gaps])
        spec = decompose(build_hamiltonian(Geometry(Topology.CHAIN, tuple(positions))))
        args = spec, site_state(6, 1), site_state(6, 6), 20 * 2.0 * np.pi / spec.splitting
        scans = _counting(monkeypatch)
        peak = find_peak(*args)
        assert sum(scans) < 100_000
        # the same answer as sampling the whole window
        monkeypatch.setattr(transfer, "_MERGE", 1 << 16)
        scans.clear()
        assert find_peak(*args) == peak
        assert sum(scans) > 1_000_000

    def test_peak_outside_the_band(self, monkeypatch):
        # a pair of weight 0.3 each beating with period 2 pi (top at pi)
        # and eight terms of 0.05 lined up with the pair at t0 = pi + 1.5,
        # where the pair is down to 0.44: the maximum, near t0, lies where
        # U < sum |w| - R / 10, outside the first pass's band
        t0 = np.pi + 1.5
        e = np.r_[0.0, 1.0, 2.0 + 1.3 * np.arange(8)]
        pair = 0.3 - 0.3 * np.exp(-1j * t0)
        w = np.r_[0.3, -0.3, 0.05 * np.exp(1j * (np.angle(pair) + e[2:] * t0))]
        scans = _counting(monkeypatch)
        f_abs, t_peak, _ = find_peak(*_complex_terms_spec(w, e), 2.0 * np.pi)
        _check_window_maximum(f_abs, t_peak, w, e, 2.0 * np.pi)
        assert t_peak == pytest.approx(t0, abs=0.05)
        assert abs(0.3 - 0.3 * np.exp(-1j * t_peak)) + 0.4 < 1.0 - 0.04
        assert sum(scans) < 5000

    @pytest.mark.parametrize("seed", range(8))
    def test_random_spectra(self, seed):
        # a heavy pair and a bulk of random size, energies and phases,
        # searched over about three beats
        gen = np.random.default_rng(seed)
        bulk = gen.integers(1, 8)
        mag = np.r_[gen.uniform(0.2, 0.45, 2), gen.uniform(0.0, 1.0, bulk)]
        mag[2:] *= gen.uniform(0.05, 0.5) / mag[2:].sum()
        mag /= mag.sum()
        w = mag * np.exp(2j * np.pi * gen.uniform(size=len(mag)))
        e = np.sort(np.r_[0.0, gen.uniform(0.0, 20.0, len(mag) - 1)])
        w = gen.permutation(w)
        pair = np.argsort(np.abs(w))[-2:]
        t_max = 3 * 2.0 * np.pi / abs(np.diff(e[pair])[0])
        f_abs, t_peak, _ = find_peak(*_complex_terms_spec(w, e), t_max)
        _check_window_maximum(f_abs, t_peak, w, e, t_max)

    def test_scans_under_forty_percent_at_23(self, monkeypatch):
        h = build_hamiltonian(uniform_chain(23))
        spec = decompose(h)
        t_max = default_window(h, spec)
        scans = _counting(monkeypatch)
        find_peak(spec, site_state(23, 1), site_state(23, 23), t_max)
        bandwidth = spec.eigenvalues[-1] - spec.eigenvalues[0]
        assert sum(scans) < 0.4 * transfer._grid_size(t_max, bandwidth)

    @pytest.mark.parametrize(
        "n, coupling, topology",
        [
            (10, NEAREST_NEIGHBOUR, "chain"),
            (8, DIPOLE, "ring"),
            (9, NEAREST_NEIGHBOUR, "ring"),
        ],
    )
    def test_short_beats_are_sampled_in_few_calls(
        self, monkeypatch, n, coupling, topology
    ):
        # nn chains and rings beat within a few hundred grid points, many
        # times per window, so the ranges around their beat maxima would
        # merge; the window is sampled whole, in one call
        geometry = uniform_chain(n) if topology == "chain" else ring(n)
        h = build_hamiltonian(geometry, coupling)
        spec = decompose(h)
        output = geometry.far_site
        states = site_state(n, 1), site_state(n, output)
        t_max = default_window(h, spec)
        scans = _counting(monkeypatch)
        f_abs, t_peak, _ = find_peak(spec, *states, t_max)
        bandwidth = spec.eigenvalues[-1] - spec.eigenvalues[0]
        assert scans == [transfer._grid_size(t_max, bandwidth)]
        v = spec.eigenvectors
        w = v[output - 1] * v[0]
        _check_window_maximum(f_abs, t_peak, w, spec.eigenvalues, t_max)

    @pytest.mark.parametrize(
        "w, e",
        [
            # the two heaviest terms share an energy, so they do not beat
            ([0.1, 0.35, -0.35j, 0.2], [0.0, 1.0, 1.0, 2.5]),
            # one nonzero weight: no pair at all
            ([0.0, 1.0, 0.0], [0.0, 0.5, 2.0]),
            # a partner below 1e-9 of the heaviest weight counts as none
            ([1.0 - 1e-12, 1e-12], [0.0, 1.0]),
            # a beat period past float max / 8, the longest window taken
            ([0.35, -0.35j, 0.1, 0.2], [0.0, 1e-310, 1.0, 2.5]),
            # one level: |f| = 1 throughout, first reached at t = 0
            ([1.0], [0.0]),
        ],
        ids=["degenerate-pair", "single-weight", "negligible-partner", "slow-beat",
             "one-level"],
    )
    def test_no_beat_samples_the_whole_window(self, monkeypatch, w, e):
        # with one weight |f| is the cap sum |w_m| at every t, so the first
        # call certifies the peak and stops the scan
        w, e = np.array(w), np.array(e)
        scans = _counting(monkeypatch)
        f_abs, t_peak, _ = find_peak(*_complex_terms_spec(w, e), 200.0)
        assert scans == [transfer._grid_size(200.0, e.max() - e.min())]
        _check_window_maximum(f_abs, t_peak, w, e, 200.0)

    def test_two_spin_chain_over_a_long_window(self, monkeypatch):
        # 3.2e8 beats in the window: the first chunk reaches the cap, and
        # ranges are built a chunk at a time, here only for the first. That
        # chunk holds 131k equal peaks; the coarse sample at the first one,
        # t = pi / 2, reaches the cap, and no interval past the coarse step
        # after it (pi / 8 wide) is screened.
        scans = _counting(monkeypatch)
        chunks, screened = [], []

        def recorded(pair, level, c0, step, npts):
            chunks.append(c0)
            return envelope_ranges(pair, level, c0, step, npts)

        def screen(w, e, starts, step, count):
            screened.extend(starts)
            return abs_runs(w, e, starts, step, count)

        envelope_ranges, abs_runs = transfer._envelope_ranges, transfer.abs_runs
        monkeypatch.setattr(transfer, "_envelope_ranges", recorded)
        monkeypatch.setattr(transfer, "abs_runs", screen)
        h = build_hamiltonian(uniform_chain(2))
        f_abs, t_peak, flag = find_peak(
            decompose(h), site_state(2, 1), site_state(2, 2), 1e9
        )
        assert f_abs == pytest.approx(1.0, abs=1e-12)
        assert t_peak == pytest.approx(np.pi / 2.0, abs=1e-8)
        assert not flag
        assert len(scans) <= 2
        assert chunks == [0]
        assert 0 < len(screened) and max(screened) < np.pi / 2.0 + np.pi / 8.0

    @pytest.mark.parametrize("c0", [0, transfer._CHUNK - 1], ids=["chunk0", "chunk1"])
    @pytest.mark.parametrize("gap", [None, transfer._MERGE - 50, transfer._MERGE + 50],
                             ids=["overlap", "under-merge", "over-merge"])
    def test_ranges_merge_within_the_merge_span(self, gap, c0):
        # a beat of 10^4 grid steps. A level just above the envelope's
        # minimum (gap None) makes consecutive beats' ranges overlap; levels
        # whose set U >= level leaves gap grid steps per beat put them just
        # within and just past _MERGE points of each other
        step, period = 0.01, 100.0
        w = np.array([0.45, 0.35 * np.exp(0.7j), 0.2])
        e = np.array([0.0, 2.0 * np.pi / period, 1.3])
        if gap is None:
            level = 0.3 + 1e-6 * 0.7  # U runs from 0.3 to 1
        else:
            half = (period - gap * step) / 2.0
            level = 0.2 + abs(0.45 + 0.35 * np.exp(2j * np.pi * half / period))
        c1 = c0 + transfer._CHUNK - 1
        ranges = transfer._envelope_ranges(
            transfer._beat_pair(w, e), level, c0, step, 2 * transfer._CHUNK - 1
        )
        t = np.arange(c0, c1 + 1) * step
        u = np.abs(w[0] + w[1] * np.exp(-1j * e[1] * t)) + 0.2
        covered = np.zeros(len(t), dtype=bool)
        for lo, hi in ranges:
            covered[lo - c0 : hi - c0 + 1] = True
        # ascending, disjoint, and no two closer than _MERGE points
        assert all(c0 <= lo < hi <= c1 for lo, hi in ranges)
        assert all(b[0] - a[1] >= transfer._MERGE for a, b in zip(ranges, ranges[1:]))
        assert covered[u >= level].all()
        if gap is None or gap < transfer._MERGE:
            # one range across the chunk's 105 beats, over the points between
            # them where U < level
            assert len(ranges) == 1 and (covered & (u < level)).any()
        else:
            assert len(ranges) > 100

    @pytest.mark.parametrize("c0", [0, transfer._CHUNK - 1], ids=["chunk0", "chunk1"])
    @pytest.mark.parametrize("drop", [0.0, 0.1, 0.4, 0.7])
    def test_second_pass_splits_a_lower_level_around_the_band(self, drop, c0):
        # find_peak's second pass samples _subtract(ranges at a level at or
        # below the band, band ranges). Each band range lies in one range of
        # the lower level, and the parts and the band ranges tile the lower
        # level's ranges, sharing end points. The band is 0.98 and U runs
        # from 0.3 to 1: a drop of 0.1 widens each of its 105 ranges, one of
        # 0.4 merges them into one across the chunk, and one of 0.7 leaves U
        # above the lower level everywhere.
        step, period = 0.01, 100.0
        w = np.array([0.45, 0.35 * np.exp(0.7j), 0.2])
        e = np.array([0.0, 2.0 * np.pi / period, 1.3])
        pair, band = transfer._beat_pair(w, e), 1.0 - 0.2 / 10.0
        npts = 2 * transfer._CHUNK - 1
        inner = transfer._envelope_ranges(pair, band, c0, step, npts)
        outer = transfer._envelope_ranges(pair, band - drop, c0, step, npts)
        assert len(inner) > 100
        assert all(sum(a <= lo and hi <= b for a, b in outer) == 1 for lo, hi in inner)
        pieces = sorted(transfer._subtract(outer, inner) + inner)
        tiled = 0
        for a, b in outer:
            tiles = [(lo, hi) for lo, hi in pieces if a <= lo and hi <= b]
            assert tiles[0][0] == a and tiles[-1][1] == b
            assert all(p[1] == q[0] for p, q in zip(tiles, tiles[1:]))
            tiled += len(tiles)
        assert tiled == len(pieces)


def _slope(w, e, t):
    """d|f|^2/dt = 2 Re(conj(f) f') at t, from the direct sums
    f = sum_m w_m e^{-i e_m t} and f' = sum_m -i e_m w_m e^{-i e_m t}."""
    phase = np.exp(-1j * e * t)
    f, df = np.dot(phase, w), np.dot(phase, -1j * e * w)
    return 2.0 * (f.real * df.real + f.imag * df.imag)


def _stationary_point(w, e, lo, hi):
    """The root of d|f|^2/dt in [lo, hi], where it falls, by bisection down
    to adjacent doubles."""
    assert _slope(w, e, lo) > 0.0 > _slope(w, e, hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _slope(w, e, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _nn_chain_case(n, t_max):
    e, v = nn_chain_eigenpairs(n)
    states = site_state(n, 1), site_state(n, n)
    return (SpectralDecomposition(e, v), *states), v[-1] * v[0], e, t_max


def _ring_case(n):
    w, e = ring_transfer_terms(n, 1, ring(n).far_site)
    order = np.argsort(e, kind="stable")
    w, e = w[order], e[order] - e[order][0]
    return _complex_terms_spec(w, e), w, e, 10.0 * n


def _three_term_case():
    w = np.array([0.5, 0.3 * np.exp(2.0j), 0.2 * np.exp(-1.0j)])
    e = np.array([0.0, 1.0, np.sqrt(7.0)])
    return _complex_terms_spec(w, e), w, e, 50.0


class TestNewtonRefinement:
    """find_peak's Newton steps on |f|^2 land on the stationary point of the
    peak to float resolution in t."""

    def test_peak_past_float_resolution(self):
        # f = (1 - e^{-i t / 2^22}) / 2 peaks once in the window, at
        # t = pi 2^22 > 2^23, where adjacent doubles are 1.9e-9 apart and
        # the peak is so flat that |f| is 1 to float resolution over +-0.1
        w, e = np.array([0.5, -0.5]), np.array([0.0, 2.0**-22])
        f_abs, t_peak, _ = find_peak(*_complex_terms_spec(w, e), 2e7)
        t_exact = np.pi * 2.0**22
        assert abs(t_peak - t_exact) <= 2.0 * np.spacing(t_exact)
        assert f_abs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "case",
        [
            lambda: _nn_chain_case(64, 40.0),
            lambda: _nn_chain_case(1024, 600.0),
            lambda: _ring_case(30),
            lambda: _ring_case(1024),
            _three_term_case,
        ],
        ids=["nn-64", "nn-1024", "ring-30", "ring-1024", "three-terms"],
    )
    def test_lands_on_the_stationary_point(self, case):
        # Each phase e_m t is rounded to within half a float spacing of t
        # times e_m, so package and test each evaluate the slope at times
        # that are off by about one spacing; four spacings cover both and
        # the summation.
        args, w, e, t_max = case()
        _, t_peak, _ = find_peak(*args, t_max)
        half = 2.0 * np.pi / e.max() / 16.0
        t_root = _stationary_point(w, e, t_peak - half, t_peak + half)
        assert abs(t_peak - t_root) <= 4.0 * np.spacing(t_root)

    def test_one_point_kernel_call_per_search(self, monkeypatch):
        # Newton steps and refined heights are formed from the weights; the
        # grid kernel is called at one point once per search, at t_peak
        points = []
        grid = transfer.propagator_abs_grid

        def counted(spec, input_state, output_state, times):
            if len(times) == 1:
                points.append(times[0])
            return grid(spec, input_state, output_state, times)

        monkeypatch.setattr(transfer, "propagator_abs_grid", counted)
        rows = chain_sweep(2, 23) + ring_sweep(3, 30, NEAREST_NEIGHBOUR)
        assert points == [row.t_peak for row in rows]


def _dipole_23(cut=None):
    """The N = 23 dipole chain over its default window, or over one that
    ends ``cut`` after (if negative, before) that window's peak."""
    h = build_hamiltonian(uniform_chain(23))
    spec = decompose(h)
    args = spec, site_state(23, 1), site_state(23, 23)
    t_max = default_window(h, spec)
    if cut is not None:
        t_max = find_peak(*args, t_max)[1] + cut
    return args, t_max


def _sweep_rows():
    """Every chain_sweep(2, 23) and ring_sweep(3, 30) row of both models, and
    criterion 01's rows (uniform dipole chains N = 2..5 over t_max = 1e6)."""
    rows = [
        end_to_end_summary(build_hamiltonian(uniform_chain(n)), 1e6)
        for n in (2, 3, 4, 5)
    ]
    for coupling in (DIPOLE, NEAREST_NEIGHBOUR):
        rows += chain_sweep(2, 23, coupling) + ring_sweep(3, 30, coupling)
    return rows


@pytest.fixture(scope="module")
def sweep_rows():
    return _sweep_rows()


class TestGridDensity:
    """The screen's curvature bound and the Newton refinement, not the
    coarse grid's density, set find_peak's height, time and boundary flag;
    the density trades coarse points against subdivided ones."""

    @pytest.mark.parametrize(
        "name, value",
        [("_OVERSAMPLE", 2.0), ("_OVERSAMPLE", 3.0), ("_OVERSAMPLE", 8.0),
         ("_CHUNK", 4097)],
    )
    def test_sweeps_do_not_depend_on_the_grid(
        self, monkeypatch, sweep_rows, name, value
    ):
        # The earliest peak within tolerance of the maximum is chosen from
        # refined heights, never from where samples fall: criterion 01's
        # N = 3 row once moved from t = 5144.82 to 93408.05 at 8 samples.
        # t_peak gets 1e-6, not a few float spacings: at 2 samples the nn
        # N = 12 row lands 1.7e-7 away on a peak at t = 2978 so flat that
        # |f| differs by 1.3e-14, and more Newton steps do not move it.
        monkeypatch.setattr(transfer, name, value)
        for base, other in zip(sweep_rows, _sweep_rows()):
            assert other.boundary_peak == base.boundary_peak, base
            assert abs(other.f_max - base.f_max) <= 1e-12, base
            assert abs(other.t_peak - base.t_peak) <= 1e-6, base

    @pytest.mark.parametrize(
        "case, flagged",
        [
            # 4000 inverse couplings, the nn chain's default window, puts
            # even 2 samples per fastest period above the 5000-point floor
            (lambda: (_nn_chain_case(64, 4000.0)[0], 4000.0), False),
            (lambda: (_ring_case(30)[0], 4000.0), False),
            (_dipole_23, False),
            # cut on the rising edge 0.01 before the peak: the window's
            # maximum is its last point
            (lambda: _dipole_23(-0.01), True),
        ],
        ids=["nn-64", "ring-30", "dipole-23", "dipole-23-rising-edge"],
    )
    def test_density_does_not_move_the_peak(self, monkeypatch, case, flagged):
        args, t_max = case()
        f_abs, t_peak, flag = find_peak(*args, t_max)
        assert flag == flagged
        bandwidth = np.ptp(args[0].eigenvalues)
        for samples in (8.0, 2.0):
            monkeypatch.setattr(transfer, "_OVERSAMPLE", samples)
            assert transfer._grid_size(t_max, bandwidth) > 5000
            other = find_peak(*args, t_max)
            assert abs(other[0] - f_abs) <= 1e-12
            assert abs(other[1] - t_peak) <= 4.0 * np.spacing(t_peak)
            assert other[2] == flag

    @pytest.mark.parametrize(
        "periods, flagged",
        [(-0.2, False), (-0.1, True), (-0.01, True),
         (0.01, False), (0.1, False), (0.2, False)],
    )
    def test_boundary_flag_reach(self, monkeypatch, periods, flagged):
        # A window that ends a fraction of the fastest period before the
        # N = 23 peak ends while |f|^2 still rises. Up to 0.1 periods before
        # it that edge is the window's maximum, and the window is flagged;
        # 0.2 periods before it the edge is still rising but lies below a
        # peak 2703 earlier, so the window's maximum is inside it. A window
        # that ends after the peak, however close, ends falling and is not
        # flagged. None of this depends on the grid's density.
        args, t_max = _dipole_23()
        fastest = 2.0 * np.pi / np.ptp(args[0].eigenvalues)
        args, t_max = _dipole_23(periods * fastest)
        for samples in (2.0, 3.0, 4.0, 8.0):
            monkeypatch.setattr(transfer, "_OVERSAMPLE", samples)
            _, t_peak, flag = find_peak(*args, t_max)
            assert flag == flagged, samples
            assert (t_peak == t_max) == flagged, samples

    def test_points_evaluated_over_the_chain_sweep(self, monkeypatch):
        # About 1.2x the 570k coarse and 2.8k subdivided points measured at 4
        # samples per fastest period. For the same answers, 8 samples
        # evaluate 1.13M coarse points, and 2 samples 30k subdivided ones
        # (1 sample: 1.3M).
        coarse, subdivided = [], []
        grid, runs = transfer.propagator_abs_grid, transfer.abs_runs

        def counted_grid(spec, input_state, output_state, times):
            coarse.append(len(times))
            return grid(spec, input_state, output_state, times)

        def counted_runs(w, e, starts, step, count):
            subdivided.append(len(starts) * count)
            return runs(w, e, starts, step, count)

        monkeypatch.setattr(transfer, "propagator_abs_grid", counted_grid)
        monkeypatch.setattr(transfer, "abs_runs", counted_runs)
        chain_sweep(2, 23)
        assert sum(coarse) <= 685_000
        assert sum(subdivided) <= 3_400

    def test_no_kernel_call_without_rows(self, monkeypatch):
        # a subdivision level whose intervals were all screened out ends its
        # batch; the sweep once made 6 such calls among 93
        rows = []
        runs = transfer.abs_runs

        def counted_runs(w, e, starts, step, count):
            rows.append(len(starts))
            return runs(w, e, starts, step, count)

        monkeypatch.setattr(transfer, "abs_runs", counted_runs)
        chain_sweep(2, 23)
        assert len(rows) > 0 and min(rows) >= 1


def _sweep_searches():
    """find_peak's arguments for every chain_sweep(2, 23) and
    ring_sweep(3, 30) row of both models."""
    searches = []
    for coupling in (DIPOLE, NEAREST_NEIGHBOUR):
        for geometry in [uniform_chain(n) for n in range(2, 24)] + [
            ring(n) for n in range(3, 31)
        ]:
            h = build_hamiltonian(geometry, coupling)
            spec = decompose(h)
            states = site_state(h.n, 1), site_state(h.n, geometry.far_site)
            searches.append((spec, *states, default_window(h, spec)))
    return searches


class TestLevel:
    """find_peak(..., level=v) starts its best sample at v instead of -inf."""

    @pytest.fixture(scope="class")
    def searches(self):
        return _sweep_searches()

    def test_level_at_or_below_the_maximum_changes_nothing(self, searches):
        for args in searches:
            alone = find_peak(*args)
            for level in (alone[0], alone[0] - 1e-9, alone[0] - 1e-3,
                          0.5 * alone[0], 0.0, -1.0):
                assert find_peak(*args, level=level) == alone, (args[3], level)

    def test_level_above_the_maximum(self, monkeypatch, searches):
        # counted as test_no_kernel_call_without_rows counts subdivided
        # points, and the coarse grid's points with them
        points = [0]
        grid, runs = transfer.propagator_abs_grid, transfer.abs_runs

        def counted_grid(spec, input_state, output_state, times):
            points[0] += len(times)
            return grid(spec, input_state, output_state, times)

        def counted_runs(w, e, starts, step, count):
            points[0] += len(starts) * count
            return runs(w, e, starts, step, count)

        monkeypatch.setattr(transfer, "propagator_abs_grid", counted_grid)
        monkeypatch.setattr(transfer, "abs_runs", counted_runs)
        for args in searches:
            points[0] = 0
            f_max = find_peak(*args)[0]
            unscreened = points[0]
            for rise in (1e-6, 1e-3, 0.1):
                points[0] = 0
                f_abs, _, flag = find_peak(*args, level=f_max + rise)
                assert type(f_abs) in (float, np.float64) and not flag
                assert 0.0 <= f_abs < f_max + rise and f_abs <= f_max + 1e-9
                assert points[0] < unscreened, (args[3], rise)
