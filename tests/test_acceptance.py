"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints ``ACCEPTANCE <id> PASS|FAIL <summary>`` directly to the
terminal (bypassing capture) before asserting, so a full ``pytest -v`` run
shows every verdict regardless of which criteria hold. Criteria that the
implementation cannot honestly attain stay red here on purpose; the README
summarizes which ones and why.
"""

import numpy as np
import pytest

from dipolink import (
    DIPOLE,
    DisorderConfig,
    NEAREST_NEIGHBOUR,
    NoiseModel,
    build_hamiltonian,
    chain_sweep,
    decompose,
    encoded_end_states,
    end_to_end_summary,
    fidelity,
    fit_bound_state,
    predict_splitting,
    propagator,
    propagator_abs_grid,
    ring_sweep,
    run_disorder,
    site_state,
    summarize_transfer,
    uniform_chain,
)

from conftest import (
    expm_transfer_abs,
    full_dipole_hamiltonian,
    one_flip_block,
    rk4_evolve,
)


@pytest.fixture(scope="module")
def dipole_rows():
    return chain_sweep(2, 23)


@pytest.fixture(scope="module")
def nn_rows():
    return chain_sweep(2, 23, NEAREST_NEIGHBOUR)


def verdict(capfd, cid: str, ok: bool, detail: str):
    with capfd.disabled():
        print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {cid}: {detail}"


# Criterion 01's horizon, in inverse nearest-neighbour couplings. The paper
# gives no time limit, and the mirror-symmetric chains are quasi-periodic,
# so every chain length eventually comes within 1e-6 of F = 1; "short
# chains" only means something over a horizon that longer chains do not
# reach. The uniform chains first reach F >= 1 - 1e-6 at t = 1.57 (N = 2),
# 801 (N = 3), 4.4e5 (N = 4) and 3.8e8 (N = 5); N = 6 does not by 3e8. Any
# horizon from 4.5e5 to 3.7e8 therefore separates N <= 4 from N = 5. The
# test asserts both sides: a horizon long enough for N = 5 fails it.
PERFECT_TRANSFER_HORIZON = 1e6


def test_criterion_01_perfect_short_chains(capfd):
    """N = 2, 3, 4 chains reach F_max >= 1 - 1e-6 within the horizon; N = 5 does not."""
    rows = {
        n: end_to_end_summary(
            build_hamiltonian(uniform_chain(n)), PERFECT_TRANSFER_HORIZON
        )
        for n in (2, 3, 4, 5)
    }
    oracle_gap = max(
        abs(
            fidelity(expm_transfer_abs(uniform_chain(n).positions, rows[n].t_peak))
            - rows[n].f_max
        )
        for n in (2, 3, 4, 5)
    )
    ok = (
        all(rows[n].f_max >= 1.0 - 1e-6 for n in (2, 3, 4))
        and rows[5].f_max < 1.0 - 1e-6
        and oracle_gap <= 1e-8
    )
    detail = (
        "perfect short-chain transfer within t <= 1e6: "
        + ", ".join(
            f"F({n})={rows[n].f_max:.8f} at t={rows[n].t_peak:.6g}"
            for n in (2, 3, 4, 5)
        )
        + f"; expm oracle within {oracle_gap:.1e}"
    )
    verdict(capfd, "01", ok, detail)


def test_criterion_02_high_fidelity_band(capfd, dipole_rows):
    """All dipole chains N = 2..23 keep F_max >= 0.9."""
    worst = min(dipole_rows, key=lambda r: r.summary.f_max)
    ok = worst.summary.f_max >= 0.9
    verdict(
        capfd, "02", ok,
        f"high-fidelity band: min F_max = {worst.summary.f_max:.4f} "
        f"at N = {worst.n}",
    )


def test_criterion_03_cubic_timing_law(capfd, dipole_rows):
    """log t_peak vs log L slope over N = 15..23 equals 3 +- 0.2."""
    rows = [r for r in dipole_rows if 15 <= r.n <= 23]
    slope = np.polyfit(
        np.log([r.summary.length for r in rows]),
        np.log([r.summary.t_peak for r in rows]),
        1,
    )[0]
    ok = abs(slope - 3.0) <= 0.2
    verdict(capfd, "03", ok, f"cubic timing law: slope = {slope:.3f}")


def test_criterion_04_tau_minimum(capfd, dipole_rows):
    """argmin tau over N in [2, 23] is N = 4 with tau(4) = 0.568 +- 0.01."""
    taus = {r.n: r.summary.tau for r in dipole_rows}
    n_min = min(taus, key=taus.get)
    ok = n_min == 4 and abs(taus[4] - 0.568) <= 0.01
    verdict(
        capfd, "04", ok,
        f"tau minimum: argmin = {n_min}, tau(4) = {taus[4]:.4f}",
    )


def test_criterion_05_optimized_four_spin(capfd):
    """Optimizer recovers gaps (0.314, 0.373, 0.314) +- 0.005, tau = 0.512 +- 0.01."""
    from dipolink import optimize_placement

    res = optimize_placement(4)
    g = res.gaps
    ok = (
        abs(g[0] - 0.314) <= 0.005
        and abs(g[1] - 0.373) <= 0.005
        and abs(g[2] - 0.314) <= 0.005
        and abs(res.tau - 0.512) <= 0.01
    )
    verdict(
        capfd, "05", ok,
        f"optimized 4-spin chain: gaps = ({g[0]:.4f}, {g[1]:.4f}, {g[2]:.4f}), "
        f"tau = {res.tau:.4f}, verified F_max = {res.f_max:.4f}",
    )


def test_criterion_06_bound_state_fit(capfd):
    """q=4 fit gives Q = 0.325 +- 0.005, R = -0.957 +- 0.005; residual shrinks."""
    model = fit_bound_state(4, 14)
    residuals = {}
    for n in (14, 23):
        exact = decompose(build_hamiltonian(uniform_chain(n))).splitting
        pred = predict_splitting(model, float(n - 1)).delta_lambda
        residuals[n] = abs(pred - exact) / exact
    ok = (
        abs(model.q_sum - 0.325) <= 0.005
        and abs(model.r_sum + 0.957) <= 0.005
        and residuals[23] < residuals[14]
    )
    verdict(
        capfd, "06", ok,
        f"bound-state fit: Q = {model.q_sum:.4f}, R = {model.r_sum:.4f}, "
        f"splitting residual {residuals[14]:.3%} (N=14) -> "
        f"{residuals[23]:.3%} (N=23)",
    )


def test_criterion_07_ring_comparison(capfd):
    """nn-ring F_max >= dipole-ring F_max over N = 4..30 except exactly {6, 12}."""
    dip = {r.n: r.summary.f_max for r in ring_sweep(4, 30, DIPOLE)}
    nn = {r.n: r.summary.f_max for r in ring_sweep(4, 30, NEAREST_NEIGHBOUR)}
    exceptions = sorted(n for n in dip if nn[n] < dip[n])
    ok = exceptions == [6, 12]
    verdict(
        capfd, "07", ok,
        f"ring comparison: dipole wins at N = {exceptions} (criterion: [6, 12])",
    )


def test_criterion_08_nn_multiples_of_three(capfd, nn_rows):
    """nn-chain F_max dips strictly at N = 6, 9, 12."""
    f = {r.n: r.summary.f_max for r in nn_rows}
    ok = all(f[n] < f[n - 1] and f[n] < f[n + 1] for n in (6, 9, 12))
    verdict(
        capfd, "08", ok,
        "nn multiples-of-3 dips: "
        + ", ".join(f"F({n})={f[n]:.4f}" for n in (5, 6, 7, 8, 9, 10, 11, 12, 13)),
    )


def test_criterion_09_encoded_io(capfd):
    """Width-2 encoding on N = 10: F_max >= 0.999 and t_peak within 1% of single-site."""
    h = build_hamiltonian(uniform_chain(10))
    single = end_to_end_summary(h)
    s_in, s_out = encoded_end_states(h, 2)
    encoded = summarize_transfer(h, s_in, s_out)
    t_rel = abs(encoded.t_peak - single.t_peak) / single.t_peak
    ok = encoded.f_max >= 0.999 and t_rel <= 0.01
    verdict(
        capfd, "09", ok,
        f"encoded I/O: F_max = {encoded.f_max:.5f} (single {single.f_max:.5f}), "
        f"t_peak shift = {t_rel:.2%}",
    )


def test_criterion_10_disorder_robustness(capfd):
    """2% placement noise on the 4-spin chain fails in [2%, 9%] of 10^4 samples."""
    report = run_disorder(
        uniform_chain(4),
        config=DisorderConfig(
            0.02, 10_000, seed=0, noise_model=NoiseModel.GAUSSIAN_PER_GAP
        ),
    )
    ok = 0.02 <= report.failure_rate <= 0.09
    verdict(
        capfd, "10", ok,
        f"disorder robustness: failure rate = {report.failure_rate:.4f} "
        f"(gaussian per-gap, eps = 0.02, 10^4 samples)",
    )


def test_criterion_11_property_suite(capfd):
    """Numerical property battery (reconstruction, oracles, invariances)."""
    checks = []

    # eigendecomposition reconstruction < 1e-10
    h = build_hamiltonian(uniform_chain(20))
    spec = decompose(h)
    v, e = spec.eigenvectors, spec.eigenvalues
    checks.append(np.max(np.abs(v @ np.diag(e) @ v.T - h.matrix)) < 1e-10)

    # evolution matches the RK4 oracle to 1e-8 for N = 12
    h12 = build_hamiltonian(uniform_chain(12))
    spec12 = decompose(h12)
    psi0 = np.zeros(12)
    psi0[0] = 1.0
    psi = rk4_evolve(h12.matrix, psi0, 50.0, dt=1e-3)
    f_eig = abs(propagator(spec12, site_state(12, 1), site_state(12, 12), 50.0))
    checks.append(abs(f_eig - abs(psi[-1])) < 1e-8)

    # single-excitation matrix equals the one-flip block of the 2^N matrix
    for n in (4, 8):
        full = full_dipole_hamiltonian(uniform_chain(n).positions)
        checks.append(
            np.allclose(
                build_hamiltonian(uniform_chain(n)).matrix,
                one_flip_block(full, n),
                atol=1e-12,
            )
        )

    # |f| invariant under uniform diagonal shift
    times = np.linspace(0.0, 30.0, 61)
    h6 = build_hamiltonian(uniform_chain(6))
    a = propagator_abs_grid(decompose(h6), site_state(6, 1), site_state(6, 6), times)
    b = propagator_abs_grid(
        decompose(h6.matrix + 3.1 * np.eye(6)),
        site_state(6, 1),
        site_state(6, 6),
        times,
    )
    checks.append(np.max(np.abs(a - b)) < 1e-10)

    # F within [1/2, 1]
    checks.append(
        all(0.5 <= fidelity(x) <= 1.0 for x in np.linspace(0.0, 1.0, 101))
    )

    # the dominant oscillation frequency of F(t) equals dl within 1%
    # (individual ripple-peak spacings wander by several percent; the beat
    # itself is exactly periodic)
    spec6 = decompose(h6)
    dl = spec6.splitting
    m = 2**19
    grid = np.linspace(0.0, 200.0 * 2.0 * np.pi / dl, m, endpoint=False)
    fa = propagator_abs_grid(spec6, site_state(6, 1), site_state(6, 6), grid)
    fvals = fa / 3.0 + fa**2 / 6.0 + 0.5
    amps = np.abs(np.fft.rfft(fvals - fvals.mean()))
    omega = 2.0 * np.pi * np.fft.rfftfreq(m, d=grid[1] - grid[0])
    checks.append(abs(omega[int(np.argmax(amps))] - dl) < 0.01 * dl)

    # scale covariance: t_peak scales as s^3 within 1e-8 relative
    from dipolink import Geometry, Topology

    s_base = end_to_end_summary(build_hamiltonian(uniform_chain(5)))
    s_scaled = end_to_end_summary(
        build_hamiltonian(
            Geometry(Topology.CHAIN, tuple(2.0 * p for p in uniform_chain(5).positions))
        )
    )
    checks.append(abs(s_scaled.t_peak / (8.0 * s_base.t_peak) - 1.0) < 1e-8)

    ok = all(checks)
    verdict(
        capfd, "11", ok,
        f"property suite: {sum(checks)}/{len(checks)} checks hold",
    )
