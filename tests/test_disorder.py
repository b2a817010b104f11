"""Disorder Monte Carlo tests (small sample counts; the acceptance gate runs
the full 10^4-sample paper configuration)."""

import json

import numpy as np
import pytest

from dipolink import (
    CLASSICAL_THRESHOLD,
    DisorderConfig,
    DomainError,
    InvalidGeometryError,
    NoiseModel,
    ring,
    run_disorder,
    uniform_chain,
)
from dipolink.cli import main


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            DisorderConfig(-0.1, 10)
        with pytest.raises(DomainError):
            DisorderConfig(0.02, 0)

    def test_error_fraction_vs_min_gap(self):
        with pytest.raises(DomainError):
            run_disorder(uniform_chain(4), config=DisorderConfig(0.6, 10))

    def test_ring_rejected(self):
        with pytest.raises(InvalidGeometryError):
            run_disorder(ring(5), config=DisorderConfig(0.02, 10))


class TestRunDisorder:
    def test_zero_noise_reproduces_clean_peak(self):
        rep = run_disorder(uniform_chain(4), config=DisorderConfig(0.0, 20))
        assert rep.failures == 0
        assert rep.failure_rate == 0.0
        assert rep.mean_f_at_nominal_time == pytest.approx(rep.clean_f_max, abs=1e-9)
        assert np.allclose(rep.sample_fidelities, rep.clean_f_max, atol=1e-9)

    def test_reproducible(self):
        config = DisorderConfig(0.02, 40, seed=11)
        a = run_disorder(uniform_chain(4), config=config)
        b = run_disorder(uniform_chain(4), config=config)
        assert np.array_equal(a.sample_fidelities, b.sample_fidelities)
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_samples(self):
        a = run_disorder(uniform_chain(4), config=DisorderConfig(0.02, 40, seed=1))
        b = run_disorder(uniform_chain(4), config=DisorderConfig(0.02, 40, seed=2))
        assert not np.array_equal(a.sample_fidelities, b.sample_fidelities)

    def test_mean_fidelity_degrades_with_noise(self):
        means = []
        for eps in (0.0, 0.01, 0.02, 0.04):
            rep = run_disorder(
                uniform_chain(4), config=DisorderConfig(eps, 300, seed=3)
            )
            means.append(rep.mean_f_at_nominal_time)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_slow_variation_near_peak(self):
        # the clean fidelity is a slowly varying function of time near its
        # maximum: +-1% timing error costs < 0.02 in fidelity (at +-5% the
        # fast ripple has already turned over and the drop is ~0.1)
        from dipolink import (
            build_hamiltonian,
            decompose,
            end_to_end_summary,
            fidelity,
            propagator,
            site_state,
        )

        h = build_hamiltonian(uniform_chain(4))
        s = end_to_end_summary(h)
        spec = decompose(h)
        for factor in (0.99, 1.01):
            f = propagator(
                spec, site_state(4, 1), site_state(4, 4), s.t_peak * factor
            )
            assert s.f_max - fidelity(min(abs(f), 1.0)) < 0.02

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel.UNIFORM_PER_SITE,
            NoiseModel.GAUSSIAN_PER_SITE,
            NoiseModel.UNIFORM_PER_GAP,
            NoiseModel.GAUSSIAN_PER_GAP,
        ],
    )
    def test_all_noise_models_run(self, model):
        rep = run_disorder(
            uniform_chain(4),
            config=DisorderConfig(0.02, 25, seed=5, noise_model=model),
        )
        assert rep.samples == 25
        assert len(rep.sample_fidelities) == 25

    def test_gaussian_rejection_counted(self):
        # heavy-tailed draws close to the ordering limit must redraw sometimes
        rep = run_disorder(
            uniform_chain(4),
            config=DisorderConfig(
                0.4, 300, seed=5, noise_model=NoiseModel.GAUSSIAN_PER_SITE
            ),
        )
        assert rep.rejected > 0

    def test_report_serialization(self, tmp_path):
        rep = run_disorder(uniform_chain(4), config=DisorderConfig(0.02, 10))
        data = rep.as_dict()
        assert data["samples"] == 10
        assert data["noise_model"] == "uniform"
        # the CLI's defaults are the same configuration
        dump, out = tmp_path / "samples.csv", tmp_path / "report.json"
        assert main(["disorder", "--n", "4", "--samples", "10",
                     "--dump-samples", str(dump), "--output", str(out)]) == 0
        assert json.loads(out.read_text()) == data
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "sample,F_at_t_nominal,failed"
        assert len(lines) == 11
        for k, (line, want) in enumerate(zip(lines[1:], rep.sample_fidelities)):
            sample, f, failed = line.split(",")
            assert int(sample) == k and float(f) == want
            assert (float(f) < CLASSICAL_THRESHOLD) == bool(int(failed))
