"""Disorder Monte Carlo tests (small sample counts; the acceptance gate runs
the full 10^4-sample paper configuration)."""

import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dipolink import (
    CLASSICAL_THRESHOLD,
    DIPOLE,
    NEAREST_NEIGHBOUR,
    DisorderConfig,
    DomainError,
    Geometry,
    InvalidGeometryError,
    NoiseModel,
    Topology,
    build_hamiltonian,
    decompose,
    end_to_end_summary,
    fidelity,
    ring,
    run_disorder,
    site_state,
    uniform_chain,
)
from dipolink import disorder, spectral
from dipolink.cli import main

from conftest import run_fresh


def reference_draw(geometry, config, k):
    """Sample k's chain by the ensemble's documented rule, without package code.

    The generator seeded with (seed, k) draws U(-1, 1) or N(0, 1) shifts,
    scaled by error_fraction times the mean spacing: one per site, or one
    per gap, accumulated along the chain. A draw that breaks the site
    ordering is replaced by the generator's next one.
    """
    positions = np.asarray(geometry.positions)
    n = len(positions)
    spacing = (positions[-1] - positions[0]) / (n - 1)
    model = config.noise_model
    per_gap = model in (NoiseModel.UNIFORM_PER_GAP, NoiseModel.GAUSSIAN_PER_GAP)
    uniform = model in (NoiseModel.UNIFORM_PER_SITE, NoiseModel.UNIFORM_PER_GAP)
    size = n - 1 if per_gap else n
    rng = np.random.default_rng((config.seed, k))
    while True:
        if uniform:
            shift = rng.uniform(-1.0, 1.0, size)
        else:
            shift = rng.standard_normal(size)
        shift = config.error_fraction * spacing * shift
        drawn = positions.copy()
        if per_gap:
            drawn[1:] += np.cumsum(shift)
        else:
            drawn += shift
        if np.all(np.diff(drawn) > 0):
            return drawn


def reference_fidelities(geometry, coupling, config):
    """Per-sample fidelities, one geometry at a time: build, decompose, and
    f = sum_m w_m e^{-i E_m t} over the weights of ``transfer_terms``.
    """
    n = geometry.n
    t_nominal = end_to_end_summary(build_hamiltonian(geometry, coupling)).t_peak
    values = []
    for k in range(config.samples):
        drawn = reference_draw(geometry, config, k)
        h = build_hamiltonian(Geometry(Topology.CHAIN, tuple(drawn)), coupling)
        spec = decompose(h)
        w, e = spectral.transfer_terms(spec, site_state(n, 1), site_state(n, n))
        f = np.sum(w * np.exp(-1j * e * t_nominal))
        values.append(fidelity(min(abs(f), 1.0)))
    return t_nominal, np.array(values)


def sample_fidelities(geometry, config, coupling=DIPOLE):
    """Every sample's fidelity at t_nominal, in sample order, read through
    the ensemble's per-block path that run_disorder folds."""
    _, blocks = disorder._ensemble(geometry, coupling, config)
    return np.concatenate([values for values, _ in blocks])


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            DisorderConfig(-0.1, 10)
        with pytest.raises(DomainError):
            DisorderConfig(0.02, 0)

    def test_sample_count_bound(self):
        # each sample index must fit one uint32 entropy word; the configs
        # are only constructed, never run
        assert DisorderConfig(0.02, 2**32).samples == 2**32
        with pytest.raises(DomainError, match="need 1 <= samples <= 4294967296, got 0"):
            DisorderConfig(0.02, 0)
        with pytest.raises(DomainError,
                           match="need 1 <= samples <= 4294967296, got 4294967297"):
            DisorderConfig(0.02, 2**32 + 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="need 0 <= seed, got -1"):
            DisorderConfig(0.02, 10, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", True), ("samples", "3"),
        ("seed", 1.5), ("seed", True), ("seed", None),
    ])
    def test_non_integer_count_rejected(self, field, value):
        fields = {"error_fraction": 0.02, "samples": 3, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            DisorderConfig(**fields)

    def test_numpy_integers_become_ints(self):
        config = DisorderConfig(0.02, np.int64(3), seed=np.uint8(2))
        assert type(config.samples) is int and type(config.seed) is int
        rep = run_disorder(uniform_chain(4), config=config)
        assert json.loads(json.dumps(rep.as_dict()))["seed"] == 2

    @pytest.mark.parametrize("eps", [False, True, "0.02", None, 10**400])
    def test_non_real_error_fraction_rejected(self, eps):
        with pytest.raises(DomainError, match="error_fraction"):
            DisorderConfig(eps, 5)

    def test_error_fraction_becomes_float(self):
        config = DisorderConfig(0, 5)
        assert type(config.error_fraction) is float
        rep = run_disorder(uniform_chain(4), config=config)
        assert json.dumps(rep.as_dict()["error_fraction"]) == "0.0"

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_error_fraction(self, eps):
        with pytest.raises(DomainError, match="finite"):
            DisorderConfig(eps, 10)

    @pytest.mark.parametrize("model", list(NoiseModel))
    def test_noise_model_value_is_the_member(self, model):
        config = DisorderConfig(0.02, 5, noise_model=model.value)
        assert config.noise_model is model
        by_member = DisorderConfig(0.02, 5, noise_model=model)
        assert (run_disorder(uniform_chain(4), config=config).as_dict()
                == run_disorder(uniform_chain(4), config=by_member).as_dict())
        assert np.array_equal(sample_fidelities(uniform_chain(4), config),
                              sample_fidelities(uniform_chain(4), by_member))

    def test_unknown_noise_model_rejected(self):
        with pytest.raises(DomainError, match="unknown noise_model 'uniform-bond'"):
            DisorderConfig(0.02, 5, noise_model="uniform-bond")

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
        values = sample_fidelities(uniform_chain(4), DisorderConfig(0.0, 20))
        assert np.allclose(values, rep.clean_f_max, atol=1e-9)

    def test_reproducible(self):
        config = DisorderConfig(0.02, 40, seed=11)
        a = run_disorder(uniform_chain(4), config=config)
        b = run_disorder(uniform_chain(4), config=config)
        assert np.array_equal(sample_fidelities(uniform_chain(4), config),
                              sample_fidelities(uniform_chain(4), config))
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_samples(self):
        a = sample_fidelities(uniform_chain(4), DisorderConfig(0.02, 40, seed=1))
        b = sample_fidelities(uniform_chain(4), DisorderConfig(0.02, 40, seed=2))
        assert not np.array_equal(a, b)

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
            propagator_abs_grid,
            site_state,
        )

        h = build_hamiltonian(uniform_chain(4))
        s = end_to_end_summary(h)
        spec = decompose(h)
        for factor in (0.99, 1.01):
            (f_abs,) = propagator_abs_grid(
                spec, site_state(4, 1), site_state(4, 4), np.array([s.t_peak * factor])
            )
            assert s.f_max - fidelity(min(f_abs, 1.0)) < 0.02

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
        config = DisorderConfig(0.02, 25, seed=5, noise_model=model)
        assert run_disorder(uniform_chain(4), config=config).samples == 25
        assert len(sample_fidelities(uniform_chain(4), config)) == 25

    def test_gaussian_rejection_counted(self):
        # heavy-tailed draws close to the ordering limit must redraw sometimes
        rep = run_disorder(
            uniform_chain(4),
            config=DisorderConfig(
                0.4, 300, seed=5, noise_model=NoiseModel.GAUSSIAN_PER_SITE
            ),
        )
        assert rep.rejected > 0

    # the default block, and 7 samples a block at N = 4, so that the dump
    # is written in two blocks, the header once
    @pytest.mark.parametrize("budget", [disorder._EIGH_BLOCK_ELEMENTS, 112])
    def test_report_serialization(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(disorder, "_EIGH_BLOCK_ELEMENTS", budget)
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
        values = sample_fidelities(uniform_chain(4), DisorderConfig(0.02, 10))
        for k, (line, want) in enumerate(zip(lines[1:], values)):
            sample, f, failed = line.split(",")
            assert int(sample) == k and float(f) == want
            assert (float(f) < CLASSICAL_THRESHOLD) == bool(int(failed))

    def test_report_keys_are_the_fields_in_order(self):
        rep = run_disorder(
            uniform_chain(4),
            config=DisorderConfig(0.02, 10, noise_model=NoiseModel.GAUSSIAN_PER_GAP),
        )
        names = [f.name for f in dataclasses.fields(rep)]
        assert list(rep.as_dict()) == names == [
            "failures", "failure_rate", "mean_f_at_nominal_time", "samples",
            "seed", "rejected", "t_nominal", "clean_f_max", "error_fraction",
            "noise_model",
        ]
        assert rep.error_fraction == 0.02 and rep.noise_model == "gaussian-gap"


class TestSeeding:
    @pytest.mark.parametrize("seed", [
        0, 5, 2**32 - 1,  # one uint32 word
        2**32, 2**64 - 1,  # two
        2**64 + 3,  # three
        2**100, 2**200 + 12345,  # four and seven: the extra pool mixing
    ])
    def test_states_match_numpy(self, seed):
        # k = 0..300 in one block, and the last block below k = 2^32, the
        # most samples a run takes, where k is still one entropy word
        for lo, hi in ((0, 301), (2**32 - 3, 2**32)):
            got = disorder._pcg64_states(seed, lo, hi)
            want = [np.random.default_rng((seed, k)).bit_generator.state
                    for k in range(lo, hi)]
            assert got == want

    def test_cli_import_leaves_numpy_random_unloaded(self):
        proc = run_fresh(
            "import sys, dipolink.cli; print('numpy.random' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestBatchedEnsemble:
    @pytest.mark.parametrize("model", list(NoiseModel))
    @pytest.mark.parametrize("coupling", [DIPOLE, NEAREST_NEIGHBOUR])
    @pytest.mark.parametrize("positions", [
        (0.0, 1.0, 2.0, 3.0),
        (0.0, 0.9, 2.1, 3.0, 4.2),
    ])
    def test_matches_per_sample_reference(
        self, monkeypatch, model, coupling, positions
    ):
        # 7 samples per block at N = 4 and 4 at N = 5: 150 samples end in a
        # partial block either way
        monkeypatch.setattr(disorder, "_EIGH_BLOCK_ELEMENTS", 112)
        geometry = Geometry(Topology.CHAIN, positions)
        config = DisorderConfig(0.3, 150, seed=9, noise_model=model)
        rep = run_disorder(geometry, coupling, config)
        t_nominal, want = reference_fidelities(geometry, coupling, config)
        assert rep.t_nominal == t_nominal
        assert np.array_equal(sample_fidelities(geometry, config, coupling), want)
        assert rep.failures == int(np.count_nonzero(want < CLASSICAL_THRESHOLD))
        # the exact mean of the samples, rounded once
        assert rep.mean_f_at_nominal_time == float(
            sum(map(Fraction, want.tolist())) / len(want))

    def test_memory_does_not_grow_with_samples(self):
        # each block joins running totals and is dropped; one float kept per
        # sample would add 18,000 x 8 bytes to the peak at 2 10^4 samples
        run_disorder(uniform_chain(4), config=DisorderConfig(0.02, 300))  # warm-up
        peaks = []
        for samples in (2_000, 20_000):
            tracemalloc.start()
            try:
                run_disorder(uniform_chain(4), config=DisorderConfig(0.02, samples))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4096, peaks

    def test_redraw_cap(self, monkeypatch):
        seen = []

        def never_ordered(rng, uniform, size):
            # every site lands far behind its left neighbour; draws nothing,
            # so the stream stays where the call found it
            seen.append(rng.bit_generator.state)
            return -1e3 * np.arange(size)

        monkeypatch.setattr(disorder, "_draw", never_ordered)
        with pytest.raises(DomainError, match="sample 0: exceeded 100 redraws"):
            run_disorder(uniform_chain(4), config=DisorderConfig(0.02, 10))
        # one draw per sample of the block from its own stream, then sample
        # 0's stream again: the replayed first draw and exactly _MAX_REDRAWS
        # redraws
        block, failing = seen[:10], seen[10:]
        assert block == [np.random.default_rng((0, k)).bit_generator.state
                         for k in range(10)]
        assert len(failing) == 1 + disorder._MAX_REDRAWS
        first = np.random.default_rng((0, 0)).bit_generator.state
        assert all(state == first for state in failing)

    @pytest.mark.parametrize("model", list(NoiseModel))
    def test_sample_does_not_depend_on_sample_count(self, monkeypatch, model):
        # 44 samples per block at N = 5. The gaussian models redraw samples
        # 5, 50, 65, 73, 82 (twice), 87 and 106 per site and 38 and 50 per
        # gap, so rejected rows sit on both sides of a block boundary; the
        # shorter runs end inside a block, the last one on a rejected row.
        monkeypatch.setattr(disorder, "_EIGH_BLOCK_ELEMENTS", 44 * 25)
        geometry = Geometry(Topology.CHAIN, (0.0, 0.9, 2.1, 3.0, 4.2))
        config = DisorderConfig(0.3, 150, seed=9, noise_model=model)
        full = sample_fidelities(geometry, config)
        rejected = {NoiseModel.GAUSSIAN_PER_SITE: 8, NoiseModel.GAUSSIAN_PER_GAP: 2}
        assert run_disorder(geometry, config=config).rejected == rejected.get(model, 0)
        for k in (1, 60, 107):
            part = sample_fidelities(geometry, dataclasses.replace(config, samples=k))
            assert np.array_equal(part, full[:k])

    @pytest.mark.parametrize("n", [4, 9])
    def test_block_budget_does_not_change_report(self, monkeypatch, n):
        config = DisorderConfig(
            0.05, 100, seed=4, noise_model=NoiseModel.GAUSSIAN_PER_GAP
        )
        reports, values = [], []
        for budget in (1, 37 * n * n, disorder._EIGH_BLOCK_ELEMENTS):
            monkeypatch.setattr(disorder, "_EIGH_BLOCK_ELEMENTS", budget)
            reports.append(run_disorder(uniform_chain(n), config=config))
            values.append(sample_fidelities(uniform_chain(n), config))
        for rep, each in zip(reports[1:], values[1:]):
            assert rep.as_dict() == reports[0].as_dict()
            assert np.array_equal(each, values[0])
