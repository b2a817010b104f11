"""Bound-state model: fit, interference sums, splitting prediction."""

import json

import numpy as np
import pytest

from dipolink import boundstate
from dipolink import (
    DomainError,
    NEAREST_NEIGHBOUR,
    ExpansionInvalidError,
    build_hamiltonian,
    decompose,
    fit_bound_state,
    predict_splitting,
    uniform_chain,
)


@pytest.fixture(scope="module")
def model():
    return fit_bound_state(4, 14)


class TestFit:
    def test_paper_sums(self, model):
        assert model.q_sum == pytest.approx(0.325, abs=0.005)
        assert model.r_sum == pytest.approx(-0.957, abs=0.005)

    def test_coefficients_normalized_and_signed(self, model):
        assert np.sum(model.coefficients**2) == pytest.approx(1.0, abs=1e-12)
        assert model.coefficients[0] > 0

    def test_q_identity(self, model):
        a = model.coefficients
        double_sum = float(np.sum(np.outer(a, a)))
        assert model.q_sum == pytest.approx(double_sum, abs=1e-12)
        assert 0.0 < model.q_sum < 1.0

    def test_single_site_truncation(self):
        m = fit_bound_state(1, 14)
        assert m.coefficients[0] == pytest.approx(1.0)
        assert m.q_sum == pytest.approx(1.0)
        assert m.r_sum == pytest.approx(0.0, abs=1e-12)

    def test_weak_source_dependence(self, model):
        other = fit_bound_state(4, 20)
        assert abs(other.q_sum - model.q_sum) / model.q_sum < 0.01
        assert abs(other.r_sum - model.r_sum) / abs(model.r_sum) < 0.01

    def test_q_out_of_range(self):
        with pytest.raises(DomainError):
            fit_bound_state(8, 14)
        with pytest.raises(DomainError):
            fit_bound_state(0, 14)

    @pytest.mark.parametrize("q, source_n, message", [
        (4, 0, "need 2 <= source_n, got 0"),
        (0, 100_000, "need 1 <= q <= 50000, got 0"),
    ])
    def test_counts_refused_before_build(self, monkeypatch, q, source_n, message):
        # the source chain, 80 GB at 100000 spins, is built only after both pass
        monkeypatch.setattr(boundstate, "build_hamiltonian", None)
        with pytest.raises(DomainError) as info:
            fit_bound_state(q, source_n)
        assert str(info.value) == message

    def test_non_dipole_coupling_rejected(self):
        with pytest.raises(DomainError, match="dipole chains only"):
            fit_bound_state(4, 14, NEAREST_NEIGHBOUR)

    def test_json_shape(self, model):
        data = json.loads(json.dumps(model.as_dict()))
        assert set(data) == {"q", "source_n", "a", "Q", "R"}
        assert len(data["a"]) == 4

    def test_two_level_dominance(self, model):
        # the two lowest chain eigenvectors are the (anti)symmetric
        # combinations of the fitted end states
        for n in (10, 14, 20):
            h = build_hamiltonian(uniform_chain(n))
            spec = decompose(h)
            b = np.zeros(n)
            b[:4] = model.coefficients
            e = b[::-1]
            sym = (b + e) / np.linalg.norm(b + e)
            anti = (b - e) / np.linalg.norm(b - e)
            # one low eigenvector matches each parity combination
            o0 = [abs(spec.eigenvectors[:, 0] @ v) for v in (sym, anti)]
            o1 = [abs(spec.eigenvectors[:, 1] @ v) for v in (sym, anti)]
            assert max(o0) > 0.99
            assert max(o1) > 0.99
            assert np.argmax(o0) != np.argmax(o1)


class TestPredictSplitting:
    def test_isolated_pair_limit(self):
        m = fit_bound_state(1, 14)  # Q = 1, R = 0
        pred = predict_splitting(m, 5.0)
        assert pred == pytest.approx(2.0 / 125.0)

    def test_prediction_tracks_exact(self, model):
        errors = {}
        for n in (14, 18, 23):
            h = build_hamiltonian(uniform_chain(n))
            exact = decompose(h).splitting
            pred = predict_splitting(model, float(n - 1))
            errors[n] = abs(pred - exact) / exact
        assert errors[23] < 0.05
        assert errors[23] < errors[18] < errors[14]

    def test_large_length_constant_tau(self, model):
        # tau_pred -> pi / (C Q) as L grows
        limit = np.pi / (2.0 * model.q_sum)
        tau_long = (np.pi / predict_splitting(model, 1e6)) / 1e6**3
        assert tau_long == pytest.approx(limit, rel=1e-5)

    def test_short_chain_rejected(self, model):
        # R < 0 makes the first-order gap negative at small L
        bad_l = -model.r_sum / model.q_sum * 0.5
        with pytest.raises(ExpansionInvalidError):
            predict_splitting(model, bad_l)

    def test_invalid_length(self, model):
        with pytest.raises(DomainError):
            predict_splitting(model, 0.0)

    def test_non_dipole_coupling_rejected(self, model):
        # the fit describes the dipole chain; its Q and R say nothing of nn
        with pytest.raises(DomainError, match="dipole chains only"):
            predict_splitting(model, 13.0, NEAREST_NEIGHBOUR)
