"""The package namespace: what ``dipolink`` exports, and the one rule for
every count its entries take."""

import types

import numpy as np
import pytest

import dipolink


def test_all_lists_every_public_name():
    public = [
        name
        for name, value in vars(dipolink).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(dipolink.__all__) == sorted(public)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dipolink import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(dipolink.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in bound)
    assert len(dipolink.__all__) == len(set(dipolink.__all__))


_H10 = dipolink.build_hamiltonian(dipolink.uniform_chain(10))
_CURVE_ARGS = (dipolink.decompose(_H10), dipolink.site_state(10, 1),
               dipolink.site_state(10, 10), 1.0)

# Every count the package is handed: (call of the count, its name, the
# range lo..hi it must lie in, hi None for no upper bound, and a value in it)
COUNTS = {
    "DisorderConfig.samples": (lambda v: dipolink.DisorderConfig(0.02, v),
                               "samples", 1, 2**32, 3),
    "DisorderConfig.seed": (lambda v: dipolink.DisorderConfig(0.02, 3, seed=v),
                            "seed", 0, None, 2),
    "SearchConfig.seed": (lambda v: dipolink.SearchConfig(seed=v), "seed", 0, None, 2),
    "site_state.n": (lambda v: dipolink.site_state(v, 1), "n", 1, None, 4),
    "site_state.site": (lambda v: dipolink.site_state(4, v), "site", 1, 4, 2),
    "fidelity_curve.n_steps": (
        lambda v: dipolink.fidelity_curve(*_CURVE_ARGS, v), "n_steps", 2, None, 3),
    "encoded_end_states.width": (
        lambda v: dipolink.encoded_end_states(_H10, v), "width", 1, 5, 2),
    "fit_bound_state.source_n": (
        lambda v: dipolink.fit_bound_state(1, v), "source_n", 2, None, 4),
    "fit_bound_state.q": (lambda v: dipolink.fit_bound_state(v, 14), "q", 1, 7, 4),
    "optimize_placement.n": (dipolink.optimize_placement, "n", 3, None, 3),
    "n_free_gaps": (dipolink.n_free_gaps, "n", 2, None, 5),
    "uniform_chain": (dipolink.uniform_chain, "n", 0, None, 4),
    "ring": (dipolink.ring, "n", 0, None, 4),
}


def _refusals():
    for entry, (_, name, lo, hi, _) in COUNTS.items():
        high = "" if hi is None else f" <= {hi}"
        yield entry, True, f"{name} must be an integer, got True"
        yield entry, 2.5, f"{name} must be an integer, got 2.5"
        yield entry, lo - 1, f"need {lo} <= {name}{high}, got {lo - 1}"
        if hi is not None:
            yield entry, hi + 1, f"need {lo} <= {name}{high}, got {hi + 1}"


@pytest.mark.parametrize("entry, value, message", list(_refusals()))
def test_every_count_refused_with_one_rule(entry, value, message):
    with pytest.raises(dipolink.DomainError) as info:
        COUNTS[entry][0](value)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", list(COUNTS))
def test_every_count_takes_a_numpy_integer(entry):
    call, *_, good = COUNTS[entry]
    assert call(np.int64(good)) is not None


@pytest.mark.parametrize("end", ["n_min", "n_max"])
@pytest.mark.parametrize("sweep", [dipolink.chain_sweep, dipolink.ring_sweep])
def test_size_range_ends_are_counts(sweep, end):
    # the range itself is the one pair rule's (tests/test_transfer.py)
    for value in (True, 2.5):
        ends = {"n_min": 3, "n_max": 4, end: value}
        with pytest.raises(dipolink.DomainError) as info:
            sweep(**ends)
        assert str(info.value) == f"{end} must be an integer, got {value!r}"
    assert [s.n for s in sweep(np.int64(3), np.int64(4))] == [3, 4]
