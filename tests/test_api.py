"""The package namespace: what ``dipolink`` exports, the one rule for every
count and the one rule for every real its entries take, and the Python
floats its results hold."""

import dataclasses
import math
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
    "uniform_chain": (dipolink.uniform_chain, "n", 2, None, 4),
    "ring": (dipolink.ring, "n", 3, None, 4),
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


# An int past Python's 4300-digit limit on int-to-text conversion: each
# refusal gives its digit count, not a bare ValueError from printing it.
@pytest.mark.parametrize("call, value, message", [
    (lambda v: dipolink.CouplingSpec(c_const=v), 10**5000,
     "c_const an int of 5001 digits overflows a float"),
    (lambda v: dipolink.site_state(4, v), 10**5000,
     "need 1 <= site <= 4, got an int of 5001 digits"),
    (lambda v: dipolink.site_state(4, v), -(10**5000 - 1),
     "need 1 <= site <= 4, got a negative int of 5000 digits"),
    (lambda v: dipolink.DisorderConfig(0.02, v), 10**5000,
     "need 1 <= samples <= 4294967296, got an int of 5001 digits"),
    (lambda v: dipolink.DisorderConfig(0.02, v), 5 * 10**4400,
     "need 1 <= samples <= 4294967296, got an int of 4401 digits"),
], ids=["c_const", "site", "negative-site", "samples", "samples-5e4400"])
def test_int_past_the_text_limit_refused_by_digit_count(call, value, message):
    with pytest.raises(dipolink.DomainError) as info:
        call(value)
    assert str(info.value) == message


_MODEL = dipolink.fit_bound_state(4)
_TINY, _MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)

# Every real the package is handed: (call of the real, the error that refuses
# it, its name, the range lo..hi it must lie in, the rule as the message
# states it, and a value in it)
REALS = {
    "CouplingSpec.c_const": (
        lambda v: dipolink.CouplingSpec(c_const=v), dipolink.DomainError,
        "c_const", _TINY, _MAX, "finite 2.23e-308 <= c_const", 2),
    "DisorderConfig.error_fraction": (
        lambda v: dipolink.DisorderConfig(v, 3), dipolink.DomainError,
        "error_fraction", 0.0, _MAX, "finite 0 <= error_fraction", 0),
    "SearchConfig.min_fidelity": (
        lambda v: dipolink.SearchConfig(min_fidelity=v), dipolink.DomainError,
        "min_fidelity", -_MAX, 1.0, "finite min_fidelity <= 1", 1),
    "fidelity_curve.t_max": (
        lambda v: dipolink.fidelity_curve(*_CURVE_ARGS[:3], v, 3),
        dipolink.DomainError, "t_max", 0.0, _MAX, "finite 0 <= t_max", 1),
    "find_peak.t_max": (
        lambda v: dipolink.find_peak(*_CURVE_ARGS[:3], v), dipolink.DomainError,
        "t_max", 0.0, _MAX / 8, "finite 0 <= t_max <= 2.25e+307", 1),
    "find_peak.level": (
        lambda v: dipolink.find_peak(*_CURVE_ARGS, level=v), dipolink.DomainError,
        "level", -math.inf, math.inf, "-inf <= level <= inf", 0),
    "predict_splitting.length": (
        lambda v: dipolink.predict_splitting(_MODEL, v), dipolink.DomainError,
        "length", 2.0**-255, 2.0**255, "finite 1.73e-77 <= length <= 5.79e+76", 20),
    "Geometry.positions": (
        lambda v: dipolink.Geometry("chain", (0, 1, v)), dipolink.InvalidGeometryError,
        "position 3", -_MAX, _MAX, "finite position 3", 2),
}


def _real_refusals():
    for entry, (_, _, name, lo, hi, rule, _) in REALS.items():
        yield entry, "bool", True, f"{name} must be a real number, got True"
        yield entry, "str", "1.5", f"{name} must be a real number, got '1.5'"
        yield entry, "10**400", 10**400, f"{name} {10**400} overflows a float"
        # NaN, the infinities, and the floats next to each bound that is
        # neither infinite nor the largest float, outside it
        beyond = [math.nan, -math.inf, math.inf] + [
            float(np.nextafter(bound, side))
            for bound, side in ((lo, -math.inf), (hi, math.inf)) if abs(bound) < _MAX
        ]
        for value in beyond:
            if not lo <= value <= hi:
                yield entry, repr(value), value, f"need {rule}, got {value}"


@pytest.mark.parametrize("entry, value, message", [
    pytest.param(entry, value, message, id=f"{entry}-{label}")
    for entry, label, value, message in _real_refusals()
])
def test_every_real_refused_with_one_rule(entry, value, message):
    call, error = REALS[entry][:2]
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", [int, np.float32])
@pytest.mark.parametrize("entry", list(REALS))
def test_every_real_takes_an_int_and_a_numpy_float(entry, kind):
    call, *_, good = REALS[entry]
    assert call(kind(good)) is not None


@pytest.mark.parametrize("level", [-math.inf, math.inf])
def test_infinite_bounds_take_infinities(level):
    # find_peak's level is the one real whose bounds are infinite
    f_abs, t_peak, _ = dipolink.find_peak(*_CURVE_ARGS, level=level)
    assert 0.0 <= f_abs <= 1.0 and 0.0 <= t_peak <= 1.0


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


# Every result type with float fields, and the Hamiltonian, built small:
# (call, its results)
RESULTS = {
    "hamiltonian": lambda: [
        dipolink.build_hamiltonian(dipolink.uniform_chain(4)),
        dipolink.build_hamiltonian(dipolink.ring(5)),
        dipolink.build_hamiltonian(
            dipolink.uniform_chain(4), dipolink.NEAREST_NEIGHBOUR),
    ],
    "chain": lambda: dipolink.chain_sweep(2, 6),
    "ring": lambda: dipolink.ring_sweep(4, 7),
    "nn-chain": lambda: dipolink.chain_sweep(2, 6, dipolink.NEAREST_NEIGHBOUR),
    "placement": lambda: [dipolink.optimize_placement(4)],
    "disorder": lambda: [dipolink.run_disorder(
        dipolink.uniform_chain(4), config=dipolink.DisorderConfig(0.02, 10))],
}


@pytest.mark.parametrize("results", RESULTS.values(), ids=RESULTS)
def test_float_fields_hold_python_floats(results):
    # annotations are strings under ``from __future__ import annotations``
    for result in results():
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if f.type == "float" or (f.type == "float | None" and value is not None):
                assert type(value) is float, (f.name, type(value))


@pytest.mark.parametrize("level", [-math.inf, 2.0], ids=["peak", "short-of-level"])
def test_find_peak_returns_python_floats(level):
    # a level above the cap keeps no run: the search returns |f(t_max)|
    f_abs, t_peak, boundary = dipolink.find_peak(*_CURVE_ARGS[:3], 20.0, level=level)
    assert (type(f_abs), type(t_peak), type(boundary)) == (float, float, bool)
    assert (t_peak == 20.0) is (level == 2.0)
