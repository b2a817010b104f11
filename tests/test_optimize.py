"""Placement optimizer and encoded-state tests."""

import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest

import dipolink
from dipolink import optimize
from dipolink import (
    DomainError,
    Geometry,
    InfeasibleConstraintError,
    InvalidGeometryError,
    PlacementResult,
    SearchConfig,
    Topology,
    build_hamiltonian,
    n_free_gaps,
    encoded_end_states,
    optimize_placement,
    ring,
    site_state,
    summarize_transfer,
    uniform_chain,
)

from conftest import run_fresh


@pytest.fixture(scope="module")
def four_spin_result():
    return optimize_placement(4)


@functools.cache
def _placement(n: int, c_const: float) -> PlacementResult:
    return optimize_placement(n, dipolink.CouplingSpec("dipole", c_const))


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
        assert res.evaluations == 11  # one point per start, nothing to move

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
        a = optimize_placement(4, config=SearchConfig(seed=7))
        b = optimize_placement(4, config=SearchConfig(seed=7))
        assert a.best_gaps == b.best_gaps
        assert a.tau == b.tau

    def test_too_few_spins(self):
        with pytest.raises(DomainError):
            optimize_placement(2)

    def test_failure_names_the_best_fidelity_unrounded(self):
        # the best candidate's F is 0.99999999918, which six places would
        # round up to the bar
        with pytest.raises(InfeasibleConstraintError) as info:
            optimize_placement(4, config=SearchConfig(min_fidelity=1.0))
        best = float(re.search(r"\(best (.+)\)", str(info.value)).group(1))
        assert best < 1.0

    def test_no_placement_above_the_gap_floor(self):
        # 21 gaps of 0.05 exceed the unit length, so no placement clears the
        # floor and the search is refused before it starts
        with pytest.raises(InfeasibleConstraintError, match="22-spin placement"):
            optimize_placement(22)

    @pytest.mark.parametrize("n", [21, 22, 1000, 10**6])
    def test_refused_before_any_round(self, monkeypatch, n):
        # from N = 21 on, (N - 1) * 0.05 >= 1: no start is drawn or run
        monkeypatch.setattr(optimize, "_starts", None)
        monkeypatch.setattr(optimize, "_lockstep", None)
        monkeypatch.setattr(optimize, "_tau", None)
        with pytest.raises(InfeasibleConstraintError) as info:
            optimize_placement(n)
        assert str(info.value) == (
            f"no mirror-symmetric {n}-spin placement found with gaps above 0.05"
        )

    def test_rounds_stack_at_most_110_chains(self, monkeypatch):
        # N = 20: 11 starts of 9 free gaps ask at most 10 points each a round
        sizes = []
        own = optimize._tau

        def counted(gaps, coupling):
            sizes.append(len(gaps))
            return own(gaps, coupling)

        monkeypatch.setattr(optimize, "_tau", counted)
        # no candidate verifies at 0.99 (the best reaches 0.98919)
        with pytest.raises(InfeasibleConstraintError, match="no candidate reached"):
            optimize_placement(20)
        assert max(sizes) <= 110
        # the starts share rounds
        assert max(sizes) > 10

    @pytest.mark.parametrize("k", [-60, -20, -10, 10, 20, 60])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_scale_covariance(self, n, k):
        # C -> 2^k C scales every dl by 2^k exactly, and the search minimizes
        # tau in units of 2 / C, so it takes the same steps at every such C
        base, scaled = _placement(n, 2.0), _placement(n, 2.0 * 2.0**k)
        assert scaled.best_gaps == base.best_gaps
        assert scaled.evaluations == base.evaluations
        assert scaled.f_max == base.f_max
        assert scaled.delta_lambda / 2.0**k == base.delta_lambda
        for field in ("start_tau", "tau", "t_best"):
            assert getattr(scaled, field) * 2.0**k == getattr(base, field), field

    @pytest.mark.parametrize("field, value", [("seed", -1)])
    def test_negative_config_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"need 0 <= {field}, got {value}"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", False)])
    def test_non_integer_config_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.9", None, 10**400])
    def test_non_real_min_fidelity_rejected(self, value):
        with pytest.raises(DomainError, match="min_fidelity"):
            SearchConfig(min_fidelity=value)

    def test_min_fidelity_becomes_float(self):
        config = SearchConfig(min_fidelity=np.float32(0.5))
        assert type(config.min_fidelity) is float


def _batched(func):
    """A batched objective that calls the one-point func row by row."""
    return lambda points: [float(func(np.array(x))) for x in points]


def _assert_same_run(func, starts):
    """Run scipy's Nelder-Mead from each start on func, a batched objective
    called one point at a time, and ``_lockstep`` from all starts together;
    require per start the same number of evaluations and the same bits.
    Returns the (fun, x, evaluations) of each start and the number of points
    ``_lockstep`` evaluated."""
    from scipy.optimize import minimize

    calls = [0]
    points = [0]

    def counted(x):
        points[0] += len(x)
        return func(x)

    def one_point(x):
        calls[0] += 1
        return func([x.tolist()])[0]

    refs = []
    with np.errstate(invalid="ignore"):
        for x0 in starts:
            calls[0] = 0
            ref = minimize(one_point, x0, method="Nelder-Mead",
                           options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 400})
            assert calls[0] == ref.nfev
            refs.append(ref)
        ends = optimize._lockstep(counted, [np.asarray(x0, dtype=float) for x0 in starts])
    assert len(ends) == len(starts)
    for (fun, x, nfev), ref in zip(ends, refs):
        assert nfev == ref.nfev
        assert np.array_equal(fun, ref.fun)
        assert np.array_equal(x, ref.x)
    return ends, points[0]


class TestNelderMeadMatchesScipy:
    """``_lockstep`` takes scipy's steps from every start: same calls, same bits."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_placement_objective(self, monkeypatch, n):
        # record the batched objective and the 11 starts the search hands
        # over; the first four are checked against scipy
        runs = []
        own = optimize._lockstep

        def recording(func, starts):
            runs.append((func, [np.array(x0) for x0 in starts]))
            return own(func, starts)

        monkeypatch.setattr(optimize, "_lockstep", recording)
        try:
            optimize_placement(n)
        except InfeasibleConstraintError:
            pass
        monkeypatch.undo()
        ((func, starts),) = runs
        assert len(starts) == 11
        assert np.array_equal(starts[0], np.full(n_free_gaps(n), 1.0 / (n - 1)))
        _assert_same_run(func, starts[:4])

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.7, 1.3]])
    def test_rosenbrock(self, x0):
        from scipy.optimize import rosen

        # the mirrored start runs a different number of rounds in lockstep
        _assert_same_run(_batched(rosen), [x0, x0[::-1]])

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.7, 1.3]])
    def test_ties_on_plateaus(self, x0):
        # a staircase makes equal values common, so each `<` or `<=`
        # comparison meets ties
        staircase = _batched(lambda x: float(np.floor(8 * np.sum((x - 0.3) ** 2))))
        _assert_same_run(staircase, [x0])

    def test_infinite_past_a_wall(self):
        # the minimum at (1, 2) lies past the wall x_0 > 0.8, as the gap
        # floor's inf does for placements
        def walled(x):
            if x[0] > 0.8:
                return np.inf
            return float(np.sum((x - np.array([1.0, 2.0])) ** 2))

        # the second start begins past the wall
        ends, _ = _assert_same_run(_batched(walled), [[0.5, 0.5], [0.9, 0.5]])
        ((fun, x, _), _) = ends
        assert x[0] == pytest.approx(0.8, abs=1e-6) and np.isfinite(fun)
        # scipy repeats that start's last iteration unchanged up to the cap;
        # the run stops at its first repeat and counts the rest as asked
        (((fun, x, nfev),), points) = _assert_same_run(_batched(walled), [[0.9, 0.5]])
        assert nfev == 1599 and points < nfev / 4

    @pytest.mark.parametrize("n, seed, rounds, evaluations", [
        # one start of seed 16 collapses to a point below the gap floor (all
        # values inf); N = 5's uniform start ends with both vertices on the
        # floor, 1e-15 apart and their values 6e-12 apart
        (6, 16, 300, 3664), (5, 0, 200, 2253),
    ])
    def test_fixed_points_of_the_placement_objective(
        self, monkeypatch, n, seed, rounds, evaluations
    ):
        runs, calls = [], []
        own = optimize._lockstep

        def recording(func, starts):
            runs.append((func, [np.array(x0) for x0 in starts]))

            def counted(points):
                calls.append(len(points))
                return func(points)

            return own(counted, starts)

        monkeypatch.setattr(optimize, "_lockstep", recording)
        result = optimize_placement(n, config=SearchConfig(seed=seed))
        monkeypatch.undo()
        assert result.evaluations == evaluations
        assert len(calls) <= rounds and sum(calls) < evaluations
        for func, block in runs:
            _assert_same_run(func, block)


class TestLockstep:
    """Running the starts together changes no result."""

    @pytest.mark.parametrize("n, seed", [
        # seed 16 has a start that stops at an all-inf fixed point below the
        # gap floor
        (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (6, 9), (6, 12), (6, 16),
    ])
    def test_each_start_alone_gives_the_same_run(self, monkeypatch, n, seed):
        calls = []
        own = optimize._lockstep

        def recording(func, starts):
            calls.append(len(starts))
            return own(func, starts)

        def alone(func, starts):
            calls.append(len(starts))
            return [own(func, [x0])[0] for x0 in starts]

        def run():
            try:
                return optimize_placement(n, config=SearchConfig(seed=seed)).report
            except InfeasibleConstraintError as exc:
                return str(exc)

        monkeypatch.setattr(optimize, "_lockstep", recording)
        together = run()
        # the starts run one after another
        monkeypatch.setattr(optimize, "_lockstep", alone)
        sequential = run()
        assert calls == [11, 11]
        assert sequential == together
        if seed == 12:
            assert together.startswith("no candidate reached f_max >= 0.99")


class TestStackedObjective:
    def test_stacked_evaluation_matches_one_row_at_a_time(self):
        n = 6
        rng = np.random.default_rng(3)
        # spread wide enough that some rows put a gap below the 0.05 floor
        free = 0.2 + rng.uniform(-0.17, 0.17, size=(40, n_free_gaps(n)))
        gaps = np.array([optimize._gaps_from_free(x, n) for x in free.tolist()])
        below = np.any(gaps < 0.05, axis=-1)
        assert 0 < below.sum() < len(free)
        stacked = np.array(optimize._tau(gaps.tolist(), dipolink.DIPOLE))
        for g, tau in zip(gaps, stacked):
            alone = optimize._tau([g.tolist()], dipolink.DIPOLE)
            assert np.array_equal(alone, [tau])
        assert np.all(np.isinf(stacked[below]))
        # each feasible tau is pi / dl of the public path's spectrum, bit for bit
        for g, tau in zip(gaps[~below], stacked[~below]):
            spec = dipolink.decompose(build_hamiltonian(optimize._geometry_from_gaps(g)))
            assert tau == np.pi / spec.splitting

    def test_all_below_the_floor_skips_build_and_eigensolve(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("no chain to build or solve")

        monkeypatch.setattr(optimize, "_hamiltonian_matrices", unreachable)
        monkeypatch.setattr(optimize, "_eigh", unreachable)
        # each row puts one gap of a 6-spin chain at 0.04, below the floor
        free = [[0.04, 0.3], [0.3, 0.04], [0.04, 0.04]]
        gaps = [optimize._gaps_from_free(x, 6) for x in free]
        tau = optimize._tau(gaps, dipolink.DIPOLE)
        assert tau == [np.inf] * 3

    def test_rounds_below_the_floor_cost_no_eigensolve(self, monkeypatch):
        # seed 16 runs the 1198-round cap plus the uniform chain's tau, 1199
        # eigensolves if every round made one; 961 of its rounds hold no
        # point above the floor
        solves = []
        own = optimize._eigh

        def counted(matrices):
            solves.append(len(matrices))
            return own(matrices)

        monkeypatch.setattr(optimize, "_eigh", counted)
        optimize_placement(6, config=SearchConfig(seed=16))
        assert len(solves) <= 240

    def test_nn_stacked_evaluation_matches_one_row_at_a_time(self):
        # the nn coupling zeroes every pair but nearest neighbours through
        # its own mask
        n = 7
        rng = np.random.default_rng(4)
        free = 1 / 6 + rng.uniform(-0.14, 0.14, size=(30, n_free_gaps(n)))
        gaps = np.array([optimize._gaps_from_free(x, n) for x in free.tolist()])
        below = np.any(gaps < 0.05, axis=-1)
        assert 0 < below.sum() < len(free)
        nn = dipolink.NEAREST_NEIGHBOUR
        stacked = np.array(optimize._tau(gaps.tolist(), nn))
        assert np.all(np.isinf(stacked[below]))
        for g, tau in zip(gaps, stacked):
            assert np.array_equal(optimize._tau([g.tolist()], nn), [tau])
        for g, tau in zip(gaps[~below], stacked[~below]):
            h = build_hamiltonian(optimize._geometry_from_gaps(g), nn)
            assert tau == np.pi / dipolink.decompose(h).splitting

    @pytest.mark.parametrize(
        "coupling", [dipolink.DIPOLE, dipolink.NEAREST_NEIGHBOUR], ids=["dipole", "nn"]
    )
    @pytest.mark.parametrize("n", range(3, 21))
    def test_python_floats_match_numpy_and_decompose(self, n, coupling):
        # free gaps within half their margin above the floor of the uniform
        # chain's; the middle gap, which absorbs the length, falls below the
        # floor in some rows of most sizes
        rng = np.random.default_rng(n)
        uniform = 1.0 / (n - 1)
        spread = (uniform - 0.05) / 2.0
        free = uniform + rng.uniform(-spread, spread, size=(40, n_free_gaps(n)))
        gaps = [optimize._gaps_from_free(x, n) for x in free.tolist()]
        want = _numpy_gaps(free, n)
        assert np.array(gaps).tobytes() == want.tobytes()
        solved = 0
        for g, tau in zip(want, optimize._tau(gaps, coupling)):
            if g.min() < 0.05:
                assert tau == math.inf
                continue
            positions = tuple(np.concatenate([[0.0], np.cumsum(g)]))
            h = build_hamiltonian(Geometry(Topology.CHAIN, positions), coupling)
            assert tau == np.pi / dipolink.decompose(h).splitting
            solved += 1
        assert solved >= 20
        if n >= 18:
            # 8 or 9 free gaps: numpy sums the first 8 pairwise, and a
            # left-to-right sum differs in some rows
            in_order = [list(itertools.accumulate(x))[-1] for x in free.tolist()]
            assert in_order != free.sum(axis=-1).tolist()


def _numpy_gaps(free: np.ndarray, n: int) -> np.ndarray:
    """The gaps of each free vector, a row of ``free``, with numpy's row sums."""
    k = n // 2  # independent gaps
    g = np.empty((len(free), n - 1))
    g[:, : k - 1] = free
    total = free.sum(axis=-1)
    g[:, k - 1] = 1.0 - 2.0 * total if (n - 1) % 2 == 1 else 0.5 - total
    g[:, k:] = g[:, : n - 1 - k][:, ::-1]
    return g


# The 40 seeds of the N = 6 panel at which the placement search passes its
# fidelity check (no candidate passes at 12, 17 and 20)
_PANEL = [s for s in range(43) if s not in (12, 17, 20)]


class TestVerificationLevel:
    """Each candidate's peak search starts its best sample at the |f| that
    min_fidelity needs, less the 1e-9 tolerance."""

    def test_panel_candidates(self, monkeypatch):
        searches = []
        own = optimize.find_peak

        def recording(*args, level):
            searches.append((args, level, own(*args, level=level)))
            return searches[-1][2]

        monkeypatch.setattr(optimize, "find_peak", recording)
        for seed in _PANEL:
            optimize_placement(6, config=SearchConfig(seed=seed))
        monkeypatch.undo()
        level = math.sqrt(6.0 * 0.99 - 2.0) - 1.0 - 1e-9
        assert {lv for _, lv, _ in searches} == {level}
        passed = 0
        for args, _, screened in searches:
            alone = own(*args)
            if dipolink.fidelity(screened[0]) >= 0.99:
                # the candidate the search returns: the level-free result
                assert screened == alone
                passed += 1
            else:
                # rejected below the level, as the level-free search is
                assert screened[0] < level and alone[0] < level
        assert passed == len(_PANEL)
        # most candidates are end-dimer placements at F = 0.51
        assert len(searches) > 300

    @pytest.mark.parametrize("n, seed, best", [
        (6, 12, "0.5099621840738117"),
        (6, 17, "0.5099620401594478"),
        (6, 20, "0.5099621000916675"),
        (20, 0, "0.989193169935339"),
    ])
    def test_failure_names_the_certified_best(self, n, seed, best):
        # every candidate is searched again without the level, so the message
        # names the best window maximum, not a screened height
        with pytest.raises(InfeasibleConstraintError) as info:
            optimize_placement(n, config=SearchConfig(seed=seed))
        assert str(info.value) == (
            f"no candidate reached f_max >= 0.99 within 20.0 beats (best {best})"
        )


class TestRestartStarts:
    """The restart perturbations are numpy's uniform draws, bit for bit."""

    @pytest.mark.parametrize(
        "seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 12345]
    )
    # 0, 1, 2, 3, 5 and 9 free gaps; N = 20's 90 draws are the longest
    # stream the search asks for
    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 20])
    def test_starts_match_default_rng(self, seed, n):
        starts = optimize._starts(n, seed)
        uniform = np.full(n_free_gaps(n), 1.0 / (n - 1))
        scale = 0.25 / (n - 1)
        rng = np.random.default_rng(seed)
        assert len(starts) == 11
        assert np.array_equal(starts[0], uniform)
        for start in starts[1:]:
            want = uniform + rng.uniform(-scale, scale, n_free_gaps(n))
            assert start.tobytes() == want.tobytes()


# Run one placement search in a fresh process and print which scipy modules
# it loaded, and whether it loaded numpy.random.
_MODULES_HARNESS = """
import sys
from dipolink.cli import main
code = main(["optimize-placement", "--n", "5"])
print([name for name in sys.modules if name.startswith("scipy")], code)
print("numpy.random" in sys.modules, code)
"""


@pytest.fixture(scope="module")
def placement_modules():
    proc = run_fresh(_MODULES_HARNESS)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-2:]


def test_placement_runs_without_scipy(placement_modules):
    assert placement_modules[0] == "[] 0"


def test_placement_runs_without_numpy_random(placement_modules):
    assert placement_modules[1] == "False 0"


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

    def test_ring_refused(self):
        # on a ring, sites 1..k and N-k+1..N are neighbours across the seam
        h = build_hamiltonian(ring(6))
        with pytest.raises(InvalidGeometryError, match="defined for chains"):
            encoded_end_states(h, 1)


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
