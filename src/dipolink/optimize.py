"""Placement optimization and encoded multi-site end states.

Interior spins of a unit-length, mirror-symmetric chain are moved to speed up
transfer. The speed figure of merit is the beat-normalized time

    tau = (pi / dl) / L^3,

i.e. the half-period of the end-to-end beat per unit cubed length, so
minimizing tau is maximizing the splitting dl between the two lowest levels.
This keeps the objective smooth (the directly searched first-peak time jumps
between ripple peaks as the geometry deforms) and is evaluated from the
spectrum alone. The fidelity constraint is verified at each converged
candidate by an explicit multi-beat peak search: mirror-symmetric chains
revisit near-perfect transfer within a few beats even when the first beat
maximum falls short. That search is screened at the |f| the constraint
needs, so a candidate that cannot reach it is rejected after a few kernel
calls, and one that can is certified as by the unscreened search.

Encoded end states spread the input over the first few sites with amplitudes
taken from the chain's ground-state eigenvector, which couples them cleanly
to the end-localized bound states.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .disorder import _uniform_stream
from .errors import InfeasibleConstraintError, InvalidGeometryError
from .lattice import (
    CouplingSpec,
    DIPOLE,
    ExcitationHamiltonian,
    Geometry,
    Topology,
    _count,
    _hamiltonian_matrices,
    _real,
    build_hamiltonian,
)
from .spectral import SiteState, _eigh, decompose, fidelity, site_state
from .transfer import _TOLERANCE, find_peak

# Smallest allowed gap of a unit chain; perturbed starts and their spread,
# in units of the uniform gap; verification window, in beat periods;
# Nelder-Mead stopping (simplex spread, value spread, iteration cap).
_GAP_MIN = 0.05
_RESTARTS = 10
_PERTURBATION = 0.25
_VERIFY_BEATS = 20.0
_XATOL = 1e-7
_FATOL = 1e-12
_MAXITER = 400


@dataclass(frozen=True)
class SearchConfig:
    """Controls the mirror-symmetric placement search.

    Each of the 10 perturbed starts moves every free gap of the uniform
    chain by up to a quarter of the uniform gap, drawn as
    np.random.default_rng(seed).uniform would draw them (without loading
    numpy.random); ``seed`` must be a non-negative integer, not a bool. Gaps
    below 0.05 are rejected. Nelder-Mead stops at xatol 1e-7 and fatol 1e-12
    or after 400 iterations, and a start whose iteration leaves its simplex
    bit for bit unchanged stops there, counting the iterations it would
    repeat up to the cap as evaluated. The 11 starts run in one lockstep,
    each round one stacked build and one batched eigensolve of its points
    above the floor (none if it has none). The fidelity constraint
    ``min_fidelity``, a real number (not a bool), finite and at most 1, is
    checked at each converged candidate by a peak search over 20 beat
    periods 2 pi / dl, screened at the |f| it needs (``optimize_placement``).
    """

    min_fidelity: float = 0.99
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        min_fidelity = _real(self.min_fidelity, "min_fidelity", hi=1)
        object.__setattr__(self, "min_fidelity", min_fidelity)


@dataclass(frozen=True)
class PlacementResult:
    """Best placement found, its transfer figures, and how the search ran.

    ``tau`` (pi / dl per unit cubed length), which the search minimizes, is
    taken at ``best_gaps``; ``start_tau`` is its value at ``start_gaps``.
    ``f_max`` and ``t_best`` come from the verification peak search over the
    multi-beat window. Fields are in the order of ``report``.
    """

    n: int
    start_gaps: tuple
    start_tau: float
    evaluations: int
    restarts: int
    seed: int
    best_gaps: tuple
    tau: float
    delta_lambda: float
    f_max: float
    t_best: float

    @property
    def geometry(self) -> Geometry:
        return _geometry_from_gaps(self.best_gaps)

    @property
    def report(self) -> dict:
        """The run as one JSON-ready document: every field, then ``converged``."""
        # Always True, though a returned candidate may have stopped at the
        # 400-iteration cap (ROADMAP item 2).
        return {**asdict(self), "converged": True}


def n_free_gaps(n: int) -> int:
    """Free parameters for a mirror-symmetric unit chain of n spins.

    Of the ceil((n-1)/2) independent gaps, one is fixed by the unit-length
    constraint.
    """
    return (_count(n, "n", 2) - 1 + 1) // 2 - 1


def _gaps_from_free(x: list, n: int) -> list:
    """All n-1 gaps of the mirror-symmetric unit chain from a free vector,
    a list of Python floats.

    The free gaps are summed as numpy's ``x.sum()`` sums up to 15 values
    (N = 20 has 9), bit for bit: in order below 8, and from 8 (N = 18..20)
    the first 8 pairwise, then the rest in order.
    """
    total, rest = 0.0, x
    if len(x) >= 8:
        total = ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]))
        rest = x[8:]
    for v in rest:
        total += v
    if (n - 1) % 2 == 1:
        # odd gap count: the middle gap is unpaired and absorbs the length
        return x + [1.0 - 2.0 * total] + x[::-1]
    return x + [0.5 - total] * 2 + x[::-1]


def _geometry_from_gaps(gaps) -> Geometry:
    return Geometry(Topology.CHAIN, tuple(accumulate(gaps, initial=0.0)))


def _tau(gaps: list, coupling: CouplingSpec) -> list:
    """pi / dl in units of 2 / C (as it is at C = 2) of each chain in a list
    of gap vectors, each a list of Python floats; inf for a chain with a gap
    below the floor or with dl <= 0. In that unit the value does not depend
    on C, up to roundoff, so Nelder-Mead's absolute tolerances mean the same
    at every C and no quotient overflows.

    The floor check, the positions and pi / dl are formed on Python floats.
    The feasible chains are built in one stack and solved in one batched
    eigensolve, the only numpy calls, without the Geometry and
    ExcitationHamiltonian of the public path; each dl is the one
    ``decompose`` returns for that chain alone, bit for bit. Their pair
    distances lie between the 0.05 floor and the unit length, so every
    coupling is finite and the eigensolve scans no entry. A list with no
    feasible chain (about 13 % of the rounds of N = 6 searches, over 40
    seeds) is all inf without a build or an eigensolve.
    """
    tau = [math.inf] * len(gaps)
    feasible = [i for i, g in enumerate(gaps) if min(g) >= _GAP_MIN]
    if not feasible:
        return tau
    positions = [list(accumulate(gaps[i], initial=0.0)) for i in feasible]
    h, _ = _hamiltonian_matrices(positions, Topology.CHAIN, coupling)
    vals, _ = _eigh(h)
    unit = 2.0 / coupling.c_const
    for i, (low, high) in zip(feasible, vals[:, :2].tolist()):
        dl = (high - low) * unit
        tau[i] = math.pi / dl if dl > 0 else math.inf
    return tau


def _sort_simplex(sim: list, fsim: list):
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _bits(sim: list, fsim: list) -> bytes:
    """The simplex and its values as raw doubles, so that -0.0 != 0.0."""
    return np.array(sim).tobytes() + np.array(fsim).tobytes()


def _nelder_mead(x0):
    """Minimize from x0 as a generator: yields each list of k points it needs,
    each point a list of floats, is sent their k values as floats, and
    returns (lowest value, its vertex as an array, evaluations).

    Repeats scipy 1.17's unbounded, non-adaptive Nelder-Mead (``minimize``
    with xatol 1e-7, fatol 1e-12, maxiter 400) operation for operation, so
    it asks for the same points in the same order and returns the same bits.
    The simplex is held in Python floats, which round each operation as
    numpy does; numpy's ``argsort`` orders the vertices, so ties fall as in
    scipy. The initial simplex and a shrink ask for all their points at
    once, every other step for one. Reflection, expansion, contraction and
    shrink coefficients are rho = 1, chi = 2, psi = 0.5 and sigma = 0.5,
    written out below as their products; the centroid adds the vertices in
    order, as numpy's reduction over the simplex's first axis does. A start
    with no free parameter is its own minimum.

    An iteration that leaves the sorted simplex and its values bit for bit
    as they were is a fixed point: with an objective that gives the same
    bits for the same point, scipy repeats it up to the cap. The run stops
    there and counts those repeats' points as evaluations, as ``nfev`` does.
    """
    n = len(x0)
    x0 = [float(v) for v in x0]
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1 :]
                  for k, v in enumerate(x0)]
    fsim = list((yield sim))
    evaluations = len(sim)
    # sorted twice, as scipy does: argsort need not keep ties in place
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))
    iterations = 1
    while n and iterations < _MAXITER:
        before = sim[:], fsim[:]
        best, last = sim[0], sim[-1]
        if (all(abs(v - b) <= _XATOL for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fsim[0] - f) <= _FATOL for f in fsim[1:])):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [a + v for a, v in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        xr = [2 * a - v for a, v in zip(xbar, last)]
        (fxr,) = yield [xr]
        asked = 1
        if fxr < fsim[0]:
            xe = [3 * a - 2 * v for a, v in zip(xbar, last)]
            (fxe,) = yield [xe]
            asked += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * a - 0.5 * v for a, v in zip(xbar, last)]
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * a + 0.5 * v for a, v in zip(xbar, last)]
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            asked += 1
            if shrink:
                sim[1:] = [[b + 0.5 * (v - b) for b, v in zip(best, x)]
                           for x in sim[1:]]
                fsim[1:] = yield sim[1:]
                asked += n
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        evaluations += asked
        sim, fsim = _sort_simplex(sim, fsim)
        # `==` screens cheaply; the bits then tell -0.0 from 0.0
        if (sim, fsim) == before and _bits(sim, fsim) == _bits(*before):
            evaluations += (_MAXITER - iterations) * asked
            break
    return min(fsim), np.array(sim[0]), evaluations


def _lockstep(func, starts) -> list:
    """Run ``_nelder_mead`` from every start together; (value, vertex,
    evaluations) per start.

    Each round stacks the points every unfinished start asks for and
    evaluates them in one call of func, which maps a list of k points, each
    a list of floats, to a list of their k values, so every start takes the
    steps it would take alone. func must give the same bits for the same
    point whatever else the call holds, since a start stops at its first
    fixed point.
    """
    runs = [_nelder_mead(x0) for x0 in starts]
    asks = {i: next(run) for i, run in enumerate(runs)}  # unfinished starts
    ends = [None] * len(runs)
    while asks:
        values = func([x for points in asks.values() for x in points])
        lo = 0
        for i, points in list(asks.items()):
            hi = lo + len(points)
            try:
                asks[i] = runs[i].send(values[lo:hi])
            except StopIteration as stop:
                del asks[i]
                ends[i] = stop.value
            lo = hi
    return ends


def _starts(n: int, seed: int) -> list[np.ndarray]:
    """The uniform free-gap vector, then 10 perturbations of it: each adds
    nfree draws of np.random.default_rng(seed)'s uniform(-s, s), s a quarter
    of the uniform gap, to the uniform vector, drawn in turn from one
    stream."""
    nfree = n_free_gaps(n)
    uniform_free = np.full(nfree, 1.0 / (n - 1))
    scale = _PERTURBATION / (n - 1)
    draws = _uniform_stream(seed, -scale, scale, _RESTARTS * nfree)
    return [uniform_free] + [uniform_free + draws[k * nfree : (k + 1) * nfree]
                             for k in range(_RESTARTS)]


def optimize_placement(
    n: int,
    coupling: CouplingSpec = DIPOLE,
    config: SearchConfig = SearchConfig(),
) -> PlacementResult:
    """Minimize tau over mirror-symmetric unit chains of n spins.

    Runs Nelder-Mead from the uniform gap vector and 10 seeded
    perturbations of it; gaps below 0.05 are rejected outright. The 11
    starts run in one lockstep, each taking the steps it would take alone:
    a round is one stacked build and one batched eigensolve of every point
    they ask for that clears the gap floor, and a round whose points all
    lie below it costs neither. A start stops at its first fixed point,
    where the objective, which gives the same bits for the same point,
    would repeat one iteration until the cap; ``evaluations`` counts those
    iterations as run. From n = 21 on, n - 1 gaps of 0.05 fill the unit
    length, and the search is refused before any start is drawn; below
    that, the uniform start clears the floor, so a round stacks at most
    11 x 10 chains of at most 20 spins.
    Converged candidates are screened in ascending-objective order against
    the fidelity constraint; only exactly equal objectives tie, and a tie
    is broken toward the point closest to uniform. Each screen is
    ``find_peak`` over 20 beats at the ``level`` where F = min_fidelity, less
    1e-9: a window whose maximum reaches it gives the level-free result, and
    one that does not is rejected below it, often after a few kernel calls.
    If no candidate passes, each is searched again without the level, and
    InfeasibleConstraintError names the best fidelity, unrounded.
    """
    n = _count(n, "n", 3)
    if n - 1 >= 1.0 / _GAP_MIN:
        raise InfeasibleConstraintError(
            f"no mirror-symmetric {n}-spin placement found with gaps above "
            f"{_GAP_MIN}"
        )
    starts = _starts(n, config.seed)
    uniform_free = starts[0]

    def objective(points: list) -> list:
        return _tau([_gaps_from_free(x, n) for x in points], coupling)

    ends = _lockstep(objective, starts)
    evaluations = sum(calls for _, _, calls in ends)
    # the uniform start's value is finite, and no start ends above its own
    candidates = [(float(value), x) for value, x, _ in ends if np.isfinite(value)]
    candidates.sort(
        key=lambda c: (c[0], float(np.linalg.norm(c[1] - uniform_free)))
    )

    start_gaps = _gaps_from_free(uniform_free.tolist(), n)
    start_tau = _tau([start_gaps], coupling)[0] / (coupling.c_const / 2.0)

    def verify(x, level):
        gaps = _gaps_from_free(x.tolist(), n)
        geometry = _geometry_from_gaps(gaps)
        spec = decompose(build_hamiltonian(geometry, coupling))
        # a Python float: past float max it is inf, which find_peak refuses
        window = _VERIFY_BEATS * 2.0 * np.pi / spec.splitting
        states = site_state(n, 1), site_state(n, geometry.far_site)
        f_abs, t_best, _ = find_peak(spec, *states, window, level=level)
        return PlacementResult(
            n, tuple(start_gaps), start_tau, evaluations, _RESTARTS,
            config.seed, tuple(gaps), np.pi / spec.splitting, spec.splitting,
            fidelity(f_abs), t_best,
        )

    # the |f| at which F = |f| / 3 + |f|^2 / 6 + 1 / 2 reaches min_fidelity,
    # less the search tolerance
    level = math.sqrt(max(6.0 * config.min_fidelity - 2.0, 0.0)) - 1.0 - _TOLERANCE
    for _, x_best in candidates:
        result = verify(x_best, level)
        if result.f_max >= config.min_fidelity:
            return result
    # the screen stops short of a failing candidate's maximum
    best_f = max(verify(x_best, -math.inf).f_max for _, x_best in candidates)
    raise InfeasibleConstraintError(
        f"no candidate reached f_max >= {config.min_fidelity} within "
        f"{_VERIFY_BEATS} beats (best {best_f!r})"
    )


def encoded_end_states(
    h: ExcitationHamiltonian, width: int
) -> tuple[SiteState, SiteState]:
    """Input/output states spread over the first/last ``width`` sites.

    Amplitudes are the first ``width`` components of the lowest-eigenvalue
    eigenvector of the Hamiltonian, renormalized; the output state is their
    mirror image on the last sites. Chains only: on a ring the two blocks
    are neighbours.
    """
    if h.geometry.topology is not Topology.CHAIN:
        raise InvalidGeometryError("encoded end states are defined for chains")
    n = h.n
    width = _count(width, "width", 1, n // 2)
    ground = decompose(h).eigenvectors[:, 0]
    coeffs = ground[:width].copy()
    coeffs /= np.linalg.norm(coeffs)
    amp_in = np.zeros(n, dtype=complex)
    amp_in[:width] = coeffs
    amp_out = np.zeros(n, dtype=complex)
    amp_out[n - width :] = coeffs[::-1]
    return SiteState(amp_in), SiteState(amp_out)
