"""Transfer metrics: peak fidelity, first-peak time, splitting, period, tau.

End-to-end transfer through a dipole chain beats with period T = 2 pi / dl,
where dl is the gap between the two lowest eigenvalues, so the default search
window of one full beat covers the first maximum with margin. On top of the
slow beat the curve carries a fast ripple from the remaining eigenvalues; the
coarse grid is therefore sized to resolve the full spectral bandwidth, not
just the beat. A second-derivative bound then screens the grid intervals
that could hold the maximum before golden-section refinement localizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import (
    CouplingModel,
    CouplingSpec,
    DIPOLE,
    ExcitationHamiltonian,
    Topology,
    build_hamiltonian,
    ring,
    uniform_chain,
)
from .spectral import (
    SiteState,
    SpectralDecomposition,
    abs_runs,
    curvature_bound,
    decompose,
    fidelity,
    propagator_abs_grid,
    site_state,
    transfer_terms,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Most parts a kept interval is cut into per round of the bounded screen,
# and how many coarse intervals are screened together, which bounds the
# screen's memory: on an exactly periodic curve (the 2-spin chain) screening
# all kept intervals of a 5e6 window at once peaks at 1.4 GiB, against
# 0.24 GiB in batches.
_SUBDIVIDE = 8
_BATCH = 1 << 14
# Coarse-grid samples per period of the fastest frequency, and their cap;
# the search tolerance; splittings at or below the floor are degenerate; the
# nn-chain window in inverse nn couplings, after Bose's search horizon.
_OVERSAMPLE = 8.0
_MAX_POINTS = 20_000_000
_TOLERANCE = 1e-9
_DEGENERATE_FLOOR = 1e-9
_NN_CHAIN_WINDOW = 4000.0


@dataclass(frozen=True)
class TransferSummary:
    """Peak metrics for one (geometry, coupling, input, output) configuration."""

    f_max: float
    t_peak: float
    delta_lambda: float
    period: float | None
    tau: float | None
    length: float | None
    n: int
    boundary_peak: bool = False

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "f_max": self.f_max,
            "t_peak": self.t_peak,
            "delta_lambda": self.delta_lambda,
            "tau": self.tau,
            "period": self.period,
            "length": self.length,
            "boundary_peak": self.boundary_peak,
        }


@dataclass(frozen=True)
class SweepRow:
    n: int
    model: str
    topology: str
    summary: TransferSummary


def _golden_max(func, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi] to the given x tolerance."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = func(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def default_window(h: ExcitationHamiltonian, spec: SpectralDecomposition) -> float:
    """Search window for the peak of transfer through ``h`` (``spec`` its spectrum).

    Dipole chains beat between two end-localized states, so one period
    2 pi / dl contains the first peak; a longer window would report a
    later, incidentally better-aligned recurrence instead. The nn chain has
    no such pair of bound states and its best transfer can occur many
    traversals in; it gets max(2 pi / dl, 4000 / J), with J = C / (2 a^3)
    the nn coupling at the chain's mean spacing a. Rings get
    max(2 pi / dl, 10 N), covering several traversals of the arc.
    Splittings up to 1e-9 count as degenerate: no beat, so a ring falls
    back to 10 N and a dipole chain raises DomainError.
    """
    dl = spec.splitting
    beat = 2.0 * np.pi / dl if dl > _DEGENERATE_FLOOR else 0.0
    if h.geometry.topology is Topology.RING:
        return max(beat, 10.0 * spec.n)
    if h.coupling.model is CouplingModel.NEAREST_NEIGHBOUR:
        nn_energy = h.coupling.c_const / (2.0 * h.geometry.mean_spacing**3)
        return max(beat, _NN_CHAIN_WINDOW / nn_energy)
    if beat == 0.0:
        raise DomainError("degenerate lowest levels; supply an explicit t_max")
    return beat


def _grid_size(t_max: float, bandwidth: float) -> int:
    nyquist = int(np.ceil(t_max * bandwidth * _OVERSAMPLE / (2.0 * np.pi)))
    return min(max(5000, nyquist), _MAX_POINTS)


def find_peak(
    spec: SpectralDecomposition,
    input_state: SiteState,
    output_state: SiteState,
    t_max: float,
):
    """Locate the first global peak of |f(t)| over the window [0, t_max].

    Returns ``(f_abs_max, t_peak, boundary_flag)``. A coarse grid of 8
    samples per period of the fastest spectral frequency (at least 5000
    points, at most 2e7) seeds the search. With the overlap weights w_m and
    M = sum_m |w_m| (E_m - c)^2 (``curvature_bound``), every interval [a, b]
    of width h obeys |f| <= max(|f(a)|, |f(b)|) + M h^2 / 8. The coarse-grid
    intervals whose bound reaches the best sample are subdivided until
    M h^2 / 8 is below the 1e-9 tolerance, and each surviving run of them is
    golden-refined to 1e-9 in time. Up to roundoff in evaluating f, the
    returned height is therefore within 1e-9 of max |f| over [0, t_max]. The
    reported time is the earliest refined peak within that tolerance of the
    bound on the maximum; the boundary flag is set when the best value sits
    on the window's trailing edge (window too small). The cap keeps the
    answer right at a cost that grows without bound: past N = 70 or so
    (dipole chain, one-beat window) the grid falls below 8 samples per
    fastest period, and at N = 128 the screen keeps 27 % of the coarse
    intervals.
    """
    if not 0 < t_max < np.inf:
        raise DomainError(f"search window must be positive and finite, got {t_max}")

    w, e = transfer_terms(spec, input_state, output_state)
    bandwidth = e[-1]
    npts = _grid_size(t_max, bandwidth)
    fa = propagator_abs_grid(
        spec, input_state, output_state, np.linspace(0.0, t_max, npts)
    )
    step = t_max / (npts - 1)
    boundary = bool(fa[-1] >= fa[-2])

    # Bounded screen: on an interval of width h, |f| <= the larger end
    # sample + M h^2 / 8. Keep every interval whose bound reaches within
    # tolerance (plus phase roundoff) of the best sample, and subdivide the
    # kept ones, a batch at a time, until that excess is itself below
    # tolerance. A batch may lose all its intervals to a better sample
    # found in an earlier one.
    tol = _TOLERANCE
    curvature = curvature_bound(w, e)
    slack = 8.0 * np.finfo(float).eps * (1.0 + t_max * bandwidth)
    best = fa.max()

    def survivors(left, right, width):
        floor = best - tol - slack - curvature * width**2 / 8.0
        return np.maximum(left, right) >= floor

    subs, width = [], step
    while curvature * width**2 / 8.0 > tol:
        needed = np.sqrt(curvature * width**2 / (8.0 * tol))
        subs.append(int(min(_SUBDIVIDE, np.ceil(needed))))
        width /= subs[-1]

    keep = survivors(fa[:-1], fa[1:], step)
    kept = np.flatnonzero(keep)
    kept_left, kept_right = fa[:-1][keep], fa[1:][keep]
    del fa, keep
    at, top = [], []
    for lo in range(0, len(kept), _BATCH):
        starts = kept[lo : lo + _BATCH] * step
        left, right = kept_left[lo : lo + _BATCH], kept_right[lo : lo + _BATCH]
        h = step
        for sub in subs:
            h /= sub
            vals = abs_runs(w, e, starts, h, sub + 1)
            best = vals.max(initial=best)
            rows, cols = np.nonzero(survivors(vals[:, :-1], vals[:, 1:], h))
            starts = starts[rows] + h * cols
            left, right = vals[rows, cols], vals[rows, cols + 1]
        # Contiguous survivors form one run around one peak; each run is
        # represented by its best sample, earliest on ties.
        peak = np.maximum(left, right)
        run = np.cumsum(np.diff(starts, prepend=-np.inf) > 1.5 * width)
        order = np.lexsort((-peak, run))
        heads = order[np.diff(run[order], prepend=0) != 0]
        at.append(starts[heads] + width * (right > left)[heads])
        top.append(peak[heads])
    at, top = np.concatenate(at), np.concatenate(top)

    # Every maximum lies within the final excess above its run's best
    # sample, so the window's maximum is at most the ceiling below. Runs are
    # refined in time order; the reported peak is the earliest that comes
    # within tolerance of the ceiling, hence of the true maximum.
    excess = curvature * width**2 / 8.0
    ceiling = top.max() + excess

    def f_of(t: float) -> float:
        return propagator_abs_grid(spec, input_state, output_state, np.array([t]))[0]

    t_peak, f_peak = 0.0, -1.0
    for i in np.flatnonzero(top + excess >= ceiling - tol):
        t, f = _golden_max(
            f_of, max(at[i] - width, 0.0), min(at[i] + width, t_max), tol
        )
        if f > f_peak:
            t_peak, f_peak = t, f
        if f >= ceiling - tol:
            break
    boundary_flag = bool(boundary and abs(t_peak - t_max) <= 2.0 * step)
    return f_peak, t_peak, boundary_flag


def summarize_transfer(
    h: ExcitationHamiltonian,
    input_state: SiteState,
    output_state: SiteState,
    t_max: float | None = None,
) -> TransferSummary:
    """Full transfer summary for one configuration.

    The peak is searched over [0, t_max], by default over
    ``default_window(h, spec)``. tau = t_peak / L^3 is reported for chains
    only (rings have no end-to-end length to normalize by); the beat period
    2 pi / dl is None when the splitting is degenerate (at most 1e-9).
    """
    spec = decompose(h)
    if t_max is None:
        t_max = default_window(h, spec)
    f_abs, t_peak, boundary = find_peak(spec, input_state, output_state, t_max)
    dl = spec.splitting
    period = 2.0 * np.pi / dl if dl > _DEGENERATE_FLOOR else None
    if h.geometry.topology is Topology.CHAIN:
        length = h.geometry.length
        tau = t_peak / length**3
    else:
        length, tau = None, None
    return TransferSummary(
        f_max=fidelity(f_abs),
        t_peak=t_peak,
        delta_lambda=dl,
        period=period,
        tau=tau,
        length=length,
        n=h.n,
        boundary_peak=boundary,
    )


def end_to_end_summary(
    h: ExcitationHamiltonian, t_max: float | None = None
) -> TransferSummary:
    return summarize_transfer(h, site_state(h.n, 1), site_state(h.n, h.n), t_max)


def chain_sweep(
    n_min: int,
    n_max: int,
    coupling: CouplingSpec = DIPOLE,
) -> list[SweepRow]:
    """End-to-end transfer summaries for uniform chains of n_min..n_max spins."""
    if not 2 <= n_min <= n_max:
        raise DomainError(f"need 2 <= n_min <= n_max, got ({n_min}, {n_max})")
    rows = []
    for n in range(n_min, n_max + 1):
        h = build_hamiltonian(uniform_chain(n), coupling)
        rows.append(SweepRow(n, coupling.model.value, "chain", end_to_end_summary(h)))
    return rows


def antipodal_site(n: int) -> int:
    """Output site farthest from site 1 on an n-ring (1-based): n // 2 + 1.

    For even n it is diametrically opposite site 1. An odd ring has no such
    site; (n + 1) / 2 is the first of the two sites at the largest arc
    distance, (n - 1) / 2 bonds.
    """
    return n // 2 + 1


def ring_sweep(
    n_min: int,
    n_max: int,
    coupling: CouplingSpec = DIPOLE,
) -> list[SweepRow]:
    """Site-1 to ``antipodal_site(n)`` summaries for rings of n_min..n_max spins.

    On odd rings the output is site (n + 1) / 2, one of the two sites
    (n - 1) / 2 bonds from site 1.
    """
    if not 3 <= n_min <= n_max:
        raise DomainError(f"need 3 <= n_min <= n_max, got ({n_min}, {n_max})")
    rows = []
    for n in range(n_min, n_max + 1):
        h = build_hamiltonian(ring(n), coupling)
        summary = summarize_transfer(
            h, site_state(n, 1), site_state(n, antipodal_site(n))
        )
        rows.append(SweepRow(n, coupling.model.value, "ring", summary))
    return rows
