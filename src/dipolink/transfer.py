"""Transfer metrics: peak fidelity, first-peak time, splitting, period, tau.

End-to-end transfer through a dipole chain beats with period T = 2 pi / dl,
where dl is the gap between the two lowest eigenvalues, so the default search
window of one full beat covers the first maximum with margin. On top of the
slow beat the curve carries a fast ripple from the remaining eigenvalues; the
coarse grid is therefore sized to resolve the full spectral bandwidth, not
just the beat. The beat also bounds the curve: with a, b the two heaviest
terms, |f| never exceeds the pair's beat envelope plus the rest's weight, so
the grid is sampled only where that envelope can still reach the best sample
found. A second-derivative bound then screens the sampled intervals that
could hold the maximum, and Newton steps on |f|^2 from the best sample of
each surviving run land on its peak to float resolution in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import (
    CouplingModel,
    CouplingSpec,
    DIPOLE,
    ExcitationHamiltonian,
    Topology,
    _real,
    _sizes,
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
    grid_step,
    propagator_abs_grid,
    site_state,
    transfer_terms,
)

# Most parts a kept interval is cut into per round of the bounded screen,
# and how many of a range's kept intervals are subdivided together. Each
# range is subdivided on its own, so batches no longer bound memory: the
# 2-spin chain's 5e6 window peaks at 72 MiB RSS with or without them. They
# save time, as the batches that start past the cap cut are skipped whole:
# criterion 01's N = 3 row over [0, 1e6] takes 33 ms in batches and 48 ms
# in one batch per range (48.9 MiB either way), medians of 10 fresh
# processes, slower in one batch in all 10 pairs.
_SUBDIVIDE = 8
_BATCH = 1 << 14
# Coarse-grid points per kernel call. The kernel factorizes a call of K
# points into sqrt(K)-wide rows, so shorter chunks are slower where ranges
# fill them: at 2^18 the N = 64 chain's default window takes 53-68 ms
# against 47-58 ms, best of 7 in each of 2 processes. The chain sweeps'
# ranges hold at most 96k points, so 2^18 leaves their calls as they are.
_CHUNK = 1 << 20
# Ranges of grid points closer than this are sampled by one call, so a
# window of short beats (nn chains, rings) takes one call per chunk, not one
# per beat. A window whose beat is shorter than this is sampled whole, so
# it stays near what one kernel call costs in points (28-37 us a call,
# 8-11 ns a point at 10^5 points, N = 6..23): at 2^16 the N = 6 placement
# of seed 35, whose 20-beat window beats every 65.3k steps, samples all
# 1.3M coarse points in 16-17 ms, against 520 in 3.3-5.7 ms at 2^12 (best
# of 7, 2 processes), with or without the verification's level.
_MERGE = 1 << 12
# Candidate peaks refined together, and the Newton steps each batch takes
# from within one final subinterval of its peaks.
_NEWTON_BATCH = 64
_NEWTON_STEPS = 4
# Coarse-grid samples per period of the fastest frequency; the search
# tolerance; splittings at or below the floor, in nn couplings J, are
# degenerate; the nn-chain window in inverse nn couplings, after Bose's
# search horizon. The screen and the Newton steps, not the coarse step, set
# the answer to within the tolerance, so the density trades coarse points
# against subdivided ones.
# Over chain-sweep 2..23, 8 samples evaluate 1.13M coarse and 1.7k
# subdivided points, 4 samples 570k and 2.8k, 3 samples 435k and 5.0k, and
# 2 samples 292k and 30k.
_OVERSAMPLE = 4.0
_TOLERANCE = 1e-9
_DEGENERATE_FLOOR = 1e-9
_NN_CHAIN_WINDOW = 4000.0
# Longest window the search takes, and longest beat period it prunes by: the
# envelope's ranges reach t_max plus three periods, finite below this.
_MAX_WINDOW = np.finfo(float).max / 8.0


@dataclass(frozen=True)
class TransferSummary:
    """Peak metrics for one (geometry, coupling, input, output) configuration.

    Fields are in output order, so ``dataclasses.asdict`` is the record.
    """

    n: int
    f_max: float
    t_peak: float
    delta_lambda: float
    tau: float | None
    period: float | None
    length: float | None
    boundary_peak: bool = False


def default_window(h: ExcitationHamiltonian, spec: SpectralDecomposition) -> float:
    """Search window for the peak of transfer through ``h`` (``spec`` its spectrum).

    Dipole chains beat between two end-localized states, so one period
    2 pi / dl contains the first peak; a longer window would report a
    later, incidentally better-aligned recurrence instead. The nn chain has
    no such pair of bound states and its best transfer can occur many
    traversals in; it gets max(2 pi / dl, 4000 / J), with J = C / (2 a^3)
    the nn coupling at the mean spacing a (1 on rings). Rings get
    max(2 pi / dl, 10 N / J), covering several traversals of the arc.
    Splittings up to 1e-9 J count as degenerate: no beat, so a ring falls
    back to 10 N / J and a dipole chain raises DomainError.
    """
    beat, unit = _beat_period(h, spec) or 0.0, _energy_unit(h)
    if h.geometry.topology is Topology.RING:
        return max(beat, 10.0 * spec.n / unit)
    if h.coupling.model is CouplingModel.NEAREST_NEIGHBOUR:
        return max(beat, _NN_CHAIN_WINDOW / unit)
    if beat == 0.0:
        raise DomainError("degenerate lowest levels; supply an explicit t_max")
    return beat


def _energy_unit(h: ExcitationHamiltonian) -> float:
    """J = C / (2 a^3), the nn coupling at the mean spacing a (1 on rings)."""
    return h.coupling.c_const / (2.0 * h.geometry.mean_spacing**3)


def _beat_period(h: ExcitationHamiltonian, spec: SpectralDecomposition):
    """2 pi / dl; None if dl is at most 1e-9 J, DomainError if it overflows."""
    dl = spec.splitting
    return _period(dl) if dl > _DEGENERATE_FLOOR * _energy_unit(h) else None


def _period(dl: float) -> float:
    """2 pi / dl for a splitting dl > 0; DomainError if it overflows a float."""
    period = 2.0 * np.pi / float(dl)
    if period == np.inf:
        raise DomainError(f"beat period 2 pi / {dl:.3g} overflows a float")
    return period


def _grid_size(t_max: float, bandwidth: float) -> int:
    return max(5000, int(np.ceil(t_max * bandwidth * _OVERSAMPLE / (2.0 * np.pi))))


def _beat_pair(w: np.ndarray, e: np.ndarray):
    """The beat of the two heaviest terms a, b of ``w``, or None without one.

    Returns (|w_a|, |w_b|, R, t_0, T): R = sum_m |w_m| - |w_a| - |w_b| is the
    rest's weight, and |w_a + w_b e^{-i (e_b - e_a) t}| peaks at t_0 + k T.
    Equal energies do not beat, and neither does a pair with |w_b| at most
    1e-9 |w_a|, whose beat could not prune anything, nor one whose period
    would exceed the longest window the search takes.
    """
    mag = np.abs(w)
    if len(w) < 2:
        return None
    b, a = mag.argsort(kind="stable")[-2:]
    big, small, beat = float(mag[a]), float(mag[b]), float(e[b] - e[a])
    if small <= 1e-9 * big or not abs(beat) > 2.0 * np.pi / _MAX_WINDOW:
        return None
    period = 2.0 * np.pi / abs(beat)
    top = float((np.angle(w[b]) - np.angle(w[a])) / beat % period)
    return big, small, max(float(mag.sum()) - big - small, 0.0), top, period


def _envelope_ranges(pair, level: float, c0: int, step: float, npts: int):
    """Grid-index ranges [lo, hi] in the chunk from c0, outside which U < level.

    The chunk is grid points c0 .. c0 + _CHUNK - 1 of npts. U(t) =
    |w_a + w_b e^{-i (e_b - e_a) t}| + R (``_beat_pair``) bounds |f|. Its
    level set around each beat top t_k is |t - t_k| <= d, from
    1 + s^2 + 2 s cos(2 pi d / T) = ((level - R) / |w_a|)^2, s = |w_b| / |w_a|;
    the cosine is lowered by far more than its roundoff, and each range
    reaches two grid points past the set. Ranges fewer than _MERGE points
    apart are merged. Returns a list of ascending, disjoint (lo, hi) pairs.
    """
    c1 = min(c0 + _CHUNK - 1, npts - 1)
    if pair is None:
        return [(c0, c1)]
    big, small, rest, top, period = pair
    p, s = (level - rest) / big, small / big
    cos_half = (p * p - 1.0 - s * s) / (2.0 * s) - 1e-9 * (1.0 + (1.0 + s * s) / s)
    if p <= 0.0 or cos_half <= -1.0:
        return [(c0, c1)]
    ranges = []
    if cos_half <= 1.0:
        half = period * float(np.arccos(cos_half)) / (2.0 * np.pi)
        first = math.floor((c0 * step - half - top) / period)
        beats = math.ceil((c1 * step + half - top) / period + 1 - first)
        for k in range(first, first + beats):
            t_k = top + period * k
            lo = max(math.floor((t_k - half) / step) - 2, c0)
            hi = min(math.ceil((t_k + half) / step) + 2, c1)
            if lo >= hi:
                continue
            if ranges and lo - ranges[-1][1] < _MERGE:
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
    return ranges


def _subtract(outer: list, inner: list) -> list:
    """The parts of ranges ``outer`` not in ``inner``, sharing end points.

    Each range of ``inner`` lies inside one range of ``outer``, so the sorted
    starts and ends of the parts pair up in order.
    """
    lo = sorted([a for a, _ in outer] + [b for _, b in inner])
    hi = sorted([a for a, _ in inner] + [b for _, b in outer])
    return [(a, b) for a, b in zip(lo, hi) if a < b]


def find_peak(
    spec: SpectralDecomposition,
    input_state: SiteState,
    output_state: SiteState,
    t_max: float,
    *,
    level: float = -math.inf,
):
    """Locate the first global peak of |f(t)| over the window [0, t_max].

    Returns ``(f_abs_max, t_peak, boundary_flag)``, Python (float, float,
    bool). A coarse grid of 4 samples per period of the fastest spectral
    frequency (at least 5000 points) seeds the search; its density changes
    how many points are evaluated, not the answer. With the overlap weights
    w_m and M = sum_m |w_m| (E_m - c)^2 (``curvature_bound``), every
    interval [a, b] of width h obeys |f| <= max(|f(a)|, |f(b)|) + M h^2 / 8.
    One screening step, the same for a coarse range and for each subdivision
    level, keeps the intervals whose bound reaches the best sample; kept
    intervals are subdivided until that excess is below the 1e-9 tolerance,
    and every run of them whose best sample plus the excess reaches the best
    sample less the tolerance is refined: 4 Newton steps on g = |f|^2 from
    that sample, with g' = 2 Re(conj(f) f') and
    g'' = 2 (|f'|^2 + Re(conj(f) f'')), taken only where g'' < 0 and within
    one final subinterval, reach the root of g' to a few float spacings of
    t, however flat the peak.

    One rule picks the answer: the earliest refined peak within 1e-9 of the
    highest, whose heights are right to float resolution wherever the
    samples fall. Runs are refined in time order until that peak also comes
    within 1e-9 of every later run's bound (and of the cap sum_m |w_m| past
    a scan stop). Up to roundoff in evaluating f, the returned height is
    within 1e-9 of max |f| over [0, t_max]; it is the search's one
    one-point call of the grid kernel, at t_peak. The boundary flag (window
    too small) is set iff |f(t_max)| is within 1e-9 of that height and
    g'(t_max) > 0.

    Energies are squared in units of ``scale``, the power of two in
    (e_max / 2, e_max] (0.5 for a flat spectrum), and scaled back by it:
    M, each excess and each Newton step keep their bits, and no square
    overflows or underflows, however large or small the energies.

    Only grid intervals where the beat envelope can still reach the best
    sample are sampled. With a, b the two heaviest terms of w and
    R = sum_m |w_m| - |w_a| - |w_b|, |f(t)| <= U(t) =
    |w_a + w_b e^{-i (e_b - e_a) t}| + R, a periodic bound with one closed-form
    maximum per beat. On an interval where U stays below the best sample
    less the tolerance and two roundoff slacks, |f| stays below it too, so
    no value within tolerance of the maximum lies there and the interval is
    skipped. The first pass samples a band around every beat maximum, where
    U >= sum_m |w_m| - R / 10; the second samples the part of
    U >= best sample that the band missed. Skipped points are never
    evaluated; sampled ones are the same grid points t_i = i t_max / (K - 1)
    as without pruning. Ranges fewer than 2^12 points apart are sampled as
    one, so windows of short beats are sampled whole, and so is any window
    whose two heaviest terms do not beat (fewer than two nonzero weights,
    equal energies, or a period longer than any window, float max / 8).

    Ranges are produced 2^20 grid points at a time and each call evaluates
    at most that many. Each range's kept intervals are subdivided as soon as
    it is sampled, so memory is one call, one chunk's ranges, one range's
    kept intervals and the run heads that can still reach the best sample,
    whatever the window. Once a sample, coarse or subdivided, comes within
    tolerance of the cap sum_m |w_m|, no later point can beat it by more
    than that: the scan stops after that range, and kept intervals past
    that sample are no longer subdivided.

    ``level`` starts the best sample there instead of at -inf, so from the
    first range on only intervals and runs whose bound reaches it less the
    tolerance are kept. A window whose maximum reaches ``level`` gives the
    level-free result (bit for bit over the chain and ring sweeps and the
    placement candidates). One whose maximum falls short by more than the
    tolerance gives a height below ``level``: a refined peak within
    tolerance of it, or else (|f(t_max)|, t_max, False).

    A window whose roundoff slack 8 eps (1 + t_max e_max) reaches
    sum_m |w_m| > 0 could prune no interval at any depth, and one whose grid
    step is below the smallest normal float has no uniform grid, so each
    raises DomainError before any scan.
    """
    t_max = _real(t_max, "t_max", 0, _MAX_WINDOW)
    level = _real(level, "level", -math.inf, math.inf)

    w, e = transfer_terms(spec, input_state, output_state)
    bandwidth = float(e[-1])
    scale = math.ldexp(0.5, math.frexp(bandwidth)[1])
    u = e / scale
    npts = _grid_size(t_max, bandwidth)
    step = grid_step(t_max, npts)

    tol = _TOLERANCE
    curvature = curvature_bound(w, u)
    slack = 8.0 * np.finfo(float).eps * (1.0 + t_max * bandwidth)
    cap = float(np.abs(w).sum())
    if slack >= cap > 0.0:
        raise DomainError(
            f"search window {t_max:.3g}: roundoff slack {slack:.3g} reaches "
            f"sum |w_m| = {cap:.3g}, so no interval could be pruned"
        )

    subs, width = [], step
    while curvature * (width * scale) ** 2 / 8.0 > tol:
        needed = math.sqrt(curvature * (width * scale) ** 2 / (8.0 * tol))
        subs.append(min(_SUBDIVIDE, math.ceil(needed)))
        width /= subs[-1]
    excess = curvature * (width * scale) ** 2 / 8.0

    # Contiguous kept intervals form one run around one peak; each run is
    # represented by its best sample (time, height), earliest on ties. A run
    # whose bound, head + excess, falls below the best sample less the
    # tolerance holds no peak within tolerance of the maximum, so it is
    # dropped.
    heads = np.empty((2, 0))
    # The earliest sample known to come within tolerance of the cap, at
    # t_cap, certifies the height by itself, and the earliest run that does
    # is reported: the run holding t_cap or an earlier one. So only the kept
    # intervals that start before t_cap + step / 2 are subdivided: those up
    # to the one holding it, and the one starting at it, whatever the
    # roundoff in a subdivided sample's time.
    best, cut = level, math.inf

    # Bounded screen, one step for a coarse range or a subdivision level: on
    # an interval of width h, |f| <= the larger end sample + M h^2 / 8. The
    # step raises the best sample to the largest of its samples and lowers
    # the cut if one reaches the cap, then keeps every interval whose bound
    # reaches within tolerance (plus phase roundoff) of the best sample. Kept
    # intervals are subdivided until that excess is itself below tolerance.
    def screen(vals, h, at):
        """(start, left, right) of the kept intervals between the samples
        ``vals``, h apart in each row, in time order; ``at`` maps a sample's
        indices to its time."""
        nonlocal best, cut
        high = float(vals.max())
        best = max(best, high)
        if high >= cap - tol:
            cut = min(cut, at(*np.nonzero(vals >= cap - tol)).min() + step / 2.0)
        high = vals >= best - tol - slack - curvature * (h * scale) ** 2 / 8.0
        kept = high[..., :-1] | high[..., 1:]
        return at(*kept.nonzero()), vals[..., :-1][kept], vals[..., 1:][kept]

    # Envelope pruning (see the docstring). U is exact while the samples
    # of f are not, so its level drops by a second slack. The band's level
    # sum_m |w_m| - R / 10 was measured: chain-sweep 2..23 samples 570k
    # points with it, within 1.5 % of that from R / 5 to R / 20, and 775k
    # with R / 2, against 2.47M on the whole grid.
    pair = _beat_pair(w, e)
    # In a window of more than two beats (so with two beat maxima or more),
    # each shorter than _MERGE grid steps, all bands of a chunk merge into
    # one range and the envelope could prune only the chunk's two ends, each
    # under a beat. Such windows (nn chains, rings) are sampled whole, in
    # one call per chunk.
    if pair and pair[4] < _MERGE * step and t_max > 2.0 * pair[4]:
        pair = None
    band = cap - pair[2] / 10.0 if pair else cap

    def ranges():
        for second in (False, True):
            for c0 in range(0, npts - 1, _CHUNK - 1):
                todo = _envelope_ranges(pair, band, c0, step, npts)
                if second:
                    floor = min(band, best - tol - 2.0 * slack)
                    rest = _envelope_ranges(pair, floor, c0, step, npts)
                    todo = _subtract(rest, todo)
                yield from todo

    # Each range's grid points are sampled by one call and screened, and its
    # kept intervals are subdivided at once, a batch at a time, each level
    # screened in turn; a batch may lose all its intervals to a better
    # sample found in an earlier one.
    for lo, hi in ranges():
        times = np.arange(lo, hi + 1, dtype=float)
        times *= step
        if hi == npts - 1:
            times[-1] = t_max
        fa = propagator_abs_grid(spec, input_state, output_state, times)
        del times
        kept = np.array(screen(fa, step, lambda i: (lo + i) * step))
        found = [heads]
        for b in range(0, kept.shape[1], _BATCH):
            # intervals come in time order, so those starting before the cut lead
            batch = kept[:, b : b + _BATCH]
            starts, left, right = batch[:, : batch[0].searchsorted(cut)]
            if not len(starts):
                break
            h = step
            for sub in subs:
                h /= sub
                vals = abs_runs(w, e, starts, h, sub + 1)
                starts, left, right = screen(vals, h, lambda r, c: starts[r] + h * c)
                if not len(starts):  # no interval of the batch survives
                    break
            else:  # every level kept some interval
                peak = np.maximum(left, right)
                new = np.ones(len(starts), dtype=bool)  # where a run starts
                np.greater(starts[1:] - starts[:-1], 1.5 * width, out=new[1:])
                first = np.lexsort((-peak, new.cumsum()))[new.nonzero()[0]]
                t_head = starts[first] + width * (right > left)[first]
                found.append((t_head, peak[first]))
        heads = np.concatenate(found, axis=1)
        heads = heads[:, heads[1] + excess >= best - tol]
        if cut < math.inf:  # a sample came within tolerance of the cap
            break
    terms = np.stack((w, -1j * u * w, -u * u * w), axis=1)
    f_end, df_end, _ = np.exp(-1j * t_max * e) @ terms
    if not heads.size:  # no run reaches the level, nor does |f(t_max)|
        return float(abs(f_end)), t_max, False
    at, top = heads[:, heads[0].argsort(kind="stable")]

    # Runs are refined a batch at a time, in time order (see the docstring);
    # a run whose refined point falls below its head keeps the head. The
    # step -g' / g'' is formed from g' / 2 and g'' / 2, which changes no bit
    # of it.
    later = np.maximum.accumulate((top + excess)[::-1])[::-1]
    later = np.append(later[1:], cap if cut < math.inf else -math.inf)
    t_ref, f_ref = at.copy(), top.copy()
    for lo in range(0, len(at), _NEWTON_BATCH):
        hi = min(lo + _NEWTON_BATCH, len(at))
        t = at[lo:hi]
        t_lo, t_hi = np.maximum(t - width, 0.0), np.minimum(t + width, t_max)
        for _ in range(_NEWTON_STEPS):
            f, df, ddf = (np.exp(t[:, None] * e * -1j) @ terms).T
            f_bar = f.conj()
            slope, bend = (f_bar * df).real, np.abs(df) ** 2 + (f_bar * ddf).real
            move = np.divide(slope, bend, out=np.zeros(len(t)), where=bend < 0.0)
            move = np.minimum(np.maximum(move / scale, -width), width)
            t = np.minimum(np.maximum(t - move, t_lo), t_hi)
        f = np.abs(np.exp(t[:, None] * e * -1j) @ w)
        rose = f >= top[lo:hi]
        t_ref[lo:hi][rose], f_ref[lo:hi][rose] = t[rose], f[rose]
        pick = int((f_ref[:hi] >= f_ref[:hi].max() - tol).argmax())
        if f_ref[pick] >= later[hi - 1] - tol:
            break
    t_peak = float(t_ref[pick])
    f_peak = propagator_abs_grid(spec, input_state, output_state, np.array([t_peak]))[0]
    boundary = abs(f_end) >= f_peak - tol and np.real(np.conj(f_end) * df_end) > 0.0
    return float(f_peak), t_peak, bool(boundary)


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
    2 pi / dl is None when the splitting is degenerate (at most 1e-9 J,
    ``default_window``).
    """
    spec = decompose(h)
    period = _beat_period(h, spec)
    if t_max is None:
        t_max = default_window(h, spec)
    f_abs, t_peak, boundary = find_peak(spec, input_state, output_state, t_max)
    length = h.geometry.length if h.geometry.topology is Topology.CHAIN else None
    tau = None if length is None else t_peak / length**3
    return TransferSummary(
        h.n, fidelity(f_abs), t_peak, spec.splitting, tau, period, length, boundary
    )


def end_to_end_summary(
    h: ExcitationHamiltonian, t_max: float | None = None
) -> TransferSummary:
    """``summarize_transfer`` from site 1 to ``h.geometry.far_site``, any geometry."""
    far = h.geometry.far_site
    return summarize_transfer(h, site_state(h.n, 1), site_state(h.n, far), t_max)


def chain_sweep(
    n_min: int,
    n_max: int,
    coupling: CouplingSpec = DIPOLE,
) -> list[TransferSummary]:
    """End-to-end transfer summaries for uniform chains of n_min..n_max spins."""
    return _sweep(Topology.CHAIN, uniform_chain, n_min, n_max, coupling)


def ring_sweep(
    n_min: int,
    n_max: int,
    coupling: CouplingSpec = DIPOLE,
) -> list[TransferSummary]:
    """``end_to_end_summary`` (site 1 to ``far_site``) of n_min..n_max-spin rings."""
    return _sweep(Topology.RING, ring, n_min, n_max, coupling)


def _sweep(topology: Topology, family, n_min: int, n_max: int, coupling: CouplingSpec):
    """``end_to_end_summary`` of ``family(n)`` for n in ``_sizes(topology, ...)``."""
    return [end_to_end_summary(build_hamiltonian(family(n), coupling))
            for n in _sizes(topology, n_min, n_max)]
