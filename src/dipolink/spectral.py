"""Symmetric eigensolver, propagator and transfer fidelity.

The eigensolver is LAPACK's symmetric ``eigh`` (through numpy) with a fixed
eigenvector sign convention. Evolution is evaluated in the eigenbasis,

    f(t) = <out| e^{-iHt} |in> = sum_m <out|m><m|in> e^{-i E_m t},

and the averaged transfer fidelity is F = |f|/3 + |f|^2/6 + 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericInputError, ShapeError
from .lattice import ExcitationHamiltonian

# A vector's leading component is the first one within this relative margin
# of its largest magnitude, so that roundoff cannot decide ties: on mirror-
# symmetric chains |v_1| = |v_N| only up to eps ||H|| / gap, already 7e-10
# at N = 23.
_TIE_RTOL = 1e-6
# Complex elements per row block of the grid kernel (1 MiB).
_BLOCK_ELEMENTS = 1 << 16
# Largest deviation, relative to max |t|, of a grid from exact uniformity.
_UNIFORM_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (one per column)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def splitting(self) -> float:
        """Gap between the two lowest eigenvalues."""
        return self.eigenvalues[1] - self.eigenvalues[0]


@dataclass(frozen=True)
class SiteState:
    """Normalized state over the single-flip basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state norm deviates from 1 by {abs(norm - 1.0):.3g}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n(self) -> int:
        return len(self.amplitudes)


def site_state(n: int, site: int) -> SiteState:
    """Basis state with the flip on the given site (1-based, matching |j>)."""
    if not 1 <= site <= n:
        raise DomainError(f"site {site} outside 1..{n}")
    amp = np.zeros(n)
    amp[site - 1] = 1.0
    return SiteState(amp)


def _eigh(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of one symmetric matrix or a stack of them.

    Each matrix of a stack is solved exactly as it would be alone. Eigenvector
    signs are LAPACK's.
    """
    if not np.all(np.isfinite(matrices)):
        raise NumericInputError("matrix contains non-finite entries")
    try:
        return np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def decompose(h: ExcitationHamiltonian | np.ndarray) -> SpectralDecomposition:
    """Diagonalize a symmetric matrix into ascending eigenpairs (LAPACK ``eigh``).

    The returned eigenvectors follow a fixed sign convention: the component
    of largest magnitude in each vector is positive, with ties (up to a
    relative 1e-6, so roundoff cannot decide them) broken by lowest index.
    Repeated calls are bit-identical.
    """
    matrix = h.matrix if isinstance(h, ExcitationHamiltonian) else np.asarray(h, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {matrix.shape}")
    vals, vecs = _eigh(matrix)
    mags = np.abs(vecs)
    lead = np.argmax(mags >= mags.max(axis=0) * (1.0 - _TIE_RTOL), axis=0)
    vecs *= np.where(vecs[lead, np.arange(len(vals))] < 0, -1.0, 1.0)
    return SpectralDecomposition(vals, vecs)


def _overlap_weights(
    spec: SpectralDecomposition, input_state: SiteState, output_state: SiteState
) -> np.ndarray:
    if input_state.n != spec.n or output_state.n != spec.n:
        raise ShapeError(
            f"state dimensions ({input_state.n}, {output_state.n}) "
            f"do not match operator dimension {spec.n}"
        )
    v = spec.eigenvectors
    return np.conj(v.T @ output_state.amplitudes) * (v.T @ input_state.amplitudes)


def propagator(
    spec: SpectralDecomposition,
    input_state: SiteState,
    output_state: SiteState,
    t: float,
) -> complex:
    """Transition amplitude <out| e^{-iHt} |in>."""
    w = _overlap_weights(spec, input_state, output_state)
    return complex(np.sum(w * np.exp(-1j * spec.eigenvalues * t)))


def transfer_terms(
    spec: SpectralDecomposition, input_state: SiteState, output_state: SiteState
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w_m = <out|m><m|in> and energies e_m = E_m - E_0.

    |f(t)| = |sum_m w_m e^{-i e_m t}|; measuring energies from E_0 keeps the
    phases small.
    """
    return (
        _overlap_weights(spec, input_state, output_state),
        spec.eigenvalues - spec.eigenvalues[0],
    )


def abs_runs(w, e, starts, step: float, count: int) -> np.ndarray:
    """|sum_m w_m e^{-i e_m (s + j step)}| for starts s (rows), j < count (columns).

    f = (w e^{-ie s}) @ e^{-ie j step}, formed a row block at a time so that
    no temporary outgrows the block budget.
    """
    starts = np.asarray(starts, dtype=float)
    out = np.empty((len(starts), count))
    inner = np.exp(-1j * np.outer(e, step * np.arange(count)))
    rows = max(_BLOCK_ELEMENTS // max(count, 1), 1)
    for lo in range(0, len(starts), rows):
        outer = np.exp(-1j * np.outer(starts[lo : lo + rows], e)) * w
        out[lo : lo + rows] = np.abs(outer @ inner)
    return out


def propagator_abs_grid(
    spec: SpectralDecomposition,
    input_state: SiteState,
    output_state: SiteState,
    times: np.ndarray,
) -> np.ndarray:
    """|f(t)| on a uniform time grid.

    The grid is cut into about sqrt(K) blocks of sqrt(K) points,
    t = t_b + tau_j, so that f = (w e^{-iE t_b}) @ e^{-iE tau} needs about
    2 sqrt(K) N exponentials instead of K N. Energies are measured from E_0
    to keep the phases small; the product is formed a row block at a time,
    so no temporary grows with K. A grid that deviates from uniform by more
    than 1e-12 of max |t| raises DomainError.
    """
    w, e = transfer_terms(spec, input_state, output_state)
    times = np.asarray(times, dtype=float)
    k = len(times)
    if k == 0:
        return np.empty(0)
    dt = (times[-1] - times[0]) / (k - 1) if k > 1 else 0.0
    tol = _UNIFORM_RTOL * max(abs(times[0]), abs(times[-1]))
    for lo in range(0, k, _BLOCK_ELEMENTS):
        ts = times[lo : lo + _BLOCK_ELEMENTS]
        if np.max(np.abs(ts - (times[0] + dt * np.arange(lo, lo + len(ts))))) > tol:
            raise DomainError("time grid is not uniform")
    block = int(np.ceil(np.sqrt(k)))
    return abs_runs(w, e, times[::block], dt, block).ravel()[:k]


def curvature_bound(w: np.ndarray, e: np.ndarray) -> float:
    """M = sum_m |w_m| (e_m - c)^2, with c the |w|-weighted mean energy.

    Every real part Re(e^{i phi} e^{i c t} f(t)) is a sum of cosines whose
    second derivative is at most M in magnitude, and |f| is the largest of
    them. Hence on any interval [a, b] of width h,
    |f| <= max(|f(a)|, |f(b)|) + M h^2 / 8.
    """
    w = np.abs(w)
    c = np.dot(w, e) / w.sum() if w.sum() > 0 else 0.0
    return float(np.dot(w, (e - c) ** 2))


def fidelity(f_abs):
    """Input-averaged transfer fidelity F = |f|/3 + |f|^2/6 + 1/2.

    Takes one |f| (and returns a float) or an array of them. Values above 1
    by up to 1e-9 are roundoff and count as 1; anything further outside
    [0, 1] raises DomainError.
    """
    f_abs = np.asarray(f_abs, dtype=float)
    outside = (f_abs < 0) | (f_abs > 1 + 1e-9)
    if np.any(outside):
        raise DomainError(f"|f| = {f_abs[outside][0]} outside [0, 1]")
    f_abs = np.minimum(f_abs, 1.0)
    values = f_abs / 3.0 + f_abs * f_abs / 6.0 + 0.5
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class FidelityCurve:
    """F(t) sampled on an ascending time grid.

    ``samples_per_period`` counts grid steps per period of the fastest
    frequency in f, 2 pi / (E_max - E_min), None for a flat spectrum; below
    2, the Nyquist rate, the grid aliases that ripple (``undersampled``).
    """

    times: np.ndarray
    values: np.ndarray
    samples_per_period: float | None

    def __post_init__(self):
        for name in ("times", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.times.shape != self.values.shape:
            raise ShapeError("times and values must have equal length")

    @property
    def undersampled(self) -> bool:
        return self.samples_per_period is not None and self.samples_per_period < 2.0


def fidelity_curve(
    spec: SpectralDecomposition,
    input_state: SiteState,
    output_state: SiteState,
    t_max: float,
    n_steps: int,
) -> FidelityCurve:
    """F(t) on a uniform grid t_k = k * t_max / (n_steps - 1)."""
    if not 0 < t_max < np.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if n_steps < 2:
        raise DomainError(f"need at least 2 steps, got {n_steps}")
    times = np.linspace(0.0, t_max, n_steps)
    f_abs = propagator_abs_grid(spec, input_state, output_state, times)
    cycles = t_max * (spec.eigenvalues[-1] - spec.eigenvalues[0]) / (2.0 * np.pi)
    per_period = float((n_steps - 1) / cycles) if cycles > 0 else None
    return FidelityCurve(times, fidelity(f_abs), per_period)
