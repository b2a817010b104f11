"""Symmetric eigensolver, time-grid transition amplitudes and transfer fidelity.

The eigensolver is LAPACK's symmetric ``eigh`` (through numpy). Evolution is
evaluated in the eigenbasis,

    f(t) = <out| e^{-iHt} |in> = sum_m <out|m><m|in> e^{-i E_m t},

and the averaged transfer fidelity is F = |f|/3 + |f|^2/6 + 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericInputError, ShapeError
from .lattice import ExcitationHamiltonian, _count, _read_only, _real

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
        _read_only(self, "eigenvalues", "eigenvectors")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def splitting(self) -> float:
        """Gap between the two lowest eigenvalues."""
        return float(self.eigenvalues[1] - self.eigenvalues[0])


@dataclass(frozen=True)
class SiteState:
    """Normalized state over the single-flip basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:
            raise DomainError(f"state norm deviates from 1 by {abs(norm - 1.0):.3g}")
        _read_only(self, "amplitudes", dtype=complex)

    @property
    def n(self) -> int:
        return len(self.amplitudes)


def site_state(n: int, site: int, name: str = "site") -> SiteState:
    """Basis state with the flip on the given site (1-based, matching |j>).

    ``name`` is what a refused site is called in the error message.
    """
    amp = np.zeros(_count(n, "n", 1))
    amp[_count(site, name, 1, n) - 1] = 1.0
    return SiteState(amp)


def _eigh(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of one symmetric matrix or a stack of them.

    Each matrix of a stack is solved exactly as it would be alone. Eigenvector
    signs are LAPACK's. The entries are not scanned here: ``decompose``
    checks the matrices users hand it, and the package's own stacks come
    from ``_hamiltonian_matrices``, whose couplings are checked finite.
    """
    try:
        return np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def decompose(h: ExcitationHamiltonian | np.ndarray) -> SpectralDecomposition:
    """Diagonalize a symmetric matrix into ascending eigenpairs (LAPACK ``eigh``).

    Eigenvector signs are LAPACK's. Every figure the package reports uses
    products of two components of one eigenvector, so none depends on them.
    Repeated calls are bit-identical. ``eigh`` reads one triangle only, so a
    matrix not exactly equal to its transpose raises DomainError.
    """
    matrix = h.matrix if isinstance(h, ExcitationHamiltonian) else np.asarray(h, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise NumericInputError("matrix contains non-finite entries")
    if not np.array_equal(matrix, matrix.T):
        raise DomainError("matrix is not exactly symmetric")
    return SpectralDecomposition(*_eigh(matrix))


def transfer_terms(
    spec: SpectralDecomposition, input_state: SiteState, output_state: SiteState
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w_m = <out|m><m|in> and energies e_m = E_m - E_0.

    |f(t)| = |sum_m w_m e^{-i e_m t}|; measuring energies from E_0 keeps the
    phases small.
    """
    if input_state.n != spec.n or output_state.n != spec.n:
        raise ShapeError(
            f"state dimensions ({input_state.n}, {output_state.n}) "
            f"do not match operator dimension {spec.n}"
        )
    v = spec.eigenvectors
    w = np.conj(v.T @ output_state.amplitudes) * (v.T @ input_state.amplitudes)
    return w, spec.eigenvalues - spec.eigenvalues[0]


def abs_runs(w, e, starts, step: float, count: int) -> np.ndarray:
    """|sum_m w_m e^{-i e_m (s + j step)}| for starts s (rows), j < count (columns).

    f = (w e^{-ie s}) @ e^{-ie j step}, one product per row block, so that
    no temporary outgrows the block budget. A last block of one row is
    multiplied with the row before it, since a one-row product goes through
    ``gemv``, which rounds its sums differently. So every element has the
    bits it has in one product of all the rows.
    """
    starts = np.asarray(starts, dtype=float)
    k = len(starts)
    out = np.empty((k, count))
    inner = np.exp(e[:, None] * (step * np.arange(count)) * -1j)
    rows = max(_BLOCK_ELEMENTS // max(count, 1), 1)
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        if hi - lo == 1 and lo > 0 and rows > 1:
            lo -= 1  # the last row goes with the one before it
        np.abs((np.exp(starts[lo:hi, None] * e * -1j) * w) @ inner, out=out[lo:hi])
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
    than 1e-12 of max |t|, or whose largest phase max |t| (E_max - E_0)
    overflows a float, raises DomainError.
    """
    w, e = transfer_terms(spec, input_state, output_state)
    times = np.asarray(times, dtype=float)
    k = len(times)
    if k == 0:
        return np.empty(0)
    t0, t1 = float(times[0]), float(times[-1])
    dt = (t1 - t0) / (k - 1) if k > 1 else 0.0
    t_abs = max(abs(t0), abs(t1))
    if not math.isfinite(t_abs * float(e[-1])):
        raise DomainError(f"phases up to {t_abs:.3g} x {e[-1]:.3g} overflow a float")
    tol = _UNIFORM_RTOL * t_abs
    for lo in range(0, k, _BLOCK_ELEMENTS):
        ts = times[lo : lo + _BLOCK_ELEMENTS]
        gap = np.arange(lo, lo + len(ts), dtype=float)  # t0 + i dt - t_i, in place
        gap *= dt
        gap += t0
        gap -= ts
        if not np.abs(gap, out=gap).max() <= tol:
            raise DomainError("time grid is not uniform")
    block = math.ceil(math.sqrt(k))
    return abs_runs(w, e, times[::block], dt, block).ravel()[:k]


def grid_step(t_max: float, points: int) -> float:
    """t_max / (points - 1), the step of a uniform grid of ``points`` over
    [0, t_max]; DomainError if it is below the smallest normal float, where
    the grid's times would lose bits or coincide."""
    step = t_max / (points - 1)
    if step < np.finfo(float).tiny:
        raise DomainError(
            f"grid step {step:.3g} = t_max / {points - 1} is below the "
            f"smallest normal float {np.finfo(float).tiny:.3g}"
        )
    return step


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
    [0, 1], and NaN, raises DomainError.
    """
    f_abs = np.asarray(f_abs, dtype=float)
    outside = ~((0 <= f_abs) & (f_abs <= 1 + 1e-9))
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
        _read_only(self, "times", "values")
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
    """F(t) on a uniform grid t_k = k * t_max / (n_steps - 1).

    A step below the smallest normal float, and a spectrum so narrow against
    the window that the samples per period overflow a float, raise
    DomainError.
    """
    t_max = _real(t_max, "t_max", 0)
    n_steps = _count(n_steps, "n_steps", 2)
    grid_step(t_max, n_steps)
    times = np.linspace(0.0, t_max, n_steps)
    f_abs = propagator_abs_grid(spec, input_state, output_state, times)
    spread = float(spec.eigenvalues[-1] - spec.eigenvalues[0])
    per_period = None
    if spread > 0:
        cycles = t_max * spread / (2.0 * np.pi)
        per_period = (n_steps - 1) / cycles if cycles > 0 else np.inf
        if not np.isfinite(per_period):
            raise DomainError(
                f"samples per period overflow a float: t_max {t_max:.3g} spans "
                f"{cycles:.3g} periods of E_max - E_min = {spread:.3g}"
            )
    return FidelityCurve(times, fidelity(f_abs), per_period)
