"""Monte Carlo robustness of transfer against spin-placement errors.

Every spin (ends included) is displaced independently, the Hamiltonian is
rebuilt, and the state is evolved for exactly the clean system's peak time.
A sample fails when the fidelity at that nominal time drops below the
classical threshold 2/3. Per-sample randomness derives solely from
(seed, sample index), so reports are reproducible and order-independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGeometryError
from .lattice import (
    CouplingSpec,
    DIPOLE,
    Geometry,
    Topology,
    _hamiltonian_matrices,
    build_hamiltonian,
)
from .spectral import _eigh, fidelity
from .transfer import end_to_end_summary

CLASSICAL_THRESHOLD = 2.0 / 3.0
_MAX_REDRAWS = 100
# Matrix elements per block of stacked Hamiltonians (256 samples at N = 4),
# so that the eigensolve's temporaries keep one size however many samples
# are drawn.
_BLOCK_ELEMENTS = 1 << 12


class NoiseModel(enum.Enum):
    """Displacement ensemble: what is perturbed and with which distribution.

    Per-site models displace every spin coordinate independently; per-gap
    models displace every inter-site gap independently (errors accumulate
    along the chain). ``error_fraction`` is the half-width (uniform) or
    standard deviation (gaussian) of each draw, in units of the mean spacing.
    """

    UNIFORM_PER_SITE = "uniform"
    GAUSSIAN_PER_SITE = "gaussian"
    UNIFORM_PER_GAP = "uniform-gap"
    GAUSSIAN_PER_GAP = "gaussian-gap"


@dataclass(frozen=True)
class DisorderConfig:
    """Placement-error ensemble: per-site displacement scale and sampling.

    ``error_fraction`` is the displacement half-width (uniform) or standard
    deviation (gaussian) in units of the mean spacing a; it must be finite
    and non-negative. A sample whose draw breaks the site ordering is
    redrawn at most 100 times before the run fails with DomainError.
    """

    error_fraction: float
    samples: int
    seed: int = 0
    noise_model: NoiseModel = NoiseModel.UNIFORM_PER_SITE

    def __post_init__(self):
        if not 0 <= self.error_fraction < np.inf:
            raise DomainError(
                "error fraction must be finite and non-negative, "
                f"got {self.error_fraction}"
            )
        if self.samples < 1:
            raise DomainError(f"need at least 1 sample, got {self.samples}")


@dataclass(frozen=True)
class DisorderReport:
    """Aggregate failure statistics plus the per-sample fidelities."""

    failures: int
    failure_rate: float
    mean_f_at_nominal_time: float
    samples: int
    seed: int
    rejected: int
    t_nominal: float
    clean_f_max: float
    config: DisorderConfig
    sample_fidelities: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sample_fidelities, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "sample_fidelities", arr)

    def as_dict(self) -> dict:
        return {
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "mean_f_at_nominal_time": self.mean_f_at_nominal_time,
            "samples": self.samples,
            "seed": self.seed,
            "rejected": self.rejected,
            "t_nominal": self.t_nominal,
            "clean_f_max": self.clean_f_max,
            "error_fraction": self.config.error_fraction,
            "noise_model": self.config.noise_model.value,
        }


def _draw_positions(
    positions: np.ndarray,
    spacing: float,
    config: DisorderConfig,
    rng: np.random.Generator,
):
    """One perturbed position vector; None when ordering is violated."""
    n = len(positions)
    model = config.noise_model
    per_gap = model in (NoiseModel.UNIFORM_PER_GAP, NoiseModel.GAUSSIAN_PER_GAP)
    uniform = model in (NoiseModel.UNIFORM_PER_SITE, NoiseModel.UNIFORM_PER_GAP)
    size = n - 1 if per_gap else n
    shift = rng.uniform(-1.0, 1.0, size=size) if uniform else rng.standard_normal(size)
    shift = config.error_fraction * spacing * shift
    if per_gap:
        perturbed = positions.copy()
        perturbed[1:] += np.cumsum(shift)
    else:
        perturbed = positions + shift
    if np.any(np.diff(perturbed) <= 0):
        return None
    return perturbed


def run_disorder(
    geometry: Geometry,
    coupling: CouplingSpec = DIPOLE,
    config: DisorderConfig = DisorderConfig(0.02, 1000),
) -> DisorderReport:
    """Failure-rate estimate for end-to-end transfer under placement noise.

    The clean geometry's peak time t_nominal is fixed first; each sample
    evolves |1> for exactly t_nominal on its perturbed chain. Samples whose
    draw breaks the site ordering are redrawn (and counted as rejected).
    The drawn chains are then evaluated a block of at most 4096 matrix
    elements at a time: one stacked build, one batched eigensolve and one
    vectorized evaluation per block.
    """
    if geometry.topology is not Topology.CHAIN:
        raise InvalidGeometryError("disorder analysis is defined for chains")
    positions = np.asarray(geometry.positions)
    spacing = geometry.mean_spacing
    min_gap = float(np.diff(positions).min())
    if config.error_fraction >= 0.5 * min_gap / spacing:
        raise DomainError(
            f"error fraction {config.error_fraction} must stay below half the "
            f"minimum gap ({0.5 * min_gap / spacing:.3g} spacings)"
        )

    n = geometry.n
    clean = end_to_end_summary(build_hamiltonian(geometry, coupling))
    t_nominal = clean.t_peak

    drawn = np.empty((config.samples, n))
    rejected = 0
    for k in range(config.samples):
        rng = np.random.default_rng((config.seed, k))
        perturbed = _draw_positions(positions, spacing, config, rng)
        redraws = 0
        while perturbed is None:
            rejected += 1
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise DomainError(
                    f"sample {k}: exceeded {_MAX_REDRAWS} redraws; "
                    "error fraction too large for this geometry"
                )
            perturbed = _draw_positions(positions, spacing, config, rng)
        drawn[k] = perturbed

    # f = sum_m v[N-1, m] v[0, m] e^{-i E_m t}, which does not depend on the
    # eigenvector signs; |f| by hypot, as abs() of `propagator`'s complex
    # result computes it, so each sample matches its one-chain evaluation.
    values = np.empty(config.samples)
    block = max(_BLOCK_ELEMENTS // (n * n), 1)
    for lo in range(0, config.samples, block):
        h, _ = _hamiltonian_matrices(drawn[lo : lo + block], Topology.CHAIN, coupling)
        energies, vectors = _eigh(h)
        w = vectors[:, n - 1, :] * vectors[:, 0, :]
        f = np.sum(w * np.exp(-1j * energies * t_nominal), axis=-1)
        f_abs = np.minimum(np.hypot(f.real, f.imag), 1.0)
        values[lo : lo + block] = fidelity(f_abs)

    failures = int(np.count_nonzero(values < CLASSICAL_THRESHOLD))
    return DisorderReport(
        failures=failures,
        failure_rate=failures / config.samples,
        mean_f_at_nominal_time=float(values.mean()),
        samples=config.samples,
        seed=config.seed,
        rejected=rejected,
        t_nominal=t_nominal,
        clean_f_max=clean.f_max,
        config=config,
        sample_fidelities=values,
    )
