"""Monte Carlo robustness of transfer against spin-placement errors.

Every spin (ends included) is displaced independently, the Hamiltonian is
rebuilt, and the state is evolved for exactly the clean system's peak time.
A sample fails when the fidelity at that nominal time drops below the
classical threshold 2/3. Per-sample randomness derives solely from
(seed, sample index), so reports are reproducible and order-independent.
Samples are drawn and evaluated a block at a time, so memory beyond the
per-sample fidelities does not grow with the sample count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InvalidGeometryError
from .lattice import (
    CouplingSpec,
    DIPOLE,
    Geometry,
    Topology,
    _hamiltonian_matrices,
    _read_only,
    _to_count,
    _to_member,
    _to_real,
    build_hamiltonian,
)
from .spectral import _eigh, _eigh_stack_size, fidelity
from .transfer import end_to_end_summary

CLASSICAL_THRESHOLD = 2.0 / 3.0
_MAX_REDRAWS = 100


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
    deviation (gaussian) in units of the mean spacing a, a finite,
    non-negative real number (not a bool) kept as a float. ``samples`` (at
    least 1) and ``seed`` (non-negative) must be integers; a bool is not one.
    A sample whose draw breaks the site ordering is redrawn at most 100
    times before the run fails with DomainError.
    """

    error_fraction: float
    samples: int
    seed: int = 0
    noise_model: NoiseModel = NoiseModel.UNIFORM_PER_SITE

    def __post_init__(self):
        _to_member(self, "noise_model", NoiseModel, DomainError)
        _to_real(self, "error_fraction", DomainError)
        if not 0 <= self.error_fraction < np.inf:
            raise DomainError(
                "error fraction must be finite and non-negative, "
                f"got {self.error_fraction}"
            )
        _to_count(self, "samples", DomainError)
        if self.samples < 1:
            raise DomainError(f"need at least 1 sample, got {self.samples}")
        _to_count(self, "seed", DomainError)


@dataclass(frozen=True)
class DisorderReport:
    """Aggregate failure statistics plus the per-sample fidelities.

    Every field but the last, ``sample_fidelities``, is a key of the JSON
    document, in order; ``noise_model`` is the model's value string.
    """

    failures: int
    failure_rate: float
    mean_f_at_nominal_time: float
    samples: int
    seed: int
    rejected: int
    t_nominal: float
    clean_f_max: float
    error_fraction: float
    noise_model: str
    sample_fidelities: np.ndarray

    def __post_init__(self):
        _read_only(self, "sample_fidelities")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)[:-1]}


def _draw(rng: np.random.Generator, uniform: bool, size: int) -> np.ndarray:
    """One draw of ``size`` unscaled shifts, from U(-1, 1) or N(0, 1)."""
    return rng.uniform(-1.0, 1.0, size) if uniform else rng.standard_normal(size)


def run_disorder(
    geometry: Geometry,
    coupling: CouplingSpec = DIPOLE,
    config: DisorderConfig = DisorderConfig(0.02, 1000),
) -> DisorderReport:
    """Failure-rate estimate for end-to-end transfer under placement noise.

    The clean geometry's peak time t_nominal is fixed first; each sample
    evolves |1> for exactly t_nominal on its perturbed chain. Samples are
    drawn and evaluated a block of at most 4096 matrix elements at a time:
    one draw per sample, then one vectorized perturbation, one stacked
    build, one batched eigensolve and one vectorized evaluation per block.
    A draw that breaks the site ordering is redrawn (and counted as
    rejected). Memory beyond the per-sample fidelities does not grow with
    the sample count.
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

    model = config.noise_model
    per_gap = model in (NoiseModel.UNIFORM_PER_GAP, NoiseModel.GAUSSIAN_PER_GAP)
    uniform = model in (NoiseModel.UNIFORM_PER_SITE, NoiseModel.UNIFORM_PER_GAP)
    size = n - 1 if per_gap else n

    def perturb(draws):
        """Chains for a (..., N) stack of draws, and which break the ordering;
        a per-gap row holds 0 before its N - 1 draws, so its cumsum is the
        displacement of every site."""
        shifts = config.error_fraction * spacing * draws
        chains = positions + (np.cumsum(shifts, axis=-1) if per_gap else shifts)
        return chains, np.any(np.diff(chains) <= 0, axis=-1)

    values = np.empty(config.samples)
    block = _eigh_stack_size(n * n)
    draws = np.zeros((min(block, config.samples), n))
    rejected = 0
    for lo in range(0, config.samples, block):
        rows = draws[: config.samples - lo]
        for i in range(len(rows)):
            rng = np.random.default_rng((config.seed, lo + i))
            rows[i, -size:] = _draw(rng, uniform, size)
        chains, broken = perturb(rows)
        for i in np.flatnonzero(broken):
            rng = np.random.default_rng((config.seed, lo + i))
            _draw(rng, uniform, size)  # replays the rejected draw
            for _ in range(_MAX_REDRAWS):
                rejected += 1
                rows[i, -size:] = _draw(rng, uniform, size)
                chains[i], bad = perturb(rows[i])
                if not bad:
                    break
            else:
                raise DomainError(
                    f"sample {lo + i}: exceeded {_MAX_REDRAWS} redraws; "
                    "error fraction too large for this geometry"
                )

        # f = sum_m v[N-1, m] v[0, m] e^{-i E_m t}, which does not depend on
        # the eigenvector signs; |f| by hypot, which is how abs() of a complex
        # scalar computes it, so each sample matches its one-chain evaluation.
        h, _ = _hamiltonian_matrices(chains, Topology.CHAIN, coupling)
        energies, vectors = _eigh(h)
        w = vectors[:, n - 1, :] * vectors[:, 0, :]
        f = np.sum(w * np.exp(-1j * energies * t_nominal), axis=-1)
        f_abs = np.minimum(np.hypot(f.real, f.imag), 1.0)
        values[lo : lo + len(rows)] = fidelity(f_abs)

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
        error_fraction=config.error_fraction,
        noise_model=config.noise_model.value,
        sample_fidelities=values,
    )
