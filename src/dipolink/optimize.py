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
maximum falls short.

Encoded end states spread the input over the first few sites with amplitudes
taken from the chain's ground-state eigenvector, which couples them cleanly
to the end-localized bound states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleConstraintError
from .lattice import (
    CouplingSpec,
    DIPOLE,
    ExcitationHamiltonian,
    Geometry,
    Topology,
    build_hamiltonian,
)
from .spectral import SiteState, decompose, fidelity, site_state
from .transfer import find_peak

# Smallest allowed gap of a unit chain; restart spread, in units of the
# uniform gap; verification window, in beat periods; Nelder-Mead stopping.
_GAP_MIN = 0.05
_PERTURBATION = 0.25
_VERIFY_BEATS = 20.0
_NELDER_MEAD = {"xatol": 1e-7, "fatol": 1e-12, "maxiter": 400}


@dataclass(frozen=True)
class SearchConfig:
    """Controls the mirror-symmetric placement search.

    Each of the ``restarts`` extra starts perturbs every free gap of the
    uniform chain by up to a quarter of the uniform gap, drawn from
    ``seed``; ``restarts`` must be non-negative. Gaps below 0.05 are
    rejected. Nelder-Mead stops at xatol 1e-7 and fatol 1e-12 or after 400
    iterations. The fidelity constraint ``min_fidelity``, finite and at most
    1, is checked at each converged candidate by a peak search over 20 beat
    periods 2 pi / dl.
    """

    min_fidelity: float = 0.99
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise DomainError(f"restarts must be non-negative, got {self.restarts}")
        if not (np.isfinite(self.min_fidelity) and self.min_fidelity <= 1.0):
            raise DomainError(
                f"min fidelity must be finite and at most 1, got {self.min_fidelity}"
            )


DEFAULT_SEARCH = SearchConfig()


@dataclass(frozen=True)
class PlacementResult:
    """Best geometry found, its transfer figures, and a run report.

    ``tau`` is the minimized objective (pi / dl per unit cubed length);
    ``f_max`` and ``t_best`` come from the verification peak search over the
    multi-beat window.
    """

    geometry: Geometry
    gaps: tuple
    tau: float
    delta_lambda: float
    f_max: float
    t_best: float
    report: dict


def n_free_gaps(n: int) -> int:
    """Free parameters for a mirror-symmetric unit chain of n spins.

    Of the ceil((n-1)/2) independent gaps, one is fixed by the unit-length
    constraint.
    """
    return (n - 1 + 1) // 2 - 1


def _gaps_from_free(x: np.ndarray, n: int) -> np.ndarray:
    """All n-1 gaps of the mirror-symmetric unit chain from the free vector."""
    k = (n - 1 + 1) // 2  # independent gaps
    g = np.empty(k)
    g[: k - 1] = x
    if (n - 1) % 2 == 1:
        # odd gap count: the middle gap is unpaired and absorbs the length
        g[k - 1] = 1.0 - 2.0 * x.sum()
    else:
        g[k - 1] = 0.5 - x.sum()
    return np.concatenate([g, g[: n - 1 - k][::-1]])


def _geometry_from_gaps(gaps: np.ndarray) -> Geometry:
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    return Geometry(Topology.CHAIN, tuple(pos))


def optimize_placement(
    n: int,
    coupling: CouplingSpec = DIPOLE,
    config: SearchConfig = DEFAULT_SEARCH,
) -> PlacementResult:
    """Minimize tau over mirror-symmetric unit chains of n spins.

    Runs Nelder-Mead from the uniform gap vector and ``config.restarts``
    seeded perturbations of it; gaps below 0.05 are rejected
    outright. Converged candidates are screened in ascending-objective order
    against the fidelity constraint; ties within 1e-9 are broken toward the
    point closest to uniform. Raises InfeasibleConstraintError, with the
    best-fidelity point attached, if no candidate passes.
    """
    from scipy.optimize import minimize  # slow import, paid only here

    if n < 3:
        raise DomainError(f"need at least 3 spins to optimize, got {n}")
    nfree = n_free_gaps(n)
    uniform_free = np.full(nfree, 1.0 / (n - 1))
    evaluations = 0

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        gaps = _gaps_from_free(np.asarray(x, dtype=float), n)
        if np.any(gaps < _GAP_MIN):
            return np.inf
        h = build_hamiltonian(_geometry_from_gaps(gaps), coupling)
        dl = decompose(h).splitting
        if dl <= 0:
            return np.inf
        return np.pi / dl  # tau at unit length

    rng = np.random.default_rng(config.seed)
    starts = [uniform_free]
    scale = _PERTURBATION / (n - 1)
    for _ in range(config.restarts):
        starts.append(uniform_free + rng.uniform(-scale, scale, size=nfree))

    candidates = []
    for x0 in starts:
        if nfree == 0:
            value = objective(x0)
            if np.isfinite(value):
                candidates.append((value, x0))
            continue
        with np.errstate(invalid="ignore"):
            result = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options=_NELDER_MEAD,
            )
        if np.isfinite(result.fun):
            candidates.append((float(result.fun), np.asarray(result.x)))

    if not candidates:
        raise InfeasibleConstraintError(
            f"no mirror-symmetric {n}-spin placement found with gaps above "
            f"{_GAP_MIN}",
            best=None,
        )
    candidates.sort(
        key=lambda c: (c[0], float(np.linalg.norm(c[1] - uniform_free)))
    )

    best_seen = None
    for value, x_best in candidates:
        gaps = _gaps_from_free(np.asarray(x_best, dtype=float), n)
        geometry = _geometry_from_gaps(gaps)
        h = build_hamiltonian(geometry, coupling)
        spec = decompose(h)
        window = _VERIFY_BEATS * 2.0 * np.pi / spec.splitting
        f_abs, t_best, _ = find_peak(spec, site_state(n, 1), site_state(n, n), window)
        f_max = fidelity(f_abs)
        if best_seen is None or f_max > best_seen.f_max:
            best_seen = PlacementResult(
                geometry,
                tuple(gaps),
                value,
                spec.splitting,
                f_max,
                t_best,
                {},
            )
        if f_max >= config.min_fidelity:
            report = {
                "n": n,
                "start_gaps": list(_gaps_from_free(uniform_free, n)),
                "start_tau": float(np.pi / decompose(
                    build_hamiltonian(_geometry_from_gaps(
                        _gaps_from_free(uniform_free, n)), coupling)
                ).splitting),
                "evaluations": evaluations,
                "restarts": config.restarts,
                "seed": config.seed,
                "best_gaps": list(gaps),
                "tau": value,
                "delta_lambda": spec.splitting,
                "f_max": f_max,
                "t_best": t_best,
                "converged": True,
            }
            return PlacementResult(
                geometry, tuple(gaps), value, spec.splitting, f_max, t_best, report
            )
    raise InfeasibleConstraintError(
        f"no candidate reached f_max >= {config.min_fidelity} within "
        f"{_VERIFY_BEATS} beats (best {best_seen.f_max:.6f})",
        best=best_seen,
    )


def encoded_end_states(
    h: ExcitationHamiltonian, width: int
) -> tuple[SiteState, SiteState]:
    """Input/output states spread over the first/last ``width`` sites.

    Amplitudes are the first ``width`` components of the lowest-eigenvalue
    eigenvector of the Hamiltonian, renormalized; the output state is their
    mirror image on the last sites.
    """
    n = h.n
    if not 1 <= width <= n // 2:
        raise DomainError(f"width {width} outside 1..{n // 2}")
    ground = decompose(h).eigenvectors[:, 0]
    coeffs = ground[:width].copy()
    coeffs /= np.linalg.norm(coeffs)
    amp_in = np.zeros(n, dtype=complex)
    amp_in[:width] = coeffs
    amp_out = np.zeros(n, dtype=complex)
    amp_out[n - width :] = coeffs[::-1]
    return SiteState(amp_in), SiteState(amp_out)
