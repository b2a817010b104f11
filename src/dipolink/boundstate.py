"""q-spin bound-state model for the asymptotic end-to-end splitting.

A uniform dipole chain traps two nearly degenerate states at its ends; the
transfer time is set by their splitting dl = 2 <B|H|E>. Truncating |B> to its
first q sites and Taylor-expanding the cross matrix elements to first order
in the site offsets gives

    dl_pred = C * (Q / L^3 + R / L^4)

in units of the lattice spacing a (positions are 0, 1, ..., N-1),
with Q = (sum a_n)^2 and R = 3 sum a_n a_m (m + n - 2) computed from the
lowest eigenvector of the leading q x q corner of the chain Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExpansionInvalidError
from .lattice import (CouplingSpec, DIPOLE, _count, _read_only, _real,
                      build_hamiltonian, uniform_chain)
from .spectral import decompose


@dataclass(frozen=True)
class BoundStateModel:
    """Truncated end-state coefficients and their interference sums.

    ``coefficients[n-1]`` is a_n with a_1 > 0 and unit norm; ``source_n`` is
    the chain size whose Hamiltonian corner was diagonalized.
    """

    q: int
    coefficients: np.ndarray
    q_sum: float
    r_sum: float
    source_n: int

    def __post_init__(self):
        _read_only(self, "coefficients")

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "source_n": self.source_n,
            "a": list(self.coefficients),
            "Q": self.q_sum,
            "R": self.r_sum,
        }


def _require_dipole(coupling: CouplingSpec) -> None:
    if coupling.model is not DIPOLE.model:
        raise DomainError(
            "the bound-state model applies to dipole chains only, "
            f"got model {coupling.model.value}"
        )


def fit_bound_state(
    q: int, source_n: int = 14, coupling: CouplingSpec = DIPOLE
) -> BoundStateModel:
    """Fit the q-site end state from the corner of the source-chain Hamiltonian.

    a_n are the components of the lowest-eigenvalue eigenvector of the leading
    q x q principal submatrix of H(source_n), diagonal included as inherited
    (not re-derived for a q-spin chain). The expansion describes the dipole
    end-to-end coupling, so any other coupling model raises DomainError.
    """
    _require_dipole(coupling)
    source_n = _count(source_n, "source_n", 2)
    q = _count(q, "q", 1, source_n // 2)
    h = build_hamiltonian(uniform_chain(source_n), coupling)
    corner = h.matrix[:q, :q]
    spec = decompose(corner)
    a = spec.eigenvectors[:, 0].copy()
    if a[0] < 0:
        a = -a
    q_sum = float(a.sum() ** 2)
    n_idx = np.arange(1, q + 1)
    r_sum = float(3.0 * a @ np.add.outer(n_idx, n_idx - 2) @ a)
    return BoundStateModel(q, a, q_sum, r_sum, source_n)


def predict_splitting(
    model: BoundStateModel,
    length: float,
    coupling: CouplingSpec = DIPOLE,
) -> float:
    """First-order splitting prediction for a unit-spacing chain of this length.

    Returns dl_pred = C (Q / L^3 + R / L^4). Raises DomainError for a length
    outside 2^-255..2^255 and, like ``fit_bound_state``, for a non-dipole model.
    """
    _require_dipole(coupling)
    length = _real(length, "length", 2.0**-255, 2.0**255)
    c = coupling.c_const
    dl = c * (model.q_sum / length**3 + model.r_sum / length**4)
    if dl <= 0:
        raise ExpansionInvalidError(
            f"first-order splitting {dl:.3g} <= 0 at L = {length}; "
            "chain too short for the expansion"
        )
    return dl
