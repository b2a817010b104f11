"""Quantum state transfer through dipole-coupled spin-1/2 arrays.

The package works in the single-excitation sector of 1-D spin arrays with
long-range magnetic dipole coupling: it builds the N x N flip-basis
Hamiltonian for chains and rings, evolves localized or encoded states,
extracts transfer metrics (peak fidelity, first-peak time, level splitting,
normalized time tau), fits the asymptotic end-bound-state model, optimizes
mirror-symmetric spin placements, and estimates robustness to placement
disorder by Monte Carlo.
"""

from .boundstate import (
    BoundStateModel,
    SplittingPrediction,
    fit_bound_state,
    predict_splitting,
    taylor_vs_exact_element,
)
from .disorder import (
    CLASSICAL_THRESHOLD,
    DisorderConfig,
    DisorderReport,
    NoiseModel,
    run_disorder,
)
from .errors import (
    ConvergenceError,
    DipolinkError,
    DomainError,
    ExpansionInvalidError,
    InfeasibleConstraintError,
    InvalidGeometryError,
    NumericInputError,
    ShapeError,
)
from .lattice import (
    CouplingModel,
    CouplingSpec,
    DIPOLE,
    ExcitationHamiltonian,
    Geometry,
    NEAREST_NEIGHBOUR,
    Topology,
    build_hamiltonian,
    ring,
    ring_bloch_energies,
    uniform_chain,
)
from .optimize import (
    PlacementResult,
    SearchConfig,
    encoded_end_states,
    n_free_gaps,
    optimize_placement,
)
from .spectral import (
    FidelityCurve,
    SiteState,
    SpectralDecomposition,
    decompose,
    fidelity,
    fidelity_curve,
    propagator,
    propagator_abs_grid,
    site_state,
)
from .transfer import (
    SweepRow,
    TransferSummary,
    antipodal_site,
    chain_sweep,
    default_window,
    end_to_end_summary,
    find_peak,
    ring_sweep,
    summarize_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "BoundStateModel",
    "CLASSICAL_THRESHOLD",
    "ConvergenceError",
    "CouplingModel",
    "CouplingSpec",
    "DIPOLE",
    "DipolinkError",
    "DisorderConfig",
    "DisorderReport",
    "DomainError",
    "ExcitationHamiltonian",
    "ExpansionInvalidError",
    "FidelityCurve",
    "Geometry",
    "InfeasibleConstraintError",
    "InvalidGeometryError",
    "NEAREST_NEIGHBOUR",
    "NoiseModel",
    "NumericInputError",
    "PlacementResult",
    "SearchConfig",
    "ShapeError",
    "SiteState",
    "SpectralDecomposition",
    "SplittingPrediction",
    "SweepRow",
    "Topology",
    "TransferSummary",
    "antipodal_site",
    "build_hamiltonian",
    "chain_sweep",
    "decompose",
    "default_window",
    "encoded_end_states",
    "end_to_end_summary",
    "fidelity",
    "fidelity_curve",
    "find_peak",
    "fit_bound_state",
    "n_free_gaps",
    "optimize_placement",
    "predict_splitting",
    "propagator",
    "propagator_abs_grid",
    "ring",
    "ring_bloch_energies",
    "ring_sweep",
    "run_disorder",
    "site_state",
    "summarize_transfer",
    "taylor_vs_exact_element",
    "uniform_chain",
]
