"""Quantum state transfer through dipole-coupled spin-1/2 arrays.

The package works in the single-excitation sector of 1-D spin arrays with
long-range magnetic dipole coupling: it builds the N x N flip-basis
Hamiltonian for chains and rings, evolves localized or encoded states,
extracts transfer metrics (peak fidelity, first-peak time, level splitting,
normalized time tau), fits the asymptotic end-bound-state model, optimizes
mirror-symmetric spin placements, and estimates robustness to placement
disorder by Monte Carlo.
"""

import os as _os
from types import ModuleType as _ModuleType

# OpenBLAS starts a worker thread when numpy loads it, and the idle worker
# spins on a second core through the import and after each product it
# threads; no workload here gains from it. OpenBLAS reads this variable once,
# at that load, and with 1 starts no worker. A value already set is kept, and
# a numpy imported before this package is not affected.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .boundstate import (
    BoundStateModel,
    fit_bound_state,
    predict_splitting,
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
    propagator_abs_grid,
    site_state,
)
from .transfer import (
    TransferSummary,
    chain_sweep,
    default_window,
    end_to_end_summary,
    find_peak,
    ring_sweep,
    summarize_transfer,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules stay out of ``import *``.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
