"""Geometries and single-excitation Hamiltonians for dipole-coupled spin arrays.

A spin array is either an open chain with arbitrary (strictly increasing)
positions, or a uniform ring. Within the one-spin-flip sector the Hamiltonian
is a dense real symmetric N x N matrix whose off-diagonal elements fall off
as the inverse cube of the inter-site distance:

    H[i, j] = C / (2 |r_j - r_i|^3)          (i != j)
    H[j, j] = E0 + C * sum_{i != j} 1 / |r_j - r_i|^3

with E0 = -(C/2) * sum_{pairs} 1 / |r_k - r_l|^3 the energy of the fully
polarized state.

The nearest-neighbour comparison model is the isotropic Heisenberg chain
restricted to the same sector, with its hopping matched to the dipole
nearest-neighbour element: off-diagonal C / (2 r^3) on adjacent pairs only,
and an on-site term of the same magnitude per adjacent bond (half the dipole
diagonal coefficient, because the Heisenberg interaction lacks the -3 SzSz
anisotropy). On rings the two models differ only by the long-range tail;
their nn parts are identical up to a diagonal shift.

Positions are measured in units of the nearest-neighbour spacing a; with the
default C = 2 the nearest-neighbour coupling C/(2 a^3) equals 1 at a = 1.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidGeometryError

_MAX = float(np.finfo(float).max)


class Topology(enum.Enum):
    CHAIN = "chain"
    RING = "ring"


class CouplingModel(enum.Enum):
    DIPOLE = "dipole"
    NEAREST_NEIGHBOUR = "nn"


def _to_member(obj, name: str, enum_type, error):
    """Set field ``name``, a member of ``enum_type`` or its value, to the member."""
    value = getattr(obj, name)
    try:
        object.__setattr__(obj, name, enum_type(value))
    except ValueError:
        choices = ", ".join(m.value for m in enum_type)
        raise error(f"unknown {name} {value!r}; expected one of {choices}") from None


def _shown(value, show=str) -> str:
    """``show(value)``, or the sign and digit count of an int past Python's
    limit on int-to-text conversion."""
    try:
        return show(value)
    except ValueError:
        size = abs(int(value))
        digits = round(math.log10(size))  # floor(log10 size) + 1 after the test
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {digits + (size >= 10**digits)} digits"


def _count(value, name: str, lo: int | None = 0, hi: int | None = None) -> int:
    """``value``, an integer (not a bool), as an int. DomainError unless
    lo <= value <= hi; hi=None is no upper bound, and lo=None no bound at all."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if lo is not None and not lo <= value <= (value if hi is None else hi):
        high = "" if hi is None else f" <= {hi}"
        raise DomainError(f"need {lo} <= {name}{high}, got {_shown(value)}")
    return int(value)


def _real(value, name: str, lo: float = -_MAX, hi: float = _MAX) -> float:
    """``value``, a real number (not a bool), as a float; DomainError unless
    lo <= value <= hi (so never NaN). Bounds at the largest float go unprinted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise DomainError(f"{name} {_shown(value, repr)} overflows a float") from None
    if not lo <= real <= hi:
        finite = "finite " if -_MAX <= lo and hi <= _MAX else ""
        low = "" if lo == -_MAX else f"{lo:.3g} <= "
        high = "" if hi == _MAX else f" <= {hi:.3g}"
        raise DomainError(f"need {finite}{low}{name}{high}, got {real}")
    return real


def _read_only(obj, *names: str, dtype=float):
    """Set each field in ``names`` to a read-only copy, an array of ``dtype``."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class CouplingSpec:
    """Interaction model and overall coupling constant C (energy * length^3).

    ``c_const`` is a finite real number (not a bool), kept as a float, no
    smaller than the smallest normal float: below it, energies lose bits.
    """

    model: CouplingModel = CouplingModel.DIPOLE
    c_const: float = 2.0

    def __post_init__(self):
        _to_member(self, "model", CouplingModel, DomainError)
        c_const = _real(self.c_const, "c_const", np.finfo(float).tiny)
        object.__setattr__(self, "c_const", c_const)


DIPOLE = CouplingSpec(CouplingModel.DIPOLE)
NEAREST_NEIGHBOUR = CouplingSpec(CouplingModel.NEAREST_NEIGHBOUR)


@dataclass(frozen=True)
class Geometry:
    """Spatial description of the spin array.

    ``positions`` are finite real numbers (not bools), kept as floats. For a
    chain they are arbitrary strictly increasing coordinates.
    For a ring, sites are the integers 0..N-1 on a circle of circumference N
    and distances are minimal-image arc lengths.
    """

    topology: Topology
    positions: tuple = field(default_factory=tuple)
    _FEWEST_SITES = {Topology.CHAIN: 2, Topology.RING: 3}

    def __post_init__(self):
        _to_member(self, "topology", Topology, InvalidGeometryError)
        try:
            pos = tuple(_real(p, f"position {i}")
                        for i, p in enumerate(self.positions, 1))
        except (DomainError, TypeError) as exc:  # TypeError: not a sequence
            raise InvalidGeometryError(str(exc)) from None
        object.__setattr__(self, "positions", pos)
        fewest = self._FEWEST_SITES[self.topology]
        if len(pos) < fewest:
            raise InvalidGeometryError(
                f"a {self.topology.value} needs at least {fewest} sites, got {len(pos)}"
            )
        if self.topology is Topology.CHAIN:
            if any(b <= a for a, b in zip(pos, pos[1:])):
                raise InvalidGeometryError(
                    "chain positions must be strictly increasing"
                )
        elif pos != tuple(range(len(pos))):
            raise InvalidGeometryError("ring positions must be 0, 1, ..., N-1")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def far_site(self) -> int:
        """Site farthest from site 1 (1-based), where a site-1 transfer ends:
        N on a chain, N // 2 + 1 on a ring. An odd ring has two sites
        (N - 1) / 2 bonds away; this is the first of them."""
        return self.n if self.topology is Topology.CHAIN else self.n // 2 + 1

    @property
    def length(self) -> float:
        """End-to-end extent; defined for chains only."""
        if self.topology is not Topology.CHAIN:
            raise InvalidGeometryError("length is defined for chains only")
        return self.positions[-1] - self.positions[0]

    @property
    def mean_spacing(self) -> float:
        """Average nearest-neighbour spacing (equals a for uniform arrays)."""
        if self.topology is Topology.RING:
            return 1.0
        return self.length / (self.n - 1)

    def to_json(self) -> str:
        return json.dumps(
            {"topology": self.topology.value, "positions": list(self.positions)}
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "Geometry":
        """Geometry from JSON, as text or as UTF-8 (or UTF-16/32) bytes.

        Anything but JSON of a known topology and a sequence of positions,
        undecodable bytes included, raises InvalidGeometryError as malformed.
        """
        try:
            data = json.loads(text)
            topology, positions = Topology(data["topology"]), tuple(data["positions"])
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidGeometryError(
                f"malformed geometry JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(topology, positions)


def _sizes(topology: Topology, n_min: int, n_max: int) -> range:
    """n_min..n_max, refused unless topology's fewest sites <= n_min <= n_max."""
    fewest = Geometry._FEWEST_SITES[topology]
    n_min, n_max = _count(n_min, "n_min", None), _count(n_max, "n_max", None)
    if not fewest <= n_min <= n_max:
        raise DomainError(f"need {fewest} <= n_min <= n_max, got ({n_min}, {n_max})")
    return range(n_min, n_max + 1)


def uniform_chain(n: int) -> Geometry:
    """Uniform chain of n spins at unit spacing."""
    n = _count(n, "n", Geometry._FEWEST_SITES[Topology.CHAIN])
    return Geometry(Topology.CHAIN, tuple(np.arange(n, dtype=float)))


def ring(n: int) -> Geometry:
    n = _count(n, "n", Geometry._FEWEST_SITES[Topology.RING])
    return Geometry(Topology.RING, tuple(range(n)))


@dataclass(frozen=True)
class ExcitationHamiltonian:
    """Dense symmetric matrix in the single-flip basis, plus the ground energy.

    ``matrix[i, j]`` is the element between flip states i and j; the diagonal
    includes ``ground_energy`` as a uniform offset plus the site-dependent
    flip cost. The originating geometry and coupling are kept for downstream
    metrics (chain length, spacing).
    """

    matrix: np.ndarray
    ground_energy: float
    geometry: Geometry
    coupling: CouplingSpec

    def __post_init__(self):
        _read_only(self, "matrix")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def onsite_energies(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


def _pair_distances(positions: np.ndarray, topology: Topology) -> np.ndarray:
    """(..., N, N) site distances for (..., N) positions, in a new array."""
    sep = positions[..., :, None] - positions[..., None, :]
    np.abs(sep, out=sep)
    if topology is Topology.RING:
        np.minimum(sep, positions.shape[-1] - sep, out=sep)
    return sep


@functools.lru_cache(maxsize=32)
def _apart_mask(n: int, topology: Topology, model: CouplingModel) -> np.ndarray:
    """True where a pair does not interact under the given coupling model
    (the diagonal among them); one read-only array per (n, topology, model)."""
    if model is CouplingModel.DIPOLE:
        mask = np.eye(n, dtype=bool)
    else:
        mask = _pair_distances(np.arange(n), topology) != 1
    mask.setflags(write=False)
    return mask


def _hamiltonian_matrices(
    positions: np.ndarray, topology: Topology, coupling: CouplingSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices and ground energies for a (..., N) stack of site positions,
    an array or nested sequences.

    Every geometry in the stack shares the topology and coupling; sums run
    over the last axes, so each matrix is the same to the bit whether it is
    built alone or in a stack. A geometry whose 1/r^3 for some interacting
    pair is 0 or not finite (positions [0, 1e120] or [0, 1e-120]) raises
    InvalidGeometryError for the whole stack, and one whose terms could
    overflow a float (see below) raises DomainError.

    The stack is formed in the distance array. Each distance is cubed and
    inverted in place, with the pairs that do not interact set to 1 in
    between, so that one min and one max over the stack check every
    coupling; those pairs are then zeroed, and the on-site terms are written
    through a strided view of the diagonal.
    """
    positions = np.asarray(positions)
    n = positions.shape[-1]
    inv3 = _pair_distances(positions, topology)
    apart = _apart_mask(n, topology, coupling.model)
    with np.errstate(over="ignore", divide="ignore"):
        np.power(inv3, 3, out=inv3)
        np.copyto(inv3, 1.0, where=apart)
        np.divide(1.0, inv3, out=inv3)
    largest = float(inv3.max())
    if not (0.0 < inv3.min() and largest < np.inf):
        raise InvalidGeometryError(
            "a pair distance overflows or underflows its 1/r^3 coupling"
        )
    c = coupling.c_const
    # Every sum and scaled term below is at most max(C, 1) N^2 largest, a
    # Python float product, which overflows to inf without a warning.
    if not largest * max(c, 1.0) * n * n < np.inf:
        raise DomainError(
            f"coupling constant {c:.3g} with a largest 1/r^3 of {largest:.3g} "
            f"over {n} sites: the Hamiltonian's terms would overflow"
        )
    np.copyto(inv3, 0.0, where=apart)

    # Heisenberg nn bonds carry half the dipole on-site coefficient.
    diag_coef = c if coupling.model is CouplingModel.DIPOLE else 0.5 * c
    ground = -0.25 * diag_coef * inv3.sum(axis=(-2, -1))  # k<l pair sum, counted twice
    onsite = diag_coef * inv3.sum(axis=-1)
    inv3 *= 0.5 * c
    diagonal = inv3.reshape(inv3.shape[:-2] + (n * n,))[..., :: n + 1]
    np.add(ground[..., None], onsite, out=diagonal)
    return inv3, ground


def build_hamiltonian(
    geometry: Geometry, coupling: CouplingSpec = DIPOLE
) -> ExcitationHamiltonian:
    """Single-excitation Hamiltonian for any geometry and coupling model."""
    h, ground = _hamiltonian_matrices(geometry.positions, geometry.topology, coupling)
    return ExcitationHamiltonian(h, ground, geometry, coupling)
