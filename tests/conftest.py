"""Shared oracles for the test suite.

These deliberately do not reuse the package's construction or evolution code:
the full 2^N Hamiltonian is assembled from Pauli operators, and time
evolution is integrated with a classic RK4 stepper on the Schrodinger
equation or taken from the matrix exponential of ``scipy.linalg.expm``. Two
models have closed-form spectra that need no eigensolver at any N: the
uniform nearest-neighbour chain (a path Laplacian up to a gauge) and the
ring (a circulant matrix). The Krawtchouk chain has a closed-form
end-to-end amplitude at any N, |sin t|^(N-1).

``run_fresh`` runs a script in a fresh interpreter, and the session fixtures
serve the reference sweeps that several modules check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dipolink import NEAREST_NEIGHBOUR, chain_sweep

SX = np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2.0
SZ = np.array([[1.0, 0.0], [0.0, -1.0]]) / 2.0


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """op acting on one site of an n-spin register (site 0 = leftmost)."""
    full = np.eye(1)
    for k in range(n):
        full = np.kron(full, op if k == site else np.eye(2))
    return full


def full_dipole_hamiltonian(positions, c_const: float = 2.0) -> np.ndarray:
    """Brute-force 2^N dipolar Hamiltonian sum_{k<l} (C/r^3)(S.S - 3 Sz Sz)."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        for l in range(k + 1, n):
            r = abs(positions[l] - positions[k])
            j = c_const / r**3
            h += j * (
                _embed(SX, k, n) @ _embed(SX, l, n)
                + _embed(SY, k, n) @ _embed(SY, l, n)
                - 2.0 * _embed(SZ, k, n) @ _embed(SZ, l, n)
            )
    return h


def full_heisenberg_hamiltonian(positions, c_const: float = 2.0) -> np.ndarray:
    """Brute-force 2^N isotropic Heisenberg chain, couplings C/r^3 per bond."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        r = positions[k + 1] - positions[k]
        j = c_const / r**3
        h += j * (
            _embed(SX, k, n) @ _embed(SX, k + 1, n)
            + _embed(SY, k, n) @ _embed(SY, k + 1, n)
            + _embed(SZ, k, n) @ _embed(SZ, k + 1, n)
        )
    return h


def one_flip_block(h_full: np.ndarray, n: int) -> np.ndarray:
    """Restrict a 2^N matrix to the single-flip states, ordered by flip site.

    All-up register is index 0; flipping site j (0-based, leftmost first)
    sets bit n-1-j of the basis index.
    """
    idx = [1 << (n - 1 - j) for j in range(n)]
    return h_full[np.ix_(idx, idx)].real


def ground_index() -> int:
    """Index of the fully polarized (all spins up) basis state."""
    return 0


def expm_transfer_abs(
    positions,
    t: float,
    source: int = 1,
    target: int | None = None,
    model: str = "dipole",
) -> float:
    """|<target| e^{-iHt} |source>| from the matrix exponential of the one-flip block.

    The block is cut from the 2^N dipolar Hamiltonian, or from the isotropic
    Heisenberg chain for ``model="nn"``; sites are 1-based and ``target``
    defaults to the last site.
    """
    n = len(positions)
    build = full_heisenberg_hamiltonian if model == "nn" else full_dipole_hamiltonian
    block = one_flip_block(build(positions), n)
    target = n if target is None else target
    return float(abs(expm(-1j * t * block)[target - 1, source - 1]))


def rk4_evolve(matrix: np.ndarray, psi0: np.ndarray, times, dt: float):
    """Integrate i dpsi/dt = H psi from 0 with fixed-step RK4.

    ``times`` is one positive time, for which the state there is returned,
    or an ascending sequence of them, for which the states at each are
    returned from one integration. The step is t_last / ceil(t_last / dt),
    and every time must fall on a whole number of steps.
    """
    checkpoints = np.atleast_1d(np.asarray(times, dtype=float))
    step = checkpoints[-1] / np.ceil(checkpoints[-1] / dt)
    marks = np.rint(checkpoints / step).astype(int)
    assert np.allclose(marks * step, checkpoints, rtol=1e-12, atol=0.0)
    psi = psi0.astype(complex).copy()
    # For the linear right-hand side -i H psi, the RK4 stages k1..k4 are
    # powers of A = -i step H applied to psi, and one step is exactly
    # psi <- P psi with P = I + A + A^2/2 + A^3/6 + A^4/24.
    a = -1j * step * np.asarray(matrix)
    a2 = a @ a
    p = np.eye(len(a)) + a + a2 / 2.0 + a2 @ a / 6.0 + a2 @ a2 / 24.0

    states, done = [], 0
    for mark in marks:
        psi = np.linalg.matrix_power(p, mark - done) @ psi
        done = mark
        states.append(psi)
    return states if np.ndim(times) else states[0]


def nn_chain_eigenpairs(n: int, j: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the uniform nn chain, energies from the band bottom.

    The one-flip matrix is E_0 + J (D + A), with D the bond count of each
    site and A the open chain's adjacency; the gauge (-1)^j turns D + A into
    the path Laplacian. Hence e_m = 2J (1 - cos(pi m / n)) and
    v_j = (-1)^j cos(pi m (j - 1/2) / n), j = 1..n, normalized in closed
    form (norm^2 = n for m = 0, n / 2 otherwise).
    """
    m = np.arange(n)
    sites = np.arange(1, n + 1)
    energies = 2.0 * j * (1.0 - np.cos(np.pi * m / n))
    vectors = np.cos(np.pi * np.outer(sites - 0.5, m) / n)
    vectors *= (-1.0) ** sites[:, None] * np.sqrt(np.where(m == 0, 1.0, 2.0) / n)
    return energies, vectors


def krawtchouk_matrix(n: int) -> np.ndarray:
    """The perfect-transfer chain of Christandl et al. (PRL 92, 187902, 2004).

    Zero diagonal and nn couplings sqrt(i (n - i)), i = 1..n-1: twice the
    x component of a spin (n - 1) / 2, so e^{-iHt} is a rotation by 2t and
    |<n| e^{-iHt} |1>| = |sin t|^(n - 1), exactly 1 at t = pi / 2.
    """
    couplings = np.sqrt(np.arange(1.0, n) * np.arange(n - 1.0, 0.0, -1.0))
    return np.diag(couplings, 1) + np.diag(couplings, -1)


def ring_bloch_energies(
    n: int, c_const: float = 2.0, model: str = "dipole"
) -> np.ndarray:
    """Ring spectrum relative to the common diagonal constant.

    A ring's one-flip matrix is circulant, so its eigenvalues are
    E_k = C * sum_j w_j cos(2 pi k j / n) / j^3 over j = 1 .. n//2, where the
    antipodal term j = n/2 (even n only) carries weight 1/2 because it is a
    single site, not a pair; ``model="nn"`` keeps only j = 1.
    """
    js = np.arange(1, n // 2 + 1)
    weights = np.ones_like(js, dtype=float)
    if n % 2 == 0:
        weights[-1] = 0.5
    if model == "nn":
        weights[js > 1] = 0.0
    k = np.arange(n)
    phases = np.cos(2.0 * np.pi * np.outer(k, js) / n)
    return c_const * phases @ (weights / js.astype(float) ** 3)


def ring_transfer_terms(
    n: int, source: int, target: int, c_const: float = 2.0, model: str = "dipole"
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and energies of f(t) = (1/n) sum_k e^{2 pi i k (s - r) / n} e^{-i E_k t}.

    The ring's plane waves diagonalize it; sites s (source) and r (target)
    are 1-based, and the energies are ``ring_bloch_energies``.
    """
    k = np.arange(n)
    w = np.exp(2j * np.pi * k * (source - target) / n) / n
    return w, ring_bloch_energies(n, c_const, model)


def direct_abs(w, e, times) -> np.ndarray:
    """|sum_m w_m e^{-i e_m t}| with one exponential per (t, m), in blocks of t."""
    times = np.asarray(times, dtype=float)
    rows = max((1 << 18) // len(e), 1)
    return np.concatenate([
        np.abs(np.exp(-1j * np.outer(times[lo : lo + rows], e)) @ w)
        for lo in range(0, len(times), rows)
    ])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260825)


# The checkout's package directory, and the line every fresh script starts
# with: a 3 GB address space, set before anything else is imported.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ADDRESS_SPACE_CAP = """\
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))
"""


def run_fresh(code: str, *argv: str, warnings: str = "error"):
    """Run ``code`` with ``sys.argv[1:] = argv`` in a fresh interpreter.

    The interpreter imports ``dipolink`` from this checkout, runs under a
    3 GB address space and the ``-W`` action ``warnings``, and is stopped
    after two minutes. Returns the ``CompletedProcess``, text output
    captured.
    """
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", warnings, "-c", _ADDRESS_SPACE_CAP + code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="session")
def dipole_rows():
    """chain_sweep(2, 23); rows are frozen, so modules share them."""
    return chain_sweep(2, 23)


@pytest.fixture(scope="session")
def nn_rows():
    return chain_sweep(2, 23, NEAREST_NEIGHBOUR)
