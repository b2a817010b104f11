"""Output checks behind ``error_rate``.

Every invocation's output is compared with ``reference.json``, which
make_reference.py wrote from the reference commit, and with independent
recomputations that use only numpy: the single-excitation dipole
Hamiltonian is rebuilt here from its definition and diagonalized with
``np.linalg.eigh``. Each check is one named predicate; a check that raises,
for instance because the invocation crashed and left no output, fails.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache

import numpy as np

import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

C_CONST = 2.0  # CLI default coupling constant
GAP_MIN = 0.05  # SearchConfig.gap_min default
MIN_FIDELITY = 0.99  # CLI default --min-fidelity
RESTARTS = 10  # CLI default --restarts
CLASSICAL_THRESHOLD = 2.0 / 3.0
# A failure rate from S samples passes when it lies within BINOMIAL_Z
# standard errors sqrt(p (1 - p) / S) of the pooled reference rate p; a
# correct program fails this check with probability below 1e-6.
BINOMIAL_Z = 5.0
# Nelder-Mead can stall on the gap_min boundary short of the optimum: over
# the reference panel the worst seed ends 0.1% above the best tau.
TAU_SLACK = 0.01


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dipole_hamiltonian(positions) -> np.ndarray:
    """H[i,j] = C / (2 r^3) off the diagonal, E0 + C sum_i 1 / r^3 on it."""
    pos = np.asarray(positions, dtype=float)
    r = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(r, np.inf)
    inv3 = 1.0 / r**3
    h = 0.5 * C_CONST * inv3
    np.fill_diagonal(h, -0.25 * C_CONST * inv3.sum() + C_CONST * inv3.sum(axis=1))
    return h


@lru_cache(maxsize=64)
def _eigh(positions: tuple):
    return np.linalg.eigh(dipole_hamiltonian(positions))


def eigh_splitting(positions) -> float:
    vals, _ = _eigh(tuple(float(p) for p in positions))
    return float(vals[1] - vals[0])


def eigh_end_to_end_abs(positions, t: float) -> float:
    """|<N| exp(-iHt) |1>| from the eigh spectrum."""
    vals, vecs = _eigh(tuple(float(p) for p in positions))
    return float(abs(np.sum(vecs[-1, :] * vecs[0, :] * np.exp(-1j * vals * t))))


def fidelity(f_abs: float) -> float:
    return f_abs / 3.0 + f_abs * f_abs / 6.0 + 0.5


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _close_to_eigh(got: float, want: float) -> bool:
    """Agreement of a package eigen-quantity with the eigh recomputation."""
    return abs(got - want) <= 1e-11 + 1e-8 * abs(want)


def _chain_row_checks(rows, k: int, want: dict):
    n = want["n"]
    positions = np.arange(n, dtype=float)

    def row():
        return rows[k]

    return [
        (f"n={n} labels", lambda: row()["n"] == n and row()["model"] == "dipole"
         and row()["topology"] == "chain" and row()["boundary_peak"] is False
         and row()["length"] == n - 1),
        (f"n={n} f_max", lambda: abs(row()["f_max"] - want["f_max"]) <= 1e-9),
        (f"n={n} t_peak", lambda: _rel(row()["t_peak"], want["t_peak"]) <= 1e-7),
        (f"n={n} delta_lambda",
         lambda: _rel(row()["delta_lambda"], want["delta_lambda"]) <= 1e-9),
        (f"n={n} tau", lambda: _rel(row()["tau"], want["tau"]) <= 1e-7
         and _rel(row()["tau"], row()["t_peak"] / (n - 1) ** 3) <= 1e-12),
        (f"n={n} delta_lambda eigh",
         lambda: _close_to_eigh(row()["delta_lambda"], eigh_splitting(positions))),
        (f"n={n} period",
         lambda: _rel(row()["period"], 2.0 * math.pi / row()["delta_lambda"]) <= 1e-12),
    ]


def chain_sweep_checks(text: str | None, cli_seed, reference: dict):
    ref_rows = reference["chain-sweep"]["rows"]
    rows = json.loads(text) if text is not None else None
    checks = [("row set", lambda: [r["n"] for r in rows] == [r["n"] for r in ref_rows])]
    for k, want in enumerate(ref_rows):
        checks += _chain_row_checks(rows, k, want)
    return checks


def disorder_checks(text: str | None, cli_seed: int, reference: dict):
    ref = reference["disorder-ensemble"]
    rec = json.loads(text) if text is not None else None
    p = ref["pooled_failures"] / ref["pooled_samples"]
    clean = np.arange(4, dtype=float)

    def binomial():
        s = rec["samples"]
        return abs(rec["failure_rate"] - p) <= BINOMIAL_Z * math.sqrt(p * (1 - p) / s)

    checks = [
        ("echo", lambda: rec["samples"] == workloads.DISORDER_SAMPLES and rec["seed"] == cli_seed
         and rec["error_fraction"] == 0.02 and rec["noise_model"] == "gaussian-gap"),
        ("t_nominal", lambda: _rel(rec["t_nominal"], ref["t_nominal"]) <= 1e-7),
        ("clean_f_max", lambda: abs(rec["clean_f_max"] - ref["clean_f_max"]) <= 1e-9),
        ("clean_f_max eigh", lambda: abs(
            fidelity(eigh_end_to_end_abs(clean, rec["t_nominal"]))
            - rec["clean_f_max"]) <= 1e-9),
        ("failure_rate binomial", binomial),
        ("counts", lambda: rec["failures"] == round(rec["failure_rate"] * rec["samples"])
         and rec["rejected"] >= 0
         and CLASSICAL_THRESHOLD < rec["mean_f_at_nominal_time"] <= 1.0),
    ]
    want = ref["by_seed"].get(str(cli_seed))
    if want is not None:
        checks.append(("seed record", lambda: rec["failures"] == want["failures"]
                       and rec["rejected"] == want["rejected"]
                       and _rel(rec["mean_f_at_nominal_time"],
                                want["mean_f_at_nominal_time"]) <= 1e-9))
    return checks


def _positions(gaps) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(gaps)])


def placement_checks(text: str | None, cli_seed: int, reference: dict):
    ref = reference["placement"]
    rec = json.loads(text) if text is not None else None

    def gaps():
        g = rec["best_gaps"]
        if len(g) != 5:
            raise ValueError(f"expected 5 gaps, got {len(g)}")
        return g

    checks = [
        ("echo", lambda: rec["n"] == 6 and rec["seed"] == cli_seed
         and rec["restarts"] == RESTARTS and rec["converged"] is True
         and rec["evaluations"] > 0),
        ("gaps mirror-symmetric",
         lambda: all(abs(a - b) <= 1e-12 for a, b in zip(gaps(), gaps()[::-1]))),
        ("gaps sum to 1", lambda: abs(sum(gaps()) - 1.0) <= 1e-12),
        ("gaps >= gap_min", lambda: min(gaps()) >= GAP_MIN - 1e-12),
        ("f_max >= min_fidelity", lambda: rec["f_max"] >= MIN_FIDELITY),
        ("tau eigh", lambda: _close_to_eigh(
            rec["tau"], math.pi / eigh_splitting(_positions(gaps())))),
        ("delta_lambda eigh", lambda: _close_to_eigh(
            rec["delta_lambda"], eigh_splitting(_positions(gaps())))),
        ("tau reference optimum", lambda: ref["tau_min"] * (1 - 1e-7) <= rec["tau"]
         <= ref["tau_min"] * (1 + TAU_SLACK)),
        ("start", lambda: _rel(rec["start_tau"], ref["start_tau"]) <= 1e-9
         and all(abs(g - 0.2) <= 1e-12 for g in rec["start_gaps"])),
    ]
    return checks


CHECKS = {
    "chain-sweep": chain_sweep_checks,
    "disorder-ensemble": disorder_checks,
    "placement": placement_checks,
}


def run_checks(workload: str, text: str | None, cli_seed, reference: dict):
    """``(name, passed)`` for every check of one invocation's output.

    ``text`` is the CLI's stdout, or None when the invocation crashed or
    timed out; then every check fails.
    """
    try:
        checks = CHECKS[workload](text, cli_seed, reference)
    except ValueError:  # output is not JSON; build the list against nothing
        checks = CHECKS[workload](None, cli_seed, reference)
    results = []
    for name, predicate in checks:
        try:
            passed = bool(predicate())
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            passed = False
        results.append((name, passed))
    return results
