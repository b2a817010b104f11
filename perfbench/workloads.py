"""The benchmark's workloads: one `dipolink` CLI invocation each.

A run of a seeded workload makes several invocations, each with its own CLI
seed derived from the benchmark seed, so the same benchmark seed always
gives the same inputs:

- disorder-ensemble: invocation ``i`` of benchmark seed ``s`` passes
  ``--seed s*1000+i``.
- placement: the CLI seed comes from the reference's placement seed panel,
  the CLI seeds 0, 1, 2, ... for which `optimize-placement --n 6` finds a
  placement at the reference commit. For the seeds it skips (listed in
  reference.json under ``placement.infeasible_seeds``) every Nelder-Mead
  start converges to the tau minimum whose fidelity stays near 0.5, and the
  CLI exits 1 with "no candidate reached f_max >= 0.99"; a benchmark
  invocation must not fail. The search cost varies by seed (4.6 s to 10 s
  on two cores) and follows the number of eigensolves the search makes, so
  the panel is ranked by that reference count and cut at the 40th and 60th
  percentile into a cheap, a typical and a costly stratum. Invocation ``i``
  draws from stratum ``i % 3`` in an order shuffled by ``s``, and a run
  makes whole rounds of three, so each run's median is usually a typical
  seed's time.

``chain-sweep`` takes no seed.
"""

from __future__ import annotations

import random

DISORDER_SAMPLES = 2000
SEED_STRIDE = 1000
PLACEMENT_CUTS = (0.4, 0.6)  # rank quantiles between the placement strata
PLACEMENT_ROUND = len(PLACEMENT_CUTS) + 1


def disorder_seed(seed: int, i: int) -> int:
    if not 0 <= i < SEED_STRIDE:
        raise ValueError(f"invocation index {i} outside 0..{SEED_STRIDE - 1}")
    return seed * SEED_STRIDE + i


def placement_strata(cost: dict[str, int]) -> list[list[int]]:
    """Panel seeds cut at PLACEMENT_CUTS of their reference cost ranking."""
    ranked = [int(k) for k in sorted(cost, key=lambda k: (cost[k], int(k)))]
    bounds = [0, *(round(q * len(ranked)) for q in PLACEMENT_CUTS), len(ranked)]
    return [ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def placement_seed(seed: int, i: int, cost: dict[str, int]) -> int:
    stratum = placement_strata(cost)[i % PLACEMENT_ROUND]
    order = random.Random(seed).sample(stratum, len(stratum))
    return order[(i // PLACEMENT_ROUND) % len(order)]


def round_size(workload: str) -> int:
    """Invocations a run makes at a time: one per placement stratum."""
    return PLACEMENT_ROUND if workload == "placement" else 1


def cli_seed(workload: str, seed: int, i: int, reference: dict):
    """CLI seed of invocation ``i`` in a run with benchmark seed ``seed``."""
    if workload == "disorder-ensemble":
        return disorder_seed(seed, i)
    if workload == "placement":
        return placement_seed(seed, i, reference["placement"]["decompose_calls"])
    return None


def cli_argv(workload: str, cli_seed: int | None) -> list[str]:
    """Exact `dipolink` argv of one invocation."""
    if workload == "chain-sweep":
        return ["chain-sweep", "--n-min", "2", "--n-max", "23",
                "--model", "dipole", "--format", "json"]
    if workload == "disorder-ensemble":
        return ["disorder", "--n", "4", "--error-fraction", "0.02",
                "--noise-model", "gaussian-gap", "--seed", str(cli_seed),
                "--samples", str(DISORDER_SAMPLES)]
    if workload == "placement":
        return ["optimize-placement", "--n", "6", "--seed", str(cli_seed)]
    raise ValueError(f"unknown workload {workload!r}")
