"""Regenerate perfbench/reference.json from the package source in ./src.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs the CLI invocations in this process and stores each output record
by CLI seed: the disorder invocations of benchmark seeds 0..9, and the
placement search for CLI seeds 0, 1, 2, ... until PLACEMENT_PANEL of them
succeed; those form the placement seed panel (see workloads.py), and the
number of eigensolves each of their searches makes orders the panel into
strata. The placement searches run traced, which changes no output. It also
stores the seed-independent figures the checks compare every run against:
the chain-sweep rows, the clean disorder peak, the pooled disorder failure
rate and the range of the placement optimum over the panel. It takes about
ten minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import spans
import workloads
from provenance import git_commit, library_versions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SEEDS = range(10)
DISORDER_INVOCATIONS = 10
PLACEMENT_PANEL = 40
INFEASIBLE_EXIT = 1  # InfeasibleConstraintError is a DipolinkError


def run_cli(main, argv: list[str], allowed=(0,)):
    """``(exit code, parsed stdout)``; any exit code outside ``allowed`` aborts."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code not in allowed:
        raise SystemExit(f"dipolink {' '.join(argv)} exited with {code}")
    print(*argv, "->", code, flush=True, file=sys.stderr)
    return code, json.loads(buf.getvalue()) if code == 0 else None


def disorder_records(main) -> dict:
    records = {}
    for seed in BENCH_SEEDS:
        for i in range(DISORDER_INVOCATIONS):
            cli_seed = workloads.disorder_seed(seed, i)
            _, records[str(cli_seed)] = run_cli(
                main, workloads.cli_argv("disorder-ensemble", cli_seed))
    return records


def placement_records(main) -> tuple[dict, list[int], dict]:
    """Records, infeasible seeds and eigensolve count of each panel search."""
    tracer = spans.Tracer()
    spans.install(tracer)
    records, infeasible, decompose_calls = {}, [], {}
    cli_seed = 0
    while len(records) < PLACEMENT_PANEL:
        first = len(tracer.spans)
        code, record = run_cli(main, workloads.cli_argv("placement", cli_seed),
                               allowed=(0, INFEASIBLE_EXIT))
        if code == 0:
            records[str(cli_seed)] = record
            decompose_calls[str(cli_seed)] = sum(
                1 for span in tracer.spans[first:]
                if span[spans.NAME] == "spectral.decompose")
        else:
            infeasible.append(cli_seed)
        cli_seed += 1
    return records, infeasible, decompose_calls


def only_value(records: dict, key: str) -> float:
    values = {r[key] for r in records.values()}
    if len(values) != 1:
        raise SystemExit(f"{key} differs between seeds: {sorted(values)}")
    return values.pop()


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dipolink.cli import main as cli_main

    _, rows = run_cli(cli_main, workloads.cli_argv("chain-sweep", None))

    disorder = disorder_records(cli_main)
    failures = sum(r["failures"] for r in disorder.values())
    samples = sum(r["samples"] for r in disorder.values())

    placement, infeasible, decompose_calls = placement_records(cli_main)

    reference = {
        "source": {"git_commit": git_commit(ROOT), **library_versions()},
        "chain-sweep": {"rows": rows},
        "disorder-ensemble": {
            "t_nominal": only_value(disorder, "t_nominal"),
            "clean_f_max": only_value(disorder, "clean_f_max"),
            "pooled_failures": failures,
            "pooled_samples": samples,
            "by_seed": disorder,
        },
        "placement": {
            "infeasible_seeds": infeasible,
            "decompose_calls": decompose_calls,
            "tau_min": min(r["tau"] for r in placement.values()),
            "tau_max": max(r["tau"] for r in placement.values()),
            "start_tau": only_value(placement, "start_tau"),
            "by_seed": placement,
        },
    }
    path = os.path.join(ROOT, "perfbench", "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
