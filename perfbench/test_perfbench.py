"""Tests of the benchmark itself: span arithmetic, checks, seeds, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import checks
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def span(start, end, parent, name, info=None):
    return [start, end, parent, name, info]


class TestSelfTimes:
    def test_nested_tree(self):
        tree = [
            span(0.0, 10.0, -1, "cli.main"),
            span(1.0, 4.0, 0, "transfer.chain_sweep"),
            span(2.0, 3.0, 1, "spectral.decompose"),
            span(5.0, 9.0, 0, "lattice.build_hamiltonian"),
        ]
        assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
        assert sum(spans.self_times(tree)) == 10.0

    def test_overlapping_children_counted_once(self):
        tree = [
            span(0.0, 10.0, -1, "cli.main"),
            span(1.0, 5.0, 0, "spectral.decompose"),
            span(3.0, 7.0, 0, "spectral.decompose"),
            span(9.0, 12.0, 0, "spectral.decompose"),  # clipped to the parent
        ]
        assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_layer_metrics_add_up_to_wall(self):
        grid = {"points": 1001, "n": 4, "t_max": 10.0, "bandwidth": 2.0}
        point = {"points": 1, "n": 4, "t_max": 5.0, "bandwidth": 2.0}
        tree = [
            span(0.5, 9.5, -1, "cli.main"),
            span(1.0, 8.0, 0, "transfer.find_peak", {"f_abs": 0.9}),
            span(1.5, 6.0, 1, "spectral.propagator_abs_grid", grid),
            span(6.0, 6.5, 1, "spectral.propagator_abs_grid", point),
            span(6.5, 7.0, 1, "spectral.propagator_abs_grid", point),
        ]
        m = spans.layer_metrics(tree, traced_wall=10.0)
        assert m["trace.untraced_s"] == pytest.approx(1.0)
        assert m["spectral.propagator_abs_grid.self_s"] == pytest.approx(5.5)
        assert m["transfer.find_peak.self_s"] == pytest.approx(1.5)
        assert m["cli.main.self_s"] == pytest.approx(2.0)
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert total + m["trace.untraced_s"] == pytest.approx(10.0)
        assert m["transfer.grid_points"] == 1001
        assert m["transfer.refine_evals"] == 2
        assert m["spectral.propagator_abs_grid.exps"] == (1001 + 2) * 4
        assert m["transfer.grid_oversample_min"] == pytest.approx(
            1000 * 2 * math.pi / (10.0 * 2.0))
        assert m["optimize.verify_calls"] == 0
        assert m["disorder.accept_ratio"] == 0.0


def _chain_text():
    return json.dumps(checks.load_reference()["chain-sweep"]["rows"])


def _failed(results):
    return [name for name, passed in results if not passed]


class TestChecks:
    def test_reference_chain_sweep_passes(self):
        reference = checks.load_reference()
        results = checks.run_checks("chain-sweep", _chain_text(), None, reference)
        assert len(results) == 1 + 7 * 22
        assert _failed(results) == []

    def test_corrupted_record_counted_as_failed(self):
        reference = checks.load_reference()
        rows = json.loads(_chain_text())
        rows[5]["t_peak"] *= 1.001
        results = checks.run_checks("chain-sweep", json.dumps(rows), None, reference)
        assert _failed(results) == ["n=7 t_peak", "n=7 tau"]

    def test_crashed_invocation_fails_every_check(self):
        reference = checks.load_reference()
        for workload, seed in (("chain-sweep", None), ("disorder-ensemble", 1),
                               ("placement", 1)):
            results = checks.run_checks(workload, None, seed, reference)
            assert len(results) >= 6 and not any(p for _, p in results), workload
            garbage = checks.run_checks(workload, "Traceback", seed, reference)
            assert len(garbage) == len(results)
            assert not any(p for _, p in garbage), workload

    @pytest.mark.parametrize("workload", ["disorder-ensemble", "placement"])
    def test_reference_seed_records_pass(self, workload):
        reference = checks.load_reference()
        for key, record in list(reference[workload]["by_seed"].items())[:3]:
            results = checks.run_checks(workload, json.dumps(record), int(key), reference)
            assert _failed(results) == [], key

    def test_corrupted_disorder_and_placement(self):
        reference = checks.load_reference()
        record = dict(reference["disorder-ensemble"]["by_seed"]["0"])
        record["failure_rate"] += 0.05
        failed = _failed(checks.run_checks(
            "disorder-ensemble", json.dumps(record), 0, reference))
        assert "failure_rate binomial" in failed
        record = dict(reference["placement"]["by_seed"]["0"])
        record["best_gaps"] = [0.4, 0.1, 0.04, 0.06, 0.4]
        failed = _failed(checks.run_checks("placement", json.dumps(record), 0, reference))
        assert {"gaps mirror-symmetric", "gaps >= gap_min"} <= set(failed)

    def test_independent_hamiltonian_matches_package(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from dipolink import build_hamiltonian, uniform_chain

        h = build_hamiltonian(uniform_chain(7)).matrix
        assert checks.dipole_hamiltonian(range(7)) == pytest.approx(h, rel=1e-14)


def _disorder_output(seed: int) -> str:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dipolink.cli import main

    argv = workloads.cli_argv("disorder-ensemble", workloads.disorder_seed(seed, 0))
    argv[argv.index("--samples") + 1] = "300"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


class TestSeeds:
    def test_same_seed_same_inputs_and_outputs(self):
        reference = checks.load_reference()
        for workload in ("chain-sweep", "disorder-ensemble", "placement"):
            first = [workloads.cli_seed(workload, 3, i, reference) for i in range(8)]
            again = [workloads.cli_seed(workload, 3, i, reference) for i in range(8)]
            assert first == again
        assert _disorder_output(4) == _disorder_output(4)

    def test_different_seed_changes_disorder_output(self):
        a, b = json.loads(_disorder_output(4)), json.loads(_disorder_output(5))
        assert a["seed"] != b["seed"]
        assert a["mean_f_at_nominal_time"] != b["mean_f_at_nominal_time"]

    def test_invocation_seeds(self):
        reference = checks.load_reference()
        cost = reference["placement"]["decompose_calls"]
        strata = workloads.placement_strata(cost)
        assert sorted(s for stratum in strata for s in stratum) == sorted(map(int, cost))
        assert not set(map(int, cost)) & set(reference["placement"]["infeasible_seeds"])
        assert max(cost[str(s)] for s in strata[0]) <= min(cost[str(s)] for s in strata[1])
        disorder = {workloads.disorder_seed(s, i) for s in range(5) for i in range(5)}
        assert len(disorder) == 25
        firsts = set()
        for seed in range(5):
            picked = [workloads.placement_seed(seed, i, cost) for i in range(6)]
            assert len(set(picked)) == 6
            assert [next(j for j, st in enumerate(strata) if s in st) for s in picked] \
                == [0, 1, 2, 0, 1, 2]
            firsts.add(picked[0])
        assert len(firsts) > 1


def test_traced_child_reports_spans():
    cmd = [sys.executable, CHILD, "--t0", repr(time.monotonic()), "--mode", "trace",
           "--", "chain-sweep", "--n-min", "2", "--n-max", "4", "--format", "json"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["exit_code"] == 0 and report["setup_s"] > 0
    names = {s[spans.NAME] for s in report["spans"]}
    assert {"cli.main", "transfer.chain_sweep", "lattice.build_hamiltonian",
            "spectral.decompose", "spectral.propagator_abs_grid",
            "transfer.find_peak"} <= names
    m = spans.layer_metrics(report["spans"], report["wall_s"])
    assert m["spectral.decompose.calls"] == 3
    assert m["transfer.grid_points"] > 0 and m["transfer.refine_evals"] > 0
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total + m["trace.untraced_s"] == pytest.approx(report["wall_s"], abs=1e-9)
