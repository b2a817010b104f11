"""dipolink benchmark: the paper's three workloads, timed end to end and traced.

    python3 perfbench/run.py --workload chain-sweep|disorder-ensemble|placement|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.
Every workload is one `dipolink` CLI invocation (workloads.py), made in a
fresh process (child.py) so that import and parser set-up are paid as a
user pays them.

--trace 0 measures the end-to-end metrics with tracing off. The run spends
about S seconds: a few set-up-only processes, then invocations (at least
three) for as long as the next round of them still fits; workloads.py
derives each invocation's CLI seed from N and sets the round size. Reported are medians over the run:

    setup_s      process start until dipolink.cli is imported and its
                 parser built (set-up-only processes and invocations)
    wall_s       duration of the dipolink.cli.main call
    cpu_s        user + system CPU of the process over that call, all threads
    peak_rss_mb  peak resident set of the process, MiB

--trace 1 makes two untraced invocations and one traced one, all with the
first CLI seed of a --trace 0 run, then a process that times single layer calls at N = 4, 23,
64, 128 (child.probe) and one `python -X importtime` import of the CLI. It
reports the per-layer metrics of spans.layer_metrics, the probe timings,
cli.import_scipy_optimize_s and trace.overhead_ratio (traced wall over the
median untraced wall_s).

Every output is checked (checks.py); error_rate is failed checks over
attempted checks. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
provenance of the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads
from provenance import provenance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("chain-sweep", "disorder-ensemble", "placement")

RUN_LIMIT_S = 140.0  # no round of invocations starts that would end after this
MIN_INVOCATIONS = 3
MAX_INVOCATIONS = 50
SETUP_PROBES = 3
TRACE_UNTRACED = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_min"):
        return "ratio"
    return "count"


class WorkloadRun:
    """Processes, checks and timings of one workload in one run."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.argv: list[list[str]] = []

    def record(self, label: str, results) -> None:
        for name, passed in results:
            self.attempted += 1
            if not passed:
                self.failed += 1
                print(f"check failed: {self.workload} {label}: {name}", file=sys.stderr)

    def spawn(self, mode: str, argv: list[str]) -> dict | None:
        """Run child.py once; its report, or None if it failed or timed out."""
        timeout = max(self.deadline - time.monotonic(), 1.0) + 25.0
        t0 = time.monotonic()
        cmd = [sys.executable, CHILD, "--t0", repr(t0), "--mode", mode, "--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{self.workload}: {mode} process timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{self.workload}: {mode} process exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def invoke(self, cli_seed, mode: str = "run") -> dict | None:
        """One checked CLI invocation; its report if the CLI exited 0."""
        argv = workloads.cli_argv(self.workload, cli_seed)
        if argv not in self.argv:
            self.argv.append(argv)
        report = self.spawn(mode, argv)
        ok = report is not None and report["exit_code"] == 0
        label = f"{mode} seed={cli_seed}"
        self.record(label, [("process exit 0", ok)])
        self.record(label, checks.run_checks(
            self.workload, report["stdout"] if ok else None, cli_seed, self.reference))
        return report if ok else None

    def cli_seed(self, i: int):
        return workloads.cli_seed(self.workload, self.seed, i, self.reference)

    def end_to_end(self, seconds: float) -> dict[str, list[float]]:
        setups = []
        for _ in range(SETUP_PROBES):
            report = self.spawn("setup", [])
            self.record("setup", [("process exit 0", report is not None)])
            if report is not None:
                setups.append(report["setup_s"])
        reports = []
        first = time.monotonic()
        for i in range(MAX_INVOCATIONS):
            report = self.invoke(self.cli_seed(i))
            if report is not None:
                reports.append(report)
            rounds = workloads.round_size(self.workload)
            if (i + 1) % rounds:
                continue
            now = time.monotonic()
            next_round = rounds * (now - first) / (i + 1)
            if now + next_round > self.deadline:
                break
            if i + 1 >= MIN_INVOCATIONS and now + next_round > self.start + seconds:
                break
        samples = {name: [r[name] for r in reports] for name in END_TO_END_UNITS}
        samples["setup_s"] += setups
        return samples

    def per_layer(self) -> dict[str, float]:
        cli_seed = self.cli_seed(0)
        untraced = [self.invoke(cli_seed) for _ in range(TRACE_UNTRACED)]
        traced = self.invoke(cli_seed, mode="trace")
        probe = self.spawn("probe", [])
        self.record("probe", [("process exit 0", probe is not None)])
        walls = [r["wall_s"] for r in untraced if r is not None]
        if traced is None or probe is None or not walls:
            return {}
        metrics = spans.layer_metrics(traced["spans"], traced["wall_s"])
        layers_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.record("trace", [
            ("traced output equals untraced output",
             all(r is not None and r["stdout"] == traced["stdout"] for r in untraced)),
            ("layer self times + untraced time = traced wall",
             abs(layers_total + metrics["trace.untraced_s"] - traced["wall_s"]) <= 1e-6),
        ])
        metrics.update(probe["probe"])
        metrics["cli.import_scipy_optimize_s"] = self.import_scipy_optimize_s()
        metrics["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(walls)
        return metrics

    def import_scipy_optimize_s(self) -> float:
        """Cumulative import time of scipy.optimize when importing the CLI."""
        code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import dipolink.cli"
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.record("importtime", [("process exit 0", proc.returncode == 0)])
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                return int(fields[1]) / 1e6
        return 0.0


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def run_workload(workload, seed, seconds, trace, reference):
    run = WorkloadRun(workload, seed, reference)
    metrics: dict[str, dict] = {}
    if trace:
        for name, value in run.per_layer().items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"{workload:18s} {name:44s} {value:>14.6g} {unit_of(name)}")
    else:
        samples = run.end_to_end(seconds)
        if not samples["wall_s"]:
            return run, {}
        for name, values in samples.items():
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            print(f"{workload:18s} {name:12s} {value:>12.6g} {END_TO_END_UNITS[name]:4s}"
                  f" ({_describe(values)})")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload:18s} {'error_rate':12s} {rate:>12.6g} "
          f"({run.failed} of {run.attempted} checks failed)")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dipolink", "cli.py")):
        print(f"no dipolink source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    reference = checks.load_reference()
    selected = WORKLOADS if args.workload == "all" else (args.workload,)

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    argvs: dict[str, list] = {}
    for workload in selected:
        run, found = run_workload(workload, args.seed, args.seconds, args.trace, reference)
        if not found:
            print(f"{workload}: no invocation completed, nothing measured", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += run.failed
        argvs[workload] = [["dipolink", *a] for a in run.argv]
        prefix = "" if len(selected) == 1 else workload + "."
        metrics.update({prefix + name: m for name, m in found.items()})

    print(json.dumps({"provenance": provenance(ROOT, args.seed, argvs)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
