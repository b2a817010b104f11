"""One fresh benchmark process: import the CLI, run it once, report the cost.

    python3 perfbench/child.py --t0 <monotonic> --mode run|trace|setup -- <argv>
    python3 perfbench/child.py --t0 <monotonic> --mode probe

The parent passes the ``time.monotonic()`` reading taken just before it
started this process; setup time runs from there until ``dipolink.cli`` is
imported from ``./src`` and its parser is built. ``run`` then calls
``dipolink.cli.main(argv)`` with stdout captured and times it; ``trace``
does the same with every layer function wrapped (see spans.py); ``setup``
stops after setup; ``probe`` times single layer calls at fixed sizes. The
report is one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_SIZES = (4, 23, 64, 128)
PROBE_POINTS = 100_000
PROBE_BUDGET_S = 0.25  # repeat a probed call while its total stays below this
PROBE_MAX_REPS = 25


def _median_time(func) -> float:
    """Median duration of repeated calls, at least one (see PROBE_BUDGET_S)."""
    durations = []
    while not durations or (sum(durations) < PROBE_BUDGET_S
                            and len(durations) < PROBE_MAX_REPS):
        start = time.perf_counter()
        func()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def probe() -> dict:
    """Single-call layer timings at N = 4, 23, 64, 128."""
    import numpy as np
    from dipolink import lattice, spectral

    out = {}
    for n in PROBE_SIZES:
        geometry = lattice.uniform_chain(n)
        out[f"lattice.build_hamiltonian.n{n}_s"] = _median_time(
            lambda: lattice.build_hamiltonian(geometry))
        h = lattice.build_hamiltonian(geometry)
        out[f"spectral.decompose.n{n}_s"] = _median_time(
            lambda: spectral.decompose(h))
        spec = spectral.decompose(h)
        times = np.linspace(0.0, 2.0 * np.pi / spec.splitting, PROBE_POINTS)
        first, last = spectral.site_state(n, 1), spectral.site_state(n, n)
        out[f"spectral.propagator_abs_grid.n{n}_s"] = _median_time(
            lambda: spectral.propagator_abs_grid(spec, first, last, times))
    return out


def main(args: list[str]) -> int:
    t0 = float(args[args.index("--t0") + 1])
    mode = args[args.index("--mode") + 1]
    argv = args[args.index("--") + 1:] if "--" in args else []

    sys.path.insert(0, SRC)
    import dipolink.cli as cli

    cli.build_parser()
    setup_s = time.monotonic() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"dipolink imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    report: dict = {"setup_s": setup_s}
    if mode == "probe":
        report["probe"] = probe()
    elif mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        buf = io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        report.update(
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            exit_code=code,
            stdout=buf.getvalue(),
            spans=tracer.spans if tracer else None,
        )
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
