"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 domain, configuration or memory error, 2 numeric or
convergence error. Results go to stdout or --output; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

from .boundstate import fit_bound_state, predict_splitting
from .disorder import (CLASSICAL_THRESHOLD, DisorderConfig, NoiseModel, _ensemble,
                       _report, run_disorder)
from .errors import (
    ConvergenceError,
    DipolinkError,
    ExpansionInvalidError,
    NumericInputError,
)
from .lattice import (
    CouplingModel,
    CouplingSpec,
    Geometry,
    Topology,
    _count,
    _sizes,
    build_hamiltonian,
    uniform_chain,
)
from .optimize import SearchConfig, encoded_end_states, optimize_placement
from .spectral import decompose, fidelity_curve, site_state
from .transfer import (
    _period,
    chain_sweep,
    end_to_end_summary,
    ring_sweep,
    summarize_transfer,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _coupling(args) -> CouplingSpec:
    return CouplingSpec(args.model, args.c_const)


def _geometry(args, default_n=None) -> Geometry:
    if args.geometry_file:
        with open(args.geometry_file, "rb") as fh:
            return Geometry.from_json(fh.read())
    return uniform_chain(default_n if args.n is None else args.n)


def _chains(args, coupling: CouplingSpec):
    """(n, h, spectrum) of each uniform chain of --n-min..--n-max spins."""
    for n in _sizes(Topology.CHAIN, args.n_min, args.n_max):
        h = build_hamiltonian(uniform_chain(n), coupling)
        yield n, h, decompose(h)


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _lines(records) -> str:
    """One CSV line per record: its values, in order."""
    return "".join(",".join(_cell(v) for v in r.values()) + "\n" for r in records)


def _render(records, fmt: str, head: dict | None = None) -> str:
    """The one output format: records as CSV or JSON, a document as JSON.

    CSV is the first record's keys as the header, then one line per record.
    JSON is the record list, or ``{**head, "rows": records}`` when the
    command has a head; a document command passes one dict as ``records``.
    """
    if fmt == "csv":
        return ",".join(records[0]) + "\n" + _lines(records)
    doc = records if head is None else {**head, "rows": records}
    return json.dumps(doc, indent=2) + "\n"


def _open(path):
    """The text file at ``path`` opened for writing, or stdout if no path."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _emit(args, records, head: dict | None = None):
    with _open(args.output) as fh:
        fh.write(_render(records, args.format, head))


def _cmd_sweep(args):
    topology = args.command.split("-")[0]
    sweep = chain_sweep if topology == "chain" else ring_sweep
    rows = sweep(args.n_min, args.n_max, _coupling(args))
    _emit(args, [{"n": s.n, "model": args.model, "topology": topology, **asdict(s)}
                 for s in rows])


def _cmd_fidelity_curve(args):
    h = build_hamiltonian(_geometry(args), _coupling(args))
    n = h.n
    out_site = h.geometry.far_site if args.output_site is None else args.output_site
    curve = fidelity_curve(
        decompose(h), site_state(n, args.input_site, "input_site"),
        site_state(n, out_site, "output_site"),
        args.t_max, _count(args.steps, "steps", 2),
    )
    head = {"metadata": {"n": n, "model": args.model, "input": args.input_site,
                         "output": out_site,
                         "samples_per_period": curve.samples_per_period,
                         "undersampled": curve.undersampled}}
    if curve.undersampled:
        print(f"dipolink: warning: undersampled: {curve.samples_per_period:.3g} "
              "samples per period of the fastest frequency, fewer than 2",
              file=sys.stderr)
    records = [{"t": t, "F": f} for t, f in zip(curve.times, curve.values)]
    _emit(args, records, head)


def _cmd_onsite_energies(args):
    h = build_hamiltonian(_geometry(args, default_n=15), _coupling(args))
    energies = h.onsite_energies()
    _emit(args, [{"site": i + 1, "energy": e} for i, e in enumerate(energies)])


def _cmd_spectrum_sweep(args):
    _emit(args, [{"n": n, "m": m, "delta_e": e - h.ground_energy}
                 for n, h, spec in _chains(args, _coupling(args))
                 for m, e in enumerate(spec.eigenvalues)])


def _cmd_bound_state(args):
    coupling = _coupling(args)
    model = fit_bound_state(args.q, args.source_n, coupling)
    records = []
    for n, h, spec in _chains(args, coupling):
        length = h.geometry.length
        dl_pred = predict_splitting(model, length, coupling)
        records.append(
            {
                "n": n,
                "delta_lambda_exact": spec.splitting,
                "delta_lambda_pred": dl_pred,
                "beat_tau_exact": _period(spec.splitting) / 2.0 / length**3,
                "beat_tau_pred": _period(dl_pred) / 2.0 / length**3,
            }
        )
    _emit(args, records, {"model": model.as_dict()})


def _cmd_optimize_placement(args):
    config = SearchConfig(min_fidelity=args.min_fidelity, seed=args.seed)
    _emit(args, optimize_placement(args.n, _coupling(args), config).report)


def _cmd_encoded_transfer(args):
    h = build_hamiltonian(_geometry(args, default_n=10), _coupling(args))
    encoded = summarize_transfer(h, *encoded_end_states(h, args.width))
    _emit(args, {"n": h.n, "width": args.width,
                 "single": asdict(end_to_end_summary(h)), "encoded": asdict(encoded)})


def _cmd_disorder(args):
    config = DisorderConfig(
        error_fraction=args.error_fraction,
        samples=args.samples,
        seed=args.seed,
        noise_model=args.noise_model,
    )
    inputs = _geometry(args, default_n=4), _coupling(args), config
    if args.dump_samples:
        clean, blocks = _ensemble(*inputs)
        with _open(args.dump_samples) as fh:
            report = _report(config, clean, _dumped(fh, blocks))
    else:
        report = run_disorder(*inputs)
    _emit(args, report.as_dict())


def _dumped(fh, blocks):
    """Each block of a disorder ensemble, once its samples are written to
    ``fh`` as CSV lines under one header."""
    start = 0
    for block in blocks:
        rows = [{"sample": k, "F_at_t_nominal": f,
                 "failed": int(f < CLASSICAL_THRESHOLD)}
                for k, f in enumerate(block[0].tolist(), start)]
        fh.write(_lines(rows) if start else _render(rows, "csv"))
        start += len(rows)
        yield block


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dipolink")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, table=True):
        """A subcommand; table commands choose CSV or JSON, the rest write JSON."""
        p = sub.add_parser(name)
        p.add_argument("--model", choices=[m.value for m in CouplingModel],
                       default=CouplingModel.DIPOLE.value)
        p.add_argument("--output", default=None)
        p.add_argument("--c-const", type=float, default=2.0)
        if table:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        else:
            p.set_defaults(format="json")
        p.set_defaults(func=func)
        return p

    def sizes(p, n_min, n_max):
        p.add_argument("--n-min", type=int, default=n_min)
        p.add_argument("--n-max", type=int, default=n_max)

    def geometry(p, required=False):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--n", type=int, default=None)
        group.add_argument("--geometry-file", default=None)

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    sizes(add("chain-sweep", _cmd_sweep), 2, 23)
    sizes(add("ring-sweep", _cmd_sweep), 3, 30)

    p = add("fidelity-curve", _cmd_fidelity_curve)
    geometry(p, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--input-site", type=int, default=1)
    p.add_argument("--output-site", type=int, default=None)

    geometry(add("onsite-energies", _cmd_onsite_energies))
    sizes(add("spectrum-sweep", _cmd_spectrum_sweep), 2, 23)

    p = add("bound-state", _cmd_bound_state)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--source-n", type=int, default=14)
    sizes(p, 10, 23)

    p = add("optimize-placement", _cmd_optimize_placement, table=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-fidelity", type=float, default=0.99)
    seed(p)

    p = add("encoded-transfer", _cmd_encoded_transfer, table=False)
    geometry(p)
    p.add_argument("--width", type=int, default=2)

    p = add("disorder", _cmd_disorder, table=False)
    geometry(p)
    p.add_argument("--error-fraction", type=float, default=0.02)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument(
        "--noise-model",
        choices=[m.value for m in NoiseModel],
        default=NoiseModel.UNIFORM_PER_SITE.value,
    )
    p.add_argument("--dump-samples", default=None)
    seed(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (NumericInputError, ConvergenceError, ExpansionInvalidError) as exc:
        print(f"dipolink: numeric error: {exc}", file=sys.stderr)
        return 2
    except (DipolinkError, OSError) as exc:
        print(f"dipolink: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"dipolink: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
