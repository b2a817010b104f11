"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 domain/configuration error, 2 numeric/convergence
error. Results go to stdout or --output; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .boundstate import fit_bound_state, predict_splitting
from .disorder import CLASSICAL_THRESHOLD, DisorderConfig, NoiseModel, run_disorder
from .errors import (
    ConvergenceError,
    DipolinkError,
    DomainError,
    ExpansionInvalidError,
    NumericInputError,
)
from .lattice import (
    CouplingModel,
    CouplingSpec,
    Geometry,
    build_hamiltonian,
    uniform_chain,
)
from .optimize import SearchConfig, encoded_end_states, optimize_placement
from .spectral import decompose, fidelity_curve, site_state
from .transfer import chain_sweep, ring_sweep, summarize_transfer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _coupling(args) -> CouplingSpec:
    return CouplingSpec(CouplingModel(args.model), args.c_const)


def _geometry(args, default_n=None) -> Geometry:
    if args.geometry_file:
        with open(args.geometry_file) as fh:
            return Geometry.from_json(fh.read())
    n = default_n if args.n is None else args.n
    if n is None:
        raise DipolinkError("specify --n or --geometry-file")
    return uniform_chain(n)


def _sizes(args) -> range:
    if not args.n_min <= args.n_max:
        raise DomainError(f"need n_min <= n_max, got ({args.n_min}, {args.n_max})")
    return range(args.n_min, args.n_max + 1)


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _render(records, fmt: str, head: dict | None = None) -> str:
    """The one output format: records as CSV or JSON, a document as JSON.

    CSV is the first record's keys as the header, then one line per record.
    JSON is the record list, or ``{**head, "rows": records}`` when the
    command has a head; a document command passes one dict as ``records``.
    """
    if fmt == "csv":
        lines = [",".join(records[0])]
        lines += [",".join(_cell(v) for v in r.values()) for r in records]
        return "\n".join(lines) + "\n"
    doc = records if head is None else {**head, "rows": records}
    return json.dumps(doc, indent=2) + "\n"


def _write(path, text: str):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, records, head: dict | None = None):
    _write(args.output, _render(records, args.format, head))


def _sweep_records(rows):
    return [
        {"n": r.n, "model": r.model, "topology": r.topology, **r.summary.as_dict()}
        for r in rows
    ]


def _cmd_chain_sweep(args):
    _emit(args, _sweep_records(chain_sweep(args.n_min, args.n_max, _coupling(args))))


def _cmd_ring_sweep(args):
    _emit(args, _sweep_records(ring_sweep(args.n_min, args.n_max, _coupling(args))))


def _cmd_fidelity_curve(args):
    h = build_hamiltonian(_geometry(args), _coupling(args))
    n = h.n
    in_site = 1 if args.input_site is None else args.input_site
    out_site = n if args.output_site is None else args.output_site
    curve = fidelity_curve(
        decompose(h), site_state(n, in_site), site_state(n, out_site),
        args.t_max, args.steps,
    )
    head = {"metadata": {"n": n, "model": args.model, "input": in_site,
                         "output": out_site,
                         "samples_per_period": curve.samples_per_period,
                         "undersampled": curve.undersampled}}
    records = [{"t": t, "F": f} for t, f in zip(curve.times, curve.values)]
    _emit(args, records, head)


def _cmd_onsite_energies(args):
    h = build_hamiltonian(_geometry(args, default_n=15), _coupling(args))
    energies = h.onsite_energies()
    _emit(args, [{"site": i + 1, "energy": e} for i, e in enumerate(energies)])


def _cmd_spectrum_sweep(args):
    coupling = _coupling(args)
    records = []
    for n in _sizes(args):
        h = build_hamiltonian(uniform_chain(n), coupling)
        for m, e in enumerate(decompose(h).eigenvalues):
            records.append({"n": n, "m": m, "delta_e": e - h.ground_energy})
    _emit(args, records)


def _cmd_normalized_time(args):
    rows = chain_sweep(args.n_min, args.n_max, _coupling(args))
    _emit(args, [{"n": r.n, "tau": r.summary.tau} for r in rows])


def _cmd_bound_state(args):
    coupling = _coupling(args)
    model = fit_bound_state(args.q, args.source_n, coupling)
    records = []
    for n in _sizes(args):
        h = build_hamiltonian(uniform_chain(n), coupling)
        spec = decompose(h)
        length = h.geometry.length
        pred = predict_splitting(model, length, 1.0, coupling)
        records.append(
            {
                "n": n,
                "delta_lambda_exact": spec.splitting,
                "delta_lambda_pred": pred.delta_lambda,
                "tau_exact": (np.pi / spec.splitting) / length**3,
                "tau_pred": pred.tau,
            }
        )
    _emit(args, records, {"model": model.as_dict()})


def _cmd_optimize_placement(args):
    config = SearchConfig(
        min_fidelity=args.min_fidelity, seed=args.seed, restarts=args.restarts
    )
    _emit(args, optimize_placement(args.n, _coupling(args), config).report)


def _cmd_encoded_transfer(args):
    h = build_hamiltonian(_geometry(args, default_n=10), _coupling(args))
    n = h.n
    single = summarize_transfer(h, site_state(n, 1), site_state(n, n))
    encoded = summarize_transfer(h, *encoded_end_states(h, args.width))
    _emit(args, {"n": n, "width": args.width, "single": single.as_dict(),
                 "encoded": encoded.as_dict()})


def _cmd_disorder(args):
    config = DisorderConfig(
        error_fraction=args.error_fraction,
        samples=args.samples,
        seed=args.seed,
        noise_model=NoiseModel(args.noise_model),
    )
    report = run_disorder(_geometry(args, default_n=4), _coupling(args), config)
    if args.dump_samples:
        samples = [
            {"sample": k, "F_at_t_nominal": f, "failed": int(f < CLASSICAL_THRESHOLD)}
            for k, f in enumerate(report.sample_fidelities)
        ]
        _write(args.dump_samples, _render(samples, "csv"))
    _emit(args, report.as_dict())


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

    def geometry(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--geometry-file", default=None)

    def seed(p):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=0)

    sizes(add("chain-sweep", _cmd_chain_sweep), 2, 23)
    sizes(add("ring-sweep", _cmd_ring_sweep), 3, 30)

    p = add("fidelity-curve", _cmd_fidelity_curve)
    geometry(p)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--input-site", type=int, default=None)
    p.add_argument("--output-site", type=int, default=None)

    geometry(add("onsite-energies", _cmd_onsite_energies))
    sizes(add("spectrum-sweep", _cmd_spectrum_sweep), 2, 23)
    sizes(add("normalized-time", _cmd_normalized_time), 2, 23)

    p = add("bound-state", _cmd_bound_state)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--source-n", type=int, default=14)
    sizes(p, 10, 23)

    p = add("optimize-placement", _cmd_optimize_placement, table=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-fidelity", type=float, default=0.99)
    p.add_argument("--restarts", type=int, default=10)
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
    except DipolinkError as exc:
        print(f"dipolink: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dipolink: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
