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
from .disorder import DisorderConfig, NoiseModel, run_disorder
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
    build_hamiltonian,
    ring,
    uniform_chain,
)
from .optimize import (
    SearchConfig,
    encoded_end_states,
    off_end_transfer_check,
    optimize_placement,
)
from .spectral import decompose, fidelity_curve, site_state
from .transfer import (
    PeakSearchConfig,
    chain_sweep,
    normalized_time_curve,
    ring_sweep,
    summarize_transfer,
    sweep_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _coupling(args) -> CouplingSpec:
    model = CouplingModel.DIPOLE if args.model == "dipole" else (
        CouplingModel.NEAREST_NEIGHBOUR
    )
    return CouplingSpec(model, args.c_const)


def _geometry(args, default_n=None) -> Geometry:
    if getattr(args, "geometry_file", None):
        with open(args.geometry_file) as fh:
            return Geometry.from_json(fh.read())
    n = getattr(args, "n", None) or default_n
    if n is None:
        raise DipolinkError("specify --n or --geometry-file")
    return uniform_chain(n)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_payload(rows, fmt: str) -> str:
    if fmt == "csv":
        return sweep_csv(rows)
    payload = [
        dict(model=r.model, topology=r.topology, **r.summary.as_dict())
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _cmd_chain_sweep(args):
    rows = chain_sweep(args.n_min, args.n_max, _coupling(args))
    _emit(args, _rows_payload(rows, args.format))


def _cmd_ring_sweep(args):
    rows = ring_sweep(args.n_min, args.n_max, _coupling(args))
    _emit(args, _rows_payload(rows, args.format))


def _cmd_fidelity_curve(args):
    geometry = _geometry(args)
    h = build_hamiltonian(geometry, _coupling(args))
    n = h.n
    in_site = args.input_site or 1
    out_site = args.output_site or n
    spec = decompose(h)
    curve = fidelity_curve(
        spec,
        site_state(n, in_site),
        site_state(n, out_site),
        args.t_max,
        args.steps,
        metadata={"n": n, "model": args.model, "input": in_site, "output": out_site},
    )
    if args.format == "csv":
        _emit(args, curve.to_csv())
    else:
        _emit(args, json.dumps(
            {"metadata": curve.metadata,
             "t": list(curve.times), "F": list(curve.values)}) + "\n")


def _cmd_onsite_energies(args):
    h = build_hamiltonian(_geometry(args, default_n=15), _coupling(args))
    energies = h.onsite_energies()
    if args.format == "csv":
        lines = ["site,energy"]
        lines += [f"{i + 1},{e:.17g}" for i, e in enumerate(energies)]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps({"energies": list(energies)}) + "\n")


def _cmd_spectrum_sweep(args):
    coupling = _coupling(args)
    records = []
    for n in range(args.n_min, args.n_max + 1):
        h = build_hamiltonian(uniform_chain(n), coupling)
        spec = decompose(h)
        for m, e in enumerate(spec.eigenvalues):
            records.append((n, m, e - h.ground_energy))
    if args.format == "csv":
        lines = ["n,m,delta_e"]
        lines += [f"{n},{m},{de:.17g}" for n, m, de in records]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(
            [{"n": n, "m": m, "delta_e": de} for n, m, de in records]) + "\n")


def _cmd_normalized_time(args):
    pairs = normalized_time_curve(args.n_min, args.n_max, _coupling(args))
    if args.format == "csv":
        lines = ["n,tau"]
        lines += [f"{n},{tau:.17g}" for n, tau in pairs]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps([{"n": n, "tau": t} for n, t in pairs]) + "\n")


def _cmd_bound_state(args):
    coupling = _coupling(args)
    model = fit_bound_state(args.q, args.source_n, coupling)
    records = []
    for n in range(args.n_min, args.n_max + 1):
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
    if args.format == "csv":
        lines = ["n,delta_lambda_exact,delta_lambda_pred,tau_exact,tau_pred"]
        lines += [
            f"{r['n']},{r['delta_lambda_exact']:.17g},"
            f"{r['delta_lambda_pred']:.17g},{r['tau_exact']:.17g},"
            f"{r['tau_pred']:.17g}"
            for r in records
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(
            {"model": json.loads(model.to_json()), "rows": records},
            indent=2) + "\n")


def _cmd_optimize_placement(args):
    config = SearchConfig(
        min_fidelity=args.min_fidelity, seed=args.seed, restarts=args.restarts
    )
    result = optimize_placement(args.n, _coupling(args), config)
    _emit(args, json.dumps(result.report, indent=2) + "\n")


def _cmd_encoded_transfer(args):
    h = build_hamiltonian(_geometry(args, default_n=10), _coupling(args))
    n = h.n
    single = off_end_transfer_check(h, 1, n)
    state_in, state_out = encoded_end_states(h, args.width)
    encoded = summarize_transfer(h, state_in, state_out)
    _emit(args, json.dumps(
        {
            "n": n,
            "width": args.width,
            "single": single.as_dict(),
            "encoded": encoded.as_dict(),
        }, indent=2) + "\n")


def _cmd_disorder(args):
    config = DisorderConfig(
        error_fraction=args.error_fraction,
        samples=args.samples,
        seed=args.seed,
        noise_model=NoiseModel(args.noise_model),
    )
    report = run_disorder(_geometry(args, default_n=4), _coupling(args), config)
    if args.dump_samples:
        with open(args.dump_samples, "w", newline="") as fh:
            fh.write(report.samples_csv())
    _emit(args, report.to_json() + "\n")


def _add_common(parser):
    parser.add_argument("--model", choices=["dipole", "nn"], default="dipole")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--output", default=None)
    parser.add_argument("--c-const", type=float, default=2.0)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dipolink")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = add("chain-sweep", _cmd_chain_sweep)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=23)

    p = add("ring-sweep", _cmd_ring_sweep)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=30)

    p = add("fidelity-curve", _cmd_fidelity_curve)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--geometry-file", default=None)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--input-site", type=int, default=None)
    p.add_argument("--output-site", type=int, default=None)

    p = add("onsite-energies", _cmd_onsite_energies)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--geometry-file", default=None)

    p = add("spectrum-sweep", _cmd_spectrum_sweep)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=23)

    p = add("normalized-time", _cmd_normalized_time)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=23)

    p = add("bound-state", _cmd_bound_state)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--source-n", type=int, default=14)
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=23)

    p = add("optimize-placement", _cmd_optimize_placement)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-fidelity", type=float, default=0.99)
    p.add_argument("--restarts", type=int, default=10)

    p = add("encoded-transfer", _cmd_encoded_transfer)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--geometry-file", default=None)
    p.add_argument("--width", type=int, default=2)

    p = add("disorder", _cmd_disorder)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--geometry-file", default=None)
    p.add_argument("--error-fraction", type=float, default=0.02)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument(
        "--noise-model",
        choices=[m.value for m in NoiseModel],
        default=NoiseModel.UNIFORM_PER_SITE.value,
    )
    p.add_argument("--dump-samples", default=None)

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
