"""Record the CLI's output for a fixed list of invocations, for byte-identity checks.

Usage:

    python3 tools/golden.py OUTDIR

Runs every invocation in ``INVOCATIONS`` in-process through
``dipolink.cli.main``, imported from the ``src`` directory next to this
script, and writes ``<name>.stdout``, ``<name>.stderr`` and ``<name>.code``
(the exit code) under OUTDIR. Run it in two checkouts and compare with
``diff -r OUTDIR_A OUTDIR_B``: no output means every invocation printed the
same bytes and exited with the same code.
"""

import contextlib
import io
import os
import sys
import warnings

_SWEEPS = ["chain-sweep", "ring-sweep", "normalized-time", "spectrum-sweep"]

INVOCATIONS = (
    [
        [command, "--model", model, "--format", fmt]
        for command in _SWEEPS
        for model in ("dipole", "nn")
        for fmt in ("csv", "json")
    ]
    + [
        ["bound-state", "--format", "csv"],
        ["bound-state", "--format", "json"],
        ["fidelity-curve", "--n", "10", "--t-max", "4000", "--steps", "2000"],
        ["onsite-energies"],
    ]
    + [["optimize-placement", "--n", str(n)] for n in (3, 4, 5, 7, 8)]
    + [["optimize-placement", "--n", "6", "--seed", str(s)] for s in range(43)]
    + [
        ["encoded-transfer", "--n", "10"],
        ["encoded-transfer", "--n", "12", "--width", "3"],
        ["disorder", "--noise-model", "gaussian-gap", "--samples", "2000"],
        ["disorder", "--n", "5", "--error-fraction", "0.05"],
        ["disorder", "--error-fraction", "0"],
        # the redraw path, the uniform per-gap model and a run of several
        # eigensolve blocks (163 samples each at N = 5) with redraws in them
        ["disorder", "--noise-model", "gaussian", "--error-fraction", "0.4",
         "--samples", "300", "--seed", "5"],
        ["disorder", "--noise-model", "uniform-gap", "--samples", "500", "--seed", "2"],
        ["disorder", "--n", "5", "--noise-model", "gaussian", "--error-fraction", "0.3",
         "--samples", "600", "--seed", "9"],
        # seeds of two and four uint32 words (2^32 and 2^100), which change
        # the generator seeding's entropy length; the last one redraws
        ["disorder", "--seed", "4294967296"],
        ["disorder", "--seed", "1267650600228229401496703205376"],
        ["disorder", "--seed", "1267650600228229401496703205376", "--noise-model",
         "gaussian", "--error-fraction", "0.45", "--n", "6"],
    ]
)


def _name(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv)


def main(outdir: str) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    from dipolink.cli import main as cli_main

    os.makedirs(outdir, exist_ok=True)
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        # A fresh filter context per run, so each one shows its warnings as
        # a new process would.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
        base = os.path.join(outdir, _name(argv))
        for suffix, text in ((".stdout", out.getvalue()), (".stderr", err.getvalue()),
                             (".code", f"{code}\n")):
            with open(base + suffix, "w", newline="") as fh:
                fh.write(text)
    print(f"{len(INVOCATIONS)} invocations written to {outdir}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
