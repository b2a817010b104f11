"""Record the CLI's output for a fixed list of invocations, and compare records.

Usage:

    python3 tools/golden.py OUTDIR
    python3 tools/golden.py --compare OUTDIR_A OUTDIR_B

Runs every invocation in ``INVOCATIONS`` in-process through
``dipolink.cli.main``, imported from the ``src`` directory next to this
script, and writes ``<name>.stdout``, ``<name>.stderr`` and ``<name>.code``
(the exit code) under OUTDIR. A ``--geometry-file`` value names a fixture
next to this script (``ring6.json``, ``chain5.json``); it is passed on as
that file's path, and the record name keeps the bare fixture name. A
``--dump-samples`` value names a file that is written under OUTDIR. Run it
in two checkouts and compare with ``diff -r OUTDIR_A OUTDIR_B``: no output
means every invocation printed and wrote the same bytes and exited with the
same code.

``--compare`` checks two such records for a change that may move numbers
in their last digits but nothing else. For every file whose bytes differ it
prints whether every difference is in a numeric token (the text between
the numbers, and how many there are, being the same) and the largest
absolute and relative difference of those tokens. It exits 1 if some file
differs in anything but numbers, is missing on one side, or is an exit code
(``.code``) that changed, and 0 otherwise.
"""

import contextlib
import io
import os
import re
import sys
import warnings

_HERE = os.path.dirname(os.path.abspath(__file__))
_SWEEPS = ["chain-sweep", "ring-sweep", "spectrum-sweep"]

INVOCATIONS = (
    [
        [command, "--model", model, "--format", fmt]
        for command in _SWEEPS
        for model in ("dipole", "nn")
        for fmt in ("csv", "json")
    ]
    + [
        # N = 44..52, past the paper's sweep: eigensolves and some grid
        # products here are large enough for OpenBLAS to thread when it is
        # allowed more than one thread, and print the same bytes either way
        ["chain-sweep", "--n-min", "44", "--n-max", "52", "--format", "json"],
        # C = 2 * 2^2: every row's F and flag should equal the C = 2 ring's,
        # and its t_peak be that row's divided by 4, bit for bit
        ["ring-sweep", "--c-const", "8", "--format", "json"],
        # energies whose squares underflow or overflow a float; the peak
        # search squares them in a power-of-two unit of the spread
        ["chain-sweep", "--c-const", "1e-200", "--format", "json"],
        ["ring-sweep", "--c-const", "1e-300", "--format", "json"],
        # size ranges that are empty or start below the array's fewest sites,
        # under the one range rule of the four size-range commands: each
        # refused with one line
        ["chain-sweep", "--n-min", "5", "--n-max", "3"],
        ["ring-sweep", "--n-min", "2", "--n-max", "3"],
        ["spectrum-sweep", "--n-min", "5", "--n-max", "4"],
        ["spectrum-sweep", "--n-min", "1", "--n-max", "2"],
        ["bound-state", "--n-min", "1"],
        ["bound-state", "--format", "csv"],
        ["bound-state", "--format", "json"],
        # pi / dl overflows a float: refused with one line
        ["bound-state", "--c-const", "1e-307", "--format", "json"],
        ["fidelity-curve", "--n", "10", "--t-max", "4000", "--steps", "2000"],
        # 141 blocks of 142 points, about 6.7 samples per period: both phase
        # tables of the grid kernel are factored, with partial last rows
        ["fidelity-curve", "--n", "10", "--t-max", "4000", "--steps", "20011"],
        # the grid's largest phase overflows a float: refused with one line
        ["fidelity-curve", "--n", "4", "--t-max", "1e308", "--steps", "3",
         "--format", "json"],
        # a subnormal grid step, and samples per period that overflow a
        # float as t_max (E_max - E_min) underflows to 0: each refused with
        # one line
        ["fidelity-curve", "--n", "4", "--t-max", "1e-310", "--steps", "3",
         "--format", "json"],
        ["fidelity-curve", "--n", "4", "--c-const", "1e-300", "--t-max", "1e-30",
         "--steps", "3", "--format", "json"],
        ["onsite-energies"],
        # a chain below its fewest sites: refused with one line
        ["onsite-energies", "--n", "1"],
        # counts outside their ranges, each refused with one line that names
        # the value given
        ["onsite-energies", "--n", "-3"],
        ["bound-state", "--source-n", "0"],
        ["encoded-transfer", "--width", "0"],
        ["fidelity-curve", "--n", "4", "--t-max", "1", "--steps", "1"],
        ["optimize-placement", "--n", "2"],
        ["disorder", "--samples", "0"],
        # reals outside their ranges (NaN among them), each refused with one
        # line that names the value given
        ["chain-sweep", "--c-const", "nan"],
        ["disorder", "--error-fraction", "-0.1"],
        ["optimize-placement", "--n", "4", "--min-fidelity", "1.5"],
        ["fidelity-curve", "--n", "4", "--t-max", "nan", "--steps", "3", "--format",
         "json"],
    ]
    + [["optimize-placement", "--n", str(n)] for n in (3, 4, 5, 7, 8)]
    + [["optimize-placement", "--n", "4", "--c-const", "1e300"]]
    + [["optimize-placement", "--n", "6", "--seed", str(s)] for s in range(43)]
    + [
        # a seed of two uint32 words for the perturbed starts' draws
        ["optimize-placement", "--n", "6", "--seed", "4294967296"],
        # sizes whose 11 starts run in one lockstep, each round stacking up
        # to 11 x 6 and 11 x 8 chains
        ["optimize-placement", "--n", "12"],
        ["optimize-placement", "--n", "16"],
        # 8, 8 and 9 free gaps, whose sum numpy forms pairwise from 8 on; no
        # N = 20 candidate passes, so its message names the best of them
        ["optimize-placement", "--n", "18"],
        ["optimize-placement", "--n", "19"],
        ["optimize-placement", "--n", "20"],
        # 99 gaps of 0.05 exceed the unit length: refused with one line
        ["optimize-placement", "--n", "100"],
    ]
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
        # the per-sample CSV of each noise model: 8 eigensolve blocks of 256
        # samples (gaussian-gap), redraws (gaussian), and 7 blocks of 163
        # (uniform at N = 5)
        ["disorder", "--noise-model", "gaussian-gap", "--samples", "2000",
         "--dump-samples", "gaussian-gap.csv"],
        ["disorder", "--noise-model", "gaussian", "--error-fraction", "0.4",
         "--samples", "300", "--seed", "5", "--dump-samples", "gaussian.csv"],
        ["disorder", "--noise-model", "uniform-gap", "--samples", "500", "--seed", "2",
         "--dump-samples", "uniform-gap.csv"],
        ["disorder", "--n", "5", "--error-fraction", "0.05",
         "--dump-samples", "uniform.csv"],
    ]
    + [
        # geometry files: a 6-ring, whose site-1 transfer ends at its far
        # site 4 by default, and a non-uniform 5-spin chain
        ["fidelity-curve", "--geometry-file", "ring6.json", "--t-max", "50",
         "--steps", "501", "--format", "json"],
        ["fidelity-curve", "--geometry-file", "ring6.json", "--t-max", "50",
         "--steps", "501", "--format", "json", "--output-site", "6"],
        ["fidelity-curve", "--geometry-file", "chain5.json", "--t-max", "50",
         "--steps", "501", "--format", "json"],
        ["onsite-energies", "--geometry-file", "ring6.json"],
        ["onsite-energies", "--geometry-file", "chain5.json"],
        # encoded-transfer and disorder are defined for chains: the ring is
        # refused with one line
        ["encoded-transfer", "--geometry-file", "ring6.json"],
        ["disorder", "--geometry-file", "ring6.json"],
        ["encoded-transfer", "--geometry-file", "chain5.json"],
        ["disorder", "--geometry-file", "chain5.json", "--samples", "200"],
    ]
)


def _name(argv) -> str:
    """The record name: the arguments joined by "_", flags without their dashes."""
    return "_".join(a.lstrip("-") if a.startswith("--") else a for a in argv)


def _resolve(argv, outdir: str) -> list:
    """``argv`` with each ``--geometry-file`` fixture name made its path, and
    each ``--dump-samples`` file name its path under ``outdir``."""
    where = {"--geometry-file": _HERE, "--dump-samples": outdir}
    return [os.path.join(where[flag], a) if flag in where else a
            for flag, a in zip([None, *argv], argv)]


def main(outdir: str) -> int:
    sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))
    from dipolink.cli import main as cli_main

    os.makedirs(outdir, exist_ok=True)
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        # A fresh filter context per run, so each one shows its warnings as
        # a new process would.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(_resolve(argv, outdir))
        base = os.path.join(outdir, _name(argv))
        for suffix, text in ((".stdout", out.getvalue()), (".stderr", err.getvalue()),
                             (".code", f"{code}\n")):
            with open(base + suffix, "w", newline="") as fh:
                fh.write(text)
    print(f"{len(INVOCATIONS)} invocations written to {outdir}")
    return 0


# A decimal number with optional sign and exponent; splitting on it with a
# group gives text and numbers alternately, the numbers at odd indices.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _numeric_difference(text_a: str, text_b: str):
    """(max absolute, max relative) difference of the numeric tokens of two
    texts, or None when they differ in anything but those tokens."""
    parts_a, parts_b = _NUMBER.split(text_a), _NUMBER.split(text_b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
        gap = abs(a - b)
        worst_abs = max(worst_abs, gap)
        if gap:
            worst_rel = max(worst_rel, gap / max(abs(a), abs(b)))
    return worst_abs, worst_rel


def _read(path: str) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def compare(dir_a: str, dir_b: str) -> int:
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    same, failed = 0, False
    for name in names:
        paths = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not all(os.path.isfile(p) for p in paths):
            print(f"{name}: missing on one side")
            failed = True
            continue
        text_a, text_b = map(_read, paths)
        if text_a == text_b:
            same += 1
            continue
        gaps = None if name.endswith(".code") else _numeric_difference(text_a, text_b)
        if gaps is None:
            print(f"{name}: differs in more than numbers")
            failed = True
        else:
            print(f"{name}: numbers only, max abs {gaps[0]:.3g}, max rel {gaps[1]:.3g}")
    print(f"{same} of {len(names)} files identical")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
