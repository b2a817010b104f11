"""CLI subcommand tests (in-process via main, or in a fresh process where a
test reads what a user's terminal would show)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dipolink import Geometry, Topology, build_hamiltonian, decompose, uniform_chain
from dipolink import disorder, optimize
from dipolink.cli import build_parser, main

from conftest import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["frobnicate", "normalized-time"])
    def test_unknown_subcommand(self, capsys, command):
        code, _, err = run_cli(capsys, command)
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "chain-sweep", "--n-min", "9", "--n-max", "3")
        assert code == 1
        assert "dipolink" in err


class TestSweeps:
    def test_chain_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain-sweep", "--n-min", "2", "--n-max", "4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "n,model,topology,f_max,t_peak,delta_lambda,tau,period,length,"
            "boundary_peak"
        )
        assert len(lines) == 4

    def test_chain_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain-sweep", "--n-min", "2", "--n-max", "3",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [2, 3]
        assert rows[0]["model"] == "dipole"

    def test_ring_sweep_nn(self, capsys):
        code, out, _ = run_cli(
            capsys, "ring-sweep", "--n-min", "3", "--n-max", "5", "--model", "nn"
        )
        assert code == 0
        assert out.startswith("n,model,topology")
        assert ",nn,ring," in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "chain-sweep", "--n-min", "2", "--n-max", "3",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,model,topology")

    @pytest.mark.parametrize("c_const", ["1e8", "1e30", "1e100"])
    def test_ring_sweep_at_a_large_coupling_constant(self, c_const):
        """The odd rings' roundoff splitting (2.1e-8 at N = 3 and C = 1e8)
        is no beat, as the degenerate floor and the 10 N window are in units
        of J = C / 2: the sweep runs in a 3 GB address space, where a floor
        and window in absolute units asked for gigabytes."""
        proc = run_fresh(
            _CLI, "ring-sweep", "--n-min", "3", "--n-max", "6", "--c-const", c_const
        )
        assert proc.returncode == 0, proc.stderr
        assert [line.split(",")[0] for line in proc.stdout.splitlines()[1:]] == [
            "3", "4", "5", "6"]


# Runs the CLI on argv[1:].
_CLI = """
import sys
from dipolink.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestCurvesAndSpectra:
    def test_fidelity_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--n", "4", "--t-max", "10",
            "--steps", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,F"
        assert len(lines) == 12
        assert lines[1].startswith("0,0.5")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("steps, undersampled", [(5000, True), (25000, False)])
    def test_fidelity_curve_flags_undersampling(self, capsys, steps, undersampled, fmt):
        # N = 10 over t = 4000 spans 3123 periods of its fastest frequency:
        # 1.60 samples per period at 5000 steps, 8.0 at 25000. An undersampled
        # curve is still written, with one warning on stderr in either format
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "10", "--t-max", "4000",
            "--steps", str(steps), "--format", fmt,
        )
        assert code == 0
        energies = decompose(build_hamiltonian(uniform_chain(10))).eigenvalues
        cycles = 4000.0 * (energies[-1] - energies[0]) / (2.0 * np.pi)
        per_period = (steps - 1) / cycles
        if undersampled:
            assert err == (f"dipolink: warning: undersampled: {per_period:.3g} samples "
                           "per period of the fastest frequency, fewer than 2\n")
        else:
            assert err == ""
        if fmt == "json":
            meta = json.loads(out)["metadata"]
            assert meta["samples_per_period"] == pytest.approx(per_period)
            assert meta["undersampled"] is undersampled
        else:
            assert len(out.strip().split("\n")) == steps + 1

    def test_fidelity_curve_geometry_file(self, capsys, tmp_path):
        geo = tmp_path / "geo.json"
        geo.write_text(Geometry(Topology.CHAIN, (0.0, 1.0, 2.0)).to_json())
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--geometry-file", str(geo),
            "--t-max", "5", "--steps", "6",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 7

    def test_fidelity_curve_ring_defaults_to_far_site(self, capsys, tmp_path):
        # a ring's site-1 transfer ends at its antipode (site 4 of 6), as in
        # ring-sweep; site 6 is one bond from site 1
        geo = tmp_path / "ring6.json"
        geo.write_text('{"topology": "ring", "positions": [0, 1, 2, 3, 4, 5]}')
        docs = {}
        for site in (None, "4", "6"):
            flag = () if site is None else ("--output-site", site)
            code, out, _ = run_cli(
                capsys, "fidelity-curve", "--geometry-file", str(geo),
                "--t-max", "20", "--steps", "41", "--format", "json", *flag,
            )
            assert code == 0
            docs[site] = json.loads(out)
        assert docs[None]["metadata"]["output"] == 4
        assert docs[None] == docs["4"]
        assert docs["6"]["metadata"]["output"] == 6
        assert docs["6"]["rows"] != docs[None]["rows"]

    def test_fidelity_curve_extreme_geometry_file(self, capsys, tmp_path):
        # the pair's 1/r^3 overflows; a flat F = 0.5 curve must not pass as
        # a result
        geo = tmp_path / "geo.json"
        geo.write_text(Geometry(Topology.CHAIN, (0.0, 1e120)).to_json())
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--geometry-file", str(geo),
            "--t-max", "5", "--steps", "6",
        )
        assert code == 1 and out == ""
        assert "1/r^3" in err

    def test_onsite_energies(self, capsys):
        code, out, _ = run_cli(capsys, "onsite-energies", "--n", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "site,energy"
        assert len(lines) == 6
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert energies[0] == energies[-1] == min(energies)

    def test_spectrum_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum-sweep", "--n-min", "2", "--n-max", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,delta_e"
        assert len(lines) == 6  # 2 levels for N=2 plus 3 for N=3


class TestModelCommands:
    def test_bound_state_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound-state", "--n-min", "14", "--n-max", "15",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["model"]["Q"] == pytest.approx(0.325, abs=0.005)
        assert len(data["rows"]) == 2
        # (pi / dl) / L^3 is the beat time, not the sweeps' tau = t_peak / L^3
        for row in data["rows"]:
            assert {"beat_tau_exact", "beat_tau_pred"} <= set(row)
            assert not [key for key in row if key.startswith("tau")]
            beat = np.pi / row["delta_lambda_exact"]
            assert row["beat_tau_exact"] == beat / (row["n"] - 1.0) ** 3

    def test_optimize_placement(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-placement", "--n", "4")
        assert code == 0
        report = json.loads(out)
        assert report["tau"] == pytest.approx(0.512, abs=0.01)

    def test_optimize_placement_has_no_restarts_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize-placement", "--n", "4", "--restarts", "5"
        )
        assert code == 1 and out == ""
        assert err.endswith("unrecognized arguments: --restarts 5\n")

    def test_optimize_placement_prints_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-placement", "--n", "4")
        assert code == 0
        assert out == json.dumps(optimize.optimize_placement(4).report, indent=2) + "\n"

    def test_encoded_transfer(self, capsys):
        code, out, _ = run_cli(
            capsys, "encoded-transfer", "--n", "8", "--width", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["encoded"]["f_max"] > data["single"]["f_max"]

    def test_disorder_with_dump(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, out, _ = run_cli(
            capsys, "disorder", "--n", "4", "--samples", "10",
            "--noise-model", "gaussian-gap", "--dump-samples", str(dump),
        )
        assert code == 0
        report = json.loads(out)
        assert report["samples"] == 10
        assert dump.read_text().startswith("sample,F_at_t_nominal,failed")

    def test_disorder_bad_error_fraction(self, capsys):
        code, _, err = run_cli(
            capsys, "disorder", "--n", "4", "--error-fraction", "0.7",
            "--samples", "5",
        )
        assert code == 1


TABLE_COMMANDS = {
    "chain-sweep": ["--n-min", "2", "--n-max", "3"],
    "ring-sweep": ["--n-min", "3", "--n-max", "4"],
    "fidelity-curve": ["--n", "3", "--t-max", "2", "--steps", "3"],
    "onsite-energies": ["--n", "3"],
    "spectrum-sweep": ["--n-min", "2", "--n-max", "3"],
    "bound-state": ["--n-min", "10", "--n-max", "11"],
}
DOCUMENT_COMMANDS = {
    "optimize-placement": ["--n", "4"],
    "encoded-transfer": ["--n", "6"],
    "disorder": ["--n", "4", "--samples", "3"],
}
SEEDED = {"optimize-placement", "disorder"}


class TestFormatContract:
    @pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
    def test_csv_header_is_json_keys(self, capsys, command):
        argv = [command, *TABLE_COMMANDS[command]]
        code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        data = json.loads(json_out)
        records = data["rows"] if isinstance(data, dict) else data
        lines = csv_out.strip().split("\n")
        assert len(lines) == len(records) + 1
        assert lines[0].split(",") == list(records[0])

    def test_reshaped_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--n", "3", "--t-max", "2", "--steps", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        # 2 steps over t = 2: 2 pi / (E_max - E_min) = 1.93 steps per period
        spec = decompose(build_hamiltonian(uniform_chain(3)))
        per_period = 2.0 * np.pi / (spec.eigenvalues[-1] - spec.eigenvalues[0])
        meta = data["metadata"]
        assert meta.pop("samples_per_period") == pytest.approx(per_period)
        assert meta == {"n": 3, "model": "dipole", "input": 1, "output": 3,
                        "undersampled": True}
        assert [r["t"] for r in data["rows"]] == [0.0, 1.0, 2.0]
        code, out, _ = run_cli(capsys, "onsite-energies", "--n", "3",
                               "--format", "json")
        assert code == 0
        assert [r["site"] for r in json.loads(out)] == [1, 2, 3]

    @pytest.mark.parametrize("command", sorted(DOCUMENT_COMMANDS))
    def test_format_rejected_on_document_commands(self, capsys, command):
        code, out, _ = run_cli(
            capsys, command, *DOCUMENT_COMMANDS[command], "--format", "json"
        )
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "command", sorted(set(TABLE_COMMANDS) | set(DOCUMENT_COMMANDS) - SEEDED)
    )
    def test_seed_rejected_where_unused(self, capsys, command):
        args = {**TABLE_COMMANDS, **DOCUMENT_COMMANDS}[command]
        code, out, _ = run_cli(capsys, command, *args, "--seed", "1")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_non_numeric_seed_rejected(self, capsys, command):
        args = DOCUMENT_COMMANDS[command]
        code, out, err = run_cli(capsys, command, *args, "--seed", "abc")
        assert code == 1 and out == ""
        assert "argument --seed: invalid int value: 'abc'" in err

    def test_seed_is_decimal(self, capsys):
        # a leading zero is not an octal prefix
        args = DOCUMENT_COMMANDS["disorder"]
        runs = [run_cli(capsys, "disorder", *args, "--seed", s) for s in ("010", "10")]
        assert runs[0][0] == 0 and runs[0] == runs[1]


class TestInputErrors:
    @pytest.mark.parametrize("command", ["onsite-energies", "encoded-transfer",
                                         "disorder", "fidelity-curve"])
    def test_zero_n(self, capsys, command):
        extra = ["--t-max", "1"] if command == "fidelity-curve" else []
        code, out, err = run_cli(capsys, command, "--n", "0", *extra)
        assert code == 1 and out == ""
        assert "dipolink" in err

    @pytest.mark.parametrize("flag, name", [
        ("--input-site", "input_site"), ("--output-site", "output_site"),
    ])
    def test_zero_site(self, capsys, flag, name):
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "4", "--t-max", "1", flag, "0"
        )
        assert code == 1 and out == ""
        assert f"need 1 <= {name} <= 4, got 0" in err

    def test_one_step(self, capsys):
        # the refusal names the flag, not fidelity_curve's n_steps
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "4", "--t-max", "1", "--steps", "1"
        )
        assert code == 1 and out == ""
        assert err == "dipolink: need 2 <= steps, got 1\n"

    def test_zero_coupling_constant(self, capsys):
        code, out, err = run_cli(
            capsys, "chain-sweep", "--n-min", "2", "--n-max", "3",
            "--c-const", "0",
        )
        assert code == 1 and out == ""
        assert "need finite 2.23e-308 <= c_const, got 0.0" in err

    @pytest.mark.parametrize("c_const", ["inf", "nan"])
    @pytest.mark.parametrize("command", [
        ["chain-sweep", "--n-min", "2", "--n-max", "3"],
        ["disorder", "--n", "4", "--samples", "10"],
    ], ids=["chain-sweep", "disorder"])
    def test_non_finite_coupling_constant(self, capsys, command, c_const):
        code, out, err = run_cli(capsys, *command, "--c-const", c_const)
        assert code == 1 and out == ""
        assert f"need finite 2.23e-308 <= c_const, got {c_const}" in err

    @pytest.mark.parametrize("positions", ["[0, 1.5, 2]", "[0, 1, 2, 3, 10]"])
    def test_ring_positions_not_site_indices(self, capsys, tmp_path, positions):
        geo = tmp_path / "geo.json"
        geo.write_text(f'{{"topology": "ring", "positions": {positions}}}')
        code, out, err = run_cli(
            capsys, "onsite-energies", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert "ring positions must be 0, 1, ..., N-1" in err

    def test_encoded_transfer_refuses_ring(self, capsys, tmp_path):
        geo = tmp_path / "ring6.json"
        geo.write_text('{"topology": "ring", "positions": [0, 1, 2, 3, 4, 5]}')
        code, out, err = run_cli(
            capsys, "encoded-transfer", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert err == "dipolink: encoded end states are defined for chains\n"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_positions(self, capsys, tmp_path, bad):
        geo = tmp_path / "geo.json"
        geo.write_text(f'{{"topology": "chain", "positions": [0, 1, {bad}]}}')
        code, out, err = run_cli(
            capsys, "onsite-energies", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        got = {"NaN": "nan", "Infinity": "inf"}[bad]
        assert err == f"dipolink: need finite position 3, got {got}\n"

    def test_positions_not_real_numbers(self, capsys, tmp_path):
        # a string of digits is a sequence of characters, not of positions
        geo = tmp_path / "geo.json"
        geo.write_text('{"topology": "chain", "positions": "0123"}')
        code, out, err = run_cli(
            capsys, "onsite-energies", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert err == "dipolink: position 1 must be a real number, got '0'\n"

    @pytest.mark.parametrize("command", [
        ["fidelity-curve", "--t-max", "1"],
        ["onsite-energies"],
        ["encoded-transfer"],
        ["disorder", "--samples", "3"],
    ], ids=lambda command: command[0])
    def test_size_and_geometry_file_exclusive(self, capsys, tmp_path, command):
        geo = tmp_path / "geo.json"
        geo.write_text('{"topology": "chain", "positions": [0, 1, 2]}')
        code, out, err = run_cli(
            capsys, *command, "--n", "7", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert err.endswith(
            "error: argument --geometry-file: not allowed with argument --n\n"
        )

    @pytest.mark.parametrize("command, n", [
        ("onsite-energies", "15"), ("encoded-transfer", "10"), ("disorder", "4"),
    ])
    def test_default_size_and_geometry_file_exclusive(
        self, capsys, tmp_path, command, n
    ):
        # argparse sees an argument whose value is its default as not given,
        # so the group refuses --n at the handler's default only while the
        # default stays out of the parser
        geo = tmp_path / "geo.json"
        geo.write_text('{"topology": "chain", "positions": [0, 1, 2]}')
        code, out, err = run_cli(capsys, command, "--n", n, "--geometry-file", str(geo))
        assert code == 1 and out == ""
        assert err.endswith(
            "error: argument --geometry-file: not allowed with argument --n\n"
        )

    def test_bound_state_nn_model(self, capsys):
        code, out, err = run_cli(capsys, "bound-state", "--model", "nn")
        assert code == 1 and out == ""
        assert "the bound-state model applies to dipole chains only" in err

    @pytest.mark.parametrize("text, message", [
        (b"{not json", "malformed geometry JSON"),
        (b'{"topology": "chain"}', "malformed geometry JSON"),
        (b'{"topology": "line", "positions": [0, 1, 2]}', "malformed geometry JSON"),
        # well-formed JSON whose position a float cannot hold
        (b'{"topology": "chain", "positions": [0, 1' + b"0" * 400 + b"]}",
         "position 2 1" + "0" * 400 + " overflows a float"),
        (b'{"topology": "chain", "positions": [0, 1\xff]}', "malformed geometry JSON"),
    ], ids=["syntax", "no-positions", "topology", "overflow", "not-utf8"])
    def test_malformed_geometry_file(self, capsys, tmp_path, text, message):
        geo = tmp_path / "geo.json"
        geo.write_bytes(text)
        code, out, err = run_cli(
            capsys, "onsite-energies", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max(self, capsys, t_max):
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "3", "--t-max", t_max, "--steps", "3"
        )
        assert code == 1 and out == ""
        assert f"need finite 0 <= t_max, got {t_max}" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_error_fraction(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "disorder", "--n", "4", "--error-fraction", eps,
            "--samples", "10",
        )
        assert code == 1 and out == ""
        assert f"need finite 0 <= error_fraction, got {eps}" in err

    @pytest.mark.parametrize("flags, message", [
        (["--min-fidelity", "nan"], "need finite min_fidelity <= 1, got nan"),
        (["--min-fidelity", "inf"], "need finite min_fidelity <= 1, got inf"),
        (["--min-fidelity", "1.5"], "need finite min_fidelity <= 1, got 1.5"),
        (["--seed", "-1"], "need 0 <= seed, got -1"),
    ])
    def test_bad_search_config(self, capsys, monkeypatch, flags, message):
        # rejected before the search spends a single eigensolve
        monkeypatch.setattr(optimize, "decompose", None)
        monkeypatch.setattr(optimize, "_eigh", None)
        code, out, err = run_cli(capsys, "optimize-placement", "--n", "4", *flags)
        assert code == 1 and out == ""
        assert message in err

    def test_negative_disorder_seed(self, capsys, monkeypatch):
        # rejected before the clean peak search or any sample's eigensolve
        monkeypatch.setattr(disorder, "end_to_end_summary", None)
        monkeypatch.setattr(disorder, "_eigh", None)
        code, out, err = run_cli(capsys, "disorder", "--n", "4", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "dipolink: need 0 <= seed, got -1\n"

    def test_fidelity_curve_needs_a_size(self, capsys):
        code, out, err = run_cli(capsys, "fidelity-curve", "--t-max", "1")
        assert code == 1 and out == ""
        assert err.endswith(
            "error: one of the arguments --n --geometry-file is required\n"
        )

    @pytest.mark.parametrize("command, fewest", [
        ("chain-sweep", 2), ("ring-sweep", 3),
        ("spectrum-sweep", 2), ("bound-state", 2),
    ])
    @pytest.mark.parametrize("offsets", [(3, 2), (-1, 0)],
                             ids=["empty", "below-fewest"])
    def test_size_range_rule(self, capsys, command, fewest, offsets):
        # every size-range command refuses a range with the one message
        n_min, n_max = (fewest + k for k in offsets)
        code, out, err = run_cli(
            capsys, command, "--n-min", str(n_min), "--n-max", str(n_max)
        )
        assert code == 1 and out == ""
        assert err == (
            f"dipolink: need {fewest} <= n_min <= n_max, got ({n_min}, {n_max})\n"
        )

    def test_empty_size_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum-sweep", "--n-min", "5", "--n-max", "4"
        )
        assert code == 1 and out == ""

    @pytest.mark.parametrize("argv, message", [
        # the search reaches gaps whose terms overflow a float
        (["optimize-placement", "--n", "4", "--c-const", "1e305"],
         "coupling constant 1e+305 with a largest 1/r^3 of"),
        # so does the first stacked build
        (["optimize-placement", "--n", "4", "--c-const", "1e307"],
         "coupling constant 1e+307 with a largest 1/r^3 of"),
    ], ids=["placement-1e305", "placement-1e307"])
    def test_huge_coupling_constant(self, argv, message):
        """Terms that overflow the Hamiltonian build end in a one-line error,
        not in numpy warnings and a traceback."""
        _assert_one_line_error(run_fresh(_CLI, *argv), message)

    @pytest.mark.parametrize("argv, message", [
        # the longer chains' default windows, their beats, pass float max / 8
        (["chain-sweep", "--c-const", "1e-303"], "need finite 0 <= t_max <= 2.25e+307"),
        (["chain-sweep", "--c-const", "1e-305"], "need finite 0 <= t_max <= 2.25e+307"),
        # a subnormal C, whose energies would lose bits
        (["optimize-placement", "--n", "4", "--c-const", "1e-310"],
         "need finite 2.23e-308 <= c_const, got 1e-310"),
    ], ids=["chain-sweep-1e-303", "chain-sweep-1e-305", "placement-1e-310"])
    def test_tiny_coupling_constant(self, argv, message):
        """Windows that a float cannot hold and subnormal coupling constants
        end in a one-line error before any scan."""
        _assert_one_line_error(run_fresh(_CLI, *argv), message)

    @pytest.mark.parametrize("warnings", ["error", "default"])
    def test_bound_state_beat_past_float_max(self, warnings):
        """pi / dl at C = 1e-307 overflows a float: one line and exit 1,
        whether or not warnings are errors, not an overflow warning and an
        infinite tau."""
        proc = run_fresh(
            _CLI, "bound-state", "--c-const", "1e-307", "--format", "json",
            warnings=warnings,
        )
        _assert_one_line_error(proc, "beat period 2 pi / 4.09e-311 overflows")

    @pytest.mark.parametrize("warnings", ["error", "default"])
    def test_fidelity_curve_phase_past_float_max(self, warnings):
        """The grid's largest phase, 1e308 (E_max - E_0), overflows a float:
        one line and exit 1, not overflow warnings and an F of NaN."""
        proc = run_fresh(
            _CLI, "fidelity-curve", "--n", "4", "--t-max", "1e308", "--steps", "3",
            "--format", "json", warnings=warnings,
        )
        _assert_one_line_error(proc, "phases up to 1e+308 x 3.87 overflow a float")

    @pytest.mark.parametrize("warnings", ["error", "default"])
    @pytest.mark.parametrize("argv, message", [
        (["--t-max", "1e-310"], "dipolink: grid step 5e-311 = t_max / 2 is below"),
        (["--t-max", "5e-324"], "dipolink: grid step 0 = t_max / 2 is below"),
        (["--c-const", "1e-300", "--t-max", "1e-10"],
         "dipolink: samples per period overflow a float"),
        (["--c-const", "1e-300", "--t-max", "1e-30"],
         "dipolink: samples per period overflow a float"),
    ], ids=["step-1e-310", "step-5e-324", "count-1e-10", "count-1e-30"])
    def test_fidelity_curve_grid_past_float_range(self, argv, message, warnings):
        """A subnormal grid step, or samples per period past float max: one
        line and exit 1, not an overflow warning and an Infinity in the JSON,
        a null that reads as a flat spectrum, or a misnamed grid error."""
        proc = run_fresh(
            _CLI, "fidelity-curve", "--n", "4", *argv, "--steps", "3",
            "--format", "json", warnings=warnings,
        )
        _assert_one_line_error(proc, message)


    @pytest.mark.parametrize("argv, message", [
        # grid times and fidelities of 8 GB, past the 3 GB cap
        (["fidelity-curve", "--n", "4", "--t-max", "10", "--steps", "1000000000"],
         "dipolink: out of memory: "),
        # a sample index past one uint32 word: refused before any allocation
        (["disorder", "--samples", "4294967297"],
         "dipolink: need 1 <= samples <= 4294967296, got 4294967297"),
    ], ids=["fidelity-curve-1e9", "disorder-2^32+1"])
    def test_oversized_run(self, argv, message):
        """An allocation past the address space, or a sample count past 2^32,
        ends in one line and exit 1, not a MemoryError traceback."""
        _assert_one_line_error(run_fresh(_CLI, *argv), message)


def _assert_one_line_error(proc, message):
    assert proc.returncode == 1 and proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


# Coupling constants whose energies' squares overflow (1e160, 1e300) or
# underflow (1e-160, 1e-300) a float.
_EXTREME_C = ["1e160", "1e300", "1e-160", "1e-300"]


class TestExtremeCouplingConstant:
    """C only sets the unit of time: at any C whose spectrum and window a
    float can hold, the CLI gives the C = 2 answer."""

    @pytest.mark.parametrize("c_const", _EXTREME_C)
    @pytest.mark.parametrize("command", ["chain-sweep", "ring-sweep"])
    def test_sweep(self, capsys, command, c_const):
        assert main([command, "--format", "json"]) == 0
        base = json.loads(capsys.readouterr().out)
        proc = run_fresh(_CLI, command, "--c-const", c_const, "--format", "json")
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows = json.loads(proc.stdout)
        assert [r["n"] for r in rows] == [b["n"] for b in base]
        for r, b in zip(rows, base):
            assert abs(r["f_max"] - b["f_max"]) <= 1e-10, r["n"]
            assert r["t_peak"] * float(c_const) / 2.0 == pytest.approx(
                b["t_peak"], rel=1e-12
            ), r["n"]
            assert r["boundary_peak"] == b["boundary_peak"], r["n"]

    @pytest.mark.parametrize("c_const", _EXTREME_C)
    def test_placement(self, capsys, c_const):
        assert main(["optimize-placement", "--n", "4"]) == 0
        base = json.loads(capsys.readouterr().out)
        proc = run_fresh(_CLI, "optimize-placement", "--n", "4", "--c-const", c_const)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        gaps = json.loads(proc.stdout)["best_gaps"]
        assert np.allclose(gaps, base["best_gaps"], rtol=0.0, atol=1e-6)


def _golden_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenInvocations:
    """tools/golden.py records these argv lists; a flag renamed in the parser
    would turn them into exit-1 records on both sides of a diff."""

    def test_every_invocation_parses(self):
        parser = build_parser()
        unparsed = []
        for argv in _golden_tool().INVOCATIONS:
            try:
                parser.parse_args(argv)
            except SystemExit:
                unparsed.append(argv)
        assert unparsed == []

    def test_record_names_are_unique(self):
        golden = _golden_tool()
        names = [golden._name(argv) for argv in golden.INVOCATIONS]
        assert len(set(names)) == len(names)
        dumps = [value for argv in golden.INVOCATIONS
                 for flag, value in zip(argv, argv[1:]) if flag == "--dump-samples"]
        # the dumps share OUTDIR with the .stdout, .stderr and .code records
        assert len(set(dumps)) == len(dumps) == 4
        assert all(d.endswith(".csv") for d in dumps)

    def test_record_name_keeps_a_value_sign(self):
        # only flags lose their dashes, so -0.1 and 0.1 name two records
        golden = _golden_tool()
        assert golden._name(["disorder", "--error-fraction", "-0.1"]) == (
            "disorder_error-fraction_-0.1")
        assert golden._name(["disorder", "--error-fraction", "0.1"]) == (
            "disorder_error-fraction_0.1")
        assert ["disorder", "--error-fraction", "-0.1"] in golden.INVOCATIONS

    def test_geometry_files_are_fixtures_next_to_the_tool(self):
        # records name a fixture, not its path, so a record's name and text
        # do not depend on the checkout's place or the working directory
        golden = _golden_tool()
        here = Path(golden.__file__).parent
        for argv in golden.INVOCATIONS:
            assert "/" not in golden._name(argv) and "\\" not in golden._name(argv)
            for flag, value in zip(argv, golden._resolve(argv, "out")[1:]):
                if flag == "--geometry-file":
                    assert Path(value).parent == here
                    Geometry.from_json(Path(value).read_bytes())


class TestGoldenCompare:
    """tools/golden.py --compare passes records that differ only in numbers
    and reports the largest difference."""

    @pytest.mark.parametrize(
        "name, after, code, shown",
        [
            ("a.stdout", "n,f\n23,0.84510572476506507\n", 0, None),
            ("a.stdout", "n,f\n23,0.84510572476510504\n", 0, "max abs 4e-14"),
            ("a.stdout", "n,f\n23,0.84510572476506507,True\n", 1, "more than numbers"),
            ("a.stdout", "n,f\n23,nan\n", 1, "more than numbers"),
            ("a.code", "1\n", 1, "more than numbers"),
            ("b.stdout", "", 1, "missing on one side"),
        ],
        ids=["identical", "numbers", "text", "nan", "exit-code", "missing"],
    )
    def test_compare(self, tmp_path, capsys, name, after, code, shown):
        before = {"a.stdout": "n,f\n23,0.84510572476506507\n", "a.code": "0\n"}
        for side, files in (("A", before), ("B", {**before, name: after})):
            (tmp_path / side).mkdir()
            for file, text in files.items():
                (tmp_path / side / file).write_text(text)
        assert _golden_tool().compare(tmp_path / "A", tmp_path / "B") == code
        out = capsys.readouterr().out
        if shown is None:
            assert out == "2 of 2 files identical\n"
        else:
            assert shown in out
