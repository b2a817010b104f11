"""CLI subcommand tests (in-process via main)."""

import json

import numpy as np
import pytest

from dipolink import Geometry, Topology, build_hamiltonian, decompose, uniform_chain
from dipolink import optimize
from dipolink.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
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

    @pytest.mark.parametrize("steps, undersampled", [(5000, True), (25000, False)])
    def test_fidelity_curve_flags_undersampling(self, capsys, steps, undersampled):
        # N = 10 over t = 4000 spans 3123 periods of its fastest frequency:
        # 1.60 samples per period at 5000 steps, 8.0 at 25000
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--n", "10", "--t-max", "4000",
            "--steps", str(steps), "--format", "json",
        )
        assert code == 0
        meta = json.loads(out)["metadata"]
        energies = decompose(build_hamiltonian(uniform_chain(10))).eigenvalues
        cycles = 4000.0 * (energies[-1] - energies[0]) / (2.0 * np.pi)
        assert meta["samples_per_period"] == pytest.approx((steps - 1) / cycles)
        assert meta["undersampled"] is undersampled

    def test_fidelity_curve_geometry_file(self, capsys, tmp_path):
        geo = tmp_path / "geo.json"
        geo.write_text(Geometry(Topology.CHAIN, (0.0, 1.0, 2.0)).to_json())
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--geometry-file", str(geo),
            "--t-max", "5", "--steps", "6",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 7

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

    def test_normalized_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "normalized-time", "--n-min", "2", "--n-max", "4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,tau"
        taus = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert taus[2] == pytest.approx(1.5708, abs=1e-3)


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

    def test_optimize_placement(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-placement", "--n", "4", "--restarts", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["tau"] == pytest.approx(0.512, abs=0.01)

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
    "normalized-time": ["--n-min", "2", "--n-max", "3"],
    "bound-state": ["--n-min", "10", "--n-max", "11"],
}
DOCUMENT_COMMANDS = {
    "optimize-placement": ["--n", "4", "--restarts", "0"],
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


class TestInputErrors:
    @pytest.mark.parametrize("command", ["onsite-energies", "encoded-transfer",
                                         "disorder", "fidelity-curve"])
    def test_zero_n(self, capsys, command):
        extra = ["--t-max", "1"] if command == "fidelity-curve" else []
        code, out, err = run_cli(capsys, command, "--n", "0", *extra)
        assert code == 1 and out == ""
        assert "dipolink" in err

    @pytest.mark.parametrize("flag", ["--input-site", "--output-site"])
    def test_zero_site(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "4", "--t-max", "1", flag, "0"
        )
        assert code == 1 and out == ""
        assert "site 0 outside 1..4" in err

    def test_zero_coupling_constant(self, capsys):
        code, out, err = run_cli(
            capsys, "chain-sweep", "--n-min", "2", "--n-max", "3",
            "--c-const", "0",
        )
        assert code == 1 and out == ""
        assert "coupling constant" in err

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"topology": "chain"}',
        '{"topology": "line", "positions": [0, 1, 2]}',
    ])
    def test_malformed_geometry_file(self, capsys, tmp_path, text):
        geo = tmp_path / "geo.json"
        geo.write_text(text)
        code, out, err = run_cli(
            capsys, "onsite-energies", "--geometry-file", str(geo)
        )
        assert code == 1 and out == ""
        assert "malformed geometry JSON" in err

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max(self, capsys, t_max):
        code, out, err = run_cli(
            capsys, "fidelity-curve", "--n", "3", "--t-max", t_max, "--steps", "3"
        )
        assert code == 1 and out == ""
        assert "t_max must be positive and finite" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_error_fraction(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "disorder", "--n", "4", "--error-fraction", eps,
            "--samples", "10",
        )
        assert code == 1 and out == ""
        assert "error fraction must be finite" in err

    @pytest.mark.parametrize("flags, message", [
        (["--restarts", "-3"], "restarts must be non-negative"),
        (["--min-fidelity", "nan"], "min fidelity must be finite"),
        (["--min-fidelity", "inf"], "min fidelity must be finite"),
        (["--min-fidelity", "1.5"], "at most 1"),
    ])
    def test_bad_search_config(self, capsys, monkeypatch, flags, message):
        # rejected before the search spends a single eigensolve
        monkeypatch.setattr(optimize, "decompose", None)
        code, out, err = run_cli(capsys, "optimize-placement", "--n", "4", *flags)
        assert code == 1 and out == ""
        assert message in err

    def test_empty_size_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum-sweep", "--n-min", "5", "--n-max", "4"
        )
        assert code == 1 and out == ""
