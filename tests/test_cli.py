"""Tests for the command-line interface and its serialization formats."""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perturbsense.cli import main

from helpers import count_eigh

B_STATIC_ANHARMONIC = 466.0 / 1131.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_flag_rejected(capsys, *argv, message="must be a finite number"):
    """argparse refuses the value: exit 2 with a message, not an exception."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err


class TestStaticCommand:
    def test_qutrit_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "static", "--model", "qutrit", "--alpha", "1.5707963267948966"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "static"
        assert payload["bound_b"] == pytest.approx(0.5, abs=1e-10)
        assert payload["quantumness_r"] == pytest.approx(0.0, abs=1e-10)
        assert payload["squared_norms"] == pytest.approx([1.0, 1.0])

    def test_json_roundtrip_bit_for_bit(self, capsys):
        code, out, _ = run_cli(capsys, "static", "--model", "qubit2", "--alpha", "0.9")
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
        # values parse back to the exact doubles that were serialized
        from perturbsense import models, first_order_correction, qfim_static

        problem = models.build(models.ModelSpec(models.ModelKind.QUBIT_2PARAM, alpha=0.9))
        cs = [first_order_correction(problem, mu) for mu in range(2)]
        assert payload["qfim"] == qfim_static(cs).entries.tolist()

    def test_csv_static_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "static",
            "--model",
            "anharmonic",
            "--output-format",
            "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "Q11,Q12,Q22,D12,B,R,N1,N2,omega_re,omega_im"
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["B"]) == pytest.approx(B_STATIC_ANHARMONIC, abs=1e-9)
        assert float(values["N1"]) == pytest.approx(29.0 / 24.0, abs=1e-10)

    def test_missing_alpha_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "static", "--model", "qutrit")
        assert code == 2
        assert "alpha" in err

    def test_unknown_model_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "static", "--model", "nonesuch")
        assert code == 2
        assert "unknown model" in err


class TestDynamicCommand:
    def test_qubit_zero_time_zero_qfi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dynamic", "--model", "qubit", "--theta", "0", "--time", "0",
            "--output-format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "t,Q11,B,R"
        t, q11, b, r = row.split(",")
        assert float(q11) == 0.0
        assert b == "inf"
        assert r == "nan"

    def test_qubit_peak(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dynamic", "--model", "qubit", "--theta", "0",
            "--time", str(math.pi / 2),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["qfim"][0][0] == pytest.approx(4.0, abs=1e-12)

    def test_negative_time_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "dynamic", "--model", "qubit", "--time", "-1.0"
        )
        assert code == 2
        for value in ("nan", "inf", "-inf"):
            assert_flag_rejected(capsys, "dynamic", "--model", "qubit", "--time", value)
        assert_flag_rejected(
            capsys, "dynamic", "--model", "qubit", "--time", "1", "--phi", "nan"
        )


class TestScanCommand:
    def test_anharmonic_csv_shape_and_dip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--model", "anharmonic",
            "--t-min", "0.05", "--t-max", "3.1", "--t-steps", "200",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# static_reference = ")
        reference = float(lines[0].split("=")[1])
        assert reference == pytest.approx(B_STATIC_ANHARMONIC, abs=1e-9)
        assert lines[1] == "t,Q11,Q12,Q22,D12,B,R"
        assert len(lines) == 2 + 200
        rows = [line.split(",") for line in lines[2:]]
        times = np.array([float(r[0]) for r in rows])
        bounds = np.array([float(r[5]) for r in rows])
        dipped = times[bounds < reference]
        assert dipped.size > 0
        assert dipped.min() > 0.70 and dipped.max() < 2.80

    def test_singular_time_serializes_inf(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--model", "qutrit", "--alpha", "1.0",
            "--t-min", "0", "--t-max", str(2 * math.pi), "--t-steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        first_row = lines[2].split(",")
        assert first_row[5] == "inf"   # B at t = 0

    def test_json_scan_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--model", "qubit", "--theta", "0.3",
            "--t-min", "0.1", "--t-max", "1.0", "--t-steps", "4",
            "--output-format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert json.loads(json.dumps(payload)) == payload

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "scan", "--model", "qubit",
            "--t-min", "2.0", "--t-max", "1.0", "--t-steps", "10",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys,
            "scan", "--model", "qubit",
            "--t-min", "0.0", "--t-max", "1.0", "--t-steps", "1",
        )
        assert code == 2
        for t_min, t_max in (("0", "inf"), ("nan", "1.0"), ("-inf", "1.0")):
            assert_flag_rejected(
                capsys,
                "scan", "--model", "qubit",
                "--t-min", t_min, "--t-max", t_max, "--t-steps", "3",
            )
        # np.linspace repeats points when the interval holds too few doubles
        for t_min, t_max, steps in (("0", "5e-324", "3"), ("1", "1.0000000000000002", "5")):
            code, _, err = run_cli(
                capsys,
                "scan", "--model", "qubit",
                "--t-min", t_min, "--t-max", t_max, "--t-steps", steps,
            )
            assert code == 2
            assert "too close" in err

    def test_reads_arrays_not_reports(self, capsys, monkeypatch):
        # the one QfiMatrix is the static reference's; rows come from the arrays
        from perturbsense import dynamic_estimation, static_estimation

        built = []
        post_init = static_estimation.QfiMatrix.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def no_reports(self):
            raise AssertionError("the scan command must not build per-time reports")

        monkeypatch.setattr(static_estimation.QfiMatrix, "__post_init__", counting_post_init)
        monkeypatch.setattr(dynamic_estimation.TimeScan, "reports", property(no_reports))
        for fmt in ("csv", "json"):
            built.clear()
            code, _, _ = run_cli(
                capsys,
                "scan", "--model", "anharmonic",
                "--t-min", "0.05", "--t-max", "3.1", "--t-steps", "200",
                "--output-format", fmt,
            )
            assert code == 0
            assert len(built) <= 1


class TestHamiltonianFile:
    @staticmethod
    def write_qubit_file(path, level=1):
        pairs = lambda m: [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]
        payload = {
            "dim": 2,
            "h0": pairs([[1, 0], [0, -1]]),
            "perturbations": [pairs([[0, 1], [1, 0]])],
            "level": level,
        }
        path.write_text(json.dumps(payload))

    def test_file_model_matches_preset(self, capsys, tmp_path):
        model_file = tmp_path / "qubit.json"
        self.write_qubit_file(model_file)
        code, out_file, _ = run_cli(capsys, "static", "--model", str(model_file))
        assert code == 0
        code, out_preset, _ = run_cli(capsys, "static", "--model", "qubit")
        assert code == 0
        file_payload, preset_payload = json.loads(out_file), json.loads(out_preset)
        assert file_payload["qfim"] == preset_payload["qfim"]
        assert file_payload["bound_b"] == preset_payload["bound_b"]

    def test_malformed_file_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "5", "null", "true", "[]"):
            bad.write_text(text)
            code, _, err = run_cli(capsys, "static", "--model", str(bad))
            assert code == 2, text

    def test_non_hermitian_file_rejected(self, capsys, tmp_path):
        pairs = lambda m: [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]
        payload = {
            "dim": 2,
            "h0": pairs([[0, 1], [0, 0]]),
            "perturbations": [pairs([[0, 1], [1, 0]])],
        }
        bad = tmp_path / "nonhermitian.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "static", "--model", str(bad))
        assert code == 2

    def test_degenerate_file_is_numerical_error(self, capsys, tmp_path):
        pairs = lambda m: [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]
        payload = {
            "dim": 2,
            "h0": pairs([[1, 0], [0, 1]]),
            "perturbations": [pairs([[0, 1], [1, 0]])],
        }
        degenerate = tmp_path / "degenerate.json"
        degenerate.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "static", "--model", str(degenerate))
        assert code == 3

    def test_output_file(self, capsys, tmp_path):
        model_file = tmp_path / "qubit.json"
        self.write_qubit_file(model_file)
        out_path = tmp_path / "result.json"
        code, stdout, _ = run_cli(
            capsys, "static", "--model", str(model_file), "--out", str(out_path)
        )
        assert code == 0
        assert stdout == ""
        payload = json.loads(out_path.read_text())
        assert payload["bound_b"] == pytest.approx(1.0)


class TestOracleCheckCommand:
    def test_qutrit_static_and_dynamic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle-check", "--model", "qutrit", "--alpha", "1.2",
            "--lambda", "1e-3", "1e-3", "--time", "2.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_error"] < 0.01
        names = {c["name"] for c in payload["checks"]}
        assert {"static_Q11", "static_D12", "dynamic_Q11"} <= names

    def test_lambda_arity_checked(self, capsys):
        code, _, err = run_cli(
            capsys,
            "oracle-check", "--model", "qutrit", "--alpha", "1.2",
            "--lambda", "1e-3",
        )
        assert code == 2
        for extra in (
            ["--lambda", "nan"],
            ["--lambda", "1e-3", "--eps", "nan"],
            ["--lambda", "1e-3", "--theta", "nan", "--time", "1"],
            ["--lambda", "1e-3", "--time", "inf"],
        ):
            assert_flag_rejected(capsys, "oracle-check", "--model", "qubit", *extra)
        assert_flag_rejected(
            capsys, "oracle-check", "--model", "qutrit", "--alpha", "nan",
            "--lambda", "1e-3", "1e-3",
        )
        code, _, err = run_cli(
            capsys, "oracle-check", "--model", "qubit", "--lambda", "1e-3", "--time", "-1"
        )
        assert code == 2 and "--time" in err
        for eps in ("0", "-1e-4"):
            assert_flag_rejected(
                capsys, "oracle-check", "--model", "qubit", "--lambda", "1e-3",
                "--eps", eps, message="must be a positive number",
            )

    def test_negative_exponent_lambda(self, capsys):
        code, out, err = run_cli(
            capsys,
            "oracle-check", "--model", "anharmonic", "--lambda", "0", "-1e-3",
        )
        assert code == 0, err
        assert json.loads(out)["lambda"] == [0.0, -1e-3]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle-check", "--model", "qubit", "--lambda", "1e-3",
            "--output-format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,engine,oracle,rel_error"
        assert any(line.startswith("static_Q11,") for line in lines)

    @pytest.mark.parametrize("extra, expected", [([], 10), (["--time", "1.3"], 19)])
    def test_eigensolve_count(self, capsys, monkeypatch, extra, expected):
        # one H0 solve for the engine and the oracle together; each of the 9
        # eigenstate samples is one direct solve at its lambda (the path walk
        # is not needed at these weak couplings), and each of the 9 evolved
        # samples one solve
        calls = count_eigh(monkeypatch)
        code, _, err = run_cli(
            capsys,
            "oracle-check", "--model", "anharmonic", "--lambda", "1e-3", "-1e-3", *extra,
        )
        assert code == 0, err
        assert len(calls) == expected


def readme_cli_commands():
    """The ``perturbsense`` lines of the sh block under the README's CLI heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("perturbsense ")
    ]


class TestReadmeExamples:
    def test_examples_present(self):
        assert {argv[0] for argv in readme_cli_commands()} == {
            "static", "dynamic", "scan", "oracle-check"
        }

    @pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: argv[0])
    def test_example_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "perturbsense.cli", "static", "--model", "qubit"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["bound_b"] == pytest.approx(1.0)

    def test_missing_subcommand_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "perturbsense.cli"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
