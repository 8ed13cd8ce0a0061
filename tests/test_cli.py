"""Tests for the command-line interface and its serialization formats."""

from __future__ import annotations

import ast
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perturbsense import cli, errors
from perturbsense.cli import main

from helpers import count_eigh, force_complex, record_gathers

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["dynamic", "--model", "anharmonic", "--time", "1e160"],
            ["scan", "--model", "anharmonic", "--t-min", "0", "--t-max", "1e307", "--t-steps", "3"],
            ["dynamic", "--model", "qubit", "--time", "1e308"],
            ["dynamic", "--model", "anharmonic", "--time", "1e306"],
        ],
        ids=["anharmonic-1e160", "anharmonic-scan-1e307", "qubit-1e308", "anharmonic-1e306"],
    )
    def test_huge_time_reports_without_warning(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out and err == ""

    OVERFLOWING = [
        (["dynamic", "--model", "anharmonic", "--time", "3e307"], "3e+307"),
        (["scan", "--model", "anharmonic", "--t-min", "0", "--t-max", "1e308", "--t-steps", "3"],
         "5e+307"),
        (["oracle-check", "--model", "anharmonic", "--lambda", "1e-3", "1e-3", "--time", "1e308"],
         "1e+308"),
    ]
    OVERFLOW_IDS = ["dynamic-3e307", "scan-1e308", "oracle-check-1e308"]

    @pytest.mark.parametrize("argv, time", OVERFLOWING, ids=OVERFLOW_IDS)
    def test_overflowing_phases_exit_2(self, capsys, argv, time):
        # |E| t leaves the float range: one typed error names the first such
        # grid time, and no RuntimeWarning comes first
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: interaction time {time} is too long: its phases E t overflow the float range\n"
        )

    @pytest.mark.parametrize("argv, time", OVERFLOWING, ids=OVERFLOW_IDS)
    def test_overflowing_phases_print_one_line(self, argv, time):
        """Outside the test run's warning filter too, stderr holds the error line alone."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "perturbsense.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: interaction time {time} is too long")
        assert result.stderr.count("\n") == 1


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
        # rows come from the arrays, and the static reference reads B off its
        # tensor without building a QfiMatrix either
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
            assert built == []


class TestTableFormat:
    """The one-pass table formatter prints each float as f"{x:.17g}" does."""

    SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
               1e-308, 1e308, 0.1, 1.0 / 3.0]

    @staticmethod
    def joined(table) -> str:
        return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table)

    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("rows", [1, 2, 200])
    def test_equals_the_per_entry_join(self, rows, k):
        rng = np.random.default_rng(1000 * rows + k)
        bits = rng.integers(0, 2**64, size=rows * k, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).copy()
        values[: len(self.SPECIAL)] = self.SPECIAL[: values.size]
        table = values.reshape(rows, k)
        assert cli._csv(table) == self.joined(table.tolist())
        # rows of Python and numpy floats mixed, as the static command holds them
        mixed = [[np.float64(x) if j % 2 else x for j, x in enumerate(row)]
                 for row in table.tolist()]
        assert cli._csv(mixed) == self.joined(table.tolist())

    def test_every_special_value_alone(self):
        for x in self.SPECIAL:
            assert cli._csv([[x]]) == f"{x:.17g}\n" == cli._fmt(x) + "\n"


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
        texts = ["{not json", "5", "null", "true", "[]"]
        # JSON booleans pass isinstance(x, int); a bool level would reach
        # numpy as a mask, and "dim": true would read as 1
        for level in (True, False, 1.0, "1"):
            self.write_qubit_file(bad, level=level)
            texts.append(bad.read_text())
        texts.append(json.dumps({"dim": True, "h0": [[[1, 0]]], "perturbations": [[[[1, 0]]]]}))
        commands = (
            ["static"], ["dynamic", "--time", "1"],
            ["scan", "--t-min", "0", "--t-max", "1", "--t-steps", "3"],
        )
        for text in texts:
            bad.write_text(text)
            for command in commands:
                code, _, err = run_cli(capsys, *command, "--model", str(bad))
                assert code == 2, (text, command)
                assert err.startswith("error:"), (text, command)

    @pytest.mark.parametrize(
        "leaf", [True, "1", None, 10**400], ids=["bool", "numeric-string", "null", "huge-int"]
    )
    def test_non_numeric_entry_is_validation_error(self, capsys, tmp_path, leaf):
        """Each leaf must be a JSON number: true, "1" and null are not read as 1, 1 and nan."""
        payload = {
            "dim": 2,
            "h0": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "perturbations": [[[[0, 0], [leaf, 0]], [[1, 0], [0, 0]]]],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "static", "--model", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: perturbations[0] holds ")

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

    def test_overflowing_spectrum_is_numerical_error(self, capsys, tmp_path):
        """max|H0| = 1.7e308: eigh returns [-inf, inf], which the eigensolver check refuses."""
        pairs = lambda m: [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]
        payload = {
            "dim": 2,
            "h0": pairs(1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]])),
            "perturbations": [pairs([[0, 1], [1, 0]])],
        }
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "static", "--model", str(huge))
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: eigensolver probe residual nan")
        assert "Traceback" not in err

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

    def test_unwritable_output_is_validation_error(self, capsys, tmp_path):
        for out_path in (tmp_path / "missing" / "result.json", tmp_path):
            code, stdout, err = run_cli(capsys, "static", "--model", "qubit", "--out", str(out_path))
            assert code == 2
            assert stdout == ""
            assert err.startswith(f"error: cannot write {out_path}: ")

    @pytest.mark.parametrize(
        "diagonal, expected, oracle_expected",
        [((1.7e308, -1.7e308), 3, 3), ((1e308, 0.9e308), 0, 2)],
        ids=["spread-overflows", "centre-overflows"],
    )
    def test_huge_finite_spectrum(self, capsys, tmp_path, diagonal, expected, oracle_expected):
        """Finite eigenvalues near the float range: a typed exit, no RuntimeWarning.

        With the centre overflowing, the levels sit 1e307 apart and a
        coupling of 1e-3 mixes them by about 1e-310, so no step moves the
        oracle's samples above rounding and oracle-check refuses its step.
        """
        pairs = lambda m: [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]
        payload = {"dim": 2, "h0": pairs(np.diag(diagonal)), "perturbations": [pairs([[0, 1], [1, 0]])]}
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(payload))
        commands = (
            ["static"], ["dynamic", "--time", "1.3"],
            ["scan", "--t-min", "0", "--t-max", "2", "--t-steps", "5"],
            ["oracle-check", "--lambda", "1e-3"],
            ["oracle-check", "--lambda", "1e-3", "--time", "1.3"],
        )
        for command in commands:
            code, out, err = run_cli(capsys, *command, "--model", str(huge))
            want = oracle_expected if command[0] == "oracle-check" else expected
            assert code == want, (command, err)
            if want == 3:
                assert err.startswith("numerical error: eigenvalue spread")
            if want == 2:
                assert err.startswith(
                    "error: finite-difference step 0.0001 is too small to move the sampled states"
                )


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

    @pytest.mark.parametrize(
        "extra",
        [
            ["1e-3", "-1e-3"],
            ["1e-3", "-1e-3", "--time", "1.3"],
            ["0", "0"],
            ["0", "0", "--time", "1.3"],
        ],
    )
    def test_eigensolve_count(self, capsys, monkeypatch, extra):
        # the engine's diagonal H0 is decomposed without LAPACK, so every eigh
        # call is the oracle's: each of the 9 eigenstate samples is one direct
        # solve at its lambda (the path walk is not needed at these weak
        # couplings), and with --time the evolved family takes its 9 samples
        # from those same solves, so it adds none.  At lambda = 0 the centre
        # sample H(0) = H0 is diagonal too and still reaches eigh: the oracle
        # never shares the engine's solve path
        calls = count_eigh(monkeypatch)
        code, _, err = run_cli(
            capsys, "oracle-check", "--model", "anharmonic", "--lambda", *extra
        )
        assert code == 0, err
        assert len(calls) == 9
        # the anharmonic H0 and every H(lambda) are real, so none takes the complex path
        assert {dtype for _, dtype in calls} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("eps", ["5e-324", "1e-19"])
    def test_step_below_the_couplings_resolution_refused(self, capsys, eps):
        # 1e-3 -/+ eps/4 both round to 1e-3, so the oracle would see a flat family
        code, out, err = run_cli(
            capsys, "oracle-check", "--model", "qubit", "--lambda", "1e-3", "--eps", eps
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: finite-difference step {float(eps)} is too small")
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "qubit", "--lambda", "0"],
            ["--model", "anharmonic", "--lambda", "0", "0"],
        ],
        ids=["qubit", "anharmonic"],
    )
    def test_step_that_moves_no_sampled_state_refused(self, capsys, argv):
        # 0 -/+ eps/4 are distinct couplings, but H(lambda) moves its
        # eigenvectors by less than rounding, so every derivative would read 0
        code, out, err = run_cli(capsys, "oracle-check", *argv, "--eps", "1e-16")
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: finite-difference step 1e-16 is too small to move the sampled states "
            "above rounding"
        )
        assert "Traceback" not in err and "Warning" not in err


class TestExitStatus:
    @pytest.mark.parametrize("name", errors.__all__)
    def test_every_package_error_maps_to_an_exit_code(self, capsys, monkeypatch, name):
        # bad input (the errors that are also ValueErrors) exits 2, the rest 3
        error = getattr(errors, name)

        def raising(args):
            raise error("boom")

        monkeypatch.setitem(cli._RUNNERS, "static", raising)
        code, out, err = run_cli(capsys, "static", "--model", "qubit")
        assert code == (2 if issubclass(error, ValueError) else 3)
        assert out == ""
        assert err.endswith("boom\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle-check", "--model", "qubit2", "--alpha", "0.5",
              "--lambda", "1e308", "1e308", "--eps", "1e305"], "matrix entries must be finite"),
            (["oracle-check", "--model", "anharmonic", "--fock-dim", "8",
              "--lambda", "1e307", "1e307", "--eps", "1e300"], "matrix entries must be finite"),
            (["scan", "--model", "qubit", "--t-min", "0", "--t-max", "1",
              "--t-steps", "99999999999999999999"], "Maximum allowed size exceeded"),
            (["static", "--model", "anharmonic", "--fock-dim", "99999999999999999999"],
             "Maximum allowed size exceeded"),
        ],
        ids=["overflow-qubit2", "overflow-anharmonic", "huge-t-steps", "huge-fock-dim"],
    )
    def test_overflow_and_unsizable_input_exit_2(self, capsys, argv, message):
        # H(lambda) overflows to inf at these couplings, and numpy refuses
        # these sizes before it allocates anything
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_any_value_or_memory_error_exits_2(self, capsys, monkeypatch, error):
        # a runner raising MemoryError stands in for a real allocation failure,
        # which no test provokes: an overcommitting host could start allocating
        def raising(args):
            raise error("boom")

        monkeypatch.setitem(cli._RUNNERS, "static", raising)
        code, out, err = run_cli(capsys, "static", "--model", "qubit")
        assert code == 2
        assert out == ""
        assert err == "error: boom\n"

    def test_package_raises_only_mapped_types(self):
        """Each ``raise`` in the package names a type that ``cli.run`` maps to an exit code."""
        allowed = {"ValueError", "argparse.ArgumentTypeError", "SystemExit", *errors.__all__}
        unmapped = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue  # a bare re-raise keeps the type already raised
                name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                if name not in allowed:
                    unmapped.append(f"{path.name}:{node.lineno} {name}")
        assert unmapped == []


def write_real_model(path, h0, couplings) -> str:
    """A JSON model file with real matrices; returns its path as a string."""
    pairs = lambda m: [[[float(x), 0.0] for x in row] for row in m]
    payload = {"dim": len(h0), "h0": pairs(h0), "perturbations": [pairs(c) for c in couplings]}
    path.write_text(json.dumps(payload))
    return str(path)


def real_couplings(rng: np.random.Generator, dim: int) -> list:
    return [0.5 * (m + m.T) for m in rng.normal(size=(2, dim, dim))]


def json_run(capsys, *argv) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRealArithmetic:
    """Real Hamiltonians are solved in real arithmetic; what that moves and what it does not."""

    PRESET_ARGS = (
        ["--model", "qubit"],
        ["--model", "qubit2", "--alpha", "0.7"],
        ["--model", "qutrit", "--alpha", "1.2"],
        ["--model", "anharmonic"],
    )
    COMMANDS = (
        ["static"],
        ["dynamic", "--time", "1.3"],
        ["scan", "--t-min", "0.05", "--t-max", "10", "--t-steps", "25"],
    )

    def test_preset_output_byte_identical_to_the_complex_solve(self, capsys, monkeypatch):
        runs = [
            command + preset + ["--output-format", fmt]
            for preset in self.PRESET_ARGS
            for command in self.COMMANDS
            for fmt in ("csv", "json")
        ]

        def outputs():
            calls = count_eigh(monkeypatch)
            texts = []
            for argv in runs:
                code, out, err = run_cli(capsys, *argv)
                assert code == 0, (argv, err)
                texts.append(out)
            return texts, {dtype for _, dtype in calls}

        real, real_dtypes = outputs()
        force_complex(monkeypatch)
        forced, forced_dtypes = outputs()
        assert real_dtypes == set()  # every preset H0 is diagonal: no LAPACK call
        assert forced_dtypes == {np.dtype(np.complex128)}
        for argv, a, b in zip(runs, real, forced):
            assert a == b, argv

    @pytest.mark.parametrize("model", ["anharmonic-16", "anharmonic-128", "file"])
    def test_oracle_check_moves_only_oracle_digits(self, capsys, monkeypatch, tmp_path, model):
        """With a diagonal H0 the engine columns keep their bits; the oracle's
        samples H(lambda) are real and dense, so its columns move at ~1e-10."""
        if model == "file":
            rng = np.random.default_rng(11)
            h0 = np.diag([0.0, 0.7, 1.9, 3.1, 4.6, 6.0])
            args = ["--model", write_real_model(tmp_path / "m.json", h0, real_couplings(rng, 6))]
        else:
            args = ["--model", "anharmonic", "--fock-dim", model.split("-")[1]]
        argv = ["oracle-check", *args, "--lambda", "1e-3", "-1e-3", "--time", "1.3"]
        real = json_run(capsys, *argv)["checks"]
        force_complex(monkeypatch)
        forced = json_run(capsys, *argv)["checks"]
        assert [c["name"] for c in real] == [c["name"] for c in forced]
        for a, b in zip(real, forced):
            assert a["engine"] == b["engine"], a["name"]
            for column in ("oracle", "rel_error"):
                assert abs(a[column] - b[column]) <= 1e-9 * abs(b[column]), (a["name"], column)

    def test_non_diagonal_h0_moves_the_engine_at_rounding_level(self, capsys, monkeypatch, tmp_path):
        """A dense real H0 is itself solved by the real solver, so the engine
        moves too, by a few ulp; the oracle by ~1e-11 of max(|value|, 1)."""
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        h0 = (q * np.arange(6.0)) @ q.T
        model = write_real_model(tmp_path / "m.json", 0.5 * (h0 + h0.T), real_couplings(rng, 6))
        argv = ["oracle-check", "--model", model, "--lambda", "1e-3", "-1e-3", "--time", "1.3"]
        real = json_run(capsys, *argv)["checks"]
        force_complex(monkeypatch)
        forced = json_run(capsys, *argv)["checks"]
        for a, b in zip(real, forced):
            for column, rtol in (("engine", 1e-13), ("oracle", 1e-9)):
                scale = max(abs(b[column]), 1.0)
                assert abs(a[column] - b[column]) <= rtol * scale, (a["name"], column)


class TestRealCouplings:
    """Real coupling columns give the presets' output the bits of complex ones."""

    SCANS = (
        ["dynamic", "--time", "1.3"],
        ["scan", "--t-min", "0.05", "--t-max", "10", "--t-steps", "25"],
        ["scan", "--t-min", "0", "--t-max", "6.3", "--t-steps", "19"],
    )

    def test_preset_output_byte_identical_to_the_complex_stack(self, capsys, monkeypatch):
        runs = [
            command + preset + ["--output-format", fmt]
            for preset in TestRealArithmetic.PRESET_ARGS
            + (["--model", "anharmonic", "--fock-dim", "128"],)
            for command in self.SCANS
            for fmt in ("csv", "json")
        ]

        gathered = record_gathers(monkeypatch)

        def outputs():
            gathered.clear()
            texts = []
            for argv in runs:
                code, out, err = run_cli(capsys, *argv)
                assert code == 0, (argv, err)
                texts.append(out)
            calls = list(gathered)
            return texts, {p.coupling_columns(mu, columns).dtype for p, mu, columns in calls}

        real, real_dtypes = outputs()
        force_complex(monkeypatch)
        forced, forced_dtypes = outputs()
        assert real_dtypes == {np.dtype(np.float64), np.dtype(np.complex128)}
        assert forced_dtypes == {np.dtype(np.complex128)}
        for argv, a, b in zip(runs, real, forced):
            assert a == b, argv

    @pytest.mark.parametrize("fock_dim", ["16", "128"])
    def test_oracle_check_engine_columns_byte_identical(self, capsys, monkeypatch, fock_dim):
        argv = ["oracle-check", "--model", "anharmonic", "--fock-dim", fock_dim,
                "--lambda", "1e-3", "-1e-3", "--time", "1.3"]
        real = json_run(capsys, *argv)["checks"]
        force_complex(monkeypatch)
        forced = json_run(capsys, *argv)["checks"]
        assert [c["name"] for c in real] == [c["name"] for c in forced]
        assert [c["engine"] for c in real] == [c["engine"] for c in forced]


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON token {name}")


class TestStrictJson:
    """Singular points print null, never the Infinity or NaN tokens RFC 8259 lacks."""

    @pytest.mark.parametrize(
        "argv, singular",
        [
            (["static", "--model", "qutrit", "--alpha", "0"], "bound_b"),
            (["dynamic", "--model", "anharmonic", "--time", "0"], "bound_b"),
            (["dynamic", "--model", "qubit", "--time", "0"], "bound_b"),
            (["scan", "--model", "qutrit", "--alpha", "0",
              "--t-min", "0", "--t-max", "3", "--t-steps", "4"], "static_reference"),
            (["scan", "--model", "anharmonic", "--t-min", "0", "--t-max", str(math.pi),
              "--t-steps", "3"], "rows"),
            (["oracle-check", "--model", "qutrit", "--alpha", "0",
              "--lambda", "1e-3", "1e-3", "--time", "0"], None),
        ],
    )
    def test_singular_output_parses_strictly(self, capsys, argv, singular):
        code, out, err = run_cli(capsys, *argv, "--output-format", "json")
        assert code == 0, err
        payload = json.loads(out, parse_constant=_refuse_constant)
        if singular == "rows":
            rows = payload["rows"]
            assert [r["bound_b"] is None for r in rows] == [True, False, True]
            assert [r["quantumness_r"] is None for r in rows] == [True, False, True]
        elif singular is not None:
            assert payload[singular] is None

    def test_csv_keeps_inf_and_nan(self, capsys):
        code, out, _ = run_cli(capsys, "static", "--model", "qutrit", "--alpha", "0",
                               "--output-format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert (values["B"], values["R"]) == ("inf", "nan")


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


def test_every_export_resolves():
    """Each name in the package's and every module's ``__all__`` exists."""
    import importlib
    import pkgutil

    import perturbsense

    modules = [perturbsense] + [
        importlib.import_module(f"perturbsense.{info.name}")
        for info in pkgutil.iter_modules(perturbsense.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


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

    def test_closed_pipe_exits_1_without_traceback(self):
        # about 2.4 MB of JSON, far more than a pipe holds, so the writer is
        # still writing when the reader closes after the first line
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "perturbsense.cli", "scan", "--model", "qubit",
             "--t-min", "0", "--t-max", "10", "--t-steps", "10000", "--output-format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert code == 1
        assert err == ""  # no BrokenPipeError traceback
