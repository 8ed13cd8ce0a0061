"""Default CLI output pinned byte for byte across commits.

The cases and their stdout live in ``golden/cli_outputs.json``, written
by ``golden/make_golden.py``; a change that moves digits on purpose
regenerates that file and says why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from perturbsense.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_default_output_is_byte_identical(capsys, monkeypatch, case):
    monkeypatch.chdir(GOLDEN)  # model files are named relative to it
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == case["stdout"]


def test_pinned_cases_are_the_generators():
    """The argv of every pinned case, in order, is what ``make_golden.cases()`` lists."""
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    assert [case["argv"] for case in CASES] == make_golden.cases()
