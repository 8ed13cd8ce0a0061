"""Write ``cli_outputs.json``: the default stdout of a fixed set of CLI runs.

``tests/test_golden.py`` runs every case again in process and compares
stdout byte for byte, so a change that moves a printed digit fails there.
A change that moves digits on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/golden/make_golden.py

It prints the argv of every case whose stdout differs from the file it
replaces, with the largest relative move |b - a| / max(|a|, |b|) of any
number in it, so the moved cases can be listed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

from perturbsense.cli import main

GOLDEN = Path(__file__).with_name("cli_outputs.json")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# (model arguments, --lambda values for oracle-check)
MODELS = (
    (["--model", "qubit"], ["1e-3"]),
    (["--model", "qubit2", "--alpha", "0.7"], ["1e-3", "-1e-3"]),
    (["--model", "qutrit", "--alpha", "1.2"], ["1e-3", "-1e-3"]),
    (["--model", "anharmonic", "--fock-dim", "16"], ["1e-3", "-1e-3"]),
    (["--model", "anharmonic", "--fock-dim", "128"], ["1e-3", "-1e-3"]),
    # model files, read from this directory: a dense real one, whose real
    # products round differently from complex ones, a real H0 with one
    # complex coupling, and a real H0 with three complex couplings, the one
    # case with more than one pair of couplings (Q11 .. Q33, D12, D13, D23)
    (["--model", "dense_real.json"], ["1e-3", "-1e-3"]),
    (["--model", "real_h0_complex_coupling.json"], ["1e-3", "-1e-3"]),
    (["--model", "three_complex_couplings.json"], ["1e-3", "-1e-3", "5e-4"]),
)


def commands(lambdas: list[str]) -> list[list[str]]:
    return [
        ["static"],
        ["dynamic", "--time", "1.3"],
        ["dynamic", "--time", "0"],
        ["scan", "--t-min", "0.05", "--t-max", "10", "--t-steps", "9"],
        ["scan", "--t-min", "0", "--t-max", "6.3", "--t-steps", "7"],
        ["oracle-check", "--lambda", *lambdas],
        ["oracle-check", "--lambda", *lambdas, "--time", "1.3"],
        ["oracle-check", "--lambda", *lambdas, "--time", "0"],
    ]


# The north-star size, pinned on the dynamical path only: CSV, and no
# oracle-check, whose dense d = 1024 solves would cost seconds per case.
LARGE = ["--model", "anharmonic", "--fock-dim", "1024", "--output-format", "csv"]
LARGE_COMMANDS = (
    ["dynamic", "--time", "1.3"],
    ["scan", "--t-min", "0.05", "--t-max", "10", "--t-steps", "9"],
    ["scan", "--t-min", "0", "--t-max", "6.3", "--t-steps", "7"],
)

# The shape of the benchmark's scan op: a 200-row CSV table.
TABLE = [
    "scan", "--model", "anharmonic", "--fock-dim", "128",
    "--t-min", "0.05", "--t-max", "10", "--t-steps", "200", "--output-format", "csv",
]

# A singular static report: at alpha = 0 the qutrit's two corrections are
# parallel, so Q is singular and B and R print as null (JSON) and inf, nan (CSV).
SINGULAR = ["static", "--model", "qutrit", "--alpha", "0"]


def cases() -> list[list[str]]:
    return [
        command + model + ["--output-format", fmt]
        for model, lambdas in MODELS
        for command in commands(lambdas)
        for fmt in ("csv", "json")
    ] + [command + LARGE for command in LARGE_COMMANDS] + [TABLE] + [
        SINGULAR + ["--output-format", fmt] for fmt in ("csv", "json")
    ]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of ``perturbsense ARGV``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def largest_move(old: str, new: str) -> str:
    """The largest relative move of a number from ``old`` stdout to ``new``."""
    before, after = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "text changed"
    move = max(
        (
            abs(float(b) - float(a)) / max(abs(float(a)), abs(float(b)))
            for a, b in zip(before, after)
            if a != b
        ),
        default=0.0,
    )
    return f"largest relative move {move:.1e}"


def write() -> int:
    os.chdir(GOLDEN.parent)  # where the model files are
    previous = {}
    if GOLDEN.exists():
        for record in json.loads(GOLDEN.read_text(encoding="utf-8")):
            previous[tuple(record["argv"])] = record["stdout"]
    records = []
    for argv in cases():
        code, stdout = run(argv)
        if code != 0:
            raise SystemExit(f"exit {code}: perturbsense {' '.join(argv)}")
        old = previous.get(tuple(argv))
        if old is None:
            print(f"new: {' '.join(argv)}")
        elif old != stdout:
            print(f"changed: {' '.join(argv)}  ({largest_move(old, stdout)})")
        records.append({"argv": argv, "stdout": stdout})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return len(records)


if __name__ == "__main__":
    print(f"wrote {write()} cases to {GOLDEN}")
