"""Command-line front end.

Subcommands:

* ``static``       estimation report for a stationary perturbed eigenstate
* ``dynamic``      estimation report for an evolved probe at one time
* ``scan``         B(t), R(t) table over an interaction-time grid
* ``oracle-check`` engine vs exact-diagonalization relative errors

CSV tables hold one row per point.  At any number P of couplings their
columns are Q's upper triangle row by row (Q11, Q12, ..., Q22, ...), D's
strict upper triangle (D12, ...), B and R, after ``t`` for ``dynamic``
and ``scan``; ``static`` then adds N1 .. NP and, at P = 2, omega.
``oracle-check`` names its Q and D entries ``<scheme>_<column>`` in that
order (``static_Q11``, ..., ``static_D12``, ..., then ``dynamic_Q11``, ...).

Models are either presets (``qubit``, ``qubit2``, ``qutrit``,
``anharmonic``) or a JSON Hamiltonian file with fields ``dim``, ``h0``
and ``perturbations``, matrices encoded as nested arrays of [re, im]
pairs, plus an optional ``level`` (default 0).

Exit status, read off the exception's type alone: 0 on success, 2 for
any ``ValueError`` (bad flags or files, and the package errors that are
also ``ValueError``) or ``MemoryError``, 3 for the package's other,
numerical errors (degeneracy, level tracking, fatal singularities), and
1 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import models
from .dynamic_estimation import dynamic_report, scan_time
from .errors import PerturbSenseError
from .operators import HermitianOperator, StateVector
from .oracle import exact_eigenstate, exact_families, fd_qfim
from .perturbation import PerturbationProblem, first_order_correction, overlaps
from .static_estimation import static_report

__all__ = ["build_parser", "run", "main"]

PRESET_KINDS = {kind.value: kind for kind in models.ModelKind}

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# Every float prints with 17 significant digits; "%.17g" % x is f"{x:.17g}".
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _csv(table) -> str:
    """CSV lines of a (T, k) float table, formatted in one pass.

    One ``%`` operation on a T-line template formats every entry, as
    :func:`_fmt` would one at a time.
    """
    rows, k = np.shape(table)
    return (",".join([_FLOAT] * k) + "\n") * rows % tuple(np.ravel(table).tolist())


def _json(payload: dict) -> str:
    """Strict JSON (RFC 8259): a non-finite number raises instead of printing Infinity."""
    return json.dumps(payload, indent=2, allow_nan=False)


def _json_number(x: float | None) -> float | None:
    """``x``, or None (JSON null) where it is missing, infinite or nan."""
    return x if x is not None and math.isfinite(x) else None


def _pairs(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _matrix_from_pairs(obj, dim: int, what: str) -> np.ndarray:
    arr = np.array(obj, dtype=object)
    if arr.shape != (dim, dim, 2):
        raise ValueError(
            f"{what} must be a {dim}x{dim} array of [re, im] pairs, got shape {arr.shape}"
        )
    # exact types: JSON true passes isinstance(x, int), and the float
    # conversion would read true and "1" as 1.0 and null as nan
    for x in arr.flat:
        if type(x) not in (int, float):
            raise ValueError(f"{what} holds {json.dumps(x)}, which is not a number")
    try:
        arr = arr.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{what} holds an integer too large for a float") from exc
    return arr[..., 0] + 1j * arr[..., 1]


def load_hamiltonian_file(path: str) -> PerturbationProblem:
    """Parse the JSON Hamiltonian file format into a perturbation problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"model file {path} must hold a JSON object")
    for field in ("dim", "h0", "perturbations"):
        if field not in payload:
            raise ValueError(f"model file {path} lacks required field '{field}'")
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    if not isinstance(payload["perturbations"], list) or not payload["perturbations"]:
        raise ValueError("'perturbations' must be a nonempty list of matrices")
    h0 = _matrix_from_pairs(payload["h0"], dim, "h0")
    matrices = [
        _matrix_from_pairs(p, dim, f"perturbations[{i}]")
        for i, p in enumerate(payload["perturbations"])
    ]
    try:
        return PerturbationProblem(
            h0=HermitianOperator(h0),
            perturbations=tuple(HermitianOperator(m) for m in matrices),
            level=payload.get("level", 0),
        )
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc


def _resolve_problem(args) -> tuple[PerturbationProblem, str]:
    name = args.model
    if name in PRESET_KINDS:
        spec = models.ModelSpec(PRESET_KINDS[name], alpha=args.alpha, fock_dim=args.fock_dim)
        return models.build(spec), name
    if os.path.exists(name):
        return load_hamiltonian_file(name), name
    raise ValueError(
        f"unknown model '{name}': not a preset {sorted(PRESET_KINDS)} or a readable file"
    )


def _resolve_probe(args, problem: PerturbationProblem, name: str) -> StateVector:
    kind = PRESET_KINDS.get(name)
    if kind in (models.ModelKind.QUBIT_1PARAM, models.ModelKind.QUBIT_2PARAM):
        return models.qubit_probe(args.theta, args.phi)
    if kind is models.ModelKind.QUTRIT_2PARAM:
        return models.qutrit_probe()
    if kind is models.ModelKind.ANHARMONIC_2PARAM:
        return models.vacuum_state(problem.dim)
    return problem.spectral.eigenstate(problem.level)


def _parts(report) -> tuple:
    """Q, D, B and R of a report of any shape."""
    return report.qfim.entries, report.uhlmann.entries, report.bound_b, report.quantumness_r


def _report_fields(q, d, b, r) -> dict:
    return {
        "qfim": q.tolist(),
        "uhlmann": d.tolist(),
        "bound_b": _json_number(b),
        "quantumness_r": _json_number(r),
    }


@functools.cache
def _layout(p: int) -> tuple:
    """The Q and D columns of every table, Q's upper triangle row by row, then D's
    strict upper triangle: their two (row, column) index pairs and their names,
    gathered from a P x P matrix of "ij" labels by the same indices as the numbers.
    Cached per P, so the index arrays are shared: read them, never write them."""
    upper, strict = np.triu_indices(p), np.triu_indices(p, 1)
    n = np.arange(1, p + 1).astype(str)
    ij = np.char.add(n[:, None], n)
    names = np.char.add("Q", ij[upper]).tolist() + np.char.add("D", ij[strict]).tolist()
    return upper, strict, tuple(names)


def _flat_header(p: int, *extra: str) -> list[str]:
    """Names of the :func:`_flat_columns`: Q11, Q12, ..., D12, ..., then ``extra``."""
    return [*_layout(p)[2], *extra]


def _flat_columns(q, d, *extra) -> np.ndarray:
    """Q and D as laid out by :func:`_layout`, then each of ``extra``, one row per point.

    Takes one point's P x P matrices and scalars (B and R) for one row,
    or a scan's (T, P, P) and (T,) arrays for one row per grid time;
    returns shape (T, k), in the column order of :func:`_flat_header`.
    """
    p = np.shape(q)[-1]
    (iq, jq), (id_, jd), _ = _layout(p)
    q, d = np.reshape(q, (-1, p, p)), np.reshape(d, (-1, p, p))
    return np.column_stack([q[:, iq, jq], d[:, id_, jd], *map(np.ravel, extra)])


def _run_static(args) -> str:
    problem, name = _resolve_problem(args)
    corrections = [first_order_correction(problem, mu) for mu in range(problem.num_parameters)]
    report = static_report(corrections)
    anharmonic = PRESET_KINDS.get(name) is models.ModelKind.ANHARMONIC_2PARAM
    norms = [c.squared_norm for c in corrections]
    omega = overlaps(corrections).entries if all(n > 0 for n in norms) else None

    if args.output_format == "json":
        payload = {
            "command": "static",
            "model": name,
            "alpha": args.alpha,
            "fock_dim": args.fock_dim if anharmonic else None,
            "squared_norms": norms,
            "overlap": _pairs(omega) if omega is not None else None,
            **_report_fields(*_parts(report)),
        }
        return _json(payload)

    header = _flat_header(problem.num_parameters, "B", "R")
    row = [*_flat_columns(*_parts(report))[0], *norms]
    header += [f"N{mu + 1}" for mu in range(problem.num_parameters)]
    if omega is not None and problem.num_parameters == 2:
        header += ["omega_re", "omega_im"]
        row += [omega[0, 1].real, omega[0, 1].imag]
    return ",".join(header) + "\n" + _csv([row])


def _run_dynamic(args) -> str:
    if args.time < 0:
        raise ValueError("--time must be non-negative")
    problem, name = _resolve_problem(args)
    psi0 = _resolve_probe(args, problem, name)
    report = dynamic_report(problem, psi0, args.time)

    if args.output_format == "json":
        payload = {
            "command": "dynamic",
            "model": name,
            "alpha": args.alpha,
            "time": args.time,
            **_report_fields(*_parts(report)),
        }
        return _json(payload)
    header = ["t"] + _flat_header(problem.num_parameters, "B", "R")
    return ",".join(header) + "\n" + _csv([[args.time, *_flat_columns(*_parts(report))[0]]])


def _run_scan(args) -> str:
    if args.t_steps < 2:
        raise ValueError("--t-steps must be at least 2")
    if not args.t_min < args.t_max:
        raise ValueError("--t-min must be below --t-max")
    if args.t_min < 0:
        raise ValueError("--t-min must be non-negative")
    grid = np.linspace(args.t_min, args.t_max, args.t_steps)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(
            f"--t-min {args.t_min!r} and --t-max {args.t_max!r} are too close to hold "
            f"{args.t_steps} distinct times"
        )
    problem, name = _resolve_problem(args)
    psi0 = _resolve_probe(args, problem, name)
    scan = scan_time(problem, psi0, grid)

    q, d, b, r = _parts(scan.report)
    if args.output_format == "json":
        rows = zip(scan.times.tolist(), q, d, b.tolist(), r.tolist())
        payload = {
            "command": "scan",
            "model": name,
            "alpha": args.alpha,
            "static_reference": _json_number(scan.static_reference),
            "rows": [{"t": t, **_report_fields(*row)} for t, *row in rows],
        }
        return _json(payload)

    header = ",".join(["t"] + _flat_header(problem.num_parameters, "B", "R")) + "\n"
    if scan.static_reference is not None:
        header = f"# static_reference = {_fmt(scan.static_reference)}\n" + header
    return header + _csv(np.column_stack([scan.times, _flat_columns(q, d, b, r)]))


def _run_oracle_check(args) -> str:
    if args.time is not None and args.time < 0:
        raise ValueError("--time must be non-negative")
    problem, name = _resolve_problem(args)
    lam = np.asarray(args.lambdas, dtype=float)
    if lam.size != problem.num_parameters:
        raise ValueError(f"--lambda needs {problem.num_parameters} value(s) for model '{name}'")
    corrections = [first_order_correction(problem, mu) for mu in range(problem.num_parameters)]
    reports = {"static": static_report(corrections)}
    if args.time is None:
        def family(lambdas):
            return (exact_eigenstate(problem, lambdas),)
    else:
        psi0 = _resolve_probe(args, problem, name)
        reports["dynamic"] = dynamic_report(problem, psi0, args.time)
        family = exact_families(problem, psi0, args.time)
    pairs = fd_qfim(family, lam, eps=args.eps)
    # one table row per scheme, read flat: <scheme>_<column> in table order
    names = [f"{label}_{n}" for label in reports for n in _flat_header(problem.num_parameters)]
    engine = _flat_columns(
        [r.qfim.entries for r in reports.values()], [r.uhlmann.entries for r in reports.values()]
    ).ravel()
    oracle = _flat_columns([q.entries for q, _ in pairs], [d.entries for _, d in pairs]).ravel()
    scale = np.maximum(np.maximum(np.abs(engine), np.abs(oracle)), 1e-9)
    rel_error = np.abs(engine - oracle) / scale

    # summary over entries the leading-order engine resolves; relative errors
    # against its exact zeros only reflect the finite-lambda evaluation point
    significant = rel_error[np.abs(engine) > 1e-3]
    if args.output_format == "json":
        table = zip(names, engine.tolist(), oracle.tolist(), rel_error.tolist())
        payload = {
            "command": "oracle-check",
            "model": name,
            "lambda": lam.tolist(),
            "eps": args.eps,
            "time": args.time,
            "max_rel_error": float(np.max(significant, initial=0.0)),
            "checks": [
                {"name": n, "engine": e, "oracle": o, "rel_error": r} for n, e, o, r in table
            ],
        }
        return _json(payload)
    rows = _csv(np.column_stack([engine, oracle, rel_error])).splitlines()
    return "\n".join(["check,engine,oracle,rel_error", *map(",".join, zip(names, rows))]) + "\n"


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _add_model_arguments(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument(
        "--model",
        required=True,
        help=f"preset ({', '.join(PRESET_KINDS)}) or path to a JSON Hamiltonian file",
    )
    sub.add_argument("--alpha", type=_finite_float, default=None, help="mixing angle in radians")
    sub.add_argument("--fock-dim", type=int, default=16, help="Fock truncation (anharmonic)")
    sub.add_argument(
        "--output-format", choices=("csv", "json"), default=default_format
    )
    sub.add_argument("--out", default=None, help="write the artifact to FILE instead of stdout")


def _add_probe_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--theta", type=_finite_float, default=0.0, help="qubit probe polar angle")
    sub.add_argument("--phi", type=_finite_float, default=0.0, help="qubit probe azimuthal angle")


class _ArgumentParser(argparse.ArgumentParser):
    """Parser that reads every negative float literal as a value.

    argparse only recognises ``-1`` and ``-0.5`` as negative numbers, so
    ``--lambda 0 -1e-3`` would take ``-1e-3`` for an unknown flag.  No
    option of this CLI looks like a number, so widening the pattern is
    unambiguous.  ``-inf`` and ``-nan`` count as numbers too, so that the
    finiteness check, not a missing-argument error, reports them.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="perturbsense",
        description="Precision limits for estimating weak Hamiltonian couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_static = sub.add_parser("static", help="stationary-state estimation report")
    _add_model_arguments(p_static, "json")

    p_dynamic = sub.add_parser("dynamic", help="evolved-probe report at one time")
    _add_model_arguments(p_dynamic, "json")
    _add_probe_arguments(p_dynamic)
    p_dynamic.add_argument("--time", type=_finite_float, required=True, help="interaction time")

    p_scan = sub.add_parser("scan", help="B(t), R(t) table over a time grid")
    _add_model_arguments(p_scan, "csv")
    _add_probe_arguments(p_scan)
    p_scan.add_argument("--t-min", type=_finite_float, required=True)
    p_scan.add_argument("--t-max", type=_finite_float, required=True)
    p_scan.add_argument("--t-steps", type=int, required=True)

    p_oracle = sub.add_parser("oracle-check", help="engine vs exact-diagonalization errors")
    _add_model_arguments(p_oracle, "json")
    _add_probe_arguments(p_oracle)
    p_oracle.add_argument(
        "--lambda",
        dest="lambdas",
        type=_finite_float,
        nargs="+",
        required=True,
        help="coupling values for the oracle evaluation point",
    )
    p_oracle.add_argument("--eps", type=_positive_float, default=1e-4, help="finite-difference step")
    p_oracle.add_argument(
        "--time",
        type=_finite_float,
        default=None,
        help="also cross-check the dynamic scheme at this time",
    )
    return parser


_RUNNERS = {
    "static": _run_static,
    "dynamic": _run_dynamic,
    "scan": _run_scan,
    "oracle-check": _run_oracle_check,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command, writing the artifact to stdout or --out.

    Returns 2 for any ``ValueError`` or ``MemoryError``, 3 for the
    package's other errors, 1 when stdout is closed early, else 0.
    """
    try:
        text = _RUNNERS[args.command](args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PerturbSenseError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early (``| head``): point stdout at devnull so
            # the flush at interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED_PIPE
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
