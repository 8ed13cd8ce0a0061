"""The benchmark's four workloads: seeded inputs, one op each, and a correctness gate.

Each workload draws the inputs of one op from a seeded generator (outside
the timed interval), runs the op against the library or the in-process
CLI, and checks the op's output against an independent reference.  The
program is always reached through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from perturbsense import (
    cli,
    dynamic_estimation,
    models,
    operators,
    perturbation,
    static_estimation,
)

STATIC_Q11 = 29.0 / 6.0
STATIC_Q22 = 39.0 / 8.0


def _deviation_share(engine, reference, rtol: float) -> float:
    """Largest deviation of ``engine`` from ``reference`` relative to max(1, |reference|)."""
    engine = np.asarray(engine, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(engine - reference))) / scale / rtol


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``perturbsense`` call; returns the exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _decimal(x: float) -> str:
    # Plain decimals only: argparse reads "-1e-3" as a flag, so --lambda
    # cannot take negative values in scientific notation.
    return f"{x:.7f}"


class Workload:
    """One seeded op, its size, and its correctness gate.

    ``check`` returns the gate's worst deviation as a share of its
    tolerance (at most 1 passes) and a list of problems (empty passes).
    """

    name = ""

    def size(self) -> str:
        raise NotImplementedError

    def make_input(self, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[float, list[str]]:
        raise NotImplementedError

    def describe(self, inp) -> dict:
        raise NotImplementedError

    def findings(self) -> dict:
        return {}


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


class StaticDense(Workload):
    """Dense H0 = U diag(E) U^dag, P seeded Hermitian couplings, a mid-spectrum level."""

    name = "static-dense"
    UNITARIES = 4
    GATE_RTOL = 1e-8

    def __init__(self, smoke: bool, rng: np.random.Generator):
        self.dim = 16 if smoke else 256
        self.params = 4
        # A few seeded unitaries, reused; E and every H_mu are fresh per op,
        # so no two ops share a matrix.
        self.unitaries = [_random_unitary(rng, self.dim) for _ in range(self.UNITARIES)]

    def size(self) -> str:
        return f"d={self.dim}, P={self.params}"

    def make_input(self, rng):
        d = self.dim
        u = self.unitaries[int(rng.integers(self.UNITARIES))]
        # gaps in [0.5, 1) keep every spacing above 0.5 * spread / d
        gaps = rng.uniform(0.5, 1.0, size=d - 1)
        energies = np.concatenate([[0.0], np.cumsum(gaps)])
        energies -= energies.mean()
        h0 = (u * energies[None, :]) @ u.conj().T
        h0 = 0.5 * (h0 + h0.conj().T)
        g = rng.normal(size=(self.params, d, d)) + 1j * rng.normal(size=(self.params, d, d))
        h_mu = 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1))))
        level = int(rng.integers(d // 4, 3 * d // 4))
        return {"u": u, "energies": energies, "h0": h0, "h_mu": h_mu, "level": level}

    def run(self, inp):
        h0 = operators.HermitianOperator(inp["h0"])
        hs = tuple(operators.HermitianOperator(h) for h in inp["h_mu"])
        problem = perturbation.PerturbationProblem(h0=h0, perturbations=hs, level=inp["level"])
        corrections = [
            perturbation.first_order_correction(problem, mu) for mu in range(self.params)
        ]
        report = static_estimation.static_report(corrections)
        omega = perturbation.overlaps(corrections)
        return report, omega

    def check(self, inp, out):
        report, omega = out
        # Sum over states from the generating U and E: no second eigensolve.
        u, e, n = inp["u"], inp["energies"], inp["level"]
        amplitudes = np.stack([u.conj().T @ (h @ u[:, n]) for h in inp["h_mu"]])
        denominators = e[n] - e
        denominators[n] = np.inf
        coeffs = amplitudes / denominators[None, :]
        gram = coeffs.conj() @ coeffs.T
        q_ref, d_ref = 4.0 * gram.real, 4.0 * gram.imag
        b_ref = float(np.sum(1.0 / np.linalg.eigvalsh(q_ref)))
        norms = np.sqrt(np.real(np.diag(gram)))
        omega_ref = gram / np.outer(norms, norms)

        scale = float(np.max(np.abs(q_ref)))
        deviations = {
            "Q": float(np.max(np.abs(report.qfim.entries - q_ref))) / scale,
            "D": float(np.max(np.abs(report.uhlmann.entries - d_ref))) / scale,
            "B": abs(report.bound_b - b_ref) / b_ref,
            "omega": float(np.max(np.abs(omega.entries - omega_ref))),
        }
        worst = max(deviations.values()) / self.GATE_RTOL
        problems = [
            f"{k} off by {v:.3e} (relative)"
            for k, v in deviations.items()
            if not v <= self.GATE_RTOL
        ]
        return worst, problems

    def describe(self, inp):
        return {"level": inp["level"], "energy_spread": float(np.ptp(inp["energies"]))}


class ScanAnharmonic(Workload):
    """In-process ``perturbsense scan`` of the anharmonic oscillator over a seeded grid."""

    name = "scan-anharmonic"
    GATE_RTOL = 1e-8
    HEADER = ["t", "Q11", "Q12", "Q22", "D12", "B", "R"]

    def __init__(self, smoke: bool, rng: np.random.Generator):
        self.fock_dim = 16 if smoke else 128
        self.t_steps = 16 if smoke else 200

    def size(self) -> str:
        return f"fock-dim={self.fock_dim}, t-steps={self.t_steps}"

    def make_input(self, rng):
        t_min = _decimal(rng.uniform(0.05, 0.5))
        t_max = _decimal(rng.uniform(6.0, 12.0))
        return [
            "scan", "--model", "anharmonic", "--fock-dim", str(self.fock_dim),
            "--t-min", t_min, "--t-max", t_max, "--t-steps", str(self.t_steps),
        ]

    def run(self, inp):
        return _run_cli(inp)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return math.inf, [f"exit code {code}"]
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if lines[0].split(",") != self.HEADER:
            return math.inf, [f"unexpected header {lines[0]!r}"]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        grid = np.linspace(float(inp[6]), float(inp[8]), self.t_steps)
        if rows.shape != (self.t_steps, len(self.HEADER)):
            return math.inf, [f"table shape {rows.shape}"]
        worst = _deviation_share(rows[:, 0], grid, 1e-12)
        problems = [] if worst <= 1.0 else ["time column differs from the requested grid"]
        for t, row in zip(grid, rows):
            q11, q22, q12 = models.reference_anharmonic_dynamic(t)
            dev = _deviation_share(row[[1, 3, 2]], [q11, q22, q12], self.GATE_RTOL)
            # B against the row's own Q: against the closed form it is
            # ill-conditioned where Q22 vanishes (t near k*pi).  Where Q is
            # numerically singular the library reports B = +inf and R = nan.
            eig = np.linalg.eigvalsh([[row[1], row[2]], [row[2], row[3]]])
            if eig[0] <= static_estimation.SINGULARITY_RTOL * eig[1]:
                if not (row[5] == math.inf and math.isnan(row[6])):
                    dev = math.inf
            else:
                b = float(np.sum(1.0 / eig))
                dev = max(dev, abs(row[5] - b) / b / self.GATE_RTOL)
            worst = max(worst, dev)
            if not dev <= 1.0:
                problems.append(f"row t={t:.6f} deviates {dev:.3g}x the tolerance")
        return worst, problems

    def describe(self, inp):
        return {"argv": inp}


class OracleCheck(Workload):
    """In-process ``perturbsense oracle-check`` of the anharmonic oscillator at seeded couplings."""

    name = "oracle-check"
    ENGINE_RTOL = 1e-8

    def __init__(self, smoke: bool, rng: np.random.Generator):
        self.fock_dim = 16 if smoke else 128
        # finding: the worst oracle deviation over this run, as a share of
        # the t-scaled gate bound and of the unscaled test-suite bound
        self.worst_scaled = 0.0
        self.worst_unscaled = 0.0

    def size(self) -> str:
        return f"fock-dim={self.fock_dim}, P=2, static and dynamic"

    def make_input(self, rng):
        signs = rng.choice([-1.0, 1.0], size=2)
        lambdas = [_decimal(s * rng.uniform(1e-4, 1e-3)) for s in signs]
        t = _decimal(rng.uniform(0.5, 2.5))
        return [
            "oracle-check", "--model", "anharmonic", "--fock-dim", str(self.fock_dim),
            "--lambda", *lambdas, "--time", t,
        ]

    def run(self, inp):
        return _run_cli(inp)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return math.inf, [f"exit code {code}"]
        payload = json.loads(text)
        lam = np.array([float(inp[6]), float(inp[7])])
        t = float(inp[9])
        q11, q22, q12 = models.reference_anharmonic_dynamic(t)
        closed = {
            "static_Q11": STATIC_Q11, "static_Q12": 0.0, "static_Q22": STATIC_Q22,
            "static_D12": 0.0,
            "dynamic_Q11": q11, "dynamic_Q12": q12, "dynamic_Q22": q22,
            "dynamic_D12": 0.0,
        }
        checks = {c["name"]: c for c in payload["checks"]}
        if sorted(checks) != sorted(closed):
            return math.inf, [f"unexpected check names {sorted(checks)}"]
        worst, problems = 0.0, []
        for name, reference in closed.items():
            engine, oracle = checks[name]["engine"], checks[name]["oracle"]
            dev = _deviation_share(engine, reference, self.ENGINE_RTOL)
            worst = max(worst, dev)
            if not dev <= 1.0:
                problems.append(f"engine {name}={engine!r}, closed form {reference!r}")
            if abs(engine) <= 1e-3:
                continue  # the leading-order engine's exact zeros
            rel = abs(oracle - engine) / abs(engine)
            t_row = t if name.startswith("dynamic") else 1.0
            bound = max(0.01, 50.0 * float(np.max(np.abs(lam))) * max(1.0, t_row))
            self.worst_scaled = max(self.worst_scaled, rel / bound)
            self.worst_unscaled = max(
                self.worst_unscaled, rel / max(0.01, 50.0 * float(np.linalg.norm(lam)))
            )
            if not rel <= bound:
                problems.append(f"oracle {name} off the engine by {rel:.3e} > {bound:.3e}")
        return worst, problems

    def describe(self, inp):
        return {"argv": inp}

    def findings(self) -> dict:
        return {
            "oracle_worst_share_of_t_scaled_bound": self.worst_scaled,
            "oracle_worst_share_of_unscaled_bound": self.worst_unscaled,
        }


class PresetsSweep(Workload):
    """Qutrit preset at a seeded angle: static report, overlaps and a 64-point time scan."""

    name = "presets-sweep"
    GATE_RTOL = 1e-10

    def __init__(self, smoke: bool, rng: np.random.Generator):
        self.points = 8 if smoke else 64

    def size(self) -> str:
        return f"d=3, P=2, {self.points} scan points"

    def make_input(self, rng):
        alpha = rng.uniform(0.2, math.pi - 0.2)
        times = np.linspace(rng.uniform(0.05, 0.5), rng.uniform(4.0, 6.0), self.points)
        return {"alpha": alpha, "times": times}

    def run(self, inp):
        spec = models.ModelSpec(models.ModelKind.QUTRIT_2PARAM, alpha=inp["alpha"])
        problem = models.build(spec)
        corrections = [perturbation.first_order_correction(problem, mu) for mu in range(2)]
        report = static_estimation.static_report(corrections)
        omega = perturbation.overlaps(corrections)
        scan = dynamic_estimation.scan_time(problem, models.qutrit_probe(), inp["times"])
        return report, omega, scan

    def check(self, inp, out):
        report, _, scan = out
        alpha = inp["alpha"]
        q, b, r = models.reference_qutrit_static(alpha)
        devs = {
            "static Q": _deviation_share(report.qfim.entries, q, self.GATE_RTOL),
            "static B": abs(report.bound_b - b) / b / self.GATE_RTOL,
            "static R": abs(report.quantumness_r - r) / self.GATE_RTOL,
            "static reference": abs(scan.static_reference - b) / b / self.GATE_RTOL,
        }
        for t, rep in zip(inp["times"], scan.reports):
            q, b = models.reference_qutrit_dynamic(t, alpha)
            devs[f"Q(t={t:.6f})"] = _deviation_share(rep.qfim.entries, q, self.GATE_RTOL)
            devs[f"B(t={t:.6f})"] = abs(rep.bound_b - b) / b / self.GATE_RTOL
        problems = [f"{k} deviates {v:.3g}x the tolerance" for k, v in devs.items() if not v <= 1.0]
        return max(devs.values()), problems

    def describe(self, inp):
        return {"alpha": inp["alpha"], "t_min": inp["times"][0], "t_max": inp["times"][-1]}


WORKLOADS = {w.name: w for w in (StaticDense, ScanAnharmonic, OracleCheck, PresetsSweep)}
