"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from perturbsense import (
    AngleDecomposition,
    ParallelCorrectionsError,
    StateVector,
    bound_b,
    dynamic_report,
    first_order_correction,
    k_operator_quadrature,
    k_operator_spectral,
    hermitian_eig,
    HermitianOperator,
    qfim_dynamic,
    qfim_static,
    quantumness_r,
    scan_time,
    sld_two_param_explicit,
    static_report,
    uhlmann_static,
)
from perturbsense import models, oracle
from perturbsense.models import ModelKind, ModelSpec

from helpers import random_hermitian


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def corrections_for(problem):
    return [first_order_correction(problem, mu) for mu in range(problem.num_parameters)]


def test_criterion_1_qubit_static():
    with criterion("criterion 1 (qubit static QFI)"):
        problem = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))
        q = static_report([first_order_correction(problem, 0)]).qfim.entries[0, 0]
        assert abs(q - 1.0) <= 1e-15

        family = oracle.exact_eigenstate_family(problem)
        q_oracle = oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, 1e-4)
        assert abs(q_oracle - 1.0) <= 0.01


def test_criterion_2_qutrit_static():
    with criterion("criterion 2 (qutrit static bound)"):
        for alpha in np.linspace(0.15, np.pi - 0.15, 50):
            problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            cs = corrections_for(problem)
            q = qfim_static(cs)
            assert abs(bound_b(q) - 0.5 / math.sin(alpha) ** 2) <= 1e-10
            assert quantumness_r(q, uhlmann_static(cs)) <= 1e-10
        half_pi = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        assert abs(bound_b(qfim_static(corrections_for(half_pi))) - 0.5) <= 1e-10


def test_criterion_3_qubit_two_parameter_incompatibility():
    with criterion("criterion 3 (qubit two-parameter incompatibility)"):
        for alpha in (0.4, 1.1, 2.3):
            problem = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=alpha))
            c1, c2 = corrections_for(problem)
            from perturbsense import angle_decomposition

            with pytest.raises(ParallelCorrectionsError):
                angle_decomposition(c1, c2)
            r = quantumness_r(qfim_static([c1, c2]), uhlmann_static([c1, c2]))
            assert abs(r - 1.0) <= 1e-9


def test_criterion_4_anharmonic_static():
    with criterion("criterion 4 (anharmonic static)"):
        for fock_dim in (8, 16):
            problem = models.build(
                ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=fock_dim)
            )
            cs = corrections_for(problem)
            assert abs(cs[0].squared_norm - 29.0 / 24.0) <= 1e-10
            assert abs(cs[1].squared_norm - 39.0 / 32.0) <= 1e-10
            assert abs(bound_b(qfim_static(cs)) - 466.0 / 1131.0) <= 1e-9
            assert np.max(np.abs(uhlmann_static(cs).entries)) <= 1e-12


def test_criterion_5_dynamic_qubit():
    with criterion("criterion 5 (dynamic qubit QFI)"):
        problem = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))
        worst = 0.0
        for t in np.linspace(0.0, np.pi, 10):
            for theta in np.linspace(0.0, np.pi, 10):
                for phi in np.linspace(0.0, 2 * np.pi, 10):
                    probe = models.qubit_probe(theta, phi)
                    engine = dynamic_report(problem, probe, t).qfim.entries[0, 0]
                    reference = models.reference_qubit_dynamic_qfi(t, theta, phi)
                    worst = max(worst, abs(engine - reference))
        assert worst <= 1e-9

        probe = models.qubit_probe(0.0, 0.0)

        def qfi(t):
            return dynamic_report(problem, probe, t).qfim.entries[0, 0]

        assert abs(qfi(np.pi / 2) - 4.0) <= 1e-9
        fine = np.linspace(0.0, np.pi, 2001)
        values = scan_time(problem, probe, fine).qfim[:, 0, 0]
        assert max(values) <= 4.0 + 1e-9
        best = minimize_scalar(
            lambda t: -qfi(t), bounds=(1.0, 2.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(best.x - np.pi / 2) <= 1e-6


def test_criterion_6_dynamic_qutrit():
    with criterion("criterion 6 (dynamic qutrit closed forms)"):
        probe = models.qutrit_probe()
        for alpha in np.linspace(0.25, np.pi - 0.25, 8):
            problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            for t in np.linspace(0.2, 2 * np.pi - 0.2, 10):
                report = dynamic_report(problem, probe, t)
                q_ref, b_ref = models.reference_qutrit_dynamic(t, alpha)
                assert np.max(np.abs(report.qfim.entries - q_ref)) <= 1e-9
                assert np.max(np.abs(report.uhlmann.entries)) <= 1e-9
                assert abs(report.bound_b - b_ref) <= 1e-9 * max(1.0, b_ref)
                assert report.quantumness_r <= 1e-9


def test_criterion_7_dynamic_anharmonic():
    with criterion("criterion 7 (dynamic anharmonic closed forms)"):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        vacuum = models.vacuum_state(16)
        grid = np.linspace(2 * np.pi / 40, 2 * np.pi, 40)
        for t in grid:
            ks = [
                k_operator_spectral(problem.spectral, h, t)
                for h in problem.perturbations
            ]
            report = qfim_dynamic(vacuum, ks)
            q11, q22, q12 = models.reference_anharmonic_dynamic(t)
            assert abs(report.qfim.entries[0, 0] - q11) <= 1e-8
            assert abs(report.qfim.entries[1, 1] - q22) <= 1e-8
            assert abs(report.qfim.entries[0, 1] - q12) <= 1e-8
            means = [np.vdot(vacuum.amplitudes, k.op.matrix @ vacuum.amplitudes) for k in ks]
            assert abs(means[0]) <= 1e-10
            assert abs(means[1] - 0.75 * t) <= 1e-10
        scan = scan_time(problem, vacuum, grid)
        for t, q in zip(grid, scan.qfim):
            q11, q22, q12 = models.reference_anharmonic_dynamic(t)
            assert abs(q[0, 0] - q11) <= 1e-8
            assert abs(q[1, 1] - q22) <= 1e-8
            assert abs(q[0, 1] - q12) <= 1e-8


def test_criterion_8_bound_curve_reproduction():
    with criterion("criterion 8 (dynamical-vs-static bound curve)"):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        vacuum = models.vacuum_state(16)
        grid = np.linspace(0.05, 3.1, 200)
        scan = scan_time(problem, vacuum, grid)
        b_static = scan.static_reference
        assert b_static is not None

        def gap(t):
            return dynamic_report(problem, vacuum, t).bound_b - b_static

        bounds = scan.bound_b
        signs = np.sign(bounds - b_static)
        flips = np.nonzero(np.diff(signs) != 0)[0]
        assert flips.size == 2
        crossings = [
            brentq(gap, grid[i], grid[i + 1], xtol=1e-10) for i in flips
        ]
        assert abs(crossings[0] - 0.721) <= 0.01
        assert abs(crossings[1] - 2.79) <= 0.01

        minimum = minimize_scalar(
            lambda t: dynamic_report(problem, vacuum, t).bound_b,
            bounds=(1.5, 2.5), method="bounded", options={"xatol": 1e-10},
        )
        assert abs(minimum.x - 2.0) <= 0.05
        assert abs(minimum.fun - 0.1418) <= 0.001


def test_criterion_9_explicit_slds_match_generic():
    with criterion("criterion 9 (explicit vs generic SLDs)"):
        rng = np.random.default_rng(20240814)
        dim = 4
        for _ in range(100):
            basis, _ = np.linalg.qr(
                rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            )
            dec = AngleDecomposition(
                reference=StateVector(basis[:, 0]),
                basis_j=StateVector(basis[:, 1]),
                basis_k=StateVector(basis[:, 2]),
                theta1=rng.uniform(0.0, 2 * np.pi),
                theta2=rng.uniform(0.0, 2 * np.pi),
                gamma=rng.uniform(0.0, 2 * np.pi),
                varphi=rng.uniform(0.0, 2 * np.pi),
            )
            n1, n2 = rng.uniform(0.2, 1.2, size=2)
            lam = rng.choice([-1.0, 1.0], size=2) * rng.uniform(2e-4, 2e-3, size=2)
            l1, l2 = sld_two_param_explicit(dec, n1, n2, lam[0], lam[1])

            j, k = dec.basis_j.amplitudes, dec.basis_k.amplitudes
            phi1 = math.cos(dec.theta1 / 2) * j + math.sin(dec.theta1 / 2) * k
            phi2 = np.exp(1j * dec.gamma) * (
                math.cos(dec.theta2 / 2) * j
                + np.exp(1j * dec.varphi) * math.sin(dec.theta2 / 2) * k
            )
            psi0 = dec.reference.amplitudes
            raw = psi0 + lam[0] * math.sqrt(n1) * phi1 + lam[1] * math.sqrt(n2) * phi2
            psi = raw / np.linalg.norm(raw)
            budget = 10.0 * float(np.dot(lam, lam))
            for sld, root_n, phi in (
                (l1, math.sqrt(n1), phi1),
                (l2, math.sqrt(n2), phi2),
            ):
                derivative = root_n * phi
                generic = 2.0 * (
                    np.outer(derivative, psi.conj()) + np.outer(psi, derivative.conj())
                )
                assert np.max(np.abs(sld.matrix - generic)) <= budget


def _presets():
    return [
        ("qubit", models.build(ModelSpec(ModelKind.QUBIT_1PARAM))),
        ("qubit2", models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=1.1))),
        ("qutrit", models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))),
        ("anharmonic", models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))),
    ]


def _probe(name, problem):
    if name in ("qubit", "qubit2"):
        return models.qubit_probe(0.4, 0.9)
    if name == "qutrit":
        return models.qutrit_probe()
    return models.vacuum_state(problem.dim)


def test_criterion_10_oracle_equivalence():
    # The engine is leading-order: it is the lambda -> 0 limit of the exact
    # QFIM.  Where Q has a first-order slope in the couplings, the oracle
    # taken one-sided at +lambda differs from that limit by O(lambda).  The
    # anharmonic preset has such a slope in the quartic coupling (parity
    # x -> -x makes Q even in the cubic one only).  Its worst relative gap in
    # Q at fock 16 (static / dynamic at t = 1.3):
    #     lambda = 0        9.8e-8 / 2.1e-8
    #     lambda = +1e-5    2.9e-4 / 2.8e-4
    #     lambda = +1e-4    2.9e-3 / 2.8e-3
    #     lambda = +1e-3    2.8e-2 / 2.7e-2
    #     lambda = -1e-3    3.0e-2 / 2.9e-2   (gap of opposite sign)
    #     even part         9.5e-4 / 8.3e-4
    # The gap is linear and odd in lambda and vanishes at the expansion
    # point, so the engine is compared with the oracle's even part
    # [fd(+lambda) + fd(-lambda)] / 2, which cancels the O(lambda) term and
    # leaves O(lambda^2).
    with criterion("criterion 10 (oracle even part at lambda = +/-1e-3, 1%)"):
        violations = []
        for name, problem in _presets():
            lam = np.full(problem.num_parameters, 1e-3)
            probe = _probe(name, problem)

            cs = corrections_for(problem)
            engine_pairs = [
                ("static", qfim_static(cs).entries, uhlmann_static(cs).entries)
            ]
            report = dynamic_report(problem, probe, 1.3)
            engine_pairs.append(
                ("dynamic", report.qfim.entries, report.uhlmann.entries)
            )

            for scheme, q_engine, d_engine in engine_pairs:
                if scheme == "static":
                    family = oracle.exact_eigenstate_family(problem)
                else:
                    family = oracle.exact_evolved_family(problem, probe, 1.3)
                q_hi, d_hi = oracle.fd_qfim(family, lam)
                q_lo, d_lo = oracle.fd_qfim(family, -lam)
                for label, engine, fd in (
                    ("Q", q_engine, 0.5 * (q_hi.entries + q_lo.entries)),
                    ("D", d_engine, 0.5 * (d_hi.entries + d_lo.entries)),
                ):
                    mask = np.abs(engine) > 1e-3
                    if not mask.any():
                        continue
                    rel = float(
                        np.max(np.abs((fd[mask] - engine[mask]) / engine[mask]))
                    )
                    if rel > 0.01:
                        violations.append(f"{name}/{scheme}/{label}: {rel:.4f}")

        # gauge robustness
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=1.0))
        family = oracle.exact_eigenstate_family(problem)

        def gauged(lam_vec):
            phase = np.exp(
                1j * (3.0 * lam_vec[0] - 2.0 * lam_vec[1] + 5.0 * lam_vec[0] * lam_vec[1])
            )
            return StateVector(family(lam_vec).amplitudes * phase)

        lam = np.array([1e-3, 1e-3])
        q_plain, d_plain = oracle.fd_qfim(family, lam)
        q_gauged, d_gauged = oracle.fd_qfim(gauged, lam)
        assert np.max(np.abs(q_plain.entries - q_gauged.entries)) <= 1e-6
        assert np.max(np.abs(d_plain.entries - d_gauged.entries)) <= 1e-6

        assert not violations, (
            "relative error above 1% against the oracle's even part at "
            "lambda = +/-1e-3 for: " + "; ".join(violations)
        )


def test_criterion_11_k_operator_dual_construction():
    with criterion("criterion 11 (K spectral vs quadrature)"):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 21))
            h0 = HermitianOperator(random_hermitian(rng, dim))
            h_mu = HermitianOperator(random_hermitian(rng, dim))
            t = float(rng.uniform(0.0, 10.0))
            spectral = k_operator_spectral(hermitian_eig(h0), h_mu, t)
            quadrature = k_operator_quadrature(h0, h_mu, t)
            worst = max(
                worst, float(np.max(np.abs(spectral.op.matrix - quadrature.op.matrix)))
            )
        assert worst <= 1e-8
