"""Tests for K operators, the dynamical QFIM, and time scans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perturbsense import (
    DimensionMismatchError,
    HermitianOperator,
    PerturbationProblem,
    StateVector,
    TimeScan,
    dynamic_report,
    expectation,
    hermitian_eig,
    k_operator_quadrature,
    k_operator_spectral,
    make_report,
    qfi_dynamic_single,
    qfim_dynamic,
    scan_time,
)
from perturbsense import models, oracle
from perturbsense.models import ModelKind, ModelSpec

from helpers import count_eigh, count_eigvalsh, random_hermitian, random_state

QUBIT1 = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))
ANHARMONIC = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
VACUUM = models.vacuum_state(16)


def anharmonic_ks(t, problem=ANHARMONIC):
    return [
        k_operator_spectral(problem.spectral, h, t, parameter_index=mu)
        for mu, h in enumerate(problem.perturbations)
    ]


class TestKOperatorSpectral:
    def test_qubit_closed_form(self):
        for t in (0.3, 1.0, 2.9):
            k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t)
            expected = np.array(
                [
                    [0.0, np.exp(1j * t) * np.sin(t)],
                    [np.exp(-1j * t) * np.sin(t), 0.0],
                ]
            )
            assert np.max(np.abs(k.op.matrix - expected)) <= 1e-12

    def test_commuting_block_is_linear_in_time(self):
        h0 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        h_mu = HermitianOperator(np.diag([0.4, -0.7]).astype(complex))
        k = k_operator_spectral(hermitian_eig(h0), h_mu, 2.3)
        assert np.allclose(k.op.matrix, 2.3 * h_mu.matrix, atol=1e-12)

    def test_zero_time_is_zero(self):
        k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], 0.0)
        assert np.all(k.op.matrix == 0.0)

    def test_negative_time_rejected(self):
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t)

    def test_cubic_vacuum_expectation_vanishes(self):
        for t in (0.5, 2.0, 5.5):
            k1 = anharmonic_ks(t)[0]
            assert abs(expectation(VACUUM, k1.op)) <= 1e-12


class TestKOperatorQuadrature:
    def test_zero_time(self):
        k = k_operator_quadrature(QUBIT1.h0, QUBIT1.perturbations[0], 0.0)
        assert np.all(k.op.matrix == 0.0)

    def test_commuting_case(self):
        h0 = QUBIT1.h0
        k = k_operator_quadrature(h0, h0, 1.7)
        assert np.allclose(k.op.matrix, 1.7 * h0.matrix, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_spectral_on_random_pairs(self, seed):
        rng = np.random.default_rng(2000 + seed)
        dim = int(rng.integers(2, 21))
        h0 = HermitianOperator(random_hermitian(rng, dim))
        h_mu = HermitianOperator(random_hermitian(rng, dim))
        t = float(rng.uniform(0.0, 10.0))
        spectral = k_operator_spectral(hermitian_eig(h0), h_mu, t)
        quadrature = k_operator_quadrature(h0, h_mu, t)
        assert np.max(np.abs(spectral.op.matrix - quadrature.op.matrix)) <= 1e-8


class TestQfiDynamicSingle:
    def test_qubit_closed_form_grid(self):
        worst = 0.0
        for t in np.linspace(0.0, np.pi, 7):
            for theta in np.linspace(0.0, np.pi, 5):
                for phi in np.linspace(0.0, 2 * np.pi, 5):
                    k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t)
                    engine = qfi_dynamic_single(models.qubit_probe(theta, phi), k)
                    worst = max(
                        worst,
                        abs(engine - models.reference_qubit_dynamic_qfi(t, theta, phi)),
                    )
        assert worst <= 1e-12

    def test_maximum_at_half_pi(self):
        k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], np.pi / 2)
        assert qfi_dynamic_single(models.qubit_probe(0.0, 0.0), k) == pytest.approx(4.0)

    def test_zero_time(self):
        k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], 0.0)
        assert qfi_dynamic_single(models.qubit_probe(0.3, 0.1), k) == 0.0


class TestQfimDynamic:
    def test_qutrit_closed_form(self):
        alpha = 1.0
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
        probe = models.qutrit_probe()
        for t in (0.4, 1.5, 3.0):
            ks = [
                k_operator_spectral(problem.spectral, h, t, parameter_index=mu)
                for mu, h in enumerate(problem.perturbations)
            ]
            report = qfim_dynamic(probe, ks)
            q_ref, b_ref = models.reference_qutrit_dynamic(t, alpha)
            assert np.max(np.abs(report.qfim.entries - q_ref)) <= 1e-12
            assert report.bound_b == pytest.approx(b_ref, abs=1e-10)
            assert np.max(np.abs(report.uhlmann.entries)) <= 1e-12
            assert report.quantumness_r == pytest.approx(0.0, abs=1e-10)

    def test_anharmonic_closed_forms(self):
        for t in np.linspace(0.2, 2 * np.pi, 12):
            report = qfim_dynamic(VACUUM, anharmonic_ks(t))
            q11, q22, q12 = models.reference_anharmonic_dynamic(t)
            assert report.qfim.entries[0, 0] == pytest.approx(q11, abs=1e-10)
            assert report.qfim.entries[1, 1] == pytest.approx(q22, abs=1e-10)
            assert abs(report.qfim.entries[0, 1] - q12) <= 1e-10

    def test_bound_near_two(self):
        report = qfim_dynamic(VACUUM, anharmonic_ks(2.0))
        assert report.bound_b == pytest.approx(0.1418, abs=1e-3)

    def test_singular_time_flagged(self):
        report = qfim_dynamic(VACUUM, anharmonic_ks(np.pi))
        assert report.singular
        assert report.bound_b == math.inf
        assert report.quantumness_r is None

    def test_mismatched_times_rejected(self):
        ks = [
            k_operator_spectral(ANHARMONIC.spectral, ANHARMONIC.perturbations[0], 1.0, 0),
            k_operator_spectral(ANHARMONIC.spectral, ANHARMONIC.perturbations[1], 2.0, 1),
        ]
        with pytest.raises(ValueError):
            qfim_dynamic(VACUUM, ks)

    @pytest.mark.parametrize("seed", range(4))
    def test_psd_covariance_structure(self, seed):
        rng = np.random.default_rng(2100 + seed)
        dim = 8
        problem = PerturbationProblem(
            h0=HermitianOperator(random_hermitian(rng, dim)),
            perturbations=tuple(
                HermitianOperator(random_hermitian(rng, dim)) for _ in range(3)
            ),
            level=0,
        )
        psi0 = StateVector(random_state(rng, dim))
        t = float(rng.uniform(0.2, 6.0))
        ks = [
            k_operator_spectral(problem.spectral, h, t, parameter_index=mu)
            for mu, h in enumerate(problem.perturbations)
        ]
        report = qfim_dynamic(psi0, ks)
        assert np.linalg.eigvalsh(report.qfim.entries)[0] >= -1e-10
        assert np.max(np.abs(report.uhlmann.entries + report.uhlmann.entries.T)) <= 1e-12

    def test_two_param_r_matches_cross_moment_formula(self):
        rng = np.random.default_rng(77)
        dim = 6
        problem = PerturbationProblem(
            h0=HermitianOperator(random_hermitian(rng, dim)),
            perturbations=tuple(
                HermitianOperator(random_hermitian(rng, dim)) for _ in range(2)
            ),
            level=0,
        )
        psi0 = StateVector(random_state(rng, dim))
        ks = [
            k_operator_spectral(problem.spectral, h, 1.3, parameter_index=mu)
            for mu, h in enumerate(problem.perturbations)
        ]
        report = qfim_dynamic(psi0, ks)
        amp = psi0.amplitudes
        cross = np.vdot(ks[0].op.matrix @ amp, ks[1].op.matrix @ amp)
        expected = 4.0 * abs(cross.imag) / math.sqrt(np.linalg.det(report.qfim.entries))
        assert report.quantumness_r == pytest.approx(expected, abs=1e-10)


class TestPeriodicity:
    def test_qubit_reports_period_pi(self):
        probe = models.qubit_probe(0.4, 1.1)
        for t in (0.3, 1.2):
            k_a = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t)
            k_b = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t + np.pi)
            assert qfi_dynamic_single(probe, k_a) == pytest.approx(
                qfi_dynamic_single(probe, k_b), abs=1e-9
            )

    def test_integer_gap_reports_period_two_pi(self):
        for t in (0.7, 2.4):
            r_a = qfim_dynamic(VACUUM, anharmonic_ks(t))
            r_b = qfim_dynamic(VACUUM, anharmonic_ks(t + 2 * np.pi))
            assert np.max(np.abs(r_a.qfim.entries - r_b.qfim.entries)) <= 1e-9


class TestFirstOrderValidity:
    def test_evolved_state_matches_linear_propagator(self):
        lam = 1e-3
        probe = models.qubit_probe(0.7, 0.3)
        h1 = QUBIT1.perturbations[0]
        h1_norm = float(np.max(np.abs(np.linalg.eigvalsh(h1.matrix))))
        for t in np.linspace(0.1, np.pi, 6):
            k = k_operator_spectral(QUBIT1.spectral, h1, t)
            u0 = QUBIT1.spectral.propagator(t)
            approx = u0 @ (probe.amplitudes - 1j * lam * (k.op.matrix @ probe.amplitudes))
            exact = oracle.exact_evolved_family(QUBIT1, probe, t)(np.array([lam])).amplitudes
            assert np.linalg.norm(exact - approx) <= 10.0 * (lam * t * h1_norm) ** 2


class TestTruncationConvergence:
    def test_dim_16_vs_24(self):
        wide = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=24))
        probe24 = models.vacuum_state(24)
        for t in (1.0, 2.0, 5.0):
            r16 = qfim_dynamic(VACUUM, anharmonic_ks(t))
            r24 = qfim_dynamic(probe24, anharmonic_ks(t, problem=wide))
            assert np.max(np.abs(r16.qfim.entries - r24.qfim.entries)) < 1e-9


class TestScanTime:
    def test_anharmonic_beats_static_in_window(self):
        grid = np.linspace(0.05, 3.1, 120)
        scan = scan_time(ANHARMONIC, VACUUM, grid)
        assert scan.static_reference == pytest.approx(466.0 / 1131.0, abs=1e-9)
        bounds = scan.bound_values()
        inside = (grid > 0.731) & (grid < 2.78)
        outside = (grid < 0.711) | (grid > 2.80)
        assert np.all(bounds[inside] < scan.static_reference)
        assert np.all(bounds[outside] > scan.static_reference)

    def test_qutrit_minimum_at_pi(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        grid = np.linspace(0.3, 2 * np.pi - 0.3, 101)
        scan = scan_time(problem, models.qutrit_probe(), grid)
        bounds = scan.bound_values()
        t_best = scan.times[int(np.argmin(bounds))]
        assert abs(t_best - np.pi) <= grid[1] - grid[0]
        idx = int(np.argmin(np.abs(grid - np.pi)))
        assert bounds[idx] == pytest.approx(
            1.0 / (8.0 * math.sin(grid[idx] / 2.0) ** 2), abs=1e-10
        )

    def test_singular_points_recorded_not_fatal(self):
        grid = np.array([np.pi / 2, np.pi, 3 * np.pi / 2])
        scan = scan_time(ANHARMONIC, VACUUM, grid)
        assert math.isinf(scan.reports[1].bound_b)
        assert not math.isinf(scan.reports[0].bound_b)

    def test_probe_not_an_eigenstate_has_no_reference(self):
        probe = models.qubit_probe(0.6, 0.0)
        scan = scan_time(QUBIT1, probe, np.linspace(0.1, 1.0, 4))
        assert scan.static_reference is None

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            scan_time(QUBIT1, models.qubit_probe(0, 0), [0.2, 0.1])
        with pytest.raises(ValueError):
            scan_time(QUBIT1, models.qubit_probe(0, 0), [])
        with pytest.raises(ValueError):
            scan_time(QUBIT1, models.qubit_probe(0, 0), [-0.5, 1.0])
        for grid in ([0.1, math.nan], [0.0, math.inf]):
            with pytest.raises(ValueError):
                scan_time(QUBIT1, models.qubit_probe(0, 0), grid)

    def test_probe_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            scan_time(ANHARMONIC, models.qubit_probe(0, 0), [0.1, 0.2])

    def test_one_eigensolve_per_scan(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        fresh = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        scan = scan_time(fresh, VACUUM, np.linspace(0.1, 3.0, 8))
        assert scan.static_reference is not None
        assert len(calls) == 1

    def test_one_qfim_spectrum_per_scan(self, monkeypatch):
        # one batched eigvalsh for the grid, one for the static reference
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=32))
        calls = count_eigvalsh(monkeypatch)
        scan = scan_time(problem, models.vacuum_state(32), np.linspace(0.05, 9.0, 200))
        assert scan.static_reference is not None
        assert sorted(calls) == [(2, 2), (200, 2, 2)]


class TestTimeScanArrays:
    GRID = np.array([0.0, 0.4, np.pi / 2, 2.5, np.pi])  # Q is singular at 0 and pi

    def test_stored_arrays(self):
        scan = scan_time(ANHARMONIC, VACUUM, self.GRID)
        assert scan.qfim.shape == scan.uhlmann.shape == (5, 2, 2)
        assert scan.qfim_spectrum.shape == (5, 2)
        assert scan.bound_b.shape == scan.quantumness_r.shape == (5,)
        for a in (scan.times, scan.qfim, scan.uhlmann, scan.qfim_spectrum,
                  scan.bound_b, scan.quantumness_r):
            assert not a.flags.writeable
        assert scan.bound_values() is scan.bound_b
        singular = np.array([True, False, False, False, True])
        assert np.all(np.isinf(scan.bound_b[singular]))
        assert np.all(np.isnan(scan.quantumness_r[singular]))
        assert np.all(np.isfinite(scan.bound_b[~singular]))
        assert np.all(np.isfinite(scan.quantumness_r[~singular]))

    def test_reports_built_on_first_read(self):
        scan = scan_time(ANHARMONIC, VACUUM, self.GRID)
        assert "reports" not in vars(scan)
        reports = scan.reports
        assert scan.reports is reports and len(reports) == 5
        for k, report in enumerate(reports):
            # Q + iD splits back into exactly Q and D: the single-point path
            single = make_report(scan.qfim[k] + 1j * scan.uhlmann[k])
            for r in (report, single):
                assert np.array_equal(r.qfim.entries, scan.qfim[k])
                assert np.array_equal(r.qfim.spectrum, scan.qfim_spectrum[k])
                assert np.array_equal(r.uhlmann.entries, scan.uhlmann[k])
                assert r.bound_b == scan.bound_b[k]
                if math.isnan(scan.quantumness_r[k]):
                    assert r.quantumness_r is None and r.singular
                else:
                    assert r.quantumness_r == scan.quantumness_r[k]

    @pytest.mark.parametrize("k", [0, 3, 4])
    def test_construction_names_bad_grid_index(self, k):
        scan = scan_time(ANHARMONIC, VACUUM, self.GRID)
        q = scan.qfim.copy()
        q[k, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=f"QFIM must be symmetric at grid index {k}$"):
            TimeScan(times=scan.times, qfim=q, uhlmann=scan.uhlmann, static_reference=None)
        d = scan.uhlmann.copy()
        d[k, 0, 1] = math.nan
        with pytest.raises(ValueError, match=f"entries must be finite at grid index {k}$"):
            TimeScan(times=scan.times, qfim=scan.qfim, uhlmann=d, static_reference=None)
        with pytest.raises(ValueError, match="per grid time"):
            TimeScan(times=scan.times[:-1], qfim=scan.qfim, uhlmann=scan.uhlmann,
                     static_reference=None)


def _per_time_reference(problem, probe, grid):
    """Q and D through full K operators, one time at a time."""
    qs, ds = [], []
    for t in grid:
        ks = [
            k_operator_spectral(problem.spectral, h, t, parameter_index=mu)
            for mu, h in enumerate(problem.perturbations)
        ]
        report = qfim_dynamic(probe, ks)
        qs.append(report.qfim.entries)
        ds.append(report.uhlmann.entries)
    return np.array(qs), np.array(ds)


def _random_gapped_model(seed):
    """P = 1..4 couplings; H0 with an uncoupled degenerate pair and a coupled tiny gap.

    Seeds 4..7 shift the spectrum by 1e5, far from its own spread.
    """
    rng = np.random.default_rng(2300 + seed)
    dim = int(rng.integers(5, 11))
    energies = rng.uniform(-3.0, 3.0, dim) + (1e5 if seed >= 4 else 0.0)
    energies[1] = energies[0]
    energies[3] = energies[2] + 10.0 ** rng.uniform(-10.0, -6.0)
    if seed % 2:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis = np.linalg.qr(z)[0]
    else:
        basis = np.eye(dim)
    couplings = []
    for _ in range(1 + seed % 4):
        h = random_hermitian(rng, dim)
        h[0, 1] = h[1, 0] = 0.0  # the degenerate pair stays uncoupled
        couplings.append(HermitianOperator(basis @ h @ basis.conj().T))
    h0 = (basis * energies[None, :]) @ basis.conj().T
    problem = PerturbationProblem(
        h0=HermitianOperator(0.5 * (h0 + h0.conj().T)),
        perturbations=tuple(couplings),
        level=4,
    )
    return problem, StateVector(random_state(rng, dim))


class TestProbeSpaceEngine:
    """scan_time and dynamic_report against full K operators at each time."""

    RTOL = 1e-12  # relative to max|Q|, for Q and D alike

    GRIDS = {
        "tiny-times": np.concatenate([[0.0, 1e-9, 1e-6], np.linspace(0.1, 6.0, 10)]),
        "regular": np.concatenate([[0.0], np.linspace(0.02, 6.0, 10)]),
    }

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("seed", range(8))
    def test_scan_matches_per_time_reference(self, seed, grid_name):
        problem, probe = _random_gapped_model(seed)
        grid = self.GRIDS[grid_name]
        scan = scan_time(problem, probe, grid)
        q_ref, d_ref = _per_time_reference(problem, probe, grid)
        q = np.array([r.qfim.entries for r in scan.reports])
        d = np.array([r.uhlmann.entries for r in scan.reports])
        scale = float(np.max(np.abs(q_ref)))
        assert np.max(np.abs(q - q_ref)) <= self.RTOL * scale
        assert np.max(np.abs(d - d_ref)) <= self.RTOL * scale
        assert np.all(q[0] == 0.0) and math.isinf(scan.reports[0].bound_b)

    def test_dynamic_report_matches_reference(self):
        problem, probe = _random_gapped_model(3)
        for t in (0.0, 1e-9, 1e-6, 0.7, 4.2):
            report = dynamic_report(problem, probe, t)
            q_ref, d_ref = _per_time_reference(problem, probe, [t])
            scale = max(float(np.max(np.abs(q_ref))), 1e-300)
            assert np.max(np.abs(report.qfim.entries - q_ref[0])) <= self.RTOL * scale
            assert np.max(np.abs(report.uhlmann.entries - d_ref[0])) <= self.RTOL * scale

    def test_dynamic_report_rejects_bad_times(self):
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                dynamic_report(QUBIT1, models.qubit_probe(0, 0), t)
        with pytest.raises(DimensionMismatchError):
            dynamic_report(ANHARMONIC, models.qubit_probe(0, 0), 1.0)
