"""Tests for K operators, the dynamical QFIM, and time scans."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perturbsense import (
    DegeneracyError,
    DimensionMismatchError,
    HermitianOperator,
    PerturbationProblem,
    StateVector,
    TimeScan,
    dynamic_report,
    first_order_correction,
    hermitian_eig,
    k_operator_quadrature,
    k_operator_spectral,
    make_report,
    qfim_dynamic,
    scan_time,
    static_report,
)
from perturbsense import cli, models, operators, oracle
from perturbsense.dynamic_estimation import _probe_tangents
from perturbsense.models import ModelKind, ModelSpec

from helpers import (
    count_eigh,
    count_eigvalsh,
    count_hermitian_eig,
    random_hermitian,
    random_state,
    record_gathers,
)

QUBIT1 = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))
ANHARMONIC = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
VACUUM = models.vacuum_state(16)
# What a problem holds once solved: its fields and the cached spectrum, no couplings
UNCACHED = {"h0", "perturbations", "level", "spectral"}


def anharmonic_ks(t, problem=ANHARMONIC):
    return [
        k_operator_spectral(problem.spectral, h, t)
        for h in problem.perturbations
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
            assert abs(np.vdot(VACUUM.amplitudes, k1.op.matrix @ VACUUM.amplitudes)) <= 1e-12


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


def single_qfi(probe, k):
    """The one-coupling dynamical QFI 4 Var K(t), read off :func:`qfim_dynamic`."""
    return qfim_dynamic(probe, [k]).qfim.entries[0, 0]


class TestQfiDynamicSingle:
    def test_qubit_closed_form_grid(self):
        worst = 0.0
        for t in np.linspace(0.0, np.pi, 7):
            for theta in np.linspace(0.0, np.pi, 5):
                for phi in np.linspace(0.0, 2 * np.pi, 5):
                    k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], t)
                    engine = single_qfi(models.qubit_probe(theta, phi), k)
                    worst = max(
                        worst,
                        abs(engine - models.reference_qubit_dynamic_qfi(t, theta, phi)),
                    )
        assert worst <= 1e-12

    def test_maximum_at_half_pi(self):
        k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], np.pi / 2)
        assert single_qfi(models.qubit_probe(0.0, 0.0), k) == pytest.approx(4.0)

    def test_zero_time(self):
        k = k_operator_spectral(QUBIT1.spectral, QUBIT1.perturbations[0], 0.0)
        assert single_qfi(models.qubit_probe(0.3, 0.1), k) == 0.0


class TestQfimDynamic:
    def test_qutrit_closed_form(self):
        alpha = 1.0
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
        probe = models.qutrit_probe()
        for t in (0.4, 1.5, 3.0):
            ks = [
                k_operator_spectral(problem.spectral, h, t)
                for h in problem.perturbations
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
            k_operator_spectral(ANHARMONIC.spectral, ANHARMONIC.perturbations[0], 1.0),
            k_operator_spectral(ANHARMONIC.spectral, ANHARMONIC.perturbations[1], 2.0),
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
            k_operator_spectral(problem.spectral, h, t)
            for h in problem.perturbations
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
            k_operator_spectral(problem.spectral, h, 1.3)
            for h in problem.perturbations
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
            assert single_qfi(probe, k_a) == pytest.approx(single_qfi(probe, k_b), abs=1e-9)

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
        bounds = scan.bound_b
        inside = (grid > 0.731) & (grid < 2.78)
        outside = (grid < 0.711) | (grid > 2.80)
        assert np.all(bounds[inside] < scan.static_reference)
        assert np.all(bounds[outside] > scan.static_reference)

    def test_qutrit_minimum_at_pi(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        grid = np.linspace(0.3, 2 * np.pi - 0.3, 101)
        scan = scan_time(problem, models.qutrit_probe(), grid)
        bounds = scan.bound_b
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
        solves = count_hermitian_eig(monkeypatch)
        calls = count_eigh(monkeypatch)
        fresh = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        scan = scan_time(fresh, VACUUM, np.linspace(0.1, 3.0, 8))
        assert scan.static_reference is not None
        assert solves == [fresh.h0]
        assert calls == []  # the diagonal H0 is decomposed without LAPACK
        dense, probe = _random_real_model(0)
        scan_time(dense, probe, np.linspace(0.1, 3.0, 8))
        assert solves == [fresh.h0, dense.h0]
        assert calls == [(dense.h0.matrix.shape, np.float64)]

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
            k_operator_spectral(problem.spectral, h, t)
            for h in problem.perturbations
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


def _random_real_model(seed):
    """A real H0 with a dense orthogonal eigenbasis and P = 1..3 real-symmetric couplings."""
    rng = np.random.default_rng(2400 + seed)
    dim = int(rng.integers(4, 12))
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    h0 = (basis * rng.uniform(-3.0, 3.0, dim)) @ basis.T
    couplings = [rng.normal(size=(dim, dim)) for _ in range(1 + seed % 3)]
    problem = PerturbationProblem(
        h0=HermitianOperator(0.5 * (h0 + h0.T)),
        perturbations=tuple(HermitianOperator(0.5 * (m + m.T)) for m in couplings),
        level=0,
    )
    return problem, StateVector(random_state(rng, dim))


def _degenerate_model(seed, tiny_gap):
    """Diagonal H0 whose levels 0 and 1 coincide exactly, every pair coupled.

    With ``tiny_gap`` level 2 sits 1e-10..1e-6 above them, so rows 0 to 2
    each hold zero-gap pairs and a small nonzero-gap pair.  Odd seeds give
    complex couplings, even seeds real ones.
    """
    rng = np.random.default_rng(2500 + seed)
    dim = int(rng.integers(5, 10))
    energies = np.sort(rng.uniform(-3.0, 3.0, dim))
    energies[1] = energies[0]
    if tiny_gap:
        energies[2] = energies[0] + 10.0 ** rng.uniform(-10.0, -6.0)
    couplings = []
    for _ in range(2):
        h = random_hermitian(rng, dim) if seed % 2 else rng.normal(size=(dim, dim))
        couplings.append(HermitianOperator(0.5 * (h + h.conj().T)))
    problem = PerturbationProblem(
        h0=HermitianOperator(np.diag(energies)),
        perturbations=tuple(couplings),
        level=3,
    )
    return problem, StateVector(random_state(rng, dim))


def _scan_arrays(problem, probe, grid):
    scan = scan_time(problem, probe, grid)
    return scan.qfim, scan.uhlmann


class TestProbeSpaceEngine:
    """scan_time and dynamic_report against full K operators at each time."""

    RTOL = 1e-12  # relative to max|Q|, for Q and D alike

    GRIDS = {
        "tiny-times": np.concatenate([[0.0, 1e-9, 1e-6], np.linspace(0.1, 6.0, 10)]),
        "regular": np.concatenate([[0.0], np.linspace(0.02, 6.0, 10)]),
    }

    def assert_matches_reference(self, problem, probe, grid):
        q, d = _scan_arrays(problem, probe, grid)
        q_ref, d_ref = _per_time_reference(problem, probe, grid)
        scale = float(np.max(np.abs(q_ref)))
        assert np.max(np.abs(q - q_ref)) <= self.RTOL * scale
        assert np.max(np.abs(d - d_ref)) <= self.RTOL * scale

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

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("seed", range(6))
    def test_real_stack_with_dense_eigenbasis(self, seed, grid_name):
        problem, probe = _random_real_model(seed)
        assert problem.coupling_columns(0, [0]).dtype == np.float64
        vectors = problem.spectral.eigenvectors
        assert np.count_nonzero(vectors) == vectors.size  # V is no permutation
        self.assert_matches_reference(problem, probe, self.GRIDS[grid_name])

    @pytest.mark.parametrize("tiny_gap", [False, True], ids=["degenerate", "degenerate+tiny"])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("seed", range(4))
    def test_coupled_degenerate_levels(self, seed, grid_name, tiny_gap):
        problem, probe = _degenerate_model(seed, tiny_gap)
        energies = problem.spectral.eigenvalues
        assert energies[0] == energies[1]  # row 0 holds two zero-gap pairs
        assert (energies[2] - energies[1] < 1e-6) == tiny_gap
        assert problem.coupling_columns(0, [0]).dtype == (np.complex128 if seed % 2 else np.float64)
        self.assert_matches_reference(problem, probe, self.GRIDS[grid_name])

    def test_coupling_stack_dtype_and_values(self):
        anharmonic = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        qutrit = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=1.2))
        every = np.arange(16)
        assert anharmonic.coupling_columns(1, every).dtype == np.float64
        assert anharmonic.coupling_columns(1, every).shape == (16, 16)
        assert anharmonic.coupling_columns(1, 3).shape == (16,)
        # each coupling's columns take that coupling's dtype: the qutrit's
        # first coupling is real, its second complex
        assert qutrit.coupling_columns(0, np.arange(3)).dtype == np.float64
        assert qutrit.coupling_columns(1, np.arange(3)).dtype == np.complex128
        assert set(vars(anharmonic)) == UNCACHED  # nothing shared to guard
        for p in (anharmonic, qutrit):
            v = p.spectral.eigenvectors
            for mu, h in enumerate(p.perturbations):
                h_eig = p.coupling_columns(mu, np.arange(p.dim))
                assert np.max(np.abs(v.conj().T @ h.matrix @ v - h_eig)) <= 1e-12
                for n in range(p.dim):  # a scalar index reads the same column
                    column = p.coupling_columns(mu, n)
                    assert np.array_equal(column, p.coupling_columns(mu, [n])[:, 0])

    @pytest.mark.parametrize("mu", [-1, 2])
    def test_coupling_columns_rejects_a_parameter_out_of_range(self, mu):
        with pytest.raises(ValueError, match=r"parameter index -?\d outside \[0, 2\)"):
            ANHARMONIC.coupling_columns(mu, [0])

    def test_static_path_never_builds_the_stack(self, capsys, monkeypatch):
        """The static path gathers one column, the level's, once per coupling."""
        gathered = record_gathers(monkeypatch)
        p = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        static_report([first_order_correction(p, mu) for mu in range(2)])
        assert [(q, mu, columns.tolist()) for q, mu, columns in gathered] == [
            (p, 0, p.level), (p, 1, p.level)
        ]

        resolved = []
        resolve = cli._resolve_problem

        def recording(args):
            problem, name = resolve(args)
            resolved.append(problem)
            return problem, name

        monkeypatch.setattr(cli, "_resolve_problem", recording)
        argv = ["--model", "anharmonic", "--output-format", "csv"]
        commands = [
            ["oracle-check", *argv, "--lambda", "1e-3", "1e-3"],
            ["static", *argv],
            ["scan", *argv, "--t-min", "0.1", "--t-max", "1", "--t-steps", "3"],
        ]
        for command in commands:
            gathered.clear()
            assert cli.main(command) == 0
            problem = resolved[-1]
            # the vacuum probe's support is the level itself
            support = [(problem, mu, [0]) for mu in range(2)] if command[0] == "scan" else []
            static = [(problem, mu, problem.level) for mu in range(2)]
            calls = [(q, mu, columns.tolist()) for q, mu, columns in gathered]
            assert calls == support + static, command[0]
        capsys.readouterr()

    @pytest.mark.parametrize("level", [2, 5])
    def test_static_reference_at_another_level(self, level, monkeypatch):
        """A probe on eigenstate k != p.level gets level k's static bound, from one eigensolve."""
        solves = count_hermitian_eig(monkeypatch)
        p = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        assert p.level != level
        scan = scan_time(p, p.spectral.eigenstate(level), [0.5, 1.0])
        assert solves == [p.h0]
        at_level = replace(p, level=level)
        expected = static_report([first_order_correction(at_level, mu) for mu in range(2)])
        assert scan.static_reference == expected.bound_b

    @pytest.mark.parametrize("seed", range(4))
    def test_change_of_basis_invariance(self, seed):
        """Q and D do not change when H0, the H_mu and the probe share a basis change.

        A real orthogonal change keeps the coupling columns real; a complex
        unitary one moves the same model onto complex columns.
        """
        problem, probe = _random_real_model(seed)
        rng = np.random.default_rng(2600 + seed)
        dim = problem.dim
        orthogonal = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        grid = self.GRIDS["regular"]
        q, d = _scan_arrays(problem, probe, grid)
        for u, dtype in ((orthogonal, np.float64), (unitary, np.complex128)):
            def rotate(h):
                m = u @ h.matrix @ u.conj().T
                return HermitianOperator(0.5 * (m + m.conj().T))

            moved = PerturbationProblem(
                h0=rotate(problem.h0),
                perturbations=tuple(map(rotate, problem.perturbations)),
                level=0,
            )
            assert moved.coupling_columns(0, [0]).dtype == dtype
            q_moved, d_moved = _scan_arrays(moved, StateVector(u @ probe.amplitudes), grid)
            scale = float(np.max(np.abs(q)))
            assert np.max(np.abs(q_moved - q)) <= self.RTOL * scale
            assert np.max(np.abs(d_moved - d)) <= self.RTOL * scale

    def test_dynamic_report_matches_reference(self):
        problem, probe = _random_gapped_model(3)
        for t in (0.0, 1e-9, 1e-6, 0.7, 4.2):
            report = dynamic_report(problem, probe, t)
            q_ref, d_ref = _per_time_reference(problem, probe, [t])
            scale = max(float(np.max(np.abs(q_ref))), 1e-300)
            assert np.max(np.abs(report.qfim.entries - q_ref[0])) <= self.RTOL * scale
            assert np.max(np.abs(report.uhlmann.entries - d_ref[0])) <= self.RTOL * scale

    def test_zero_time_forms_no_phase_and_no_stack(self, monkeypatch):
        # K(0) = 0 exactly, so no phase, kernel or coupling column is formed
        gathered = record_gathers(monkeypatch)
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=128))

        def no_sin(*args, **kwargs):
            raise AssertionError("np.sin called at t = 0")

        monkeypatch.setattr(np, "sin", no_sin)
        report = dynamic_report(problem, models.vacuum_state(128), 0.0)
        assert not report.qfim.entries.any() and not report.uhlmann.entries.any()
        assert report.bound_b == math.inf and report.quantumness_r is None
        assert not gathered

    def test_dynamic_report_rejects_bad_times(self):
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                dynamic_report(QUBIT1, models.qubit_probe(0, 0), t)
        with pytest.raises(DimensionMismatchError):
            dynamic_report(ANHARMONIC, models.qubit_probe(0, 0), 1.0)


def _exact_tangents(problem, probe, grid):
    """K~_mu(t) c from a full V^dag H_mu V and the kernel t e^{igt/2} sinc(gt/2)."""
    dec = problem.spectral
    v = dec.eigenvectors
    c = v.conj().T @ probe.amplitudes
    full = np.array([v.conj().T @ h.matrix @ v for h in problem.perturbations])
    gaps = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
    kernels = np.array(
        [t * np.exp(0.5j * gaps * t) * np.sinc(0.5 * gaps * t / np.pi) for t in grid]
    )
    return np.einsum("tij,pij,j->tpi", kernels, full, c), full, c


def _off_probe(x, c):
    """x with its component along c removed, which the geometric tensor ignores."""
    return x - np.multiply.outer(x @ c.conj() / np.vdot(c, c), c)


def _on_every_row(x, rows, dim):
    """``x``, given on the eigenbasis rows ``rows`` along its last axis, zero-filled to ``dim``."""
    full = np.zeros((*x.shape[:-1], dim), dtype=x.dtype)
    full[..., rows] = x
    return full


class TestSupportGather:
    """coupling_columns and the tangents on the probe's support against a full V^dag H_mu V."""

    RTOL = 1e-14  # relative to the largest entry
    GRID = np.linspace(0.5, 6.0, 12)

    @staticmethod
    def support_probe(dim, levels, rng):
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[levels] = random_state(rng, len(levels))
        return StateVector(amplitudes)

    def assert_gather_matches(self, problem, probe, gathered, projection_rtol=0.0):
        """``projection_rtol`` bounds c = V^dag psi0 against numpy's product,
        relative to its largest entry; bit-identical by default.  Returns
        the gathered columns S and the reached rows R."""
        tangents, c, rows = _probe_tangents(problem, probe, self.GRID)
        exact, full, c_ref = _exact_tangents(problem, probe, self.GRID)
        tangents = _on_every_row(tangents, rows, problem.dim)
        c = _on_every_row(c, rows, problem.dim)
        assert np.max(np.abs(c - c_ref)) <= projection_rtol * np.max(np.abs(c_ref))
        calls = list(gathered)
        assert [(q, mu) for q, mu, _ in calls] == [(problem, mu) for mu in range(len(full))]
        columns = calls[0][2]
        assert all(np.array_equal(cols, columns) for _, _, cols in calls)
        assert np.array_equal(columns, np.flatnonzero(c))
        for mu, h in enumerate(full):
            block = problem.coupling_columns(mu, columns)
            assert block.shape == (problem.dim, columns.size)
            assert np.max(np.abs(block - h[:, columns])) <= self.RTOL * np.max(np.abs(full))
        # R is S and every row a coupling's columns on S reach; the exact
        # tangents vanish off it
        reached = np.union1d(columns, np.flatnonzero(full[:, :, columns].any(axis=(0, 2))))
        assert np.array_equal(rows, reached)
        assert not exact[..., np.setdiff1d(np.arange(problem.dim), rows)].any()
        scale = np.max(np.abs(_off_probe(exact, c)))
        assert np.max(np.abs(_off_probe(tangents - exact, c))) <= self.RTOL * scale
        return columns, rows

    @pytest.mark.parametrize("support", ["one", "few", "dense"])
    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_h0(self, seed, support, monkeypatch):
        problem, probe = _degenerate_model(seed, tiny_gap=False)
        assert problem.coupling_columns(0, [0]).dtype == (np.complex128 if seed % 2 else np.float64)
        rng = np.random.default_rng(2700 + seed)
        dim = problem.dim
        levels = {"one": [3], "few": [0, 2, dim - 1], "dense": list(range(dim))}[support]
        if support != "dense":
            probe = self.support_probe(dim, levels, rng)
        gathered = record_gathers(monkeypatch)
        columns, _ = self.assert_gather_matches(problem, probe, gathered)
        assert columns.tolist() == levels

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenstate_of_a_dense_h0_keeps_full_support(self, seed, monkeypatch):
        """c = V^dag V[:, k] carries rounding on every level, so S is every level."""
        problem, _ = _random_real_model(seed)
        probe = problem.spectral.eigenstate(1)
        c = problem.spectral.eigenvectors.conj().T @ probe.amplitudes
        assert 0.0 < np.min(np.abs(c)) < 1e-14
        gathered = record_gathers(monkeypatch)
        columns, rows = self.assert_gather_matches(problem, probe, gathered)
        assert columns.size == rows.size == problem.dim

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("dim", [64, 80])
    def test_dense_model_at_the_float_view_size(self, dim, real, monkeypatch):
        """A dense eigenbasis of at least ``_TILE`` levels and a dense probe.

        With a real model every eigenbasis product meets complex data on its
        float view, whose sums round differently from numpy's complex
        product; with a complex one, numpy's product.
        """
        rng = np.random.default_rng(2800 + dim)
        if real:
            basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            couplings = [rng.normal(size=(dim, dim)) for _ in range(2)]
        else:
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            basis = np.linalg.qr(z)[0]
            couplings = [random_hermitian(rng, dim) for _ in range(2)]
        h0 = (basis * rng.uniform(-3.0, 3.0, dim)) @ basis.conj().T
        problem = PerturbationProblem(
            h0=HermitianOperator(0.5 * (h0 + h0.conj().T)),
            perturbations=tuple(HermitianOperator(0.5 * (m + m.conj().T)) for m in couplings),
            level=0,
        )
        dtype = np.float64 if real else np.complex128
        assert problem.coupling_columns(0, [0]).dtype == dtype
        assert problem.spectral.eigenvectors.dtype == dtype
        gathered = record_gathers(monkeypatch)
        probe = StateVector(random_state(rng, dim))
        columns, rows = self.assert_gather_matches(problem, probe, gathered, projection_rtol=1e-15)
        assert columns.size == rows.size == dim

    def test_tiny_amplitude_stays_in_the_support(self, monkeypatch):
        problem, _ = _degenerate_model(1, tiny_gap=False)
        amplitudes = np.zeros(problem.dim, dtype=complex)
        amplitudes[[2, 4]] = 1.0, 1e-300
        # level 4 is coupled to level 2
        assert all(problem.coupling_columns(mu, 2)[4] for mu in range(2))
        gathered = record_gathers(monkeypatch)
        columns, _ = self.assert_gather_matches(problem, StateVector(amplitudes), gathered)
        assert columns.tolist() == [2, 4]

    @pytest.mark.parametrize("support", ["one", "few"])
    @pytest.mark.parametrize("seed", range(4))
    def test_banded_couplings_reach_a_few_rows(self, seed, support, monkeypatch):
        """The degenerate model with couplings cut to their tridiagonal band.

        Each level on the support reaches itself and its two neighbours,
        the exactly degenerate pair (0, 1) among them for "few".
        """
        problem, _ = _degenerate_model(seed, tiny_gap=False)
        dim = problem.dim
        band = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= 1
        problem = replace(
            problem,
            perturbations=tuple(HermitianOperator(h.matrix * band) for h in problem.perturbations),
        )
        levels = {"one": [3], "few": [0, 2, dim - 1]}[support]
        probe = self.support_probe(dim, levels, np.random.default_rng(2900 + seed))
        gathered = record_gathers(monkeypatch)
        columns, rows = self.assert_gather_matches(problem, probe, gathered)
        assert columns.tolist() == levels
        expected = {"one": {2, 3, 4}, "few": {0, 1, 2, 3, dim - 2, dim - 1}}[support]
        assert rows.tolist() == sorted(expected)

    def test_few_rows_of_a_wide_model_take_numpy_products(self, monkeypatch):
        """|R| < ``_TILE`` <= d: the rows cut to R leave the float-view product for numpy's."""
        dim = 80
        rng = np.random.default_rng(3000)
        band = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= 2
        couplings = [rng.normal(size=(dim, dim)) * band for _ in range(2)]
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.sort(rng.uniform(-3.0, 3.0, dim)))),
            perturbations=tuple(HermitianOperator(0.5 * (m + m.T)) for m in couplings),
            level=0,
        )
        assert problem.coupling_columns(0, [0]).dtype == np.float64
        probe = self.support_probe(dim, [10, 40, 70], rng)
        gathered = record_gathers(monkeypatch)
        _, rows = self.assert_gather_matches(problem, probe, gathered)
        assert rows.size == 15 < operators._TILE <= dim

    @pytest.mark.parametrize("fock_dim", [16, 128, 1024])
    def test_anharmonic_vacuum_reaches_five_rows(self, fock_dim):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=fock_dim))
        tangents, c, rows = _probe_tangents(problem, models.vacuum_state(fock_dim), self.GRID)
        assert rows.tolist() == [0, 1, 2, 3, 4]
        assert tangents.shape == (self.GRID.size, 2, 5) and c.tolist() == [1, 0, 0, 0, 0]

    def test_dense_probe_reaches_every_row(self):
        probe = StateVector(random_state(np.random.default_rng(3100), 16))
        tangents, c, rows = _probe_tangents(ANHARMONIC, probe, self.GRID)
        assert np.array_equal(rows, np.arange(16))
        assert tangents.shape == (self.GRID.size, 2, 16) and c.shape == (16,)

    def test_fock_1024_vacuum_gathers_one_column_per_coupling(self, monkeypatch):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=1024))
        gathered = record_gathers(monkeypatch)
        scan = scan_time(problem, models.vacuum_state(1024), self.GRID)
        # the probe's support, then the static reference's level: the same column
        calls = [(q, mu, columns.tolist()) for q, mu, columns in gathered]
        assert calls == [(problem, 0, [0]), (problem, 1, [0]), (problem, 0, 0), (problem, 1, 0)]
        assert problem.coupling_columns(0, [0]).shape == (1024, 1)
        for t, q in zip(self.GRID, scan.qfim):
            q11, q22, q12 = models.reference_anharmonic_dynamic(t)
            assert np.max(np.abs(q - [[q11, q12], [q12, q22]])) <= 1e-12 * q11


class TestLongTimes:
    def test_overflowing_phases_raise_before_any_phase(self, monkeypatch):
        def no_cos(*args, **kwargs):
            raise AssertionError("a phase was formed")

        monkeypatch.setattr(np, "cos", no_cos)
        with pytest.raises(ValueError, match=r"^interaction time 1e\+308 is too long"):
            dynamic_report(ANHARMONIC, VACUUM, 1e308)
        with pytest.raises(ValueError, match=r"^interaction time 1e\+308 is too long"):
            scan_time(ANHARMONIC, VACUUM, [0.0, 1.0, 1e308])

    @pytest.mark.parametrize("t", [1e6, 1e8, 1e10, 1e12])
    def test_vacuum_matches_closed_form(self, t):
        # the zero-gap term's part along the probe grows as t but is only a
        # phase; kept, its square cancelled in Q22 until Q22 read 0 at 1e10
        q = dynamic_report(ANHARMONIC, VACUUM, t).qfim.entries
        q11, q22, q12 = models.reference_anharmonic_dynamic(t)
        assert q[0, 0] == pytest.approx(q11, rel=1e-12)
        assert q[1, 1] == pytest.approx(q22, rel=1e-12)
        assert abs(q[0, 1] - q12) <= 1e-12 * q11


def _golden_model(name):
    return cli.load_hamiltonian_file(str(Path(__file__).parent / "golden" / name))


STATIC_REFERENCE_MODELS = {
    "qubit": (models.build(ModelSpec(ModelKind.QUBIT_1PARAM)), None),
    "qubit2": (models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.7)), None),
    "qutrit": (models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=1.2)), None),
    # the levels of test_static_reference_at_another_level among them
    "anharmonic-16": (ANHARMONIC, [0, 1, 2, 5, 11]),
    "anharmonic-128": (models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=128)),
                       [0, 2, 5, 64]),
    "dense_real": (_golden_model("dense_real.json"), None),
    "real_h0_complex_coupling": (_golden_model("real_h0_complex_coupling.json"), None),
}


class TestStaticReference:
    """A scan's static reference is static_report's bound B, bit for bit, or None."""

    @staticmethod
    def expected(p, level):
        at_level = replace(p, level=level)
        try:
            corrections = [first_order_correction(at_level, mu) for mu in range(p.num_parameters)]
        except DegeneracyError:
            return None
        return static_report(corrections).bound_b

    @pytest.mark.parametrize("name", sorted(STATIC_REFERENCE_MODELS))
    def test_equals_the_static_report_bit_for_bit(self, name):
        p, levels = STATIC_REFERENCE_MODELS[name]
        for level in range(p.dim) if levels is None else levels:
            scan = scan_time(p, p.spectral.eigenstate(level), [0.0, 0.5, 1.3])
            expected = self.expected(p, level)
            assert expected is not None, (name, level)
            assert np.float64(scan.static_reference).tobytes() == np.float64(expected).tobytes(), (
                name, level
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_coupled_level_has_none(self, seed):
        problem, _ = _degenerate_model(seed, tiny_gap=False)
        for level in (0, 1):  # exactly degenerate with each other and coupled
            assert self.expected(problem, level) is None
            scan = scan_time(problem, problem.spectral.eigenstate(level), [0.5, 1.0])
            assert scan.static_reference is None
        level = problem.level  # not degenerate with any level
        scan = scan_time(problem, problem.spectral.eigenstate(level), [0.5, 1.0])
        expected = self.expected(problem, level)
        assert np.float64(scan.static_reference).tobytes() == np.float64(expected).tobytes()

    def test_probe_off_every_eigenstate_has_none(self):
        p = STATIC_REFERENCE_MODELS["qutrit"][0]
        probe = StateVector(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
        assert scan_time(p, probe, [0.5, 1.0]).static_reference is None
