"""Tests for first-order corrections, overlaps, and the angle decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perturbsense import (
    DegeneracyError,
    HermitianOperator,
    ParallelCorrectionsError,
    PerturbationProblem,
    ZeroCorrectionError,
    angle_decomposition,
    first_order_correction,
    overlaps,
    perturbed_state,
)
from perturbsense import models, oracle
from perturbsense.models import ModelKind, ModelSpec

from helpers import phase_align, random_hermitian

QUBIT1 = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))


def reconstruct(dec):
    """Rebuild both directions from the decomposition's angles and basis."""
    j = dec.basis_j.amplitudes
    k = dec.basis_k.amplitudes
    phi1 = math.cos(dec.theta1 / 2.0) * j + math.sin(dec.theta1 / 2.0) * k
    phi2 = np.exp(1j * dec.gamma) * math.cos(dec.theta2 / 2.0) * j + np.exp(
        1j * (dec.gamma + dec.varphi)
    ) * math.sin(dec.theta2 / 2.0) * k
    return phi1, phi2


class TestHamiltonian:
    ANHARMONIC = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))

    def test_sum_is_bit_identical_and_read_only(self):
        p = self.ANHARMONIC
        lam = np.array([1e-3, -2.5e-4])
        h = p.hamiltonian(lam)
        expected = p.h0.matrix + lam[0] * p.perturbations[0].matrix
        expected = expected + lam[1] * p.perturbations[1].matrix
        assert isinstance(h, HermitianOperator)
        assert np.array_equal(h.matrix, expected)
        assert not h.matrix.flags.writeable
        assert not np.shares_memory(h.matrix, p.h0.matrix)

    def test_add_and_scale(self):
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(QUBIT1.hamiltonian([0.5]).matrix, sz + 0.5 * sx)

    @pytest.mark.parametrize(
        "p, lam",
        [
            pytest.param(QUBIT1, 0.5, id="scalar"),
            pytest.param(ANHARMONIC, [1e-3], id="too-short"),
            pytest.param(ANHARMONIC, [1e-3, 0.0, 0.0], id="too-long"),
            pytest.param(ANHARMONIC, [[1e-3, 0.0]], id="two-dimensional"),
        ],
    )
    def test_wrong_coupling_count_refused(self, p, lam):
        with pytest.raises(ValueError, match="couplings"):
            p.hamiltonian(lam)

    @pytest.mark.parametrize(
        "lam",
        [
            pytest.param([np.nan, 0.0], id="nan"),
            pytest.param([np.inf, 0.0], id="inf"),
            pytest.param([0.0, -np.inf], id="minus-inf"),
            pytest.param([1e308, 1e308], id="overflowing-sum"),
        ],
    )
    def test_non_finite_sum_refused(self, lam):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            self.ANHARMONIC.hamiltonian(lam)


class TestFirstOrderCorrection:
    def test_qubit_transverse(self):
        c = first_order_correction(QUBIT1, 0)
        assert np.allclose(c.raw.amplitudes, [0.0, 0.5])
        assert c.squared_norm == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(c.direction.amplitudes, [0.0, 1.0])

    def test_anharmonic_squared_norms(self):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=8))
        n1 = first_order_correction(problem, 0).squared_norm
        n2 = first_order_correction(problem, 1).squared_norm
        assert n1 == pytest.approx(29.0 / 24.0, abs=1e-10)
        assert n2 == pytest.approx(39.0 / 32.0, abs=1e-10)

    def test_commuting_perturbation_gives_zero(self):
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag([1.0, 2.0, 3.0]).astype(complex)),
            perturbations=(HermitianOperator(np.diag([0.5, -0.2, 0.1]).astype(complex)),),
            level=0,
        )
        c = first_order_correction(problem, 0)
        assert c.squared_norm == 0.0
        assert c.direction is None
        assert np.all(c.raw.amplitudes == 0.0)

    def test_degenerate_coupled_level_raises(self):
        h0 = HermitianOperator(np.diag([0.0, 1.0, 1.0]).astype(complex))
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[1, 2] = coupling[2, 1] = 1.0
        problem = PerturbationProblem(
            h0=h0, perturbations=(HermitianOperator(coupling),), level=1
        )
        with pytest.raises(DegeneracyError):
            first_order_correction(problem, 0)

    def test_degenerate_uncoupled_level_is_fine(self):
        h0 = HermitianOperator(np.diag([0.0, 1.0, 1.0]).astype(complex))
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[0, 1] = coupling[1, 0] = 1.0
        problem = PerturbationProblem(
            h0=h0, perturbations=(HermitianOperator(coupling),), level=0
        )
        c = first_order_correction(problem, 0)
        assert c.squared_norm == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonal_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        dim = rng.integers(3, 12)
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.sort(rng.normal(size=dim) * 3)).astype(complex)),
            perturbations=(HermitianOperator(random_hermitian(rng, dim)),),
            level=int(rng.integers(0, dim)),
        )
        c = first_order_correction(problem, 0)
        overlap = np.vdot(c.reference.amplitudes, c.raw.amplitudes)
        assert abs(overlap) <= 1e-10
        assert c.squared_norm == pytest.approx(np.linalg.norm(c.raw.amplitudes) ** 2, abs=1e-12)


class TestOverlaps:
    def test_qutrit_real_overlap(self):
        for alpha in (0.4, 1.0, np.pi / 2):
            problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            cs = [first_order_correction(problem, mu) for mu in range(2)]
            omega = overlaps(cs).entries
            assert omega[0, 1] == pytest.approx(math.cos(alpha), abs=1e-12)

    def test_qubit_two_param_phase_overlap(self):
        alpha = 0.9
        problem = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=alpha))
        cs = [first_order_correction(problem, mu) for mu in range(2)]
        omega = overlaps(cs).entries
        assert omega[0, 1] == pytest.approx(np.exp(1j * alpha), abs=1e-12)

    def test_anharmonic_orthogonal(self):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM))
        cs = [first_order_correction(problem, mu) for mu in range(2)]
        assert abs(overlaps(cs).entries[0, 1]) <= 1e-12

    def test_qutrit_top_level_degenerates_like_qubit(self):
        # perturbing the top spin-1 level routes both couplings into the
        # same middle state, so the overlap becomes a bare phase
        alpha = 0.8
        base = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
        problem = PerturbationProblem(
            h0=base.h0, perturbations=base.perturbations, level=2
        )
        cs = [first_order_correction(problem, mu) for mu in range(2)]
        assert overlaps(cs).entries[0, 1] == pytest.approx(
            np.exp(1j * alpha), abs=1e-12
        )
        with pytest.raises(ParallelCorrectionsError):
            angle_decomposition(cs[0], cs[1])

    def test_zero_correction_raises(self):
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag([1.0, 2.0]).astype(complex)),
            perturbations=(HermitianOperator(np.diag([1.0, -1.0]).astype(complex)),),
            level=0,
        )
        with pytest.raises(ZeroCorrectionError):
            overlaps([first_order_correction(problem, 0)])

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_unit_diagonal(self, seed):
        rng = np.random.default_rng(40 + seed)
        dim = 8
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex)),
            perturbations=tuple(
                HermitianOperator(random_hermitian(rng, dim)) for _ in range(3)
            ),
            level=2,
        )
        cs = [first_order_correction(problem, mu) for mu in range(3)]
        omega = overlaps(cs).entries
        assert np.max(np.abs(omega - omega.conj().T)) <= 1e-12
        assert np.allclose(np.diag(omega), 1.0)
        assert np.max(np.abs(omega)) <= 1.0 + 1e-12


class TestAngleDecomposition:
    def test_orthogonal_pair_is_its_own_basis(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        c1, c2 = (first_order_correction(problem, mu) for mu in range(2))
        dec = angle_decomposition(c1, c2)
        phi1, phi2 = reconstruct(dec)
        assert np.max(np.abs(phi1 - c1.direction.amplitudes)) <= 1e-10
        assert np.max(np.abs(phi2 - c2.direction.amplitudes)) <= 1e-10
        # omega = 0 here, so the second direction is the second basis vector
        assert dec.theta2 == pytest.approx(np.pi, abs=1e-12)

    def test_overlap_formula_matches_angles(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.8))
        c1, c2 = (first_order_correction(problem, mu) for mu in range(2))
        dec = angle_decomposition(c1, c2)
        from_angles = math.cos(dec.theta1 / 2) * math.cos(dec.theta2 / 2) * np.exp(
            1j * dec.gamma
        ) + math.sin(dec.theta1 / 2) * math.sin(dec.theta2 / 2) * np.exp(
            1j * (dec.gamma + dec.varphi)
        )
        omega = overlaps([c1, c2]).entries[0, 1]
        assert from_angles == pytest.approx(omega, abs=1e-12)

    def test_qutrit_closed_form_angles_reproduce_corrections(self):
        # theta1 = theta2 = 3*pi/2, gamma = -alpha, varphi = 2*alpha over
        # the basis j = |1,1>, k = |1,-1> is a valid decomposition of the
        # qutrit corrections; verify the convention formulas reproduce them.
        alpha = np.pi / 2
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
        c1, c2 = (first_order_correction(problem, mu) for mu in range(2))
        j = np.array([1.0, 0.0, 0.0], dtype=complex)   # |1,1> in the z-basis order
        k = np.array([0.0, 0.0, 1.0], dtype=complex)   # |1,-1>
        theta = 3 * np.pi / 2
        gamma = (-alpha) % (2 * np.pi)
        varphi = 2 * alpha
        phi1 = math.cos(theta / 2) * j + math.sin(theta / 2) * k
        phi2 = np.exp(1j * gamma) * math.cos(theta / 2) * j + np.exp(
            1j * (gamma + varphi)
        ) * math.sin(theta / 2) * k
        assert np.max(np.abs(phi1 - c1.direction.amplitudes)) <= 1e-12
        assert np.max(np.abs(phi2 - c2.direction.amplitudes)) <= 1e-12
        assert gamma == pytest.approx(3 * np.pi / 2)
        assert varphi == pytest.approx(np.pi)

    def test_parallel_corrections_raise(self):
        problem = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=1.2))
        c1, c2 = (first_order_correction(problem, mu) for mu in range(2))
        with pytest.raises(ParallelCorrectionsError):
            angle_decomposition(c1, c2)

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_roundtrip_random(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = 7
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex)),
            perturbations=tuple(
                HermitianOperator(random_hermitian(rng, dim)) for _ in range(2)
            ),
            level=3,
        )
        c1, c2 = (first_order_correction(problem, mu) for mu in range(2))
        dec = angle_decomposition(c1, c2)
        phi1, phi2 = reconstruct(dec)
        assert np.max(np.abs(phi1 - c1.direction.amplitudes)) <= 1e-10
        assert np.max(np.abs(phi2 - c2.direction.amplitudes)) <= 1e-10
        for angle in (dec.theta1, dec.theta2, dec.gamma, dec.varphi):
            assert 0.0 <= angle < 2 * np.pi
        # basis orthonormality
        assert abs(np.vdot(dec.basis_j.amplitudes, dec.basis_k.amplitudes)) <= 1e-12


class TestPerturbedState:
    def test_qubit_amplitude_ratio(self):
        psi = perturbed_state(QUBIT1, [0.01]).amplitudes
        assert psi[1] / psi[0] == pytest.approx(0.005, abs=1e-12)

    def test_zero_lambda_returns_reference(self):
        psi = perturbed_state(QUBIT1, [0.0]).amplitudes
        assert np.allclose(psi, [1.0, 0.0])

    def test_qubit_two_param_closed_form(self):
        alpha, l1, l2 = 0.7, 0.01, -0.02
        problem = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=alpha))
        psi = perturbed_state(problem, [l1, l2]).amplitudes
        raw = np.array([1.0, 0.5 * (l1 + l2 * np.exp(1j * alpha))])
        raw /= np.linalg.norm(raw)
        assert np.max(np.abs(psi - raw)) <= 1e-12

    def test_warns_outside_weak_regime(self):
        with pytest.warns(UserWarning, match="weak-coupling"):
            perturbed_state(QUBIT1, [0.5])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_eigenstate_to_second_order(self, seed):
        rng = np.random.default_rng(300 + seed)
        dim = 6
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.arange(dim, dtype=float) * 1.5).astype(complex)),
            perturbations=tuple(
                HermitianOperator(random_hermitian(rng, dim)) for _ in range(2)
            ),
            level=int(rng.integers(0, dim)),
        )
        direction = rng.normal(size=2)
        lam = 1e-3 * direction / np.linalg.norm(direction)
        approx = perturbed_state(problem, lam).amplitudes
        exact = oracle.exact_eigenstate(problem, lam).amplitudes
        error = np.linalg.norm(phase_align(exact, approx) - approx)
        assert error <= 10.0 * float(np.dot(lam, lam))
