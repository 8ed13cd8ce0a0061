"""Tests for the model factories and closed-form reference functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perturbsense import first_order_correction, qfim_static, bound_b
from perturbsense.models import (
    ModelKind,
    ModelSpec,
    build,
    lowering_operator,
    pauli_matrices,
    position_operator,
    qubit_probe,
    qutrit_probe,
    reference_anharmonic_dynamic,
    reference_qubit_dynamic_qfi,
    reference_qutrit_dynamic,
    reference_qutrit_static,
    spin1_matrices,
    trusted_level_count,
    vacuum_state,
)

from helpers import force_complex, x_power_element

# The build rounds each product of two band entries before it adds it, where
# a zgemm with fused multiply-adds rounds once per term, so the two agree to a
# few ulp of max|x^k| (worst seen: 7.4e-16 = 3.4 eps, at fock 1024).
BAND_RTOL = 8 * np.finfo(float).eps
BAND_FOCK_DIMS = [*range(8, 71), 127, 128, 129, 256, 512, 1024]


class TestAlgebra:
    def test_pauli_commutators(self):
        sx, sy, sz = pauli_matrices()
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            assert np.max(np.abs(a @ b - b @ a - 2j * c)) <= 1e-12

    def test_spin1_commutators(self):
        sx, sy, sz = spin1_matrices()
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) <= 1e-12
        assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) <= 1e-12
        assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) <= 1e-12

    def test_ladder_commutator_truncated(self):
        a = lowering_operator(10)
        comm = a @ a.conj().T - a.conj().T @ a
        # truncation corrupts only the last diagonal entry
        assert np.max(np.abs(comm[:9, :9] - np.eye(9))) <= 1e-12


class TestBuild:
    def test_qubit_levels_and_perturbation(self):
        problem = build(ModelSpec(ModelKind.QUBIT_1PARAM))
        sx, _, sz = pauli_matrices()
        assert np.array_equal(problem.h0.matrix, sz)
        assert np.array_equal(problem.perturbations[0].matrix, sx)
        # level indexes the ascending spectrum; |0> sits at eigenvalue +1
        assert problem.level == 1
        assert np.allclose(problem.spectral.eigenstate(1).amplitudes, [1.0, 0.0])

    def test_qutrit_matrices(self):
        alpha = 0.6
        problem = build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
        sx, sy, _ = spin1_matrices()
        assert np.array_equal(problem.perturbations[0].matrix, sx)
        assert np.max(
            np.abs(
                problem.perturbations[1].matrix
                - math.cos(alpha) * sx
                - math.sin(alpha) * sy
            )
        ) <= 1e-15
        assert np.allclose(problem.spectral.eigenstate(1).amplitudes, [0.0, 1.0, 0.0])

    def test_alpha_required_for_two_param_kinds(self):
        with pytest.raises(ValueError):
            build(ModelSpec(ModelKind.QUTRIT_2PARAM))
        with pytest.raises(ValueError):
            build(ModelSpec(ModelKind.QUBIT_2PARAM))

    def test_fock_dim_floor(self):
        with pytest.raises(ValueError):
            build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=6))

    def test_anharmonic_cubic_elements(self):
        problem = build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=8))
        x3 = problem.perturbations[0].matrix
        assert x3[1, 0] == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
        assert x3[3, 0] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("power_index,power", [(0, 3), (1, 4)])
    def test_truncated_powers_match_ladder_expansion(self, power_index, power):
        fock_dim = 12
        problem = build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=fock_dim))
        matrix = problem.perturbations[power_index].matrix
        assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12
        trusted = trusted_level_count(fock_dim)
        for m in range(trusted):
            for n in range(trusted):
                assert matrix[m, n] == pytest.approx(
                    x_power_element(m, n, power), abs=1e-12
                )

    @pytest.mark.parametrize("fock_dim", BAND_FOCK_DIMS)
    def test_banded_build_matches_the_dense_truncated_products(self, fock_dim):
        """x^3 and x^4 agree entry by entry with the products of the dense
        truncated x, are exactly zero off their bands and are stored as
        float64; H0 is a^dag a + I/2 bit for bit."""
        problem = build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=fock_dim))
        a = lowering_operator(fock_dim)
        h0 = a.conj().T @ a + 0.5 * np.eye(fock_dim, dtype=complex)
        assert problem.h0.matrix.dtype == np.float64
        assert not h0.imag.any() and np.array_equal(problem.h0.matrix, h0.real)
        x = position_operator(fock_dim)
        x2 = x @ x
        level = np.arange(fock_dim)
        offset = level[None, :] - level[:, None]  # j - i at entry (i, j)
        for op, dense, bands in (
            (problem.perturbations[0], x2 @ x, (-3, -1, 1, 3)),
            (problem.perturbations[1], x2 @ x2, (-4, -2, 0, 2, 4)),
        ):
            m = op.matrix
            assert m.dtype == np.float64
            assert not dense.imag.any()
            tolerance = BAND_RTOL * np.max(np.abs(dense))
            assert np.max(np.abs(m - dense.real)) <= tolerance
            assert np.all(m[~np.isin(offset, bands)] == 0.0)

    def test_forced_complex_build_keeps_the_values(self, monkeypatch):
        spec = ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16)
        real = build(spec)
        force_complex(monkeypatch)
        forced = build(spec)
        for r, f in zip((real.h0, *real.perturbations), (forced.h0, *forced.perturbations)):
            assert f.matrix.dtype == np.complex128
            assert np.array_equal(f.matrix, r.matrix)

    def test_position_operator_matches_expansion(self):
        x = position_operator(6)
        for m in range(6):
            for n in range(6):
                assert x[m, n] == pytest.approx(x_power_element(m, n, 1), abs=1e-12)


class TestProbes:
    def test_qubit_probe(self):
        probe = qubit_probe(np.pi / 2, np.pi / 3)
        assert abs(probe.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
        assert np.angle(probe.amplitudes[1]) == pytest.approx(np.pi / 3)

    def test_qutrit_probe_is_middle_level(self):
        assert np.array_equal(qutrit_probe().amplitudes, [0.0, 1.0, 0.0])

    def test_vacuum(self):
        v = vacuum_state(5)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0.0)


class TestReferenceFunctions:
    def test_qubit_dynamic_values(self):
        assert reference_qubit_dynamic_qfi(np.pi / 2, 0.0, 0.0) == pytest.approx(4.0)
        assert reference_qubit_dynamic_qfi(0.0, 1.0, 2.0) == 0.0
        # 4 sin^2(pi/4) [1 - cos^2(pi/4)] = 2 * (1 - 1/2) = 1
        assert reference_qubit_dynamic_qfi(np.pi / 4, np.pi / 2, 0.0) == pytest.approx(1.0)

    def test_qutrit_static_values(self):
        _, b, r = reference_qutrit_static(np.pi / 2)
        assert b == pytest.approx(0.5)
        assert r == 0.0
        _, b, _ = reference_qutrit_static(np.pi / 4)
        assert b == pytest.approx(1.0)
        _, b, _ = reference_qutrit_static(0.0)
        assert b == math.inf

    def test_qutrit_dynamic_values(self):
        q, b = reference_qutrit_dynamic(np.pi, np.pi / 2)
        assert np.allclose(q, 16.0 * np.eye(2))
        assert b == pytest.approx(1.0 / 8.0)

    def test_anharmonic_dynamic_values(self):
        assert reference_anharmonic_dynamic(0.0) == pytest.approx((0.0, 0.0, 0.0))
        q11, q22, q12 = reference_anharmonic_dynamic(np.pi)
        assert q11 == pytest.approx(58.0 / 3.0)
        assert q22 == pytest.approx(0.0, abs=1e-12)
        assert q12 == 0.0
        q11, q22, _ = reference_anharmonic_dynamic(2.0)
        assert q11 == pytest.approx(12.77, abs=5e-3)
        assert q22 == pytest.approx(15.74, abs=5e-3)

    def test_references_match_engine_on_grid(self):
        for alpha in np.linspace(0.3, np.pi - 0.3, 5):
            problem = build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            cs = [first_order_correction(problem, mu) for mu in range(2)]
            q_ref, b_ref, _ = reference_qutrit_static(alpha)
            q = qfim_static(cs)
            assert np.max(np.abs(q.entries - q_ref)) <= 1e-10
            assert bound_b(q) == pytest.approx(b_ref, abs=1e-10)
