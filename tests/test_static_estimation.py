"""Tests for QFIM, Uhlmann curvature, bound B, quantumness R, and SLDs."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from perturbsense import (
    AngleDecomposition,
    HermitianOperator,
    PerturbationProblem,
    QfiMatrix,
    SingularQfimError,
    StateVector,
    UhlmannMatrix,
    ZeroCorrectionError,
    bound_b,
    geometric_tensor,
    make_report,
    first_order_correction,
    overlaps,
    perturbed_state,
    qfim_static,
    quantumness_r,
    sld_single,
    sld_two_param_explicit,
    static_report,
    uhlmann_static,
)
from perturbsense import models
from perturbsense.models import ModelKind, ModelSpec
from perturbsense.static_estimation import assemble, split_tensor

from helpers import random_hermitian, random_state

QUBIT1 = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))
ANHARMONIC = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM))


def corrections_for(problem):
    return [first_order_correction(problem, mu) for mu in range(problem.num_parameters)]


def random_problem(rng, dim, n_params, level=None):
    return PerturbationProblem(
        h0=HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex)),
        perturbations=tuple(
            HermitianOperator(random_hermitian(rng, dim)) for _ in range(n_params)
        ),
        level=int(rng.integers(0, dim)) if level is None else level,
    )


def single_qfi(correction):
    """Q_11 of the one-coupling model: the single-coupling QFI."""
    return static_report([correction]).qfim.entries[0, 0]


class TestQfiSingle:
    def test_qubit(self):
        assert single_qfi(first_order_correction(QUBIT1, 0)) == pytest.approx(1.0)

    def test_zero_correction(self):
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag([1.0, 2.0]).astype(complex)),
            perturbations=(HermitianOperator(np.diag([1.0, -1.0]).astype(complex)),),
            level=0,
        )
        assert single_qfi(first_order_correction(problem, 0)) == 0.0

    def test_anharmonic_cubic(self):
        assert single_qfi(first_order_correction(ANHARMONIC, 0)) == pytest.approx(
            29.0 / 6.0, abs=1e-10
        )


class TestSldSingle:
    def test_qubit_is_sigma_x(self):
        sld = sld_single(first_order_correction(QUBIT1, 0))
        assert np.allclose(sld.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_support_eigenvalues(self):
        # 2 sqrt(N) sigma_x with sqrt(N) = 1/2 has eigenvalues -/+1
        sld = sld_single(first_order_correction(QUBIT1, 0), lam=0.0)
        assert np.allclose(np.linalg.eigvalsh(sld.matrix), [-1.0, 1.0])

    def test_zero_correction_raises(self):
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag([1.0, 2.0]).astype(complex)),
            perturbations=(HermitianOperator(np.diag([1.0, -1.0]).astype(complex)),),
            level=0,
        )
        with pytest.raises(ZeroCorrectionError):
            sld_single(first_order_correction(problem, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_satisfies_sld_equation_to_second_order(self, seed):
        rng = np.random.default_rng(500 + seed)
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.arange(6, dtype=float)).astype(complex)),
            perturbations=(HermitianOperator(random_hermitian(rng, 6, scale=0.5)),),
            level=2,
        )
        c = first_order_correction(problem, 0)
        lam = 0.01
        sld = sld_single(c, lam=lam).matrix

        def rho(value):
            psi = perturbed_state(problem, [value]).amplitudes
            return np.outer(psi, psi.conj())

        step = 1e-5
        drho = (rho(lam + step) - rho(lam - step)) / (2.0 * step)
        residual = drho - 0.5 * (sld @ rho(lam) + rho(lam) @ sld)
        assert np.max(np.abs(residual)) <= 10.0 * lam**2


class TestQfimStatic:
    def test_qutrit(self):
        for alpha in (0.5, 1.2):
            problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            q = qfim_static(corrections_for(problem)).entries
            expected = 4.0 * np.array(
                [[1.0, math.cos(alpha)], [math.cos(alpha), 1.0]]
            )
            assert np.max(np.abs(q - expected)) <= 1e-12

    def test_anharmonic_diagonal(self):
        q = qfim_static(corrections_for(ANHARMONIC)).entries
        assert np.allclose(q, 4.0 * np.diag([29.0 / 24.0, 39.0 / 32.0]), atol=1e-10)

    def test_single_parameter_reduces_to_qfi(self):
        q = qfim_static(corrections_for(QUBIT1))
        assert q.entries.shape == (1, 1)
        assert q.entries[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_psd_and_diagonal(self, seed):
        rng = np.random.default_rng(600 + seed)
        problem = random_problem(rng, 9, 3)
        cs = corrections_for(problem)
        q = qfim_static(cs)
        assert np.linalg.eigvalsh(q.entries)[0] >= -1e-10
        for mu, c in enumerate(cs):
            assert q.entries[mu, mu] == pytest.approx(4.0 * c.squared_norm, abs=1e-12)
        # the pairwise loop that the batched geometric tensor replaced
        raws = [c.raw.amplitudes for c in cs]
        gram = np.array([[np.vdot(a, b) for b in raws] for a in raws])
        rounding = 64 * np.finfo(float).eps * 4.0 * float(np.max(np.abs(gram)))
        assert np.max(np.abs(q.entries - 4.0 * gram.real)) <= rounding
        assert np.max(np.abs(uhlmann_static(cs).entries - 4.0 * gram.imag)) <= rounding
        norms = np.sqrt(np.diag(gram).real)
        omega = overlaps(cs).entries
        assert np.max(np.abs(omega - gram / np.outer(norms, norms))) <= 64 * np.finfo(float).eps


class TestUhlmannStatic:
    def test_qutrit_vanishes(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.9))
        d = uhlmann_static(corrections_for(problem)).entries
        assert np.max(np.abs(d)) <= 1e-12

    def test_anharmonic_vanishes(self):
        d = uhlmann_static(corrections_for(ANHARMONIC)).entries
        assert np.max(np.abs(d)) <= 1e-12

    def test_pure_imaginary_overlap(self):
        # build two corrections with omega = i by hand
        psi0 = StateVector([1.0, 0.0, 0.0])
        from perturbsense import FirstOrderCorrection

        c1 = FirstOrderCorrection(
            raw=StateVector([0.0, 0.5, 0.0], normalized=False),
            squared_norm=0.25,
            direction=StateVector([0.0, 1.0, 0.0]),
            reference=psi0,
        )
        c2 = FirstOrderCorrection(
            raw=StateVector([0.0, 0.3j, 0.0], normalized=False),
            squared_norm=0.09,
            direction=StateVector([0.0, 1j, 0.0]),
            reference=psi0,
        )
        d = uhlmann_static([c1, c2]).entries
        expected = 4.0 * math.sqrt(0.25 * 0.09)
        assert d[0, 1] == pytest.approx(expected, abs=1e-12)
        assert d[1, 0] == pytest.approx(-expected, abs=1e-12)


class TestBoundB:
    def test_qutrit_closed_form(self):
        for alpha in np.linspace(0.2, np.pi - 0.2, 7):
            problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=alpha))
            b = bound_b(qfim_static(corrections_for(problem)))
            assert b == pytest.approx(0.5 / math.sin(alpha) ** 2, abs=1e-10)

    def test_anharmonic_value(self):
        b = bound_b(qfim_static(corrections_for(ANHARMONIC)))
        assert b == pytest.approx(466.0 / 1131.0, abs=1e-9)

    def test_singular_returns_inf(self):
        q = QfiMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert bound_b(q) == math.inf

    @pytest.mark.parametrize("seed", range(4))
    def test_two_param_closed_form_identity(self, seed):
        rng = np.random.default_rng(700 + seed)
        problem = random_problem(rng, 8, 2)
        cs = corrections_for(problem)
        n1, n2 = (c.squared_norm for c in cs)
        re_omega = overlaps(cs).entries[0, 1].real
        closed = (n1 + n2) / (4.0 * n1 * n2 * (1.0 - re_omega**2))
        assert bound_b(qfim_static(cs)) == pytest.approx(closed, abs=1e-10 * max(1, closed))


class TestQuantumnessR:
    def test_qutrit_zero(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=1.1))
        cs = corrections_for(problem)
        assert quantumness_r(qfim_static(cs), uhlmann_static(cs)) <= 1e-10

    def test_qubit_two_param_maximal(self):
        problem = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.8))
        cs = corrections_for(problem)
        r = quantumness_r(qfim_static(cs), uhlmann_static(cs))
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_zero_curvature_compatible(self):
        q = QfiMatrix(np.diag([2.0, 3.0]))
        d = UhlmannMatrix(np.zeros((2, 2)))
        assert quantumness_r(q, d) == 0.0

    def test_singular_raises_with_rank(self):
        q = QfiMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        d = UhlmannMatrix(np.zeros((2, 2)))
        with pytest.raises(SingularQfimError) as info:
            quantumness_r(q, d)
        assert info.value.rank == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_two_param_formulas_agree(self, seed):
        rng = np.random.default_rng(800 + seed)
        problem = random_problem(rng, 10, 2)
        cs = corrections_for(problem)
        q, d = qfim_static(cs), uhlmann_static(cs)
        det_r = quantumness_r(q, d)
        general = float(
            np.max(np.abs(np.linalg.eigvals(np.linalg.solve(q.entries, d.entries))))
        )
        assert det_r == pytest.approx(general, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_real_overlap_means_zero(self, seed):
        # real perturbation matrices in a real eigenbasis give real overlaps
        rng = np.random.default_rng(900 + seed)
        dim = 7
        problem = PerturbationProblem(
            h0=HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex)),
            perturbations=tuple(
                HermitianOperator(0.5 * (m + m.T))
                for m in (rng.normal(size=(dim, dim)) for _ in range(2))
            ),
            level=3,
        )
        cs = corrections_for(problem)
        assert quantumness_r(qfim_static(cs), uhlmann_static(cs)) <= 1e-9


class TestQfiMatrix:
    @pytest.mark.parametrize(
        "entries",
        [
            [[1.0, 0.5], [0.4, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, math.nan], [math.nan, 1.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
        ],
        ids=["asymmetric", "indefinite", "nan", "inf"],
    )
    def test_rejects_invalid_entries(self, entries):
        with pytest.raises(ValueError):
            QfiMatrix(np.array(entries))

    def test_spectrum_is_ascending_and_read_only(self):
        q = QfiMatrix(np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert q.spectrum.tolist() == pytest.approx([2.0, 4.0])
        with pytest.raises(ValueError):
            q.spectrum[0] = 0.0


class TestUhlmannMatrix:
    @pytest.mark.parametrize(
        "entries",
        [
            [[0.0, 0.5], [0.5, 0.0]],
            [[0.0, math.nan], [math.nan, 0.0]],
            [[0.0, math.inf, 0.0], [-math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[math.inf, 0.0], [0.0, 0.0]],
        ],
        ids=["symmetric", "nan", "inf-pair", "inf-diagonal"],
    )
    def test_rejects_invalid_entries(self, entries):
        # a nan entry used to pass and make R nan; an antisymmetric inf
        # pair ended in numpy's LinAlgError inside quantumness_r
        with pytest.raises(ValueError):
            UhlmannMatrix(np.array(entries))


class TestStaticReport:
    def test_one_spectrum_per_report(self, monkeypatch):
        cs = corrections_for(ANHARMONIC)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        report = static_report(cs)
        assert calls == [(2, 2)]
        assert report.bound_b == pytest.approx(466.0 / 1131.0, abs=1e-9)
        assert report.quantumness_r is not None

    def test_bundles_fields(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        report = static_report(corrections_for(problem))
        assert report.bound_b == pytest.approx(0.5)
        assert report.quantumness_r == pytest.approx(0.0, abs=1e-10)
        assert not report.singular

    def test_singular_report(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.0))
        report = static_report(corrections_for(problem))
        assert report.singular
        assert report.bound_b == math.inf
        assert report.quantumness_r is None


class TestSldTwoParamExplicit:
    @staticmethod
    def synthetic_decomposition(rng, dim=4):
        basis, _ = np.linalg.qr(
            rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        )
        return AngleDecomposition(
            reference=StateVector(basis[:, 0]),
            basis_j=StateVector(basis[:, 1]),
            basis_k=StateVector(basis[:, 2]),
            theta1=rng.uniform(0, 2 * np.pi),
            theta2=rng.uniform(0, 2 * np.pi),
            gamma=rng.uniform(0, 2 * np.pi),
            varphi=rng.uniform(0, 2 * np.pi),
        )

    @staticmethod
    def directions(dec):
        j, k = dec.basis_j.amplitudes, dec.basis_k.amplitudes
        phi1 = math.cos(dec.theta1 / 2) * j + math.sin(dec.theta1 / 2) * k
        phi2 = np.exp(1j * dec.gamma) * (
            math.cos(dec.theta2 / 2) * j
            + np.exp(1j * dec.varphi) * math.sin(dec.theta2 / 2) * k
        )
        return phi1, phi2

    def test_zero_lambda_structure(self):
        rng = np.random.default_rng(12)
        dec = self.synthetic_decomposition(rng)
        n1 = 0.8
        l1, _ = sld_two_param_explicit(dec, n1, 0.5, 0.0, 0.0)
        psi0 = dec.reference.amplitudes
        phi1, _ = self.directions(dec)
        expected = 2.0 * math.sqrt(n1) * (
            np.outer(psi0, phi1.conj()) + np.outer(phi1, psi0.conj())
        )
        assert np.max(np.abs(l1.matrix - expected)) <= 1e-12

    def test_qutrit_orthogonal_blocks_commutator(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        cs = corrections_for(problem)
        from perturbsense import angle_decomposition

        dec = angle_decomposition(cs[0], cs[1])
        l1, l2 = sld_two_param_explicit(
            dec, cs[0].squared_norm, cs[1].squared_norm, 0.0, 0.0
        )
        commutator = l1.matrix @ l2.matrix - l2.matrix @ l1.matrix
        psi0 = dec.reference.amplitudes
        assert abs(np.vdot(psi0, commutator @ psi0)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_generic_construction(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dec = self.synthetic_decomposition(rng)
        n1, n2 = rng.uniform(0.2, 1.2, size=2)
        lam = rng.uniform(-2e-3, 2e-3, size=2)
        l1, l2 = sld_two_param_explicit(dec, n1, n2, lam[0], lam[1])

        psi0 = dec.reference.amplitudes
        phi1, phi2 = self.directions(dec)
        raw = psi0 + lam[0] * math.sqrt(n1) * phi1 + lam[1] * math.sqrt(n2) * phi2
        psi = raw / np.linalg.norm(raw)
        for sld, root_n, phi in ((l1, math.sqrt(n1), phi1), (l2, math.sqrt(n2), phi2)):
            derivative = root_n * phi
            generic = 2.0 * (
                np.outer(derivative, psi.conj()) + np.outer(psi, derivative.conj())
            )
            residual = np.max(np.abs(sld.matrix - generic))
            assert residual <= 10.0 * float(np.dot(lam, lam))


def random_tensor_stack(rng, n_points, n_params, dim=6):
    """Geometric tensors of random tangents with singular rows.

    Row 1 has zero tangents (Q = 0).  For P > 1 the last tangent of row 3
    is twice the first (rank P - 1, up to rounding).
    """
    psi = random_state(rng, dim)
    tangents = rng.normal(size=(n_points, n_params, dim)) + 1j * rng.normal(
        size=(n_points, n_params, dim)
    )
    tangents[1] = 0.0
    tangents[3, -1] = 2.0 * tangents[3, 0]
    return geometric_tensor(psi, tangents)


class TestAssemble:
    """The batched assembly of a stack against one point at a time."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_params", [1, 2, 3, 4])
    def test_batch_matches_single_points_bit_for_bit(self, n_params, seed):
        rng = np.random.default_rng(1700 + 10 * n_params + seed)
        tensors = random_tensor_stack(rng, 7, n_params)
        q, d = split_tensor(tensors)
        spectrum, b, r = assemble(q, d)
        assert spectrum.shape == (7, n_params) and b.shape == r.shape == (7,)
        for k, tensor in enumerate(tensors):
            report = make_report(tensor)
            assert np.array_equal(report.qfim.entries, q[k])
            assert np.array_equal(report.uhlmann.entries, d[k])
            assert np.array_equal(report.qfim.spectrum, spectrum[k])
            assert report.bound_b == b[k]
            single = QfiMatrix(q[k])
            assert bound_b(single) == b[k]
            if report.singular:
                assert report.quantumness_r is None and math.isnan(r[k])
                continue
            assert report.quantumness_r == r[k]
            assert quantumness_r(single, UhlmannMatrix(d[k])) == r[k]
            # the per-point formulas the batched assembly replaced
            eig = np.linalg.eigvalsh(q[k])
            assert b[k] == float(np.sum(1.0 / eig))
            if n_params == 2:
                expected = abs(float(d[k, 0, 1])) / math.sqrt(float(np.prod(eig)))
            else:
                ratio = np.linalg.eigvals(np.linalg.solve(q[k], d[k]))
                expected = float(np.max(np.abs(ratio)))
            assert r[k] == (1.0 if 1.0 < expected <= 1.0 + 1e-9 else expected)

    @pytest.mark.parametrize("n_params", [1, 2, 3, 4])
    def test_singular_rows(self, n_params):
        rng = np.random.default_rng(1800 + n_params)
        spectrum, b, r = assemble(*split_tensor(random_tensor_stack(rng, 5, n_params)))
        singular = [1, 3] if n_params > 1 else [1]
        assert np.all(np.isinf(b[singular])) and np.all(np.isnan(r[singular]))
        regular = [k for k in range(5) if k not in singular]
        assert np.all(np.isfinite(b[regular])) and np.all(r[regular] <= 1.0)

    def test_singular_rows_raise_no_warning(self):
        # eigenvalues inside the PSD floor: neither 1/0 nor sqrt of a negative
        q = np.array([np.diag([-1e-12, 1.0]), np.zeros((2, 2)), np.diag([1e-12, 1.0]), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, b, r = assemble(q, np.zeros_like(q))
        assert np.all(np.isinf(b[:3])) and np.all(np.isnan(r[:3]))
        assert b[3] == 2.0 and r[3] == 0.0

    @pytest.mark.parametrize("n_params", [2, 3])
    def test_r_clipped_to_one_within_slack(self, n_params):
        d = np.zeros((2, n_params, n_params))
        d[:, 0, 1] = [1.0 + 5e-10, 1.0 + 1e-8]
        d[:, 1, 0] = -d[:, 0, 1]
        q = np.broadcast_to(np.eye(n_params), d.shape).copy()
        _, _, r = assemble(q, d)
        assert r[0] == 1.0 and r[1] == pytest.approx(1.0 + 1e-8, abs=1e-15)
        assert quantumness_r(QfiMatrix(q[0]), UhlmannMatrix(d[0])) == 1.0

    BAD_Q = {
        "asymmetric": ((0, 1), 0.7, "must be symmetric"),
        "indefinite": ((Ellipsis,), [[1.0, 2.0], [2.0, 1.0]], "must be positive semidefinite"),
        "nan": ((0, 0), math.nan, "entries must be finite"),
        "inf": ((1, 1), math.inf, "entries must be finite"),
    }

    @pytest.mark.parametrize("k", [0, 2, 5])
    @pytest.mark.parametrize("case", sorted(BAD_Q))
    def test_bad_qfim_names_grid_index(self, case, k):
        rng = np.random.default_rng(1900)
        q, d = split_tensor(geometric_tensor(random_state(rng, 4), rng.normal(size=(6, 2, 4))))
        entry, value, message = self.BAD_Q[case]
        q[k][entry] = value
        q[5][entry] = value  # a later bad row is not the one named
        with pytest.raises(ValueError, match=f"^QFIM {message} at grid index {k}$"):
            assemble(q, d)

    @pytest.mark.parametrize("k", [0, 3])
    def test_bad_uhlmann_names_grid_index(self, k):
        rng = np.random.default_rng(1901)
        q, d = split_tensor(geometric_tensor(random_state(rng, 4), rng.normal(size=(4, 2, 4))))
        symmetric = d.copy()
        symmetric[k, 1, 0] = symmetric[k, 0, 1] = 0.5
        with pytest.raises(ValueError, match=f"antisymmetric at grid index {k}$"):
            assemble(q, symmetric)
        infinite = d.copy()
        infinite[k, 0, 1], infinite[k, 1, 0] = math.inf, -math.inf
        with pytest.raises(ValueError, match=f"entries must be finite at grid index {k}$"):
            assemble(q, infinite)
