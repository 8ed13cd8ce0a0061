"""Tests for the dense operator core: eigensolver, geometric tensor, quadrature."""

from __future__ import annotations

import re

import numpy as np
import pytest

from perturbsense import (
    DimensionMismatchError,
    EigensolverError,
    HermiticityError,
    HermitianOperator,
    QuadratureError,
    SpectralDecomposition,
    StateVector,
    geometric_tensor,
    hermitian_eig,
    integrate_operator,
)
from perturbsense import models, operators
from perturbsense.models import ModelKind, ModelSpec, pauli_matrices, spin1_matrices
from perturbsense.operators import ORTHONORMALITY_ATOL, RESIDUAL_RTOL

from helpers import count_eigh, force_complex, random_hermitian, random_state

SX, SY, SZ = pauli_matrices()


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        op = HermitianOperator([[1.0, 1j], [-1j, 2.0]])
        assert op.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HermitianOperator([[np.inf, 0.0], [0.0, 0.0]])

    def test_matrix_is_read_only(self):
        op = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize(
        "entries",
        [
            np.eye(3, dtype=bool),
            np.diag([1, 2, 3]),
            np.diag([1.0, 2.5, 3.0]).astype(np.float32),
            np.diag([1.0, 2.5, 3.0]),
            [[1.0, 0.0, 0.0], [0.0, 2.5, 0.0], [0.0, 0.0, 3.0]],
        ],
        ids=["bool", "int", "float32", "float64", "list"],
    )
    def test_real_input_is_stored_as_a_float64_copy(self, entries):
        op = HermitianOperator(entries)
        assert op.matrix.dtype == np.float64
        assert np.array_equal(op.matrix, np.asarray(entries, dtype=float))
        if isinstance(entries, np.ndarray):
            assert not np.shares_memory(op.matrix, entries)
            assert entries.flags.writeable

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("dim", [63, 64, 65, 130, 200])
    def test_hermiticity_defect_is_that_of_the_full_difference(self, dim, kind):
        """Each tile against its mirror gives max|A - A^dag| bit for bit,
        wherever the one bad entry sits: on the diagonal, above or below it."""
        rng = np.random.default_rng(dim)
        base = random_hermitian(rng, dim)
        if kind == "real":
            base = base.real
        assert operators._hermiticity_defect(base) == 0.0
        for i, j in {(0, 0), (0, dim - 1), (dim - 1, 0), (dim // 2, 3), (dim - 1, dim - 2)}:
            a = base.copy()
            a[i, j] += 1e-6 * (1.0 if kind == "real" else 1.0 + 0.5j)
            expected = float(np.max(np.abs(a - a.conj().T)))
            assert operators._hermiticity_defect(a) == expected
            if expected == 0.0:  # a real diagonal entry stays Hermitian
                assert kind == "real" and i == j
                continue
            with pytest.raises(HermiticityError, match=re.escape(f"by {expected:.3e}")):
                HermitianOperator(a)


class TestStateVector:
    def test_normalized_check(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_raw_variant_allows_any_norm(self):
        raw = StateVector([2.0, 0.0], normalized=False)
        assert np.linalg.norm(raw.amplitudes) == 2.0


class TestHermitianEig:
    def test_sigma_z(self):
        dec = hermitian_eig(HermitianOperator(SZ))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        # ascending order puts |1> first, |0> second
        assert np.allclose(dec.eigenvectors[:, 0], [0.0, 1.0])
        assert np.allclose(dec.eigenvectors[:, 1], [1.0, 0.0])

    def test_spin1_sz(self):
        _, _, sz = spin1_matrices()
        dec = hermitian_eig(HermitianOperator(sz))
        assert np.allclose(dec.eigenvalues, [-1.0, 0.0, 1.0])

    def test_truncated_number_operator(self):
        h0 = HermitianOperator(np.diag(np.arange(5) + 0.5).astype(complex))
        dec = hermitian_eig(h0)
        assert np.allclose(dec.eigenvalues, [0.5, 1.5, 2.5, 3.5, 4.5])

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(7)
        a = HermitianOperator(random_hermitian(rng, 6))
        first = hermitian_eig(a)
        second = hermitian_eig(a)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        pivots = np.argmax(np.abs(first.eigenvectors), axis=0)
        chosen = first.eigenvectors[pivots, np.arange(6)]
        assert np.all(chosen.real > 0)
        assert np.max(np.abs(chosen.imag)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 5, 13, 40])
    def test_spectral_reconstruction_random(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(rng, dim)
        dec = hermitian_eig(HermitianOperator(a))
        rebuilt = (dec.eigenvectors * dec.eigenvalues[None, :]) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-10 * max(np.max(np.abs(a)), 1.0)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10


def is_diagonal(a: np.ndarray) -> bool:
    return not np.any(a - np.diag(np.diagonal(a)))


def random_real_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim))
    return (0.5 * (m + m.T)).astype(complex)


def _real_solve_cases():
    """Real matrices the package solves: each preset's H0, the oracle's samples
    H(lambda) of the real presets, and seeded random real-symmetric matrices."""
    cases = []
    for spec in (
        ModelSpec(ModelKind.QUBIT_1PARAM),
        ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.7),
        ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.7),
        ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16),
    ):
        cases.append(pytest.param(models.build(spec).h0.matrix, id=f"{spec.kind.value}-h0"))
    for spec, lam in (
        (ModelSpec(ModelKind.QUBIT_1PARAM), [1e-3]),
        (ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16), [1e-3, -1e-3]),
        (ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=128), [1e-3, -1e-3]),
    ):
        h = models.build(spec).hamiltonian(lam).matrix
        cases.append(pytest.param(h, id=f"{spec.kind.value}-{h.shape[0]}-sample"))
    for dim in (3, 8, 33, 128, 256):
        a = random_real_symmetric(np.random.default_rng(dim), dim)
        cases.append(pytest.param(a, id=f"random-real-{dim}"))
    return cases


class TestRealPath:
    """A matrix with no nonzero imaginary part is stored as float64 and solved in real arithmetic."""

    @pytest.mark.parametrize("a", _real_solve_cases())
    def test_real_matrix_reaches_eigh_as_float64(self, monkeypatch, a):
        """A dense real matrix reaches eigh as float64; a diagonal one (each
        preset's H0) is decomposed from its diagonal with no eigh call."""
        op = HermitianOperator(a)
        calls = count_eigh(monkeypatch)
        dec = hermitian_eig(op)
        assert op.matrix.dtype == np.float64
        assert calls == ([] if is_diagonal(a) else [(a.shape, np.float64)])
        assert dec.eigenvectors.dtype == np.float64

    @pytest.mark.parametrize("dim, i, j", [(4, 0, 2), (300, 299, 150)])
    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_one_imaginary_entry_takes_the_complex_path(self, monkeypatch, tiny, dim, i, j):
        """Both doors keep the entry, in the first block of rows or the last:
        the checked constructor and a sum H(lambda)."""
        a = random_real_symmetric(np.random.default_rng(4), dim)
        a[i, j] += 1j * tiny
        a[j, i] -= 1j * tiny
        ops = (HermitianOperator(a), HermitianOperator._from_sum(a.copy()))
        calls = count_eigh(monkeypatch)
        for op in ops:
            assert op.matrix.dtype == np.complex128
            assert op.matrix[i, j].imag == tiny
            assert hermitian_eig(op).eigenvectors.dtype == np.complex128
        assert calls == [((dim, dim), np.complex128)] * 2

    def test_signed_zero_imaginary_parts_count_as_real(self, monkeypatch):
        """All +0, all -0, or a mix: both doors store the real part as float64."""
        a = random_real_symmetric(np.random.default_rng(5), 5)
        negative, mixed = a.copy(), a.copy()
        negative.imag[...] = -0.0
        mixed.imag[np.triu_indices(5)] = -0.0
        assert np.signbit(negative.imag).all() and np.signbit(mixed.imag).any()
        calls = count_eigh(monkeypatch)
        for m in (a, negative, mixed):
            for op in (HermitianOperator(m), HermitianOperator._from_sum(m.copy())):
                assert op.matrix.dtype == np.float64
                assert np.array_equal(op.matrix, a.real)
                hermitian_eig(op)
        assert calls == [((5, 5), np.float64)] * 6

    def test_hamiltonian_is_real_while_no_complex_coupling_is_on(self):
        """qubit2's second coupling holds sigma_y: H(lambda) is complex only when it is on."""
        p = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.7))
        assert p.hamiltonian([0.1, 0.0]).matrix.dtype == np.float64
        assert p.hamiltonian([0.0, 0.1]).matrix.dtype == np.complex128

    def test_spectral_decomposition_takes_list_and_int_input(self):
        dec = SpectralDecomposition([0, 1], [[1, 0], [0, 1]])
        assert dec.eigenvalues.dtype == np.float64
        assert dec.eigenvectors.dtype == np.float64
        assert np.array_equal(dec.eigenvectors, np.eye(2))
        dec = SpectralDecomposition([0, 1], [[1, 0], [0, 1j]])
        assert dec.eigenvectors.dtype == np.complex128
        assert dec.eigenvectors[1, 1] == 1j

    @pytest.mark.parametrize("a", _real_solve_cases())
    def test_agrees_with_the_complex_solve(self, monkeypatch, a):
        """Same eigenvalues to 1e-13 of max(max|A|, 1), same columns to 1e-12
        once both carry the fixed phase convention.  A diagonal matrix takes
        no eigh call on the real path and is compared with LAPACK's complex solve."""
        calls = count_eigh(monkeypatch)
        real = hermitian_eig(HermitianOperator(a))
        assert real.eigenvectors.dtype == np.float64
        assert calls == ([] if is_diagonal(a) else [(a.shape, np.float64)])
        calls.clear()
        force_complex(monkeypatch)
        op = HermitianOperator(a)
        ref = hermitian_eig(op)
        assert op.matrix.dtype == np.complex128
        assert calls == [(a.shape, np.complex128)]
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(real.eigenvalues - ref.eigenvalues)) <= 1e-13 * scale
        assert np.max(np.abs(real.eigenvectors - ref.eigenvectors)) <= 1e-12

    def test_linalg_error_on_the_real_path_is_typed(self, monkeypatch):
        """A failed real solve raises EigensolverError with max|A|, both for a
        checked operator and for a sum H(lambda), whose max|A| is computed then.
        The checked operator is the quartic coupling, since the diagonal H0
        never reaches eigh."""
        eigh = np.linalg.eigh

        def failing_real_eigh(m):
            if m.dtype == np.float64:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", failing_real_eigh)
        p = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        for op in (p.perturbations[1], p.hamiltonian([0.25, 0.0])):
            scale = np.max(np.abs(op.matrix))
            with pytest.raises(EigensolverError, match=re.escape(f"max|A|={scale:.3e})")):
                hermitian_eig(op)
        qubit2 = models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.7))
        hermitian_eig(qubit2.hamiltonian([0.0, 0.1]))  # complex: not refused


def _pivot_fixed(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase convention of ``hermitian_eig`` applied to an eigh pair."""
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vals, vecs * np.conj(pivots / np.abs(pivots))[None, :]


def _diagonal_cases():
    """Every preset's H0 (descending for the qubit and qutrit, ascending for
    the oscillator), and seeded random diagonals that skip LAPACK."""
    cases = [
        pytest.param(np.diagonal(models.build(spec).h0.matrix), id=f"{spec.kind.value}-h0")
        for spec in (
            ModelSpec(ModelKind.QUBIT_1PARAM),
            ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.7),
            ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16),
        )
    ]
    for dim in (1, 2, 25, 26, 64, 129):
        rng = np.random.default_rng(700 + dim)
        cases.append(pytest.param(rng.normal(size=dim), id=f"distinct-{dim}"))
        ties = np.sort(rng.integers(0, max(1, dim // 3), size=dim).astype(float))
        cases.append(pytest.param(ties, id=f"sorted-ties-{dim}"))
    return cases


class TestDiagonalSolve:
    """A diagonal float64 operator is decomposed from its diagonal, as LAPACK would."""

    @pytest.mark.parametrize("diagonal", _diagonal_cases())
    def test_equals_eigh_with_the_phase_fix(self, monkeypatch, diagonal):
        a = np.diag(diagonal)
        expected_vals, expected_vecs = _pivot_fixed(*np.linalg.eigh(a))
        calls = count_eigh(monkeypatch)
        dec = hermitian_eig(HermitianOperator(a))
        assert calls == []
        assert dec.eigenvalues.dtype == dec.eigenvectors.dtype == np.float64
        assert np.array_equal(dec.eigenvalues, expected_vals)
        assert np.array_equal(dec.eigenvectors, expected_vecs)
        # the phase fix is skipped on this path: each column's one nonzero
        # entry is already +1.0, so its pivot needs no phase
        vecs = operators._diagonal_eigh(a)[1]
        nonzero = vecs != 0.0
        assert np.all(nonzero.sum(axis=0) == 1)
        assert np.all(vecs[nonzero] == 1.0)
        assert not np.any(np.signbit(vecs))

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(np.diag([1.0, 1.0, 0.0]), id="ties-out-of-order"),
            pytest.param(np.diag([3.0, 1.0, 2.0, 1.0]), id="ties-unsorted"),
            pytest.param((4, 0, 1), id="first-row-denormal"),
            pytest.param((130, 129, 128), id="last-row-denormal"),
            pytest.param((130, 70, 3), id="inner-denormal"),
        ],
    )
    def test_other_real_matrices_reach_eigh(self, monkeypatch, a):
        if isinstance(a, tuple):  # one symmetric off-diagonal pair of 5e-324
            dim, i, j = a
            a = np.diag(np.arange(dim, 0, -1.0))
            a[i, j] = a[j, i] = 5e-324
        assert operators._diagonal_eigh(a) is None
        expected_vals, expected_vecs = _pivot_fixed(*np.linalg.eigh(a))
        calls = count_eigh(monkeypatch)
        dec = hermitian_eig(HermitianOperator(a))
        assert calls == [(a.shape, np.float64)]
        assert np.array_equal(dec.eigenvalues, expected_vals)
        assert np.array_equal(dec.eigenvectors, expected_vecs)

    def test_complex_storage_reaches_eigh(self, monkeypatch):
        force_complex(monkeypatch)
        op = HermitianOperator(np.diag([2.0, 0.5, 1.0]))
        assert op.matrix.dtype == np.complex128
        calls = count_eigh(monkeypatch)
        dec = hermitian_eig(op)
        assert calls == [((3, 3), np.complex128)]
        assert np.array_equal(dec.eigenvalues, [0.5, 1.0, 2.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("dim", [3, 26, 64])
    def test_extreme_scales_return_the_diagonal_exactly(self, scale, dim):
        """LAPACK rescales such a matrix and rounds the eigenvalues by up to
        2 ulp; the diagonal path returns the sorted diagonal exactly."""
        diagonal = scale * np.random.default_rng(dim).normal(size=dim)
        dec = hermitian_eig(HermitianOperator(np.diag(diagonal)))
        ordered = np.sort(diagonal)
        assert np.array_equal(dec.eigenvalues, ordered)
        assert np.array_equal(dec.eigenvectors, np.eye(dim)[:, np.argsort(diagonal)])
        lapack = np.linalg.eigh(np.diag(diagonal))[0]
        assert np.all(np.abs(lapack - ordered) <= 2 * np.spacing(np.abs(ordered)))

    def test_fock_1024_spectrum_without_lapack(self, monkeypatch):
        p = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=1024))
        calls = count_eigh(monkeypatch)
        dec = p.spectral
        assert calls == []
        # the stored entries sqrt(j)^2 + 1/2, within 1.2e-13 of j + 1/2
        assert np.array_equal(dec.eigenvalues, np.diagonal(p.h0.matrix))
        assert np.max(np.abs(dec.eigenvalues - (np.arange(1024) + 0.5))) <= 2e-13
        assert np.array_equal(dec.eigenvectors, np.eye(1024))


def _postcondition_cases():
    """Every operator of the four presets, plus seeded random Hermitian matrices."""
    specs = [
        ModelSpec(ModelKind.QUBIT_1PARAM),
        ModelSpec(ModelKind.QUBIT_2PARAM, alpha=0.7),
        ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.7),
        ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16),
    ]
    cases = []
    for spec in specs:
        p = models.build(spec)
        for i, h in enumerate((p.h0,) + p.perturbations):
            cases.append(pytest.param(h.matrix, id=f"{spec.kind.value}-{i}"))
    for dim in (5, 40):
        a = random_hermitian(np.random.default_rng(dim), dim)
        cases.append(pytest.param(a, id=f"random-{dim}"))
    # real and above one tile: the checks multiply on the probe's float view
    a = random_real_symmetric(np.random.default_rng(80), 80)
    cases.append(pytest.param(a, id="random-real-80"))
    return cases


POSTCONDITION_CASES = _postcondition_cases()


class TestTimes:
    """operators._times, the one real-by-complex product rule, against numpy's product.

    The dimensions straddle ``_TILE``, below which a real matrix takes
    numpy's product and from which it meets complex data on its float view.
    """

    @pytest.mark.parametrize("v_kind", ["real", "complex"], ids=["real-v", "complex-v"])
    @pytest.mark.parametrize("m_kind", ["real", "complex"], ids=["real-m", "complex-m"])
    @pytest.mark.parametrize("dim", [63, 64, 65, 130])
    def test_matches_numpy(self, dim, m_kind, v_kind):
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim))
        if m_kind == "complex":
            m = m + 1j * rng.normal(size=(dim, dim))
        whole = rng.normal(size=(dim, 7))
        if v_kind == "complex":
            whole = whole + 1j * rng.normal(size=(dim, 7))
        operands = {"vector": whole[:, 0].copy(), "strided": whole[:, 3], "block": whole}
        for shape, v in operands.items():
            for adjoint in (False, True):
                expected = (m.conj().T if adjoint else m) @ v
                scale = np.max(np.abs(expected))
                got = operators._times(m, v, adjoint=adjoint)
                assert got.shape == expected.shape and got.dtype == expected.dtype, shape
                assert np.max(np.abs(got - expected)) <= 1e-15 * scale, (shape, adjoint)
                out = np.empty_like(expected)
                written = operators._times(m, v, adjoint=adjoint, out=out)
                assert np.shares_memory(written, out) and np.array_equal(written, out)
                assert np.max(np.abs(out - expected)) <= 1e-15 * scale, (shape, adjoint)


def chirp(dim: int) -> np.ndarray:
    """The documented probe: exp(2 pi i phi j), phi the golden-ratio conjugate."""
    return np.exp(2j * np.pi * (np.sqrt(5.0) - 1.0) / 2.0 * np.arange(dim))


def _corrupt_column(vals, vecs):
    vecs[:, 0] += 1e-6
    return vals, vecs


def _swap_eigenvalues(vals, vecs):
    vals[[0, -1]] = vals[[-1, 0]]
    return vals, vecs


def _skew_pair(vals, vecs):
    vecs[:, 1] += 1e-6 * vecs[:, 0]
    return vals, vecs


MUTATIONS = [
    pytest.param(_corrupt_column, id="corrupted-column"),
    pytest.param(_swap_eigenvalues, id="swapped-eigenvalues"),
    pytest.param(_skew_pair, id="non-orthonormal-pair"),
]


def _patch_eigh(monkeypatch, mutate):
    """Make both solve paths, ``np.linalg.eigh`` and the diagonal one, return
    a mutated copy of their true result."""
    eigh = np.linalg.eigh
    diagonal_eigh = operators._diagonal_eigh

    def mutated_eigh(a):
        vals, vecs = eigh(a)
        return mutate(vals.copy(), vecs.copy())

    def mutated_diagonal_eigh(a):
        pair = diagonal_eigh(a)
        return None if pair is None else mutate(pair[0].copy(), pair[1].copy())

    monkeypatch.setattr(np.linalg, "eigh", mutated_eigh)
    monkeypatch.setattr(operators, "_diagonal_eigh", mutated_diagonal_eigh)


class TestSpectralPostconditions:
    """Each corruption of a valid decomposition fails the O(d^2) probe checks."""

    @pytest.mark.parametrize("mutate", MUTATIONS)
    @pytest.mark.parametrize("a", POSTCONDITION_CASES)
    def test_hermitian_eig_refuses_mutated_eigensolver(self, monkeypatch, a, mutate):
        _patch_eigh(monkeypatch, mutate)
        with pytest.raises(EigensolverError):
            hermitian_eig(HermitianOperator(a))

    @pytest.mark.parametrize("mutate", MUTATIONS)
    @pytest.mark.parametrize("a", POSTCONDITION_CASES)
    def test_spectral_decomposition_refuses_mutation(self, a, mutate):
        dec = hermitian_eig(HermitianOperator(a))
        vals, vecs = mutate(dec.eigenvalues.copy(), dec.eigenvectors.copy())
        with pytest.raises(ValueError):
            SpectralDecomposition(vals, vecs)

    @pytest.mark.parametrize("factor, refused", [(0.99, False), (1.01, True)])
    @pytest.mark.parametrize("a", POSTCONDITION_CASES)
    def test_eigenvalue_shift_at_the_tolerance(self, monkeypatch, a, factor, refused):
        """One eigenvalue off by e gives a probe residual of e, since |y_k| = 1."""
        scale = max(np.max(np.abs(a)), 1.0)

        def shift(vals, vecs):
            vals[-1] += factor * RESIDUAL_RTOL * scale  # the top level keeps the order
            return vals, vecs

        _patch_eigh(monkeypatch, shift)
        if refused:
            with pytest.raises(EigensolverError, match="probe residual"):
                hermitian_eig(HermitianOperator(a))
        else:
            hermitian_eig(HermitianOperator(a))

    @pytest.mark.parametrize("factor, refused", [(0.99, False), (1.01, True)])
    @pytest.mark.parametrize("a", POSTCONDITION_CASES)
    def test_column_norm_at_the_tolerance(self, a, factor, refused):
        """A column of squared norm 1 + e gives an orthonormality defect of e."""
        dec = hermitian_eig(HermitianOperator(a))
        vecs = dec.eigenvectors.copy()
        vecs[:, -1] *= np.sqrt(1.0 + factor * ORTHONORMALITY_ATOL)
        if refused:
            with pytest.raises(ValueError, match="not orthonormal"):
                SpectralDecomposition(dec.eigenvalues, vecs)
        else:
            SpectralDecomposition(dec.eigenvalues, vecs)

    def test_degenerate_mixing_refused_through_orthonormality(self, monkeypatch):
        """A skewed pair inside an eigenspace has zero residual; the Gram probe
        catches it, on the diagonal path (ties in order) and through eigh (ties
        out of order)."""
        _patch_eigh(monkeypatch, _skew_pair)
        for diagonal in ([1.0, 1.0, 2.0], [2.0, 1.0, 1.0]):
            with pytest.raises(EigensolverError, match="not orthonormal"):
                hermitian_eig(HermitianOperator(np.diag(diagonal).astype(complex)))

    def test_rotation_invisible_to_a_constant_probe_refused(self, monkeypatch):
        """V -> V exp(i eps K) keeps V orthonormal and, for this K and the
        equally spaced qutrit levels, gives (Lambda K - K Lambda) 1 = 0: a probe
        of equal phases sees only O(eps^2), while the chirp sees O(eps)."""
        k = np.array([[0.0, -2.0, 1.0], [-2.0, 0.0, -2.0], [1.0, -2.0, 0.0]])
        kappa, w = np.linalg.eigh(k)
        rotation = (w * np.exp(1e-6j * kappa)) @ w.conj().T
        h0 = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=0.7)).h0
        vals = hermitian_eig(h0).eigenvalues
        assert np.array_equal(vals, [-1.0, 0.0, 1.0])
        commutator = vals[:, None] * k - k * vals[None, :]
        assert np.allclose(commutator @ np.ones(3), 0.0)
        _patch_eigh(monkeypatch, lambda vals, vecs: (vals, vecs @ rotation))
        with pytest.raises(EigensolverError, match="probe residual"):
            hermitian_eig(h0)

    @pytest.mark.parametrize(
        "vals, vecs",
        [
            pytest.param([np.nan, 1.0], np.eye(2), id="nan-eigenvalue"),
            pytest.param([0.0, 1.0, np.nan], np.eye(3), id="nan-last-eigenvalue"),
            pytest.param([-np.inf, np.inf], np.eye(2), id="inf-eigenvalues"),
            pytest.param([0.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], id="nan-vector"),
            pytest.param([0.0, 1.0], [[np.inf, 0.0], [0.0, 1.0]], id="inf-vector"),
            pytest.param([0.0, 1.0], [[1e300, 0.0], [0.0, 1.0]], id="overflowing-vector"),
        ],
    )
    def test_spectral_decomposition_refuses_non_finite(self, vals, vecs):
        with pytest.raises(ValueError):
            SpectralDecomposition(np.array(vals), np.array(vecs, dtype=complex))

    @pytest.mark.parametrize(
        "vals, vecs",
        [
            pytest.param([1.0, 2.0], np.eye(3), id="too-few-eigenvalues"),
            pytest.param([1.0, 2.0, 3.0], np.eye(3, 2), id="too-few-columns"),
            pytest.param([[1.0, 2.0]], np.eye(2), id="2d-eigenvalues"),
        ],
    )
    def test_spectral_decomposition_refuses_mismatched_shapes(self, vals, vecs):
        with pytest.raises(DimensionMismatchError):
            SpectralDecomposition(np.array(vals), np.array(vecs, dtype=complex))

    def test_ascending_check_does_not_overflow(self):
        dec = SpectralDecomposition(np.array([-1.7e308, 1.7e308]), np.eye(2, dtype=complex))
        assert dec.dim == 2

    def test_infinite_eigenvalues_refused(self):
        """eigh returns [-inf, inf] here: the eigenvalues +-sqrt(2) max|A| overflow."""
        a = HermitianOperator(1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        with pytest.raises(EigensolverError, match="probe residual nan"):
            hermitian_eig(a)

    def test_unverifiable_residual_refused(self):
        """Finite eigenvalues whose probe residual overflows cannot be checked."""
        a = HermitianOperator(1.7e308 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        with pytest.raises(EigensolverError):
            hermitian_eig(a)

    def test_overflowing_spread_refused(self):
        """Each eigenvalue is finite, but E_max - E_min, which bounds every gap, is not."""
        a = HermitianOperator(np.diag([1.7e308, -1.7e308]).astype(complex))
        with pytest.raises(EigensolverError, match="spread"):
            hermitian_eig(a)
        dec = hermitian_eig(HermitianOperator(np.diag([1e308, 0.9e308]).astype(complex)))
        assert np.array_equal(dec.eigenvalues, [0.9e308, 1e308])

    @pytest.mark.parametrize(
        "a",
        POSTCONDITION_CASES
        + [
            pytest.param(random_hermitian(np.random.default_rng(100 + d), d), id=f"random-{d}")
            for d in (2, 16, 128, 512)
        ],
    )
    def test_valid_decompositions_pass_with_margin(self, a):
        """Valid eigh output stays below 1% of either tolerance up to d = 512."""
        dec = hermitian_eig(HermitianOperator(a))
        vals, vecs = dec.eigenvalues, dec.eigenvectors
        y = chirp(a.shape[0])
        residual = np.linalg.norm(a @ (vecs @ y) - vecs @ (vals * y))
        defect = np.linalg.norm(vecs.conj().T @ (vecs @ y) - y)
        assert residual <= 0.01 * RESIDUAL_RTOL * max(np.max(np.abs(a)), 1.0)
        assert defect <= 0.01 * ORTHONORMALITY_ATOL


class TestGeometricTensor:
    def test_batched_projected_gram(self):
        rng = np.random.default_rng(11)
        psi = random_state(rng, 5)
        tangents = rng.normal(size=(3, 2, 5)) + 1j * rng.normal(size=(3, 2, 5))
        tensor = geometric_tensor(psi, tangents)
        assert tensor.shape == (3, 2, 2)
        projector = np.eye(5) - np.outer(psi, psi.conj())
        for x, g in zip(tangents, tensor):
            assert np.max(np.abs(g - 4.0 * x.conj() @ projector @ x.T)) <= 1e-12
        # components along psi and a common phase leave it unchanged
        shifted = 1j * (tangents + rng.normal(size=(3, 2, 1)) * psi)
        assert np.max(np.abs(geometric_tensor(psi, shifted) - tensor)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            geometric_tensor(np.ones(3) / np.sqrt(3), np.ones((2, 4)))


class TestIntegrateOperator:
    def test_constant_integrand(self):
        a = np.array([[1.0, 2j], [-2j, 3.0]])
        result = integrate_operator(lambda s: a, 0.0, 2.5, panels=4)
        assert np.allclose(result, 2.5 * a, atol=1e-12)

    def test_scalar_polynomial_exact(self):
        result = integrate_operator(lambda s: np.array([[s**2]]), 0.0, 1.0, panels=1)
        assert abs(result[0, 0] - 1.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("degree", [3, 7, 11, 15])
    def test_polynomial_exactness_up_to_degree_15(self, degree):
        # 8-node Gauss-Legendre is exact through degree 2*8 - 1 = 15
        result = integrate_operator(
            lambda s: np.array([[s**degree]]), 0.0, 1.0, panels=1
        )
        assert abs(result[0, 0] - 1.0 / (degree + 1)) <= 1e-12

    def test_qubit_interaction_integrand_matches_closed_form(self):
        splus = np.array([[0.0, 1.0], [0.0, 0.0]])

        def f(s):
            return np.exp(2j * s) * splus + np.exp(-2j * s) * splus.T

        t = 1.3
        result = integrate_operator(f, 0.0, t, panels=16)
        closed = t * np.exp(1j * t) * np.sinc(t / np.pi) * splus
        closed = closed + closed.conj().T
        assert np.max(np.abs(result - closed)) <= 1e-10

    def test_doubling_panels_converges(self):
        def f(s):
            return np.array([[np.exp(3j * s), np.cos(s)], [np.cos(s), np.sin(2 * s)]])

        coarse = integrate_operator(f, 0.0, 2.0, panels=32)
        fine = integrate_operator(f, 0.0, 2.0, panels=64)
        assert np.max(np.abs(coarse - fine)) <= 1e-10

    def test_non_finite_sample_raises(self):
        def f(s):
            return np.array([[1.0 / (s - 0.5)]])

        with pytest.raises(QuadratureError):
            # node layout never hits 0.5 exactly, so force it
            integrate_operator(lambda s: np.array([[np.nan]]), 0.0, 1.0, panels=1)
        with pytest.raises(ValueError):
            integrate_operator(f, 1.0, 0.0, panels=1)
