"""Tests for the exact-diagonalization oracle and finite-difference routines."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from perturbsense import (
    DimensionMismatchError,
    FiniteDifferenceError,
    FiniteDifferenceStepError,
    HermitianOperator,
    LevelTrackingError,
    PerturbSenseError,
    PerturbationProblem,
    StateVector,
    first_order_correction,
    k_operator_spectral,
    qfim_dynamic,
    qfim_static,
    uhlmann_static,
)
from perturbsense import models, oracle
from perturbsense.models import ModelKind, ModelSpec

from helpers import count_eigh, phase_align, random_hermitian, random_state

QUBIT1 = models.build(ModelSpec(ModelKind.QUBIT_1PARAM))


def preset_problems():
    return [
        ("qubit", models.build(ModelSpec(ModelKind.QUBIT_1PARAM))),
        ("qubit2", models.build(ModelSpec(ModelKind.QUBIT_2PARAM, alpha=1.1))),
        ("qutrit", models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))),
        ("anharmonic", models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))),
    ]


def weak_random_problem(seed):
    """A random two-coupling model whose spectrum has gaps of order one."""
    rng = np.random.default_rng(700 + seed)
    dim = 6
    return PerturbationProblem(
        h0=HermitianOperator(np.diag(np.arange(dim, dtype=float) * 1.5).astype(complex)),
        perturbations=tuple(HermitianOperator(random_hermitian(rng, dim)) for _ in range(2)),
        level=int(rng.integers(0, dim)),
    )


def preset_probe(name, problem):
    if name in ("qubit", "qubit2"):
        return models.qubit_probe(0.4, 0.9)
    if name == "qutrit":
        return models.qutrit_probe()
    return models.vacuum_state(problem.dim)


class TestExactEigenstate:
    def test_lambda_zero_returns_unperturbed(self):
        state = oracle.exact_eigenstate(QUBIT1, [0.0])
        assert np.allclose(state.amplitudes, [1.0, 0.0])

    def test_qubit_small_coupling(self):
        lam = 0.01
        state = oracle.exact_eigenstate(QUBIT1, [lam])
        approx = np.array([1.0, lam / 2.0])
        approx /= np.linalg.norm(approx)
        error = np.linalg.norm(phase_align(state.amplitudes, approx) - approx)
        assert error <= 10.0 * lam**2

    def test_anharmonic_matches_perturbed_state(self):
        from perturbsense import perturbed_state

        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        lam = np.array([1e-3, 1e-3])
        exact = oracle.exact_eigenstate(problem, lam).amplitudes
        approx = perturbed_state(problem, lam).amplitudes
        error = np.linalg.norm(phase_align(exact, approx) - approx)
        assert error <= 10.0 * float(np.dot(lam, lam))

    def test_positive_overlap_phase(self):
        state = oracle.exact_eigenstate(QUBIT1, [0.02])
        assert state.amplitudes[0].real > 0
        assert abs(state.amplitudes[0].imag) <= 1e-14

    def test_tracks_through_exact_crossing(self):
        # the perturbation leaves the levels uncoupled, so the tracked
        # level passes an exact crossing and ends above its neighbor;
        # energy ordering would return the wrong vector
        h0 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        ramp = HermitianOperator(np.diag([1.0, 0.0]).astype(complex))
        problem = PerturbationProblem(h0=h0, perturbations=(ramp,), level=0)
        state = oracle.exact_eigenstate(problem, [1.5])
        assert np.allclose(state.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_ambiguous_tracking_raises(self, monkeypatch):
        # one coarse step lands on eigenvectors that all share less than
        # half their weight with the tracked one
        fourier = np.exp(
            2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0
        ) / np.sqrt(3.0)
        scrambler = fourier @ np.diag([1.0, 2.0, 3.0]) @ fourier.conj().T
        h0 = HermitianOperator(np.diag([0.0, 1e-13, 2e-13]).astype(complex))
        problem = PerturbationProblem(
            h0=h0, perturbations=(HermitianOperator(scrambler),), level=0
        )
        monkeypatch.setattr(oracle, "PATH_STEPS", 1)
        with pytest.raises(LevelTrackingError):
            oracle.exact_eigenstate(problem, [100.0])


class TestDirectStep:
    def test_weak_sample_takes_one_solve(self, monkeypatch):
        QUBIT1.spectral  # the cached H0 solve is not the sample's
        calls = count_eigh(monkeypatch)
        oracle.exact_eigenstate(QUBIT1, [1e-3])
        assert len(calls) == 1

    def test_avoided_crossing_falls_back_to_walk(self, monkeypatch):
        # at lambda = 0.5 the tracked level keeps only 0.854 of v0, below
        # the direct step's 0.9, so the walk resolves it
        problem = avoided_crossing_problem()
        problem.spectral
        calls = count_eigh(monkeypatch)
        state = oracle.exact_eigenstate(problem, [0.5])
        assert len(calls) == oracle.PATH_STEPS
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(
            0.5 + 0.5 / math.sqrt(2.0), abs=1e-12
        )
        _, vecs = np.linalg.eigh(problem.hamiltonian([0.5]).matrix)
        assert np.allclose(phase_align(vecs[:, 0], state.amplitudes), state.amplitudes, atol=1e-12)

    @pytest.mark.parametrize(
        "name_problem",
        preset_problems() + [(f"random{seed}", weak_random_problem(seed)) for seed in range(4)],
        ids=lambda np_: np_[0],
    )
    def test_direct_step_matches_walk(self, monkeypatch, name_problem):
        # an accepted direct solve is the walk's last solve, so the two
        # return the same bits
        _, problem = name_problem
        problem.spectral
        rng = np.random.default_rng(11)
        for lam in (
            np.full(problem.num_parameters, 1e-3),
            np.full(problem.num_parameters, -1e-3),
            1e-3 * rng.normal(size=problem.num_parameters),
        ):
            with monkeypatch.context() as m:
                calls = count_eigh(m)
                direct = oracle.exact_eigenstate(problem, lam).amplitudes
                assert len(calls) == 1
                m.setattr(oracle, "DIRECT_OVERLAP_MIN", 1.5)
                walked = oracle.exact_eigenstate(problem, lam).amplitudes
                assert len(calls) == 1 + oracle.PATH_STEPS
            assert np.array_equal(direct, walked)


def avoided_crossing_problem():
    """H0 = diag(0, 1), H1 = sigma_x: at lambda = 0.5 the tracked level keeps 0.854 of v0."""
    h0 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    sigma_x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return PerturbationProblem(h0=h0, perturbations=(sigma_x,), level=0)


def shared_solve_cases():
    """(name, problem, probe) for the presets and seeded random weak models."""
    cases = [(name, problem, preset_probe(name, problem)) for name, problem in preset_problems()]
    for seed in range(4):
        problem = weak_random_problem(seed)
        probe = StateVector(random_state(np.random.default_rng(900 + seed), problem.dim))
        cases.append((f"random{seed}", problem, probe))
    return cases


class TestSharedSolve:
    T = 1.3

    @pytest.mark.parametrize("case", shared_solve_cases(), ids=lambda c: c[0])
    def test_joint_family_matches_separate_ones(self, monkeypatch, case):
        # both members come from the sample's one solve, so they are the same
        # columns of the same eigh as the separate families' solves give
        _, problem, probe = case
        problem.spectral
        joint = oracle.exact_families(problem, probe, self.T)
        separate_evolved = oracle.exact_evolved_family(problem, probe, self.T)
        rng = np.random.default_rng(12)
        for lam in (
            np.full(problem.num_parameters, 1e-3),
            np.full(problem.num_parameters, -1e-3),
            1e-3 * rng.normal(size=problem.num_parameters),
        ):
            with monkeypatch.context() as m:
                calls = count_eigh(m)
                state, evolved = joint(lam)
                assert len(calls) == 1
            expected = oracle.exact_eigenstate(problem, lam).amplitudes
            assert np.array_equal(state.amplitudes, expected)
            assert np.array_equal(evolved.amplitudes, separate_evolved(lam).amplitudes)

    def test_fd_qfim_matches_separate_families(self, monkeypatch):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        probe = models.vacuum_state(problem.dim)
        lam = np.array([1e-3, -1e-3])
        problem.spectral
        with monkeypatch.context() as m:
            calls = count_eigh(m)
            separate = (
                oracle.fd_qfim(partial(oracle.exact_eigenstate, problem), lam),
                oracle.fd_qfim(oracle.exact_evolved_family(problem, probe, self.T), lam),
            )
            assert len(calls) == 18
        calls = count_eigh(monkeypatch)
        joint = oracle.fd_qfim(oracle.exact_families(problem, probe, self.T), lam)
        assert len(calls) == 9  # the center and 2 x 2 samples per coupling
        assert len(joint) == 2
        for (q, d), (q_ref, d_ref) in zip(joint, separate):
            assert np.array_equal(q.entries, q_ref.entries)
            assert np.array_equal(d.entries, d_ref.entries)

    def test_avoided_crossing_walks_and_shares_endpoint(self, monkeypatch):
        problem = avoided_crossing_problem()
        problem.spectral
        probe = StateVector(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        lam = np.array([0.5])
        joint = oracle.exact_families(problem, probe, self.T)
        calls = count_eigh(monkeypatch)
        state, evolved = joint(lam)
        # the walk's last solve is the one at lambda, which the evolved probe shares
        assert len(calls) == oracle.PATH_STEPS
        assert np.array_equal(state.amplitudes, oracle.exact_eigenstate(problem, lam).amplitudes)
        expected = oracle.exact_evolved_family(problem, probe, self.T)(lam).amplitudes
        assert np.array_equal(evolved.amplitudes, expected)

    def test_misshapen_lambda_rejected(self):
        # a (1, 1) lambda has the bytes of a valid (1,) one
        joint = oracle.exact_families(QUBIT1, models.qubit_probe(0, 0), self.T)
        joint(np.array([1e-3]))
        with pytest.raises(ValueError, match="couplings"):
            joint(np.array([[1e-3]]))


class TestFidelityQfi:
    def test_qubit_static(self):
        family = partial(oracle.exact_eigenstate, QUBIT1)
        q = oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, 1e-4)
        assert q == pytest.approx(1.0, rel=0.01)

    def test_constant_family_is_zero(self):
        state = StateVector([1.0, 0.0])
        assert oracle.fidelity_qfi(lambda l: state, 0.0, 1e-4) == 0.0

    def test_anharmonic_cubic(self):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        family = partial(oracle.exact_eigenstate, problem)
        q = oracle.fidelity_qfi(lambda l: family(np.array([l, 0.0])), 1e-3, 1e-4)
        assert q == pytest.approx(29.0 / 6.0, rel=0.01)

    def test_step_halving_consistency(self):
        family = partial(oracle.exact_eigenstate, QUBIT1)
        q_coarse = oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, 1e-4)
        q_fine = oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, 5e-5)
        assert abs(q_coarse - q_fine) <= 1e-3 * abs(q_fine)

    def test_evolved_qubit_peak(self):
        family = oracle.exact_evolved_family(
            QUBIT1, models.qubit_probe(0.0, 0.0), np.pi / 2
        )
        q = oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, 1e-4)
        assert q == pytest.approx(4.0, rel=0.01)


class TestFdQfim:
    def test_qutrit_identity_block(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=np.pi / 2))
        family = partial(oracle.exact_eigenstate, problem)
        q, d = oracle.fd_qfim(family, np.array([1e-3, 1e-3]))
        assert np.max(np.abs(q.entries - 4.0 * np.eye(2))) <= 0.01 * 4.0
        assert np.max(np.abs(d.entries)) <= 1e-6

    def test_anharmonic_dynamic_matches_closed_forms(self):
        problem = models.build(ModelSpec(ModelKind.ANHARMONIC_2PARAM, fock_dim=16))
        t = 2.0
        family = oracle.exact_evolved_family(problem, models.vacuum_state(16), t)
        q, _ = oracle.fd_qfim(family, np.zeros(2))
        q11, q22, q12 = models.reference_anharmonic_dynamic(t)
        assert q.entries[0, 0] == pytest.approx(q11, rel=0.01)
        assert q.entries[1, 1] == pytest.approx(q22, rel=0.01)
        assert abs(q.entries[0, 1] - q12) <= 0.01 * q11

    def test_flat_direction_gives_zero_row_and_singular_bound(self):
        from perturbsense import SingularQfimError, bound_b, quantumness_r

        state_family = partial(oracle.exact_eigenstate, QUBIT1)

        def padded(lam):
            return state_family(np.array([lam[0]]))  # ignores lam[1]

        q, d = oracle.fd_qfim(padded, np.array([1e-3, 0.0]))
        assert q.entries[1, 1] <= 1e-12
        assert abs(q.entries[0, 1]) <= 1e-12
        assert bound_b(q) == math.inf
        with pytest.raises(SingularQfimError):
            quantumness_r(q, d)

    def test_gauge_robustness(self):
        problem = models.build(ModelSpec(ModelKind.QUTRIT_2PARAM, alpha=1.0))
        family = partial(oracle.exact_eigenstate, problem)

        def gauged(lam):
            phase = np.exp(1j * (3.0 * lam[0] - 2.0 * lam[1] + 5.0 * lam[0] * lam[1]))
            return StateVector(family(lam).amplitudes * phase)

        lam = np.array([1e-3, 1e-3])
        q_plain, d_plain = oracle.fd_qfim(family, lam)
        q_gauged, d_gauged = oracle.fd_qfim(gauged, lam)
        assert np.max(np.abs(q_plain.entries - q_gauged.entries)) <= 1e-6
        assert np.max(np.abs(d_plain.entries - d_gauged.entries)) <= 1e-6

    def test_noisy_family_trips_consistency_check(self):
        # quantizing the amplitudes injects noise that central differences
        # amplify; the eps vs eps/2 cross-check must catch it
        family = partial(oracle.exact_eigenstate, QUBIT1)

        def noisy(lam):
            amplitudes = np.round(family(lam).amplitudes * 1e6) / 1e6
            return StateVector(amplitudes / np.linalg.norm(amplitudes))

        with pytest.raises(FiniteDifferenceError):
            oracle.fd_qfim(noisy, np.array([1e-3]), eps=1e-5)

    @pytest.mark.parametrize("name_problem", preset_problems(), ids=lambda np_: np_[0])
    def test_engine_equivalence_static(self, name_problem):
        # spec property: oracle vs leading-order engine within max(1%, 50 |lambda|)
        name, problem = name_problem
        lam = np.full(problem.num_parameters, 1e-3)
        family = partial(oracle.exact_eigenstate, problem)
        q_fd, d_fd = oracle.fd_qfim(family, lam)
        cs = [first_order_correction(problem, mu) for mu in range(problem.num_parameters)]
        q_engine = qfim_static(cs).entries
        d_engine = uhlmann_static(cs).entries
        tolerance = max(0.01, 50.0 * float(np.linalg.norm(lam)))
        for engine, fd in ((q_engine, q_fd.entries), (d_engine, d_fd.entries)):
            mask = np.abs(engine) > 1e-3
            if mask.any():
                rel = np.abs((fd[mask] - engine[mask]) / engine[mask])
                assert np.max(rel) <= tolerance

    @pytest.mark.parametrize("name_problem", preset_problems(), ids=lambda np_: np_[0])
    def test_engine_equivalence_dynamic(self, name_problem):
        name, problem = name_problem
        probe = preset_probe(name, problem)
        t = 1.3
        lam = np.full(problem.num_parameters, 1e-3)
        q_fd, d_fd = oracle.fd_qfim(oracle.exact_evolved_family(problem, probe, t), lam)
        ks = [
            k_operator_spectral(problem.spectral, h, t) for h in problem.perturbations
        ]
        report = qfim_dynamic(probe, ks)
        tolerance = max(0.01, 50.0 * float(np.linalg.norm(lam)))
        for engine, fd in (
            (report.qfim.entries, q_fd.entries),
            (report.uhlmann.entries, d_fd.entries),
        ):
            mask = np.abs(engine) > 1e-3
            if mask.any():
                rel = np.abs((fd[mask] - engine[mask]) / engine[mask])
                assert np.max(rel) <= tolerance


class TestBadStep:
    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
    def test_fd_qfim_rejects(self, eps):
        family = partial(oracle.exact_eigenstate, QUBIT1)
        with pytest.raises(ValueError, match="finite-difference step"):
            oracle.fd_qfim(family, np.array([1e-3]), eps=eps)

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
    def test_fidelity_qfi_rejects(self, eps):
        family = partial(oracle.exact_eigenstate, QUBIT1)
        with pytest.raises(ValueError, match="finite-difference step"):
            oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, eps)

    @pytest.mark.parametrize(
        "lam, eps",
        [([1e-3], 5e-324), ([1e-3], 1e-19), ([0.0, 1.0], 1e-16)],
    )
    def test_step_too_small_to_move_a_coupling(self, lam, eps):
        # lambda_mu -/+ eps/4 round to one value, so the finest samples would
        # coincide; the step is refused before the family is sampled
        calls = []

        def family(lam):
            calls.append(lam)
            return StateVector(np.ones(2))

        with pytest.raises(FiniteDifferenceStepError, match="too small to move"):
            oracle.fd_qfim(family, np.array(lam), eps=eps)
        assert calls == []

    def test_fidelity_qfi_step_too_small(self):
        calls = []

        def family(lam):
            calls.append(lam)
            return StateVector(np.ones(2))

        with pytest.raises(FiniteDifferenceStepError, match="too small to move"):
            oracle.fidelity_qfi(family, 1.0, 1e-17)
        assert calls == []

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
    def test_step_error_is_typed(self, eps):
        family = partial(oracle.exact_eigenstate, QUBIT1)
        for call in (
            lambda: oracle.fd_qfim(family, np.array([1e-3]), eps=eps),
            lambda: oracle.fidelity_qfi(lambda l: family(np.array([l])), 1e-3, eps),
        ):
            with pytest.raises(FiniteDifferenceStepError) as info:
                call()
            assert isinstance(info.value, PerturbSenseError)
            assert isinstance(info.value, ValueError)


class TestExactEvolvedFamily:
    def test_lambda_zero_is_free_evolution(self):
        probe = models.qubit_probe(0.8, 0.2)
        family = oracle.exact_evolved_family(QUBIT1, probe, 1.1)
        expected = QUBIT1.spectral.propagator(1.1) @ probe.amplitudes
        assert np.max(np.abs(family(np.zeros(1)).amplitudes - expected)) <= 1e-12

    def test_zero_time_is_identity(self):
        probe = models.qubit_probe(0.8, 0.2)
        family = oracle.exact_evolved_family(QUBIT1, probe, 0.0)
        for lam in ([0.0], [0.3], [-0.2]):
            assert np.max(np.abs(family(np.array(lam)).amplitudes - probe.amplitudes)) <= 1e-12

    @staticmethod
    def free(h0, t, psi):
        """exp(-i H0 t)|psi>: the evolved family of a one-coupling problem at lambda = 0."""
        problem = PerturbationProblem(
            h0=h0, perturbations=(HermitianOperator(np.zeros((h0.dim, h0.dim))),), level=0
        )
        return oracle.exact_evolved_family(problem, psi, t)(np.zeros(1))

    def test_eigenstate_acquires_phase(self):
        out = self.free(QUBIT1.h0, 0.7, StateVector([1.0, 0.0]))
        assert np.allclose(out.amplitudes, [np.exp(-0.7j), 0.0])

    def test_populations_preserved_for_plus_state(self):
        plus = StateVector([1.0, 1.0] / np.sqrt(2.0))
        out = self.free(QUBIT1.h0, np.pi, plus)
        assert abs(out.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = rng.integers(2, 12)
        h = HermitianOperator(random_hermitian(rng, dim))
        psi = StateVector(random_state(rng, dim))
        t = rng.uniform(0.0, 8.0)
        assert np.linalg.norm(self.free(h, t, psi).amplitudes) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_group_law(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = rng.integers(2, 10)
        h = HermitianOperator(random_hermitian(rng, dim))
        psi = StateVector(random_state(rng, dim))
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        direct = self.free(h, t1 + t2, psi).amplitudes
        nested = self.free(h, t2, self.free(h, t1, psi)).amplitudes
        assert np.max(np.abs(direct - nested)) <= 1e-9

    def test_wrong_probe_dimension_rejected_at_construction(self):
        with pytest.raises(DimensionMismatchError):
            oracle.exact_evolved_family(QUBIT1, models.qutrit_probe(), 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_at_construction(self, t):
        with pytest.raises(ValueError, match="interaction time"):
            oracle.exact_evolved_family(QUBIT1, models.qubit_probe(0.8, 0.2), t)


class TestCouplingArity:
    def test_eigenstate_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            oracle.exact_eigenstate(QUBIT1, [1e-3, 1e-3])

    @pytest.mark.parametrize("level", [-1, 2])
    def test_level_outside_spectrum_rejected(self, level):
        # the problem checks the level before any oracle call can index
        # the spectrum with it
        with pytest.raises(ValueError):
            PerturbationProblem(h0=QUBIT1.h0, perturbations=QUBIT1.perturbations, level=level)

    def test_evolved_family_rejects_wrong_length(self):
        family = oracle.exact_evolved_family(QUBIT1, models.qubit_probe(0, 0), 1.0)
        with pytest.raises(ValueError):
            family(np.array([1e-3, 1e-3]))
