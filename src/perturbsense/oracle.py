"""Independent ground truth by exact diagonalization and finite differences.

Nothing in this module uses perturbation theory: eigenstates come from
dense diagonalization with overlap-tracked levels, evolved states from
the exact propagator, and Fisher information from fidelity quotients or
central-difference derivative vectors with an explicit gauge term.  The
estimation engine is validated against these routines.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    FiniteDifferenceError,
    FiniteDifferenceStepError,
    LevelTrackingError,
)
from .operators import StateVector
from .perturbation import PerturbationProblem
from .static_estimation import QfiMatrix, UhlmannMatrix

__all__ = [
    "exact_eigenstate",
    "fidelity_qfi",
    "fd_qfim",
    "exact_evolved_family",
    "exact_families",
]

DEFAULT_FD_STEP = 1e-4
PATH_STEPS = 4
# A direct solve whose best eigenvector holds this share of v0 leaves at
# most the rest to any other eigenvector, so the level is unambiguous.
DIRECT_OVERLAP_MIN = 0.9
FD_DISAGREEMENT_RTOL = 0.1
FD_ABS_FLOOR = 1e-9


def _solve(p: PerturbationProblem, lam) -> tuple[np.ndarray, np.ndarray]:
    """The ``np.linalg.eigh`` pair of ``p.hamiltonian(lam)``: every oracle eigensolve of H(lambda)."""
    return np.linalg.eigh(p.hamiltonian(lam).matrix)


def exact_eigenstate(p: PerturbationProblem, lambdas) -> StateVector:
    """Exact eigenvector of ``p.hamiltonian(lambdas)`` at the tracked level ``p.level``.

    The level is identified by overlap with the unperturbed eigenvector,
    not by energy ordering, which may change at crossings.  One solve at
    lambda is accepted when some eigenvector holds at least
    ``DIRECT_OVERLAP_MIN`` of it, since then no other can hold more than
    ``1 - DIRECT_OVERLAP_MIN``.  Otherwise the level is tracked by overlap
    continuity along a straight path of ``PATH_STEPS`` solves from
    lambda = 0, the last of which is that same solve.  The phase is fixed
    by a positive overlap with the unperturbed eigenvector.
    """
    lam = np.asarray(lambdas, dtype=float)
    return _tracked(p, lam, _solve(p, lam)[1])


def _tracked(p: PerturbationProblem, lam: np.ndarray, end: np.ndarray) -> StateVector:
    """The tracked level's eigenvector, given the eigenvectors ``end`` of H(lam)."""
    v0 = p.spectral.eigenvectors[:, p.level]
    projections = np.abs(end.conj().T @ v0)
    idx = int(np.argmax(projections))
    if projections[idx] ** 2 >= DIRECT_OVERLAP_MIN:
        v_prev = end[:, idx]
    else:
        v_prev = v0
        for step in range(1, PATH_STEPS + 1):
            if step == PATH_STEPS:
                vecs = end
            else:
                _, vecs = _solve(p, lam * (step / PATH_STEPS))
            projections = np.abs(vecs.conj().T @ v_prev)
            idx = int(np.argmax(projections))
            if projections[idx] ** 2 < 0.5:
                raise LevelTrackingError(
                    f"eigenlevel continuity lost at path step {step}/{PATH_STEPS} "
                    f"(best overlap {projections[idx]:.3f})"
                )
            v_prev = vecs[:, idx]
    overlap = complex(np.vdot(v0, v_prev))
    if abs(overlap) < 1e-12:
        raise LevelTrackingError("tracked eigenvector is orthogonal to the start")
    return StateVector(v_prev * np.conj(overlap / abs(overlap)))


def _check_step(eps: float, lam, shift: float) -> None:
    """Refuse a step that is not positive and finite, or too small to move lam by -/+ shift."""
    if not 0.0 < eps < math.inf:
        raise FiniteDifferenceStepError(
            f"finite-difference step must be positive and finite, got {eps}"
        )
    if np.any(lam + shift == lam - shift):
        raise FiniteDifferenceStepError(
            f"finite-difference step {eps} is too small to move the couplings "
            f"{np.asarray(lam).tolist()}"
        )


def fidelity_qfi(
    family: Callable[[float], StateVector],
    lam: float,
    eps: float,
) -> float:
    """QFI from the fidelity quotient 4 [1 - |<psi_-|psi_+>|^2] / eps^2.

    The samples sit at lam -/+ eps/2, so their separation is eps and the
    pure-state expansion |<psi|psi'>|^2 = 1 - Q eps^2 / 4 + O(eps^3)
    fixes the prefactor.
    """
    _check_step(eps, lam, eps / 2.0)
    lo = family(lam - eps / 2.0).amplitudes
    hi = family(lam + eps / 2.0).amplitudes
    fidelity = abs(np.vdot(lo, hi)) ** 2
    if not math.isfinite(fidelity):
        raise FiniteDifferenceError("non-finite overlap in fidelity quotient")
    return 4.0 * (1.0 - fidelity) / eps**2


def _members(sample) -> tuple[np.ndarray, ...]:
    """The amplitudes of a family sample: one state, or each of a tuple of states."""
    states = (sample,) if isinstance(sample, StateVector) else sample
    return tuple(state.amplitudes for state in states)


def _aligned(v: np.ndarray, center: np.ndarray) -> np.ndarray:
    overlap = complex(np.vdot(center, v))
    if abs(overlap) < 1e-12:
        raise FiniteDifferenceError(
            "family sample orthogonal to the center state; cannot fix phase"
        )
    return v * np.conj(overlap / abs(overlap))


def _derivative_moments(family, lam: np.ndarray, eps: float, centers: tuple) -> list[tuple]:
    """Q and D at step eps of every member, from one pair of samples per coupling."""
    p = lam.size
    derivatives: list[list[np.ndarray]] = [[] for _ in centers]
    for mu in range(p):
        shift = np.zeros(p)
        shift[mu] = eps / 2.0
        samples = zip(centers, _members(family(lam + shift)), _members(family(lam - shift)))
        for member, (center, hi, lo) in zip(derivatives, samples):
            member.append((_aligned(hi, center) - _aligned(lo, center)) / eps)

    moments = []
    for member, center in zip(derivatives, centers):
        geometric = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(p):
                gauge = np.vdot(member[i], center) * np.vdot(member[j], center)
                geometric[i, j] = np.vdot(member[i], member[j]) + gauge
        q = 4.0 * geometric.real
        d = 4.0 * geometric.imag
        moments.append((0.5 * (q + q.T), 0.5 * (d - d.T)))
    return moments


def fd_qfim(family, lam, eps: float = DEFAULT_FD_STEP):
    """Central-difference QFIM and Uhlmann curvature of a state family.

    Phases are fixed by positive overlap with the center state and the
    gauge term <d_mu psi|psi><d_nu psi|psi> is included, so the result is
    robust to smooth lambda-dependent phases on the family.  The eps and
    eps/2 estimates must agree within 10%, which catches cancellation; the
    finer is returned.  A step too small to move some coupling is refused,
    but one that moves lambda and not the sampled state passes vacuously.

    A family that returns a ``StateVector`` gives one ``(Q, D)`` pair.  A
    family that returns a tuple of states gives a tuple of pairs in the
    same order, every member differentiated from the same samples.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError("lambda must be a 1-d coupling vector")
    _check_step(eps, lam, eps / 4.0)  # the finest samples sit at lam_mu -/+ eps/4
    sample = family(lam)
    centers = _members(sample)
    coarse = _derivative_moments(family, lam, eps, centers)
    fine = _derivative_moments(family, lam, eps / 2.0, centers)
    pairs = []
    for (q_coarse, d_coarse), (q_fine, d_fine) in zip(coarse, fine):
        scale = max(float(np.max(np.abs(q_fine))), float(np.max(np.abs(d_fine))), FD_ABS_FLOOR)
        disagreement = max(
            float(np.max(np.abs(q_coarse - q_fine))),
            float(np.max(np.abs(d_coarse - d_fine))),
        )
        if disagreement > FD_DISAGREEMENT_RTOL * scale:
            raise FiniteDifferenceError(
                f"step-halving disagreement {disagreement:.3e} exceeds 10% of "
                f"scale {scale:.3e}; adjust eps"
            )
        pairs.append((QfiMatrix(q_fine), UhlmannMatrix(d_fine)))
    return pairs[0] if isinstance(sample, StateVector) else tuple(pairs)


def _evolver(p: PerturbationProblem, psi0: StateVector, t: float) -> Callable[..., StateVector]:
    """The map from an ``eigh`` pair of H(lambda) to exp(-i H(lambda) t)|psi0>."""
    if psi0.dim != p.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match problem dimension {p.dim}"
        )
    if not math.isfinite(t):
        raise ValueError(f"interaction time must be finite, got {t}")
    amplitudes = psi0.amplitudes

    def evolve(vals: np.ndarray, vecs: np.ndarray) -> StateVector:
        coeffs = vecs.conj().T @ amplitudes
        return StateVector(vecs @ (np.exp(-1j * vals * t) * coeffs))

    return evolve


def exact_evolved_family(
    p: PerturbationProblem, psi0: StateVector, t: float
) -> Callable[[np.ndarray], StateVector]:
    """Map lambda -> exp(-i H(lambda) t)|psi0> by exact diagonalization."""
    evolve = _evolver(p, psi0, t)
    return lambda lambdas: evolve(*_solve(p, lambdas))


def exact_families(
    p: PerturbationProblem, psi0: StateVector, t: float
) -> Callable[[np.ndarray], tuple[StateVector, StateVector]]:
    """Map lambda -> (tracked eigenstate, evolved probe), both from one solve of H(lambda).

    The members are bit for bit ``exact_eigenstate(p, lambda)`` and
    ``exact_evolved_family(p, psi0, t)(lambda)``; :func:`fd_qfim` of this
    family gives both schemes' (Q, D) for the solves of one.
    """
    evolve = _evolver(p, psi0, t)

    def family(lambdas) -> tuple[StateVector, StateVector]:
        lam = np.asarray(lambdas, dtype=float)
        vals, vecs = _solve(p, lam)
        return _tracked(p, lam, vecs), evolve(vals, vecs)

    return family
