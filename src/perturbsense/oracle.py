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
from .operators import StateVector, eigh
from .perturbation import PerturbationProblem
from .static_estimation import QfiMatrix, UhlmannMatrix

__all__ = [
    "exact_eigenstate",
    "exact_eigenstate_family",
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
    """The ``eigh`` pair of ``p.hamiltonian(lam)``: every oracle eigensolve of H(lambda)."""
    return eigh(p.hamiltonian(lam).matrix)


def exact_eigenstate(
    p: PerturbationProblem,
    lambdas,
    on_solve: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> StateVector:
    """Exact eigenvector of ``p.hamiltonian(lambdas)`` at the tracked level ``p.level``.

    The level is identified by overlap with the unperturbed eigenvector,
    not by energy ordering, which may change at crossings.  One solve at
    lambda is accepted when some eigenvector holds at least
    ``DIRECT_OVERLAP_MIN`` of it, since then no other can hold more than
    ``1 - DIRECT_OVERLAP_MIN``.  Otherwise the level is tracked by overlap
    continuity along a straight path of ``PATH_STEPS`` solves from
    lambda = 0, the last of which is that same solve.  The phase is fixed
    by a positive overlap with the unperturbed eigenvector.

    ``on_solve``, if given, receives the eigenvalues and eigenvectors of
    that solve at lambda, so a caller can reuse it without a second one.
    """
    lam = np.asarray(lambdas, dtype=float)
    v0 = p.spectral.eigenvectors[:, p.level]
    vals, end = _solve(p, lam)
    if on_solve is not None:
        on_solve(vals, end)
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


def exact_eigenstate_family(p: PerturbationProblem) -> Callable[[np.ndarray], StateVector]:
    """Map lambda -> exact tracked eigenstate, for the finite-difference routines."""

    def family(lambdas) -> StateVector:
        return exact_eigenstate(p, lambdas)

    return family


def _check_step(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise FiniteDifferenceStepError(
            f"finite-difference step must be positive and finite, got {eps}"
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
    _check_step(eps)
    lo = family(lam - eps / 2.0).amplitudes
    hi = family(lam + eps / 2.0).amplitudes
    fidelity = abs(np.vdot(lo, hi)) ** 2
    if not math.isfinite(fidelity):
        raise FiniteDifferenceError("non-finite overlap in fidelity quotient")
    return 4.0 * (1.0 - fidelity) / eps**2


def _derivative_moments(
    family, lam: np.ndarray, eps: float, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    p = lam.size

    def aligned(v: np.ndarray) -> np.ndarray:
        overlap = complex(np.vdot(center, v))
        if abs(overlap) < 1e-12:
            raise FiniteDifferenceError(
                "family sample orthogonal to the center state; cannot fix phase"
            )
        return v * np.conj(overlap / abs(overlap))

    derivatives = []
    for mu in range(p):
        shift = np.zeros(p)
        shift[mu] = eps / 2.0
        hi = aligned(family(lam + shift).amplitudes)
        lo = aligned(family(lam - shift).amplitudes)
        derivatives.append((hi - lo) / eps)

    geometric = np.empty((p, p), dtype=complex)
    for i in range(p):
        for j in range(p):
            gauge = np.vdot(derivatives[i], center) * np.vdot(derivatives[j], center)
            geometric[i, j] = np.vdot(derivatives[i], derivatives[j]) + gauge
    q = 4.0 * geometric.real
    d = 4.0 * geometric.imag
    return 0.5 * (q + q.T), 0.5 * (d - d.T)


def fd_qfim(
    family: Callable[[np.ndarray], StateVector],
    lam,
    eps: float = DEFAULT_FD_STEP,
) -> tuple[QfiMatrix, UhlmannMatrix]:
    """Central-difference QFIM and Uhlmann curvature of a state family.

    Phases are fixed by positive overlap with the center state and the
    gauge term <d_mu psi|psi><d_nu psi|psi> is included, so the result is
    robust to smooth lambda-dependent phases on the family.  The eps and
    eps/2 estimates must agree within 10%, which catches steps small
    enough for catastrophic cancellation; the finer estimate is returned.
    """
    _check_step(eps)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError("lambda must be a 1-d coupling vector")
    center = family(lam).amplitudes

    q_coarse, d_coarse = _derivative_moments(family, lam, eps, center)
    q_fine, d_fine = _derivative_moments(family, lam, eps / 2.0, center)

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
    return QfiMatrix(q_fine), UhlmannMatrix(d_fine)


def exact_evolved_family(
    p: PerturbationProblem, psi0: StateVector, t: float
) -> Callable[[np.ndarray], StateVector]:
    """Map lambda -> exp(-i H(lambda) t)|psi0> by exact diagonalization."""
    return exact_families(p, psi0, t)[1]


def exact_families(
    p: PerturbationProblem, psi0: StateVector, t: float
) -> tuple[Callable[[np.ndarray], StateVector], Callable[[np.ndarray], StateVector]]:
    """The eigenstate and evolved families of one problem, one solve per lambda.

    Each solve of H(lambda) by the eigenstate family also yields the
    evolved state there, which is held (one vector per lambda) until the
    evolved family asks for it; at any other lambda the evolved family
    solves for itself.  Either family returns the same bits as
    ``exact_eigenstate_family(p)`` and ``exact_evolved_family(p, psi0, t)``,
    whatever the call order.
    """
    if psi0.dim != p.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match problem dimension {p.dim}"
        )
    if not math.isfinite(t):
        raise ValueError(f"interaction time must be finite, got {t}")
    amplitudes = psi0.amplitudes
    # keyed by shape too, so a misshapen lambda with the same bytes is
    # still refused by the solve
    evolved_at: dict[tuple[tuple[int, ...], bytes], StateVector] = {}

    def evolve(vals: np.ndarray, vecs: np.ndarray) -> StateVector:
        coeffs = vecs.conj().T @ amplitudes
        return StateVector(vecs @ (np.exp(-1j * vals * t) * coeffs))

    def eigenstate(lambdas) -> StateVector:
        lam = np.asarray(lambdas, dtype=float)

        def keep(vals, vecs):
            evolved_at[lam.shape, lam.tobytes()] = evolve(vals, vecs)

        return exact_eigenstate(p, lam, on_solve=keep)

    def evolved(lambdas) -> StateVector:
        lam = np.asarray(lambdas, dtype=float)
        state = evolved_at.pop((lam.shape, lam.tobytes()), None)
        return evolve(*_solve(p, lam)) if state is None else state

    return eigenstate, evolved
