"""First-order Rayleigh-Schrodinger machinery for weakly perturbed levels.

Computes the first-order eigenstate corrections for each coupling, their
squared norms and mutual overlaps, a two-correction angle decomposition
over an orthonormal pair spanning the correction plane, and first-order
perturbed states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionMismatchError,
    ParallelCorrectionsError,
    ZeroCorrectionError,
)
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    _times,
    geometric_tensor,
    hermitian_eig,
)

__all__ = [
    "PerturbationProblem",
    "FirstOrderCorrection",
    "OverlapMatrix",
    "AngleDecomposition",
    "first_order_correction",
    "overlaps",
    "angle_decomposition",
    "perturbed_state",
]

DEGENERACY_RTOL = 1e-8
COUPLING_ATOL = 1e-12
PARALLEL_ATOL = 1e-10
LAMBDA_WARN_NORM = 0.1

_TWO_PI = 2.0 * math.pi


def _coupling_vector(lambdas, num_parameters: int) -> np.ndarray:
    """``lambdas`` as a float vector of one coupling per parameter."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (num_parameters,):
        raise ValueError(f"expected {num_parameters} couplings, got shape {lam.shape}")
    return lam


def _mod_two_pi(x: float) -> float:
    y = math.fmod(float(x), _TWO_PI)
    if y < 0.0:
        y += _TWO_PI
    return 0.0 if y == _TWO_PI else y


@dataclass(frozen=True, eq=False)
class PerturbationProblem:
    """An unperturbed Hamiltonian, its weak perturbations, and a reference level.

    ``level`` indexes the eigenstate of ``h0`` in ascending-eigenvalue
    order.  The level must be non-degenerate relative to every level any
    perturbation couples it to; violations raise :class:`DegeneracyError`
    when corrections are computed.
    """

    h0: HermitianOperator
    perturbations: tuple[HermitianOperator, ...]
    level: int

    def __post_init__(self):
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        if len(self.perturbations) < 1:
            raise ValueError("at least one perturbation operator is required")
        dim = self.h0.dim
        for mu, h in enumerate(self.perturbations):
            if h.dim != dim:
                raise DimensionMismatchError(
                    f"perturbation {mu} has dimension {h.dim}, expected {dim}"
                )
        # a bool passes as an int but would index numpy arrays as a mask
        if isinstance(self.level, bool) or not isinstance(self.level, (int, np.integer)):
            raise ValueError(f"level must be an integer, got {self.level!r}")
        if not 0 <= self.level < dim:
            raise ValueError(f"level {self.level} outside [0, {dim})")

    @property
    def dim(self) -> int:
        return self.h0.dim

    @property
    def num_parameters(self) -> int:
        return len(self.perturbations)

    @cached_property
    def spectral(self) -> SpectralDecomposition:
        return hermitian_eig(self.h0)

    def coupling_columns(self, mu: int, columns) -> np.ndarray:
        """Columns of coupling ``mu`` in the H0 eigenbasis, H~_mu = V^dag H_mu V.

        Returns V^dag (H_mu V[:, columns]): a vector for one column index,
        shape (d, k) for a sequence of k, in O(d^2 k) work with nothing
        cached.  float64 when H0 and H_mu are real, complex otherwise.  Both
        schemes read their tangents from it: the static correction gathers
        the reference level's column, the dynamical engine the columns on
        its probe's support.  A caller that varies the probe (an optimizer
        over probes, say) gathers every column once instead.
        """
        if not 0 <= mu < self.num_parameters:
            raise ValueError(f"parameter index {mu} outside [0, {self.num_parameters})")
        vectors = self.spectral.eigenvectors
        block = _times(self.perturbations[mu].matrix, vectors[:, columns])
        return _times(vectors, block, adjoint=True)

    def hamiltonian(self, lambdas) -> HermitianOperator:
        """Assemble h0 + sum_mu lambda_mu H_mu, in the dtype of its operators."""
        lam = _coupling_vector(lambdas, self.num_parameters)
        h0, *hs = (h.matrix for h in (self.h0, *self.perturbations))
        total = np.array(h0, dtype=np.result_type(h0, *hs))
        # A nan or inf coupling, or an overflowing sum, is refused by
        # _from_sum as a non-finite entry, without a RuntimeWarning first.
        with np.errstate(over="ignore", invalid="ignore"):
            for value, m in zip(lam, hs):
                total += value * m
        return HermitianOperator._from_sum(total)


@dataclass(frozen=True, eq=False)
class FirstOrderCorrection:
    """First-order correction |psi1> = sqrt(N) |phi1> to a reference eigenstate.

    ``raw`` is the unnormalized correction, ``squared_norm`` its squared
    norm N, and ``direction`` the unit vector |phi1| (None when N = 0).
    ``reference`` is the unperturbed eigenstate the correction is
    orthogonal to.
    """

    raw: StateVector
    squared_norm: float
    direction: StateVector | None
    reference: StateVector


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Hermitian matrix of direction overlaps omega_{mu nu} = <phi1_mu|phi1_nu>."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("overlap matrix must be Hermitian")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-10:
            raise ValueError("overlap matrix must have unit diagonal")
        if np.max(np.abs(m)) > 1.0 + 1e-12:
            raise ValueError("overlap magnitudes cannot exceed 1")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def num_parameters(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class AngleDecomposition:
    """Angles and basis expressing two correction directions over {|j>, |k>}.

    Convention (coefficient of |j> carries cos):

        |phi1_1> = cos(theta1/2) |j> + sin(theta1/2) |k>
        |phi1_2> = e^{i gamma} cos(theta2/2) |j> + e^{i (gamma+varphi)} sin(theta2/2) |k>

    ``reference`` is the unperturbed eigenstate completing the triplet
    {|psi0>, |j>, |k>} used to embed the explicit two-parameter SLDs.
    """

    reference: StateVector
    basis_j: StateVector
    basis_k: StateVector
    theta1: float
    theta2: float
    gamma: float
    varphi: float


def first_order_correction(p: PerturbationProblem, mu: int) -> FirstOrderCorrection:
    """First-order correction of level ``p.level`` for perturbation ``mu``.

    Sums <psi_m|H_mu|psi_n> / (E_n - E_m) |psi_m> over m != n.  Raises
    :class:`DegeneracyError` when a coupled level is degenerate with the
    reference level (relative gap below 1e-8 of the spectral spread).
    """
    return _correction(p, p.level, mu)


def _correction(p: PerturbationProblem, n: int, mu: int) -> FirstOrderCorrection:
    """:func:`first_order_correction` of level ``n`` of ``p``, from column n of H~_mu."""
    raw_ambient = _correction_vector(p, n, mu)
    squared_norm = float(np.real(np.vdot(raw_ambient, raw_ambient)))
    raw = StateVector(raw_ambient, normalized=False)
    direction = None
    if squared_norm > 0.0:
        direction = StateVector(raw_ambient / math.sqrt(squared_norm))
    return FirstOrderCorrection(
        raw=raw,
        squared_norm=squared_norm,
        direction=direction,
        reference=p.spectral.eigenstate(n),
    )


def _correction_vector(p: PerturbationProblem, n: int, mu: int) -> np.ndarray:
    """The raw correction of level ``n`` for perturbation ``mu``, as a bare vector.

    sum over m != n of H~_mu[m, n] / (E_n - E_m) |psi_m>, from column n of
    H~_mu, with :func:`first_order_correction`'s :class:`DegeneracyError`;
    no :class:`StateVector` is built, for a caller that reads only the
    vector.
    """
    amplitudes = p.coupling_columns(mu, n)
    dec = p.spectral
    energies = dec.eigenvalues
    gaps = energies[n] - energies
    spread = float(energies[-1] - energies[0])
    gap_tol = DEGENERACY_RTOL * spread

    others = np.arange(dec.dim) != n
    tiny_gap = np.abs(gaps) <= gap_tol
    coupled = np.abs(amplitudes) > COUPLING_ATOL
    blocked = others & tiny_gap & coupled
    if np.any(blocked):
        levels = np.nonzero(blocked)[0].tolist()
        raise DegeneracyError(
            f"perturbation {mu} couples level {n} to degenerate level(s) "
            f"{levels} (gap below {gap_tol:.3e})"
        )

    coeffs = np.zeros(dec.dim, dtype=complex)
    usable = others & ~tiny_gap
    coeffs[usable] = amplitudes[usable] / gaps[usable]
    return _times(dec.eigenvectors, coeffs)


def _directions(corrections) -> list[np.ndarray]:
    dirs = []
    for mu, c in enumerate(corrections):
        if c.direction is None:
            raise ZeroCorrectionError(
                f"correction {mu} has zero norm; its direction is undefined"
            )
        dirs.append(c.direction.amplitudes)
    return dirs


def overlaps(corrections) -> OverlapMatrix:
    """Overlap matrix of the normalized correction directions."""
    dirs = _directions(corrections)
    # Directions are orthogonal to the reference state, so the projected
    # Gram matrix is their plain Gram matrix up to rounding.
    omega = 0.25 * geometric_tensor(corrections[0].reference.amplitudes, np.stack(dirs))
    omega = 0.5 * (omega + omega.conj().T)
    np.fill_diagonal(omega, 1.0)
    return OverlapMatrix(omega)


def angle_decomposition(
    c1: FirstOrderCorrection, c2: FirstOrderCorrection
) -> AngleDecomposition:
    """Express two correction directions over an orthonormal pair {|j>, |k>}.

    The basis is built by Gram-Schmidt on (phi1_1, phi1_2): |j> is the
    first direction itself (so theta1 = 0) and |k> the normalized
    remainder of the second.  The angles are solved from the expansion
    coefficients and reduced to [0, 2*pi).  Raises
    :class:`ParallelCorrectionsError` when |omega| = 1 within 1e-10,
    i.e. when the two corrections are the same state up to a phase.
    """
    phi1, phi2 = _directions([c1, c2])
    if phi1.size != phi2.size:
        raise DimensionMismatchError("corrections live in different spaces")
    omega = complex(np.vdot(phi1, phi2))
    if abs(omega) >= 1.0 - PARALLEL_ATOL:
        raise ParallelCorrectionsError(
            f"correction directions are parallel up to a phase (|omega|={abs(omega):.12f})"
        )
    remainder = phi2 - omega * phi1
    basis_k = remainder / np.linalg.norm(remainder)

    coeff_j = omega                      # <j|phi2> with |j> = phi1
    coeff_k = complex(np.vdot(basis_k, phi2))
    gamma = math.atan2(coeff_j.imag, coeff_j.real) if abs(coeff_j) > 1e-15 else 0.0
    varphi = math.atan2(coeff_k.imag, coeff_k.real) - gamma
    theta2 = 2.0 * math.atan2(abs(coeff_k), abs(coeff_j))

    return AngleDecomposition(
        reference=c1.reference,
        basis_j=StateVector(phi1),
        basis_k=StateVector(basis_k),
        theta1=0.0,
        theta2=_mod_two_pi(theta2),
        gamma=_mod_two_pi(gamma),
        varphi=_mod_two_pi(varphi),
    )


def perturbed_state(p: PerturbationProblem, lambdas) -> StateVector:
    """First-order perturbed eigenstate |psi0> + sum_mu lambda_mu |psi1_mu>, normalized."""
    lam = _coupling_vector(lambdas, p.num_parameters)
    if np.linalg.norm(lam) > LAMBDA_WARN_NORM:
        warnings.warn(
            f"|lambda| = {np.linalg.norm(lam):.3g} is outside the weak-coupling "
            "regime; first-order results are unreliable",
            UserWarning,
            stacklevel=2,
        )
    total = np.array(p.spectral.eigenvectors[:, p.level])
    for mu, value in enumerate(lam):
        if value != 0.0:
            total = total + value * first_order_correction(p, mu).raw.amplitudes
    return StateVector(total / np.linalg.norm(total))
