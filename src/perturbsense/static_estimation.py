"""Leading-order estimation quantities for stationary perturbed states.

Symmetric logarithmic derivatives, the quantum Fisher information matrix,
the Uhlmann curvature, the total-variance bound B = Tr[Q^-1], and the
quantumness (asymptotic incompatibility) R.  Everything is evaluated at
leading order in the couplings, where the QFIM is four times the real
part of the Gram matrix of the raw first-order corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SingularQfimError, ZeroCorrectionError
from .operators import HermitianOperator, geometric_tensor
from .perturbation import AngleDecomposition, FirstOrderCorrection

__all__ = [
    "QfiMatrix",
    "UhlmannMatrix",
    "EstimationReport",
    "qfi_single",
    "sld_single",
    "qfim_static",
    "uhlmann_static",
    "bound_b",
    "quantumness_r",
    "sld_two_param_explicit",
    "make_report",
    "static_report",
]

SINGULARITY_RTOL = 1e-10
R_CLIP_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class QfiMatrix:
    """Real symmetric positive-semidefinite quantum Fisher information matrix.

    ``spectrum`` holds the ascending eigenvalues computed by the
    positive-semidefiniteness check; B and R are read from it.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"QFIM must be square, got shape {m.shape}")
        asymmetry = float(np.max(np.abs(m - m.T)))
        if asymmetry > 1e-10:
            raise ValueError("QFIM must be symmetric")
        if math.isnan(asymmetry):  # a non-finite entry makes it nan or inf
            raise ValueError("QFIM entries must be finite")
        floor = -1e-10 * max(1.0, float(np.max(np.abs(m))))
        eig = np.linalg.eigvalsh(m)
        if eig[0] < floor:
            raise ValueError("QFIM must be positive semidefinite")
        m.setflags(write=False)
        eig.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "spectrum", eig)

    @property
    def num_parameters(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class UhlmannMatrix:
    """Real antisymmetric mean Uhlmann curvature matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Uhlmann matrix must be square, got shape {m.shape}")
        antisymmetry = float(np.max(np.abs(m + m.T)))
        if antisymmetry > 1e-10:
            raise ValueError("Uhlmann matrix must be antisymmetric")
        if math.isnan(antisymmetry):  # a non-finite entry makes it nan or inf
            raise ValueError("Uhlmann matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def num_parameters(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """QFIM, Uhlmann curvature, bound B, and quantumness R for one model point.

    ``bound_b`` is +inf and ``quantumness_r`` is None when the QFIM is
    singular (parameters not jointly identifiable).
    """

    qfim: QfiMatrix
    uhlmann: UhlmannMatrix
    bound_b: float
    quantumness_r: float | None
    slds: tuple[HermitianOperator, ...] | None = None

    @property
    def singular(self) -> bool:
        return math.isinf(self.bound_b)


def qfi_single(c: FirstOrderCorrection) -> float:
    """Leading-order QFI of a single coupling: four times the squared norm."""
    return 4.0 * c.squared_norm


def sld_single(c: FirstOrderCorrection, lam: float = 0.0) -> HermitianOperator:
    """Symmetric logarithmic derivative of the single-coupling model.

    At lam = 0 this is 2 sqrt(N) times a sigma_x over {|psi0>, |phi1>}.
    The first-order-in-lambda term keeps d(rho)/d(lambda) = (L rho + rho L)/2
    satisfied to second order for the normalized state family.
    """
    if c.direction is None:
        raise ZeroCorrectionError("SLD undefined for a zero correction (N = 0)")
    root_n = math.sqrt(c.squared_norm)
    phi = c.direction.amplitudes
    psi0 = c.reference.amplitudes
    if phi.size != psi0.size:
        raise DimensionMismatchError("correction and reference dimensions differ")
    sld = 2.0 * root_n * (np.outer(psi0, phi.conj()) + np.outer(phi, psi0.conj()))
    if lam != 0.0:
        sld += (4.0 * lam * c.squared_norm) * (
            np.outer(phi, phi.conj()) - np.outer(psi0, psi0.conj())
        )
    return HermitianOperator(sld)


def _correction_tensor(corrections) -> np.ndarray:
    if len(corrections) < 1:
        raise ValueError("at least one correction is required")
    raws = [c.raw.amplitudes for c in corrections]
    dim = raws[0].size
    for v in raws:
        if v.size != dim:
            raise DimensionMismatchError("corrections live in different spaces")
    # The corrections are orthogonal to the reference state, so the
    # projection term of the geometric tensor is at the rounding level.
    return geometric_tensor(corrections[0].reference.amplitudes, np.stack(raws))


def qfim_static(corrections) -> QfiMatrix:
    """Leading-order QFIM: 4 Re of the Gram matrix of the raw corrections."""
    q = _correction_tensor(corrections).real
    return QfiMatrix(0.5 * (q + q.T))


def uhlmann_static(corrections) -> UhlmannMatrix:
    """Leading-order Uhlmann curvature: 4 Im of the raw-correction Gram matrix."""
    d = _correction_tensor(corrections).imag
    return UhlmannMatrix(0.5 * (d - d.T))


def _numerical_rank(eigenvalues: np.ndarray) -> int:
    top = float(eigenvalues[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(eigenvalues > SINGULARITY_RTOL * top))


def bound_b(q: QfiMatrix) -> float:
    """Total-variance bound Tr[Q^-1]; +inf when Q is numerically singular."""
    eig = q.spectrum
    if _numerical_rank(eig) < q.num_parameters:
        return math.inf
    return float(np.sum(1.0 / eig))


def quantumness_r(q: QfiMatrix, d: UhlmannMatrix) -> float:
    """Asymptotic incompatibility R = ||i Q^-1 D||_inf, in [0, 1].

    For two parameters this reduces to sqrt(det D / det Q); for general P
    it is the largest absolute eigenvalue of Q^-1 D (those eigenvalues are
    purely imaginary pairs, so the absolute value is the spectral norm of
    i Q^-1 D).
    """
    if d.num_parameters != q.num_parameters:
        raise DimensionMismatchError("QFIM and Uhlmann matrix sizes differ")
    eig = q.spectrum
    rank = _numerical_rank(eig)
    if rank < q.num_parameters:
        raise SingularQfimError(
            "QFIM is singular; parameters are not jointly identifiable", rank=rank
        )
    if q.num_parameters == 2:
        det_q = float(np.prod(eig))
        r = abs(float(d.entries[0, 1])) / math.sqrt(det_q)
    else:
        r = float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(q.entries, d.entries)))))
    if 1.0 < r <= 1.0 + R_CLIP_SLACK:
        r = 1.0
    return r


def sld_two_param_explicit(
    dec: AngleDecomposition,
    n1: float,
    n2: float,
    lambda1: float,
    lambda2: float,
) -> tuple[HermitianOperator, HermitianOperator]:
    """Explicit two-parameter SLD pair on the {|psi0>, |j>, |k>} triplet.

    Builds the closed-form 3x3 matrix elements from the angle
    decomposition and the squared norms, then embeds them back into the
    full Hilbert space.
    """
    if n1 <= 0.0 or n2 <= 0.0:
        raise ZeroCorrectionError("explicit SLDs require positive squared norms")
    c1, s1 = math.cos(dec.theta1 / 2.0), math.sin(dec.theta1 / 2.0)
    c2, s2 = math.cos(dec.theta2 / 2.0), math.sin(dec.theta2 / 2.0)
    g, ph = dec.gamma, dec.varphi
    rn1, rn2 = math.sqrt(n1), math.sqrt(n2)
    rn12 = math.sqrt(n1 * n2)

    alpha = np.zeros((3, 3), dtype=complex)
    alpha[1, 1] = 4.0 * (lambda1 * n1 * c1**2 + lambda2 * rn12 * c1 * c2 * math.cos(g))
    alpha[2, 2] = 4.0 * (
        lambda1 * n1 * s1**2 + lambda2 * rn12 * s1 * s2 * math.cos(g + ph)
    )
    alpha[0, 1] = alpha[1, 0] = 2.0 * rn1 * c1
    alpha[0, 2] = alpha[2, 0] = 2.0 * rn1 * s1
    alpha[1, 2] = 4.0 * lambda1 * n1 * c1 * s1 + 2.0 * lambda2 * rn12 * (
        c1 * s2 * np.exp(-1j * (g + ph)) + c2 * s1 * np.exp(1j * g)
    )
    alpha[2, 1] = np.conj(alpha[1, 2])

    beta = np.zeros((3, 3), dtype=complex)
    beta[1, 1] = 4.0 * (lambda2 * n2 * c2**2 + lambda1 * rn12 * c1 * c2 * math.cos(g))
    beta[2, 2] = 4.0 * (
        lambda2 * n2 * s2**2 + lambda1 * rn12 * s1 * s2 * math.cos(g + ph)
    )
    beta[0, 1] = 2.0 * rn2 * c2 * np.exp(-1j * g)
    beta[1, 0] = np.conj(beta[0, 1])
    beta[0, 2] = 2.0 * rn2 * s2 * np.exp(-1j * (g + ph))
    beta[2, 0] = np.conj(beta[0, 2])
    beta[1, 2] = 4.0 * lambda2 * n2 * c2 * s2 * np.exp(-1j * ph) + 2.0 * lambda1 * rn12 * (
        c1 * s2 * np.exp(-1j * (g + ph)) + c2 * s1 * np.exp(1j * g)
    )
    beta[2, 1] = np.conj(beta[1, 2])

    triplet = np.column_stack(
        [dec.reference.amplitudes, dec.basis_j.amplitudes, dec.basis_k.amplitudes]
    )
    l1 = triplet @ alpha @ triplet.conj().T
    l2 = triplet @ beta @ triplet.conj().T
    return HermitianOperator(l1), HermitianOperator(l2)


def make_report(tensor: np.ndarray, slds=None) -> EstimationReport:
    """QFIM, Uhlmann curvature, B and R from one P x P geometric tensor.

    ``tensor`` is the output of :func:`~perturbsense.operators.geometric_tensor`
    for one point: Q is its symmetrized real part and D its antisymmetrized
    imaginary part.  A singular QFIM yields bound_b = +inf and
    quantumness_r = None.
    """
    q, d = tensor.real, tensor.imag
    qfim = QfiMatrix(0.5 * (q + q.T))
    uhlmann = UhlmannMatrix(0.5 * (d - d.T))
    b = bound_b(qfim)
    try:
        r = quantumness_r(qfim, uhlmann)
    except SingularQfimError:
        r = None
    return EstimationReport(qfim=qfim, uhlmann=uhlmann, bound_b=b, quantumness_r=r, slds=slds)


def static_report(corrections, include_slds: bool = False) -> EstimationReport:
    """Bundle QFIM, Uhlmann curvature, B and R for a set of corrections."""
    slds = tuple(sld_single(c) for c in corrections) if include_slds else None
    return make_report(_correction_tensor(corrections), slds=slds)
