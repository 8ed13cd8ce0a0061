"""Factories for the reference systems and their closed-form benchmarks.

Three families are provided: a qubit with one or two transverse couplings,
a spin-1 qutrit with the analogous pair, and a harmonic oscillator with
cubic and quartic anharmonic couplings on a truncated Fock space.  The
closed-form reference functions are used by the acceptance suite to pin
the engine output.

Natural units throughout: hbar = m = omega = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, StateVector
from .perturbation import PerturbationProblem

__all__ = [
    "ModelKind",
    "ModelSpec",
    "build",
    "pauli_matrices",
    "spin1_matrices",
    "lowering_operator",
    "position_operator",
    "qubit_probe",
    "qutrit_probe",
    "vacuum_state",
    "trusted_level_count",
    "reference_qubit_dynamic_qfi",
    "reference_qutrit_static",
    "reference_qutrit_dynamic",
    "reference_anharmonic_dynamic",
]

MIN_FOCK_DIM = 8
TRUNCATION_EDGE = 4


class ModelKind(enum.Enum):
    QUBIT_1PARAM = "qubit"
    QUBIT_2PARAM = "qubit2"
    QUTRIT_2PARAM = "qutrit"
    ANHARMONIC_2PARAM = "anharmonic"


@dataclass(frozen=True)
class ModelSpec:
    """Which preset to build, its mixing angle, and the Fock truncation.

    ``alpha`` is required for the two-parameter qubit and qutrit kinds;
    ``fock_dim`` only matters for the anharmonic oscillator and must be
    at least 8 (the corrections reach Fock level 4 and squared K
    operators reach level 8).
    """

    kind: ModelKind
    alpha: float | None = None
    fock_dim: int = 16


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli matrices (sigma_x, sigma_y, sigma_z) in the {|0>, |1>} basis."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 matrices (S_x, S_y, S_z) in the z-basis ordered m = (1, 0, -1)."""
    rt = 1.0 / math.sqrt(2.0)
    sx = rt * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    sy = rt * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz


def lowering_operator(dim: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``dim`` Fock levels."""
    if dim < 1:
        raise ValueError("Fock dimension must be positive")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def position_operator(dim: int) -> np.ndarray:
    """x = (a + a^dag) / sqrt(2) on ``dim`` Fock levels."""
    a = lowering_operator(dim)
    return (a + a.conj().T) / math.sqrt(2.0)


def trusted_level_count(fock_dim: int) -> int:
    """Number of Fock levels on which the truncated x^4 matrix elements are exact.

    Products of the truncated x pick up errors within ``TRUNCATION_EDGE``
    levels of the cutoff; only indices below fock_dim - TRUNCATION_EDGE count.
    """
    return max(0, fock_dim - TRUNCATION_EDGE)


def _band_product(a: dict, b: dict) -> dict:
    """Product of two banded matrices held as {offset k: r_k}, r_k[i] = M[i, i + k].

    Each r_k has the full length d and is zero where i + k falls outside
    the matrix, so C[i, i + p + q] = sum over p, q of a_p[i] b_q[i + p] is
    the product of the truncated matrices, and C keeps that form: each
    term is added into a zeroed row on the i with i + p inside, through
    shifted slices, and the rest of the row stays zero.
    """
    dim = next(iter(a.values())).size
    product = {}
    for p, row in a.items():
        lo = max(0, -p)
        hi = max(lo, min(dim, dim - p))
        for q, other in b.items():
            out = product.setdefault(p + q, np.zeros(dim))
            out[lo:hi] += row[lo:hi] * other[lo + p : hi + p]
    return product


def _dense(bands: dict) -> np.ndarray:
    """The d x d float64 matrix of {offset k: r_k}, zero off the bands."""
    dim = next(iter(bands.values())).size
    m = np.zeros((dim, dim))
    for k, row in bands.items():
        i = np.arange(max(0, -k), dim - max(0, k))
        m[i, i + k] = row[i]
    return m


def build(spec: ModelSpec) -> PerturbationProblem:
    """Assemble the perturbation problem for a model preset.

    The reference level indexes the ascending-eigenvalue spectrum: the
    qubit and qutrit presets perturb the |0> and |1,0> states (level 1 in
    ascending order, even though |0> is not the qubit energy minimum),
    the oscillator perturbs the vacuum (level 0).
    """
    kind = spec.kind
    if kind is ModelKind.QUBIT_1PARAM:
        sx, _, sz = pauli_matrices()
        return PerturbationProblem(
            h0=HermitianOperator(sz),
            perturbations=(HermitianOperator(sx),),
            level=1,
        )
    if kind in (ModelKind.QUBIT_2PARAM, ModelKind.QUTRIT_2PARAM):
        if spec.alpha is None:
            raise ValueError(f"{kind.value} requires a mixing angle alpha")
        spin = pauli_matrices if kind is ModelKind.QUBIT_2PARAM else spin1_matrices
        sx, sy, sz = spin()
        mixed = math.cos(spec.alpha) * sx + math.sin(spec.alpha) * sy
        return PerturbationProblem(
            h0=HermitianOperator(sz),
            perturbations=(HermitianOperator(sx), HermitianOperator(mixed)),
            level=1,
        )
    if kind is ModelKind.ANHARMONIC_2PARAM:
        if spec.fock_dim < MIN_FOCK_DIM:
            raise ValueError(
                f"fock_dim must be at least {MIN_FOCK_DIM}, got {spec.fock_dim}"
            )
        dim = spec.fock_dim
        root = np.sqrt(np.arange(dim, dtype=float))
        # (a^dag a)_jj = sqrt(j) sqrt(j), the one term of the product a^dag a
        h0 = np.diag(root * root + 0.5)
        # the band of the truncated x: x_{k-1,k} = x_{k,k-1} = sqrt(k)/sqrt(2)
        step = root[1:] / math.sqrt(2.0)
        x = {-1: np.insert(step, 0, 0.0), 1: np.append(step, 0.0)}
        # x^3 = x^2 x and x^4 = x^2 x^2 are products of the truncated x, not
        # the closed-form elements of the untruncated x^k, which differ
        # within TRUNCATION_EDGE levels of the cutoff
        x2 = _band_product(x, x)
        return PerturbationProblem(
            h0=HermitianOperator(h0),
            perturbations=(
                HermitianOperator(_dense(_band_product(x2, x))),
                HermitianOperator(_dense(_band_product(x2, x2))),
            ),
            level=0,
        )
    raise ValueError(f"unknown model kind: {kind!r}")


def qubit_probe(theta: float, phi: float) -> StateVector:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return StateVector(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]
    )


def qutrit_probe() -> StateVector:
    """The |1,0> spin-1 state in the m = (1, 0, -1) basis ordering."""
    return StateVector([0.0, 1.0, 0.0])


def vacuum_state(fock_dim: int) -> StateVector:
    """Fock vacuum |0> on ``fock_dim`` levels."""
    amplitudes = np.zeros(fock_dim, dtype=complex)
    amplitudes[0] = 1.0
    return StateVector(amplitudes)


def reference_qubit_dynamic_qfi(t: float, theta: float, phi: float) -> float:
    """Closed-form dynamical QFI of the single-coupling qubit probe."""
    return (
        4.0
        * math.sin(t) ** 2
        * (1.0 - math.cos(t + phi) ** 2 * math.sin(theta) ** 2)
    )


def reference_qutrit_static(alpha: float) -> tuple[np.ndarray, float, float]:
    """Closed-form static (QFIM, B, R) for the two-coupling qutrit."""
    c = math.cos(alpha)
    q = 4.0 * np.array([[1.0, c], [c, 1.0]])
    s2 = math.sin(alpha) ** 2
    b = math.inf if s2 == 0.0 else 0.5 / s2
    return q, b, 0.0


def reference_qutrit_dynamic(t: float, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form dynamical (QFIM, B) for the two-coupling qutrit probe |1,0>."""
    c = math.cos(alpha)
    amp = 16.0 * math.sin(t / 2.0) ** 2
    q = amp * np.array([[1.0, c], [c, 1.0]])
    denom = 8.0 * math.sin(t / 2.0) ** 2 * math.sin(alpha) ** 2
    b = math.inf if denom == 0.0 else 1.0 / denom
    return q, b


def reference_anharmonic_dynamic(t: float) -> tuple[float, float, float]:
    """Closed-form dynamical (Q11, Q22, Q12) for the anharmonic vacuum probe."""
    q11 = 29.0 / 3.0 - 9.0 * math.cos(t) - (2.0 / 3.0) * math.cos(3.0 * t)
    q22 = 3.0 * (7.0 + math.cos(2.0 * t)) * math.sin(t) ** 2
    return q11, q22, 0.0
