"""Leading-order estimation quantities for stationary perturbed states.

Symmetric logarithmic derivatives, the quantum Fisher information matrix,
the Uhlmann curvature, the total-variance bound B = Tr[Q^-1], and the
quantumness (asymptotic incompatibility) R.  Everything is evaluated at
leading order in the couplings, where the QFIM is four times the real
part of the Gram matrix of the raw first-order corrections.

The checks and the B and R formulas work on stacks of shape (..., P, P):
:func:`assemble` validates a whole time grid and reads B and R off one
batched ``eigvalsh``, and a single report is the one-matrix case of the
same code.
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
    "sld_single",
    "qfim_static",
    "uhlmann_static",
    "bound_b",
    "quantumness_r",
    "sld_two_param_explicit",
    "split_tensor",
    "assemble",
    "make_report",
    "static_tensor",
    "static_report",
]

SINGULARITY_RTOL = 1e-10
R_CLIP_SLACK = 1e-9


def _at(index: tuple) -> str:
    """Where in a stack a check failed; empty for a single matrix."""
    if not index:
        return ""
    return f" at grid index {int(index[0]) if len(index) == 1 else tuple(map(int, index))}"


def _check_symmetry(m: np.ndarray, sign, what: str, kind: str) -> None:
    """Raise ValueError unless every matrix of the stack is finite and
    symmetric (``sign`` = np.subtract) or antisymmetric (np.add) to 1e-10."""
    with np.errstate(invalid="ignore"):  # inf -/+ inf: nan, read as non-finite below
        gap = np.abs(sign(m, np.swapaxes(m, -1, -2)))
    if np.max(gap) <= 1e-10:
        return
    gap = np.max(gap, axis=(-2, -1))
    k = np.unravel_index(np.argmax(~(gap <= 1e-10)), gap.shape)
    problem = f"must be {kind}" if gap[k] > 1e-10 else "entries must be finite"
    raise ValueError(f"{what} {problem}{_at(k)}")


def _qfim_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a stack of QFIMs (..., P, P), after checking that
    each is finite, symmetric and positive semidefinite."""
    _check_symmetry(m, np.subtract, "QFIM", "symmetric")
    eig = np.linalg.eigvalsh(m)
    # the floor -1e-10 max(1, max|Q|) is at most -1e-10, so most stacks skip it
    if np.min(eig[..., 0]) < -1e-10:
        bad = eig[..., 0] < -1e-10 * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"QFIM must be positive semidefinite{_at(k)}")
    return eig


def _frozen(cls, **fields):
    """A frozen dataclass instance from fields that were validated as a stack."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
        eig = _qfim_spectrum(m)
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
        _check_symmetry(m, np.add, "Uhlmann matrix", "antisymmetric")
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

    @property
    def singular(self) -> bool:
        return math.isinf(self.bound_b)


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


def qfim_static(corrections) -> QfiMatrix:
    """The QFIM of :func:`static_report`; kept because ``bench/tracing.py`` binds it."""
    return static_report(corrections).qfim


def uhlmann_static(corrections) -> UhlmannMatrix:
    """The curvature D of :func:`static_report`; kept because ``bench/tracing.py`` binds it."""
    return static_report(corrections).uhlmann


def _rank(eigenvalues: np.ndarray) -> np.ndarray:
    """Numerical rank of each ascending spectrum of a stack (..., P): the
    count of eigenvalues above ``SINGULARITY_RTOL`` times the largest.  A
    QFIM is regular when its rank is P.  A largest eigenvalue that is not
    positive gives rank 0, since every eigenvalue is then at most
    ``SINGULARITY_RTOL`` times it.
    """
    return (eigenvalues > SINGULARITY_RTOL * eigenvalues[..., -1:]).sum(axis=-1)


def _bound(eigenvalues: np.ndarray, regular: np.ndarray) -> np.ndarray:
    """Tr[Q^-1] from the spectrum where ``regular``, +inf elsewhere."""
    inverse = np.divide(
        1.0, eigenvalues, out=np.zeros_like(eigenvalues), where=regular[..., None]
    )
    return np.where(regular, inverse.sum(axis=-1), math.inf)


def _quantumness(
    q: np.ndarray, d: np.ndarray, eigenvalues: np.ndarray, regular: np.ndarray
) -> np.ndarray:
    """||i Q^-1 D||_inf where ``regular``, nan elsewhere (see :func:`quantumness_r`)."""
    r = np.full(regular.shape, math.nan)
    if q.shape[-1] == 2:
        root = np.sqrt(
            eigenvalues[..., 0] * eigenvalues[..., 1], out=np.ones(r.shape), where=regular
        )
        np.divide(np.abs(d[..., 0, 1]), root, out=r, where=regular)
    elif regular.any():
        ratio = np.linalg.eigvals(np.linalg.solve(q[regular], d[regular]))
        r[regular] = np.max(np.abs(ratio), axis=-1)
    r[(r > 1.0) & (r <= 1.0 + R_CLIP_SLACK)] = 1.0
    return r


def bound_b(q: QfiMatrix) -> float:
    """Total-variance bound Tr[Q^-1]; +inf when Q is numerically singular."""
    return float(_bound(q.spectrum, _rank(q.spectrum) == q.num_parameters))


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
    rank = int(_rank(eig))
    if rank < q.num_parameters:
        raise SingularQfimError(
            "QFIM is singular; parameters are not jointly identifiable", rank=rank
        )
    return float(_quantumness(q.entries, d.entries, eig, np.asarray(True)))


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


def split_tensor(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q = sym(Re G) and D = antisym(Im G) of geometric tensors G, shape (..., P, P)."""
    q, d = tensor.real, tensor.imag
    return 0.5 * (q + np.swapaxes(q, -1, -2)), 0.5 * (d - np.swapaxes(d, -1, -2))


def assemble(qfim: np.ndarray, uhlmann: np.ndarray):
    """Spectra, bounds B and quantumness R of stacks of Q and D, shape (..., P, P).

    Every Q and D is validated as :class:`QfiMatrix` and
    :class:`UhlmannMatrix` validate one matrix; a failing check raises
    their ``ValueError`` naming the first bad index of the stack.  Returns
    the ascending spectra (..., P), B (...) and R (...); where Q is
    numerically singular B is +inf and R is nan.  One ``eigvalsh`` call
    serves the whole stack.
    """
    qfim = np.asarray(qfim, dtype=float)
    uhlmann = np.asarray(uhlmann, dtype=float)
    if qfim.ndim < 2 or qfim.shape[-1] != qfim.shape[-2]:
        raise ValueError(f"QFIM must be square, got shape {qfim.shape}")
    if uhlmann.shape != qfim.shape:
        raise DimensionMismatchError("QFIM and Uhlmann matrix sizes differ")
    eig = _qfim_spectrum(qfim)
    _check_symmetry(uhlmann, np.add, "Uhlmann matrix", "antisymmetric")
    regular = _rank(eig) == qfim.shape[-1]
    return eig, _bound(eig, regular), _quantumness(qfim, uhlmann, eig, regular)


def _report_at(qfim, uhlmann, spectrum, b, r) -> EstimationReport:
    """The report of one point of :func:`assemble`'s validated output."""
    return EstimationReport(
        qfim=_frozen(QfiMatrix, entries=qfim, spectrum=spectrum),
        uhlmann=_frozen(UhlmannMatrix, entries=uhlmann),
        bound_b=float(b),
        quantumness_r=None if math.isnan(r) else float(r),
    )


def make_report(tensor: np.ndarray) -> EstimationReport:
    """QFIM, Uhlmann curvature, B and R from one P x P geometric tensor.

    ``tensor`` is the output of :func:`~perturbsense.operators.geometric_tensor`
    for one point: Q is its symmetrized real part and D its antisymmetrized
    imaginary part.  A singular QFIM yields bound_b = +inf and
    quantumness_r = None.  This is the single-point case of :func:`assemble`.
    """
    if np.ndim(tensor) != 2:
        raise ValueError(f"one P x P tensor is required, got shape {np.shape(tensor)}")
    q, d = split_tensor(tensor)
    spectrum, b, r = assemble(q, d)
    for a in (q, d, spectrum):
        a.setflags(write=False)
    return _report_at(q, d, spectrum, b, r)


def static_tensor(reference, raws) -> np.ndarray:
    """The package's one static Gram, as a P x P geometric tensor.

    ``reference`` holds the amplitudes of the unperturbed eigenstate and
    ``raws`` the P raw first-order corrections to it.  Q is 4 Re and D is
    4 Im of the Gram matrix of the raws.  :func:`static_report` and a
    scan's static reference both read B off this tensor.
    """
    if any(np.size(v) != np.size(raws[0]) for v in raws):
        raise DimensionMismatchError("corrections live in different spaces")
    # The corrections are orthogonal to the reference state, so the
    # projection term of the geometric tensor is at the rounding level.
    return geometric_tensor(np.asarray(reference, dtype=complex), np.stack(raws))


def static_report(corrections) -> EstimationReport:
    """QFIM, Uhlmann curvature, B and R of a set of first-order corrections.

    :func:`static_tensor` of the raw corrections, read by :func:`make_report`.
    """
    if len(corrections) < 1:
        raise ValueError("at least one correction is required")
    raws = [c.raw.amplitudes for c in corrections]
    return make_report(static_tensor(corrections[0].reference.amplitudes, raws))
