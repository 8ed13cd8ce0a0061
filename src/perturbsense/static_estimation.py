"""Leading-order estimation quantities for stationary perturbed states.

Symmetric logarithmic derivatives, the quantum Fisher information matrix,
the Uhlmann curvature, the total-variance bound B = Tr[Q^-1], and the
quantumness (asymptotic incompatibility) R.  Everything is evaluated at
leading order in the couplings, where the QFIM is four times the real
part of the Gram matrix of the raw first-order corrections.

One report type serves every shape: :func:`make_report` builds an
:class:`EstimationReport` from geometric tensors of shape (..., P, P),
() leading axes for one point and (T,) for a time grid.  The checks run
on the whole stack, and B and R are read off one batched ``eigvalsh``.
Where Q is numerically singular, B is +inf and R is nan at every shape.
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


def _square(entries, what: str) -> np.ndarray:
    """A private float copy of ``entries``, a stack of square matrices (..., P, P)."""
    m = np.array(entries, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class QfiMatrix:
    """Real symmetric positive-semidefinite quantum Fisher information matrix,
    or a stack of them, shape (..., P, P).

    ``spectrum`` holds the ascending eigenvalues (..., P) computed by the
    positive-semidefiniteness check; B and R are read from it.  A failing
    check on a stack names the first bad index.  Both arrays are read-only,
    and ``entries`` is a copy, so the caller's array stays writeable.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _square(self.entries, "QFIM")
        eig = _qfim_spectrum(m)
        m.setflags(write=False)
        eig.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "spectrum", eig)

    @property
    def num_parameters(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class UhlmannMatrix:
    """Real antisymmetric mean Uhlmann curvature matrix, or a stack of them,
    held as a read-only copy of the caller's array."""

    entries: np.ndarray

    def __post_init__(self):
        m = _square(self.entries, "Uhlmann matrix")
        _check_symmetry(m, np.add, "Uhlmann matrix", "antisymmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def num_parameters(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """QFIM, Uhlmann curvature, bound B and quantumness R at one model point
    or over a grid of points.

    ``qfim`` and ``uhlmann`` hold stacks of shape (..., P, P), and
    ``bound_b`` and ``quantumness_r`` are read off the QFIM spectrum on
    construction, with the leading shape (...): float64 scalars for one
    point, shape (T,) for a time scan.  Where the QFIM is numerically
    singular (parameters not jointly identifiable) B is +inf and R is
    nan.  Every array is read-only.
    """

    qfim: QfiMatrix
    uhlmann: UhlmannMatrix
    bound_b: np.floating | np.ndarray = field(init=False)
    quantumness_r: np.floating | np.ndarray = field(init=False)

    def __post_init__(self):
        q, d = self.qfim, self.uhlmann
        if d.entries.shape != q.entries.shape:
            raise DimensionMismatchError("QFIM and Uhlmann matrix sizes differ")
        eig = q.spectrum
        regular = _rank(eig) == q.num_parameters
        b = _bound(eig, regular)
        r = _quantumness(q.entries, d.entries, eig, regular)
        for name, a in (("bound_b", b), ("quantumness_r", r)):
            a.setflags(write=False)
            object.__setattr__(self, name, a[()])

    @property
    def singular(self):
        """True where the QFIM is numerically singular (B = +inf)."""
        return np.isinf(self.bound_b)


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


def bound_b(q: QfiMatrix) -> np.floating | np.ndarray:
    """Total-variance bound Tr[Q^-1] of each QFIM of the stack; +inf where Q is
    numerically singular.  A float64 scalar for one QFIM, else of shape (...)."""
    return _bound(q.spectrum, _rank(q.spectrum) == q.num_parameters)[()]


def quantumness_r(q: QfiMatrix, d: UhlmannMatrix) -> np.floating | np.ndarray:
    """Asymptotic incompatibility R = ||i Q^-1 D||_inf, in [0, 1], of each
    point of the stack: a float64 scalar for one point, else of shape (...).

    For two parameters this reduces to sqrt(det D / det Q); for general P
    it is the largest absolute eigenvalue of Q^-1 D (those eigenvalues are
    purely imaginary pairs, so the absolute value is the spectral norm of
    i Q^-1 D).  A singular QFIM raises, naming the first singular point.
    """
    if d.entries.shape != q.entries.shape:
        raise DimensionMismatchError("QFIM and Uhlmann matrix sizes differ")
    eig = q.spectrum
    rank = _rank(eig)
    regular = rank == q.num_parameters
    if not regular.all():
        k = np.unravel_index(np.argmin(regular), regular.shape)
        raise SingularQfimError(
            f"QFIM is singular{_at(k)}; parameters are not jointly identifiable",
            rank=int(rank[k]),
        )
    return _quantumness(q.entries, d.entries, eig, regular)[()]


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


def make_report(tensor: np.ndarray) -> EstimationReport:
    """The package's one report constructor: Q, D, B and R from geometric tensors.

    ``tensor`` is the output of :func:`~perturbsense.operators.geometric_tensor`,
    one P x P matrix per point, shape (..., P, P): Q is its symmetrized
    real part and D its antisymmetrized imaginary part.  The report has
    the tensor's leading shape; where Q is singular B is +inf and R nan.
    """
    q, d = split_tensor(tensor)
    return EstimationReport(QfiMatrix(q), UhlmannMatrix(d))


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
