"""Dense operator primitives shared by every estimation module.

Hermitian matrices with validated construction, state vectors, spectral
decompositions with deterministic eigenvector phases and their
propagators, the quantum geometric tensor of a set of tangent vectors,
and composite Gauss-Legendre quadrature of matrix-valued integrands.
All values are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    HermiticityError,
    QuadratureError,
)

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "StateVector",
    "hermitian_eig",
    "geometric_tensor",
    "integrate_operator",
]

HERMITICITY_RTOL = 1e-12
ORTHONORMALITY_ATOL = 1e-10
RESIDUAL_RTOL = 1e-10
NORM_ATOL = 1e-10
NODES_PER_PANEL = 8
PANELS_PER_UNIT_TIME = 16
# Side of the square blocks the Hermiticity and realness scans read at a time,
# and the row count from which a real matrix meets complex data on its float
# view (_times).
_TILE = 64

_GL_NODES, _GL_WEIGHTS = leggauss(NODES_PER_PANEL)
# 2 pi i times the golden-ratio conjugate, the phase step of the probe chirp.
_CHIRP_STEP = 1j * math.pi * (math.sqrt(5.0) - 1.0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _require_finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@functools.lru_cache(maxsize=8)
def _probe(dim: int) -> np.ndarray:
    """The chirp y_j = exp(2 pi i phi j), phi = (sqrt 5 - 1)/2, that the spectral checks apply.

    Its entries have unit modulus, so every eigenpair enters a probe check
    with full weight, and their phases are incommensurate, so errors in
    different eigenpairs do not line up to cancel.
    """
    return _frozen(np.exp(np.arange(dim) * _CHIRP_STEP))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm; nan or inf when ``x`` holds a non-finite entry."""
    return math.sqrt(np.vdot(x, x).real)


def _times(
    m: np.ndarray, v: np.ndarray, adjoint: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """m @ v, or m^dag @ v, for a vector or a (k, n) block of columns v.

    The package's one rule for a real matrix meeting complex data.  numpy
    would copy a float64 ``m`` to complex128 for the mixed product; here
    it is one real product on the float view of v, whose real and
    imaginary parts sit side by side as columns.  Below ``_TILE`` rows
    that copy costs less than the view, so numpy's product is kept there.
    A complex ``m`` takes numpy's product, with the adjoint taken as
    (v^dag m)^dag, which copies no matrix.  ``out``, when given, receives
    the product.
    """
    if m.dtype.kind == "c" and adjoint:
        w = np.matmul(v.conj().T, m, out=None if out is None else out.T)
        return np.conjugate(w, out=w).T
    a = m.T if adjoint else m
    if m.dtype.kind == "c" or v.dtype.kind != "c" or m.shape[0] < _TILE:
        # the operator form skips the ufunc's keyword parsing on small matrices
        return a @ v if out is None else np.matmul(a, v, out=out)
    parts = np.ascontiguousarray(v).view(float).reshape(v.shape[0], -1)
    if out is None:
        return (a @ parts).view(complex).reshape(a.shape[0], *v.shape[1:])
    np.matmul(a, parts, out=out.view(float).reshape(a.shape[0], -1))
    return out


def _square_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a square, finite matrix (a fresh copy).

    Real dtypes (bool, integer, float) become float64 and everything else
    complex128, so a real matrix is never widened to complex to be
    narrowed back.
    """
    m = np.asarray(entries)
    if m.dtype.kind in "biuf":
        m = np.array(m, dtype=float)
    else:
        m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    return _require_finite(m)


def _is_real(m: np.ndarray) -> bool:
    """True when no entry of ``m`` has a nonzero imaginary part (zeros of either sign count).

    The imaginary part is read in blocks of about ``_TILE``**2 entries and
    the scan stops at the first block with a nonzero entry, so a complex
    matrix usually costs one block, not a full pass.
    """
    if m.dtype.kind != "c":
        return True
    rows = max(1, _TILE * _TILE // m.shape[1])
    imag = m.imag
    for i in range(0, m.shape[0], rows):
        if imag[i : i + rows].any():
            return False
    return True


def _typed(m: np.ndarray) -> np.ndarray:
    """``m`` as float64 when it is real, as complex128 otherwise."""
    if _is_real(m):
        return np.ascontiguousarray(m.real) if m.dtype.kind == "c" else m
    return m.astype(complex, copy=False)


def _hermiticity_defect(m: np.ndarray) -> float:
    """max|m - m^dag|, computed on ``_TILE`` x ``_TILE`` tiles.

    Each tile on or above the diagonal is compared with the conjugate
    transpose of its mirror tile, which fits in cache, where the whole
    transpose would be read column by column.  |m_ij - conj(m_ji)| is the
    same number as |m_ji - conj(m_ij)|, so the maximum is that of the full
    difference, bit for bit.
    """
    d = m.shape[0]
    defect = 0.0
    for i in range(0, d, _TILE):
        for j in range(i, d, _TILE):
            upper = m[i : i + _TILE, j : j + _TILE]
            mirror = m[j : j + _TILE, i : i + _TILE]
            defect = max(defect, float(np.abs(upper - mirror.conj().T).max()))
    return defect


class HermitianOperator:
    """Square matrix verified Hermitian at construction.

    ``matrix`` is float64 when no entry has a nonzero imaginary part and
    complex128 otherwise: the package's one decision that a matrix is
    real, which every solve and product downstream reads from the dtype.
    """

    __slots__ = ("_matrix", "_max_abs")

    def __init__(self, matrix):
        m = _typed(_square_matrix(matrix))
        scale = float(np.max(np.abs(m)))
        deviation = _hermiticity_defect(m)
        if deviation > HERMITICITY_RTOL * scale:
            raise HermiticityError(
                f"matrix deviates from Hermiticity by {deviation:.3e} "
                f"relative to max entry {scale:.3e}"
            )
        self._matrix = _frozen(m)
        self._max_abs = scale

    @classmethod
    def _from_sum(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Wrap a real combination of validated operators, copied only to narrow it.

        Such a sum is Hermitian by construction, so only finiteness is
        checked: an overflowing sum or a non-finite coefficient raises the
        ``ValueError`` of the public constructor.
        """
        op = cls.__new__(cls)
        op._matrix = _frozen(_typed(_require_finite(matrix)))
        op._max_abs = None
        return op

    def _scale(self) -> float:
        """max|A|, kept from the Hermiticity check or, for a sum, computed once."""
        if self._max_abs is None:
            self._max_abs = float(np.max(np.abs(self._matrix)))
        return self._max_abs

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class StateVector:
    """Complex amplitude vector; normalized by default, raw for corrections."""

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes, normalized: bool = True):
        v = np.array(amplitudes, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"expected a nonempty 1-d amplitude vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        if normalized and abs(np.linalg.norm(v) - 1.0) > NORM_ATOL:
            raise ValueError(
                f"state flagged normalized has norm {np.linalg.norm(v):.12f}"
            )
        self._amplitudes = _frozen(v)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dim(self) -> int:
        return self._amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Orthonormality is checked in O(d^2) on the probe chirp y: the defect
    ||V^dag (V y) - y|| must not exceed ``ORTHONORMALITY_ATOL``.  A column
    of norm 1 + e shows as about 2e, and an overlap c between two columns
    as sqrt(2) |c|, so any single defect the entrywise Gram bound
    max|V^dag V - I| <= ``ORTHONORMALITY_ATOL`` would refuse is refused.
    Real columns are kept as float64, others as complex128.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors)
        vecs = np.asarray(vecs, dtype=complex if np.iscomplexobj(vecs) else float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise DimensionMismatchError(
                f"{vals.shape} eigenvalues need a square matrix of as many "
                f"eigenvector columns, got shape {vecs.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite")
        if (vals[1:] < vals[:-1]).any():
            raise ValueError("eigenvalues must be ascending")
        y = _probe(vals.size)
        with np.errstate(over="ignore", invalid="ignore"):
            defect = _norm(_times(vecs, _times(vecs, y), adjoint=True) - y)
        if not defect <= ORTHONORMALITY_ATOL:
            raise ValueError(
                f"eigenvector columns are not orthonormal: probe defect {defect:.3e} "
                f"exceeds {ORTHONORMALITY_ATOL:g}"
            )
        object.__setattr__(self, "eigenvalues", _frozen(vals))
        object.__setattr__(self, "eigenvectors", _frozen(vecs))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenstate(self, n: int) -> StateVector:
        return StateVector(self.eigenvectors[:, n])

    def propagator(self, t: float) -> np.ndarray:
        """Unitary exp(-i A t) assembled from the spectral data."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases[None, :]) @ self.eigenvectors.conj().T


def _diagonal_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``np.linalg.eigh`` pair of a diagonal float64 ``m``, or None.

    The eigenvalues are the diagonal in stable ascending order and the
    eigenvectors the matching columns of the float64 identity, which is
    what LAPACK returns for such a matrix, bit for bit, whenever its sort
    agrees with a stable one: the entries are pairwise distinct or already
    non-decreasing.  Ties out of order (LAPACK's selection sort moves them
    its own way), any nonzero off-diagonal entry and complex storage give
    None.  The off-diagonal entries are read in blocks of about
    ``_TILE``**2 and the scan stops at the first block with a nonzero
    entry, so a dense matrix costs one block.
    """
    if m.dtype != np.float64:
        return None
    d = m.shape[0]
    # past the first entry, each run of d + 1 entries is d off-diagonal ones and a diagonal one
    off = m.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]
    rows = max(1, _TILE * _TILE // d)
    for i in range(0, d - 1, rows):
        if np.count_nonzero(off[i : i + rows]):
            return None
    diag = m.diagonal()
    order = np.argsort(diag, kind="stable")
    vals = diag[order]
    if np.count_nonzero(vals[1:] == vals[:-1]) and np.count_nonzero(diag[1:] < diag[:-1]):
        return None
    vecs = np.zeros((d, d))
    vecs[order, np.arange(d)] = 1.0
    return vals, vecs


def hermitian_eig(a: HermitianOperator) -> SpectralDecomposition:
    """Spectral decomposition with ascending eigenvalues and fixed phases.

    ``np.linalg.eigh`` solves ``a.matrix`` in its own dtype, so a real
    operator takes LAPACK's real solver and gets float64 eigenvectors.  A
    diagonal float64 operator whose entries are pairwise distinct or
    already non-decreasing (every preset's H0) skips LAPACK: its pair is
    read off the diagonal in O(d log d) by ``_diagonal_eigh``, bit for bit
    the pair ``eigh`` returns, except that at scales near 1e+-200, where
    LAPACK rescales the matrix, the diagonal is returned exactly.
    Each eigenvector's phase is chosen so that its largest-magnitude
    component is real and positive (a sign, for real columns), which
    makes the output deterministic and keeps finite differences on
    eigenvector families stable.

    The result is checked in O(d^2) on the probe chirp y: the residual
    ||A (V y) - V (Lambda y)|| = ||sum_k y_k (A v_k - lambda_k v_k)|| must
    not exceed ``RESIDUAL_RTOL * max(max|A|, 1)``.  Since |y_k| = 1, one
    eigenpair off by a residual r shows at the full size ||r||, where the
    entrywise bound on V Lambda V^dag - A saw an eigenvalue error e only as
    e max_i |v_ik|^2.  Non-finite eigenvalues give a non-finite residual
    and fail too, as does the orthonormality check of
    :class:`SpectralDecomposition`; both raise :class:`EigensolverError`,
    as does a spread E_max - E_min that overflows.  Every check runs on
    both paths; the phase fix runs on LAPACK's alone, since the diagonal
    path's columns are columns of the identity, whose pivots are +1.
    """
    pair = _diagonal_eigh(a.matrix)
    if pair is None:
        try:
            vals, vecs = np.linalg.eigh(a.matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"eigensolver failed to converge (dim={a.dim}, max|A|={a._scale():.3e})"
            ) from exc
        pivot_rows = np.argmax(np.abs(vecs), axis=0)
        pivots = vecs[pivot_rows, np.arange(vecs.shape[1])]
        vecs = vecs * np.conj(pivots / np.abs(pivots))[None, :]
    else:
        # identity columns: every pivot is already +1, so the phase fix is the identity
        vals, vecs = pair

    scale = max(a._scale(), 1.0)
    y = _probe(a.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(_times(a.matrix, _times(vecs, y)) - _times(vecs, vals * y))
    if not residual <= RESIDUAL_RTOL * scale:
        raise EigensolverError(
            f"eigensolver probe residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:g} * max(max|A|, 1) = {RESIDUAL_RTOL * scale:.3e}"
        )
    try:
        dec = SpectralDecomposition(vals, vecs)
    except ValueError as exc:
        raise EigensolverError(f"eigensolver output rejected: {exc}") from exc
    # every gap is bounded by the spread, so a finite spread keeps them finite
    if not math.isfinite(float(vals[-1]) - float(vals[0])):
        raise EigensolverError(
            f"eigenvalue spread {vals[-1]:.3e} - ({vals[0]:.3e}) overflows"
        )
    return dec


def geometric_tensor(psi: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Four times the projected Gram matrix of tangent vectors at ``psi``.

    ``tangents`` has shape (..., P, d): P vectors of dimension d for each
    leading index, e.g. one set per grid time.  The result has shape
    (..., P, P) with entries 4 [<x_mu|x_nu> - <x_mu|psi><psi|x_nu>]; its
    real part is the QFIM and its imaginary part the mean Uhlmann
    curvature.  It is unchanged when every tangent gets the same phase.
    """
    x = np.asarray(tangents, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != psi.shape[-1]:
        raise DimensionMismatchError(
            f"tangents of shape {x.shape} do not match state dimension {psi.shape[-1]}"
        )
    conj = x.conj()
    gram = conj @ np.swapaxes(x, -1, -2)
    along = conj @ psi
    return 4.0 * (gram - along[..., :, None] * along.conj()[..., None, :])


def integrate_operator(
    f: Callable[[float], np.ndarray],
    t_lo: float,
    t_hi: float,
    panels: int,
) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of a matrix-valued integrand.

    Uses 8 nodes per panel, which integrates polynomials up to degree 15
    exactly on each panel; the trigonometric integrands in this package
    converge far below 1e-10 at the default panel density.
    """
    if t_hi < t_lo:
        raise ValueError(f"t_hi={t_hi} is below t_lo={t_lo}")
    panels = int(panels)
    if panels < 1:
        raise ValueError("panels must be a positive integer")
    edges = np.linspace(t_lo, t_hi, panels + 1)
    total = None
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            s = mid + half * node
            sample = np.asarray(f(s), dtype=complex)
            if sample.ndim != 2 or sample.shape[0] != sample.shape[1]:
                raise QuadratureError(
                    f"integrand returned non-square shape {sample.shape} at s={s}"
                )
            if not np.all(np.isfinite(sample)):
                raise QuadratureError(f"non-finite integrand sample at s={s}")
            term = (weight * half) * sample
            total = term if total is None else total + term
    return total
