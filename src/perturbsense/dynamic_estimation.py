"""Interaction-picture sensing with evolved probes.

To leading order in the couplings the evolved probe is
U0(t) (1 - i sum_mu lambda_mu K_mu(t)) |psi0>, with the time-integrated
interaction operators K_mu(t) = integral_0^t U0^dag(s) H_mu U0(s) ds.
The dynamical QFIM Q(t) and Uhlmann curvature D(t) are the geometric
tensor of the tangent vectors K_mu(t)|psi0>, and B(t), R(t) follow from
them.  The production path (:func:`scan_time`, :func:`dynamic_report`)
never builds a d x d K operator.  In the H0 eigenbasis, with
c = V^dag psi0, H~_mu = V^dag H_mu V and gaps g_ij = E_i - E_j,

    K~_mu(t) c = e^{iEt} o [M_mu (e^{-iEt} o c)] - M_mu c,
    M_mu = H~_mu / (i g),

so a whole time grid costs one O(d^3) eigensolve of H0 plus one
(d x d) @ (d x T) product per coupling, O(P d^2 T) in all.  Pairs whose
phase |g| t stays below ``SMALL_PHASE`` at the smallest positive grid
time (degenerate pairs among them) would lose that difference to
cancellation; they take the exact kernel t e^{igt/2} sinc(gt/2) instead.

The full K operators (spectral closed form and Gauss-Legendre
quadrature) remain as cross-checks of this path.

Time ordering in the interaction-picture propagator is dropped: only
first-order terms in the couplings are retained, and the ordering
correction enters at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, DimensionMismatchError
from .operators import (
    PANELS_PER_UNIT_TIME,
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    geometric_tensor,
    hermitian_eig,
    integrate_operator,
)
from .perturbation import PerturbationProblem, first_order_correction
from .static_estimation import (
    EstimationReport,
    _report_at,
    assemble,
    bound_b,
    make_report,
    qfim_static,
    split_tensor,
)

__all__ = [
    "KOperator",
    "TimeScan",
    "dynamic_report",
    "k_operator_spectral",
    "k_operator_quadrature",
    "qfi_dynamic_single",
    "qfim_dynamic",
    "scan_time",
]

# Below this phase |g| t the factorized kernel's relative rounding error,
# about 1e-16 / (|g| t), would exceed 1e-14; such pairs use the sinc form.
SMALL_PHASE = 1e-2


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with sinc(0) = 1 (numpy's sinc is the normalized variant)."""
    return np.sinc(x / np.pi)


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"interaction time must be finite and non-negative, got {t}")


@dataclass(frozen=True, eq=False)
class KOperator:
    """Hermitian K_mu(t) = integral_0^t U0^dag(s) H_mu U0(s) ds."""

    op: HermitianOperator
    time: float
    parameter_index: int


@dataclass(frozen=True, eq=False)
class TimeScan:
    """Q, D, B and R over a time grid, plus the static bound for comparison.

    ``qfim`` and ``uhlmann`` hold one P x P matrix per grid time, shape
    (T, P, P).  Construction validates them all in one batched pass
    (:func:`~perturbsense.static_estimation.assemble`) and derives the
    ascending QFIM spectra ``qfim_spectrum`` (T, P), the bounds ``bound_b``
    (T,), +inf at singular times, and the quantumness ``quantumness_r``
    (T,), nan at singular times.  Every array is read-only.  ``reports``
    builds one :class:`EstimationReport` per time on first access.
    """

    times: np.ndarray
    qfim: np.ndarray
    uhlmann: np.ndarray
    static_reference: float | None
    qfim_spectrum: np.ndarray = field(init=False, repr=False)
    bound_b: np.ndarray = field(init=False)
    quantumness_r: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        q = np.asarray(self.qfim, dtype=float)
        d = np.asarray(self.uhlmann, dtype=float)
        if t.ndim != 1 or q.ndim != 3 or q.shape[0] != t.size:
            raise ValueError("one P x P QFIM per grid time is required")
        derived = assemble(q, d)
        names = ("times", "qfim", "uhlmann", "qfim_spectrum", "bound_b", "quantumness_r")
        for name, a in zip(names, (t, q, d, *derived)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def reports(self) -> tuple[EstimationReport, ...]:
        return tuple(
            map(_report_at, self.qfim, self.uhlmann, self.qfim_spectrum,
                self.bound_b, self.quantumness_r)
        )

    def bound_values(self) -> np.ndarray:
        return self.bound_b


def k_operator_spectral(
    spec: SpectralDecomposition,
    h_mu: HermitianOperator,
    t: float,
    parameter_index: int = 0,
) -> KOperator:
    """K_mu(t) in closed form from the spectral data of H0.

    In the H0 eigenbasis each entry of the integrand oscillates at the
    level gap, so the integral is t * exp(i*gap*t/2) * sinc(gap*t/2)
    entrywise.  Kept as the per-time reference for :func:`scan_time`.
    """
    _check_time(t)
    if h_mu.dim != spec.dim:
        raise DimensionMismatchError(
            f"perturbation dimension {h_mu.dim} does not match H0 dimension {spec.dim}"
        )
    vectors = spec.eigenvectors
    h_eig = vectors.conj().T @ h_mu.matrix @ vectors
    gaps = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    kernel = t * np.exp(0.5j * gaps * t) * _sinc(0.5 * gaps * t)
    k_eig = h_eig * kernel
    k = vectors @ k_eig @ vectors.conj().T
    k = 0.5 * (k + k.conj().T)
    return KOperator(op=HermitianOperator(k), time=float(t), parameter_index=parameter_index)


def k_operator_quadrature(
    h0: HermitianOperator,
    h_mu: HermitianOperator,
    t: float,
    panels: int | None = None,
    parameter_index: int = 0,
) -> KOperator:
    """K_mu(t) by Gauss-Legendre quadrature of U0^dag(s) H_mu U0(s).

    Independent of the sinc closed form; kept as a cross-check against
    sign and convention bugs in :func:`k_operator_spectral`.
    """
    _check_time(t)
    if h_mu.dim != h0.dim:
        raise DimensionMismatchError(
            f"perturbation dimension {h_mu.dim} does not match H0 dimension {h0.dim}"
        )
    if panels is None:
        panels = max(1, math.ceil(PANELS_PER_UNIT_TIME * t))
    dec = hermitian_eig(h0)
    h = h_mu.matrix

    def integrand(s: float) -> np.ndarray:
        u0 = dec.propagator(s)
        return u0.conj().T @ h @ u0

    k = integrate_operator(integrand, 0.0, t, panels)
    k = 0.5 * (k + k.conj().T)
    return KOperator(op=HermitianOperator(k), time=float(t), parameter_index=parameter_index)


def qfi_dynamic_single(psi0: StateVector, k: KOperator) -> float:
    """Leading-order dynamical QFI: 4 times the variance of K(t) in the probe."""
    if psi0.dim != k.op.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match K dimension {k.op.dim}"
        )
    kv = k.op.matrix @ psi0.amplitudes
    second_moment = float(np.real(np.vdot(kv, kv)))
    mean = float(np.real(np.vdot(psi0.amplitudes, kv)))
    return max(4.0 * (second_moment - mean * mean), 0.0)


def qfim_dynamic(psi0: StateVector, ks) -> EstimationReport:
    """Leading-order dynamical QFIM, Uhlmann curvature, B and R at one time.

    Q is four times the covariance matrix of the K operators in the probe
    state and D is four times the imaginary part of their cross moments:
    the geometric tensor of the vectors K_mu|psi0>.  Singular QFIMs yield
    bound_b = +inf and quantumness_r = None.
    """
    ks = list(ks)
    if len(ks) < 1:
        raise ValueError("at least one K operator is required")
    t0 = ks[0].time
    for k in ks:
        if abs(k.time - t0) > 1e-12 * max(1.0, abs(t0)):
            raise ValueError("all K operators must share one interaction time")
        if k.op.dim != psi0.dim:
            raise DimensionMismatchError(
                f"probe dimension {psi0.dim} does not match K dimension {k.op.dim}"
            )
    kvs = np.stack([k.op.matrix @ psi0.amplitudes for k in ks])
    return make_report(geometric_tensor(psi0.amplitudes, kvs))


def _probe_tangents(p: PerturbationProblem, psi0: StateVector, grid: np.ndarray):
    """K_mu(t)|psi0> for every grid time, in the H0 eigenbasis.

    Returns the tangents, shape (T, P, d), and the probe in the same basis.
    Working memory is O(P d T): no d x d x T or P x P x d x T array.
    """
    if psi0.dim != p.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match problem dimension {p.dim}"
        )
    dec = p.spectral
    vectors = dec.eigenvectors
    # Centring the spectrum keeps the phases e^{iEt} as accurate as the gaps;
    # a common energy shift cancels in e^{iE_i t} M_ij e^{-iE_j t}.
    energies = dec.eigenvalues - 0.5 * (dec.eigenvalues[0] + dec.eigenvalues[-1])
    gaps = energies[:, None] - energies[None, :]
    positive = grid[grid > 0.0]
    small = np.abs(gaps) * (positive[0] if positive.size else 0.0) < SMALL_PHASE
    inverse_gap = np.zeros(gaps.shape)
    inverse_gap[~small] = 1.0 / gaps[~small]
    rows, cols = np.nonzero(small)

    c = vectors.conj().T @ psi0.amplitudes
    phases = np.exp(1j * np.outer(grid, energies))
    rotated = phases.conj()
    rotated *= c
    tangents = np.empty((p.num_parameters, grid.size, dec.dim), dtype=complex)
    small_weights = []
    for h, y in zip(p.perturbations, tangents):
        m = vectors.conj().T @ h.matrix @ vectors
        small_weights.append(m[rows, cols] * c[cols])
        m *= inverse_gap
        m *= -1j  # M = H~ / (i g), zero on the small-phase pairs
        np.matmul(rotated, m.T, out=y)
        y *= phases
        y -= m @ c
    del phases, rotated, m
    tangents[:, grid == 0.0] = 0.0  # exact there; the difference leaves rounding

    # the exact kernel on the small-phase pairs, at most d pairs at a time
    for lo in range(0, rows.size, dec.dim):
        chunk = slice(lo, lo + dec.dim)
        g = gaps[rows[chunk], cols[chunk]]
        half_phase = np.multiply.outer(grid, 0.5 * g)
        kernel = np.empty(half_phase.shape, dtype=complex)
        np.cos(half_phase, out=kernel.real)
        np.sin(half_phase, out=kernel.imag)
        # t sinc(gt/2) = sin(gt/2) (2/g), and t itself where g = 0
        amplitude = kernel.imag * np.divide(2.0, g, out=np.zeros_like(g), where=g != 0.0)
        amplitude[:, g == 0.0] = grid[:, None]
        kernel *= amplitude
        for y, weights in zip(tangents, small_weights):
            np.add.at(y, (slice(None), rows[chunk]), kernel * weights[chunk])
    return np.swapaxes(tangents, 0, 1), c


def dynamic_report(p: PerturbationProblem, psi0: StateVector, t: float) -> EstimationReport:
    """Dynamical QFIM, Uhlmann curvature, B and R at one interaction time.

    Runs the probe-space path of :func:`scan_time` on a one-point grid.
    """
    _check_time(t)
    tangents, c = _probe_tangents(p, psi0, np.array([float(t)]))
    return make_report(geometric_tensor(c, tangents)[0])


def _static_reference(p: PerturbationProblem, psi0: StateVector) -> float | None:
    """Static bound B for the eigenlevel matching the probe, if one matches."""
    projections = np.abs(p.spectral.eigenvectors.conj().T @ psi0.amplitudes)
    level = int(np.argmax(projections))
    if projections[level] < 1.0 - 1e-10:
        return None
    at_level = p.with_level(level)
    try:
        corrections = [
            first_order_correction(at_level, mu) for mu in range(p.num_parameters)
        ]
    except DegeneracyError:
        return None
    return bound_b(qfim_static(corrections))


def scan_time(p: PerturbationProblem, psi0: StateVector, times) -> TimeScan:
    """Evaluate Q, D, B and R on an increasing grid of times.

    The tangents of every time come from one eigensolve of H0, and Q, D,
    B and R are assembled for the whole grid in one batched pass.
    Singular times are recorded (bound_b = +inf), never fatal.  The
    static reference bound is filled in when the probe coincides with an
    eigenstate of H0, so dynamical and static schemes can be compared.
    """
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("times must be finite")
    if np.any(grid < 0.0):
        raise ValueError("times must be non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    tangents, c = _probe_tangents(p, psi0, grid)
    qfim, uhlmann = split_tensor(geometric_tensor(c, tangents))
    return TimeScan(
        times=grid,
        qfim=qfim,
        uhlmann=uhlmann,
        static_reference=_static_reference(p, psi0),
    )
