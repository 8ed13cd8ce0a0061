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

and only the columns of M_mu on the probe's support S = {j : c_j != 0}
meet c.  So a whole time grid costs one O(d^3) eigensolve of H0, and per
coupling the gather :meth:`PerturbationProblem.coupling_columns` of
H~_mu[:, S] in O(d^2 |S|) and one (d x |S|) @ (|S| x T) product in
O(d |S| T), plus O(d T) for the phases.  The static correction reads the
same gather with S = {level}.  One coupling's (d, |S|) block is held at a
time, so nothing of size (P, d, |S|) is; a probe with |S| < d never forms
a d x d one.  Every preset probe sits on one eigenlevel of a diagonal H0,
so |S| = 1; a dense probe, or an eigenstate of a dense H0 whose c carries
rounding on every level, has |S| = d and the O(P d^2 T) cost.
M_mu = -i H~_mu / g, so the product runs on N_mu = H~_mu / g through
:func:`~perturbsense.operators._times`: a real model's operators are
stored as float64, so its N_mu is float64 and the product a real
(d x |S|) @ (|S| x 2T) one, half the flops of the complex product.

Pairs with g = 0 exactly (the diagonal and exactly degenerate levels)
have K~_ij(t) = H~_ij t: they enter as one rank-1 term t (H~ o Z) c per
coupling, Z the zero-gap mask.  Pairs whose phase 0 < |g| t stays below
``SMALL_PHASE`` at the smallest positive grid time would lose the
factorized difference to cancellation; they take the exact kernel
t e^{igt/2} sinc(gt/2) instead.  A grid with no positive time has
K_mu = 0 exactly and returns zero tangents before any of this; one with
a time whose phases E t leave the float range is refused with
ValueError before any phase is formed.

The full K operators (spectral closed form and Gauss-Legendre
quadrature) and :func:`qfim_dynamic` on them remain as cross-checks of
this path.

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
    _times,
    geometric_tensor,
    hermitian_eig,
    integrate_operator,
)
from .perturbation import PerturbationProblem, _correction
from .static_estimation import (
    EstimationReport,
    _report_at,
    assemble,
    make_report,
    split_tensor,
    static_report,
)

__all__ = [
    "KOperator",
    "TimeScan",
    "dynamic_report",
    "k_operator_spectral",
    "k_operator_quadrature",
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


def k_operator_spectral(
    spec: SpectralDecomposition,
    h_mu: HermitianOperator,
    t: float,
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
    return KOperator(op=HermitianOperator(k), time=float(t))


def k_operator_quadrature(
    h0: HermitianOperator, h_mu: HermitianOperator, t: float
) -> KOperator:
    """K_mu(t) by Gauss-Legendre quadrature of U0^dag(s) H_mu U0(s).

    Uses ``PANELS_PER_UNIT_TIME`` panels per unit time, at least one.
    Independent of the sinc closed form; kept as a cross-check against
    sign and convention bugs in :func:`k_operator_spectral`.
    """
    _check_time(t)
    if h_mu.dim != h0.dim:
        raise DimensionMismatchError(
            f"perturbation dimension {h_mu.dim} does not match H0 dimension {h0.dim}"
        )
    dec = hermitian_eig(h0)
    h = h_mu.matrix

    def integrand(s: float) -> np.ndarray:
        u0 = dec.propagator(s)
        return u0.conj().T @ h @ u0

    panels = max(1, math.ceil(PANELS_PER_UNIT_TIME * t))
    k = integrate_operator(integrand, 0.0, t, panels)
    k = 0.5 * (k + k.conj().T)
    return KOperator(op=HermitianOperator(k), time=float(t))


def qfim_dynamic(psi0: StateVector, ks) -> EstimationReport:
    """Leading-order dynamical QFIM, Uhlmann curvature, B and R at one time.

    Q is four times the covariance matrix of the K operators in the probe
    state and D is four times the imaginary part of their cross moments:
    the geometric tensor of the vectors K_mu|psi0>.  For one K operator Q
    is the single-coupling QFI 4 Var K(t).  Singular QFIMs yield
    bound_b = +inf and quantumness_r = None.  Kept as the full-matrix
    reference for :func:`dynamic_report` and :func:`scan_time`.
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

    Returns the tangents, shape (T, P, d), and the probe c = V^dag psi0.
    Only the columns of H~_mu on the probe's support S = {j : c_j != 0}
    enter, so the pair work runs on one coupling's (d, |S|) block at a
    time: O(d^2 |S|) to gather it, O(d |S| T) for its product, and O(d T)
    for the phases.  S keeps every entry that is not exactly zero, however
    small: an eigenstate probe of a dense H0 has rounding-level amplitudes
    on every level, and with them full support and the full cost.  No
    (P, d, |S|) array is formed, and no d x d x T or P x P x d x T array
    at all.  A grid whose phases E t leave the float range raises
    ValueError before any phase is formed.
    """
    if psi0.dim != p.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match problem dimension {p.dim}"
        )
    dec = p.spectral
    c = _times(dec.eigenvectors, psi0.amplitudes, adjoint=True)
    positive = grid[grid > 0.0]
    if positive.size == 0:  # K(0) = 0 exactly
        return np.zeros((grid.size, p.num_parameters, dec.dim), dtype=complex), c
    support = np.flatnonzero(c)
    c_s = c[support]
    # Centring the spectrum keeps the phases e^{iEt} as accurate as the gaps;
    # a common energy shift cancels in e^{iE_i t} M_ij e^{-iE_j t}.  Each end
    # is halved first, so the centre stays finite near the float range.
    energies = dec.eigenvalues - (0.5 * dec.eigenvalues[0] + 0.5 * dec.eigenvalues[-1])
    with np.errstate(over="ignore"):
        reach = positive * np.max(np.abs(energies))
    if not np.isfinite(reach[-1]):
        t = float(positive[np.argmin(np.isfinite(reach))])
        raise ValueError(
            f"interaction time {t} is too long: its phases E t overflow the float range"
        )
    gaps = energies[:, None] - energies[support]
    with np.errstate(over="ignore"):  # an infinite phase is not small either
        small = np.abs(gaps) * positive[0] < SMALL_PHASE
    inverse_gap = np.zeros(gaps.shape)
    inverse_gap[~small] = 1.0 / gaps[~small]
    zero_rows, zero_cols = np.nonzero(gaps == 0.0)
    rows, cols = np.nonzero(small & (gaps != 0.0))
    sinc_gaps = gaps[rows, cols]
    del gaps, small

    angles = np.multiply.outer(grid, energies)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    del angles
    tangents = np.empty((p.num_parameters, grid.size, dec.dim), dtype=complex)
    # M = -i N with N = H~/g (zero on the small-phase pairs), so R M^T =
    # (N (-i R)^T)^T and M c = N (-i c), where R = e^{-iEt} o c.  Both come
    # from one product per coupling, of N with (-i R)^T and -i c appended as
    # its last column.
    minus_i_c = np.empty_like(c_s)
    minus_i_c.real, minus_i_c.imag = c_s.imag, -c_s.real  # exact
    rotated = np.empty((support.size, grid.size + 1), dtype=complex)
    np.conjugate(phases[:, support].T, out=rotated[:, :-1])
    rotated[:, :-1] *= minus_i_c[:, None]
    rotated[:, -1] = minus_i_c
    products = np.empty((dec.dim, grid.size + 1), dtype=complex)
    # H~_ij c_j on the zero-gap and small-phase pairs, read from the same
    # block as the product
    zero_terms = np.empty((p.num_parameters, zero_rows.size), dtype=complex)
    sinc_terms = np.empty((p.num_parameters, rows.size), dtype=complex)
    for mu, y in enumerate(tangents):
        h = p.coupling_columns(mu, support)
        _times(h * inverse_gap, rotated, out=products)
        np.multiply(products[:, :-1].T, phases, out=y)
        y -= products[:, -1]
        zero_terms[mu] = h[zero_rows, zero_cols] * c_s[zero_cols]
        sinc_terms[mu] = h[rows, cols] * c_s[cols]
    del products, phases, rotated
    tangents[:, grid == 0.0] = 0.0  # exact there; the difference leaves rounding

    # g = 0 (the diagonal and exactly degenerate levels): K~_ij(t) = H~_ij t,
    # so each coupling adds one rank-1 term t (H~ o Z) c.  Its component
    # along c only adds a phase, which geometric_tensor projects out again;
    # kept, its square would grow as t^2 and cancel there, so it is dropped
    zero_weights = np.zeros((p.num_parameters, dec.dim), dtype=complex)
    np.add.at(zero_weights, (slice(None), zero_rows), zero_terms)
    zero_weights -= np.multiply.outer(zero_weights @ c.conj() / np.vdot(c, c), c)
    for y, w in zip(tangents, zero_weights):
        y += np.multiply.outer(grid, w)

    # g != 0 but |g| t_min < SMALL_PHASE: the exact kernel, at most d pairs
    # at a time
    for lo in range(0, rows.size, dec.dim):
        chunk = slice(lo, lo + dec.dim)
        g = sinc_gaps[chunk]
        half_phase = np.multiply.outer(grid, 0.5 * g)
        kernel = np.empty(half_phase.shape, dtype=complex)
        np.cos(half_phase, out=kernel.real)
        np.sin(half_phase, out=kernel.imag)
        kernel *= kernel.imag * (2.0 / g)  # t sinc(gt/2) = sin(gt/2) (2/g)
        for y, w in zip(tangents, sinc_terms):
            np.add.at(y, (slice(None), rows[chunk]), kernel * w[chunk])
    return np.swapaxes(tangents, 0, 1), c


def dynamic_report(p: PerturbationProblem, psi0: StateVector, t: float) -> EstimationReport:
    """Dynamical QFIM, Uhlmann curvature, B and R at one interaction time.

    Runs the probe-space path of :func:`scan_time` on a one-point grid.
    """
    _check_time(t)
    tangents, c = _probe_tangents(p, psi0, np.array([float(t)]))
    return make_report(geometric_tensor(c, tangents)[0])


def _static_reference(p: PerturbationProblem, c: np.ndarray) -> float | None:
    """Static bound B for the eigenlevel matching the probe c = V^dag psi0, if one matches."""
    projections = np.abs(c)
    level = int(np.argmax(projections))
    if projections[level] < 1.0 - 1e-10:
        return None
    try:
        corrections = [_correction(p, level, mu) for mu in range(p.num_parameters)]
    except DegeneracyError:
        return None
    return static_report(corrections).bound_b


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
        static_reference=_static_reference(p, c),
    )
