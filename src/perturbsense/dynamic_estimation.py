"""Interaction-picture sensing with evolved probes.

To leading order in the couplings the evolved probe is
U0(t) (1 - i sum_mu lambda_mu K_mu(t)) |psi0>, with the time-integrated
interaction operators K_mu(t) = integral_0^t U0^dag(s) H_mu U0(s) ds.
The dynamical QFIM Q(t) and Uhlmann curvature D(t) are the geometric
tensor of the tangent vectors K_mu(t)|psi0>, and B(t), R(t) follow from
them: :func:`~perturbsense.static_estimation.make_report` builds the
report of one time or, for :func:`scan_time`, of the whole grid at once,
with B = +inf and R = nan at singular times.  The production path
(:func:`scan_time`, :func:`dynamic_report`) never builds a d x d K
operator.  In the H0 eigenbasis, with
c = V^dag psi0, H~_mu = V^dag H_mu V and gaps g_ij = E_i - E_j,

    K~_mu(t) c = e^{iEt} o [M_mu (e^{-iEt} o c)] - M_mu c,
    M_mu = H~_mu / (i g),

and only the columns of M_mu on the probe's support S = {j : c_j != 0}
meet c.  Those columns reach only the rows R = S u {i : H~_mu[i, S] != 0
for some mu}; every other row of a tangent is exactly zero, so the phases,
the products and the geometric tensor run on R alone.  A whole time grid
costs one O(d^3) eigensolve of H0, and per coupling the gather
:meth:`PerturbationProblem.coupling_columns` of H~_mu[:, S] in
O(d^2 |S|) and one (|R| x |S|) @ (|S| x T) product in O(|R| |S| T), plus
O(|R| T) for the phases.  The static correction reads the same gather
with S = {level}.  The P blocks, cut to R, are held at once; a probe with
|S| < d never forms a d x d one.  Every preset probe sits on one
eigenlevel of a diagonal H0, so |S| = 1, and the anharmonic vacuum
reaches |R| = 5 levels at any fock dimension; a dense probe, or an
eigenstate of a dense H0 whose c carries rounding on every level, has
|S| = |R| = d and the O(P d^2 T) cost.
M_mu = -i H~_mu / g, so the product runs on N_mu = H~_mu / g through
:func:`~perturbsense.operators._times`: a real model's operators are
stored as float64, so its N_mu is float64, and from ``_TILE`` rows of R
up the product is a real (|R| x |S|) @ (|S| x 2T) one, half the flops of
the complex product.

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
from dataclasses import dataclass
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
from .perturbation import PerturbationProblem, _correction_vector
from .static_estimation import EstimationReport, make_report, static_tensor

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

    ``report`` is one :class:`EstimationReport` of shape (T,) for the
    read-only grid ``times`` (T,): its QFIM and Uhlmann stacks are
    (T, P, P), and B and R (T,), +inf and nan at singular times.
    ``reports`` splits it into one single-point report per time, built
    on first access.
    """

    times: np.ndarray
    report: EstimationReport
    static_reference: float | None

    @cached_property
    def reports(self) -> tuple[EstimationReport, ...]:
        tensors = self.report.qfim.entries + 1j * self.report.uhlmann.entries
        return tuple(map(make_report, tensors))


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
    bound_b = +inf and quantumness_r = nan.  Kept as the full-matrix
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
    """K_mu(t)|psi0> at every time of an increasing grid, on the levels the probe reaches.

    Returns the tangents, shape (T, P, |R|), the probe c = V^dag psi0 on R
    and the indices R of those rows of the H0 eigenbasis.  Only the columns
    of H~_mu on the probe's support S = {j : c_j != 0} enter, so a row i
    of a tangent can be nonzero only in R = S u {i : H~_mu[i, S] != 0 for
    some mu}; the rows off R are exactly zero and are never formed.  The P
    gathered (d, |S|) blocks, cut to R, are held at once: O(d^2 |S|) each
    to gather, O(|R| |S| T) for each product and O(|R| T) for the phases.
    The anharmonic vacuum has |R| = 5 at any fock dimension.  S keeps every
    entry that is not exactly zero, however small: an eigenstate probe of
    a dense H0 has rounding-level amplitudes on every level, and with them
    R every level and the full cost, with no row copied.  No d x d x T or
    P x P x d x T array is formed.  A grid with no positive time gathers
    nothing and returns zero tangents on R = S.  A grid whose phases E t
    leave the float range raises ValueError before any phase is formed.
    """
    if psi0.dim != p.dim:
        raise DimensionMismatchError(
            f"probe dimension {psi0.dim} does not match problem dimension {p.dim}"
        )
    dec = p.spectral
    c = _times(dec.eigenvectors, psi0.amplitudes, adjoint=True)
    support = c.nonzero()[0]
    positive = grid[grid > 0.0]
    if positive.size == 0:  # K(0) = 0 exactly
        tangents = np.zeros((grid.size, p.num_parameters, support.size), dtype=complex)
        return tangents, c[support], support
    # Centring the spectrum keeps the phases e^{iEt} as accurate as the gaps;
    # a common energy shift cancels in e^{iE_i t} M_ij e^{-iE_j t}.  Each end
    # is halved first, so the centre stays finite near the float range.
    energies = dec.eigenvalues - (0.5 * dec.eigenvalues[0] + 0.5 * dec.eigenvalues[-1])
    # The spectrum ascends, so its largest |E| sits at one end; the product
    # of Python floats overflows to inf without a warning.
    top = float(max(-energies[0], energies[-1]))
    if not math.isfinite(float(positive[-1]) * top):
        with np.errstate(over="ignore"):
            t = float(positive[np.argmin(np.isfinite(positive * top))])
        raise ValueError(
            f"interaction time {t} is too long: its phases E t overflow the float range"
        )
    blocks = [p.coupling_columns(mu, support) for mu in range(p.num_parameters)]
    reached = np.zeros(dec.dim, dtype=bool)
    reached[support] = True
    for h in blocks:
        reached |= h.any(axis=1)
    rows = reached.nonzero()[0]
    at = support  # S as positions in R
    if rows.size < dec.dim:
        at = np.searchsorted(rows, support)
        blocks = [h[rows] for h in blocks]
        energies, c = energies[rows], c[rows]
    c_s = c[at]
    gaps = energies[:, None] - energies[at]
    with np.errstate(over="ignore"):  # an infinite phase is not small either
        small = np.abs(gaps) * positive[0] < SMALL_PHASE
    inverse_gap = np.zeros(gaps.shape)
    inverse_gap[~small] = 1.0 / gaps[~small]
    zero_rows, zero_cols = np.nonzero(gaps == 0.0)
    sinc_rows, sinc_cols = np.nonzero(small & (gaps != 0.0))
    sinc_gaps = gaps[sinc_rows, sinc_cols]
    del gaps, small

    angles = np.multiply.outer(grid, energies)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    del angles
    tangents = np.empty((p.num_parameters, grid.size, rows.size), dtype=complex)
    # M = -i N with N = H~/g (zero on the small-phase pairs), so Y M^T =
    # (N (-i Y)^T)^T and M c = N (-i c), where Y = e^{-iEt} o c.  Both come
    # from one product per coupling, of N with (-i Y)^T and -i c appended as
    # its last column.
    minus_i_c = np.empty_like(c_s)
    minus_i_c.real, minus_i_c.imag = c_s.imag, -c_s.real  # exact
    rotated = np.empty((support.size, grid.size + 1), dtype=complex)
    np.conjugate(phases[:, at].T, out=rotated[:, :-1])
    rotated[:, :-1] *= minus_i_c[:, None]
    rotated[:, -1] = minus_i_c
    products = np.empty((rows.size, grid.size + 1), dtype=complex)
    # H~_ij c_j on the zero-gap and small-phase pairs, read from the same
    # block as the product
    zero_terms = np.empty((p.num_parameters, zero_rows.size), dtype=complex)
    sinc_terms = np.empty((p.num_parameters, sinc_rows.size), dtype=complex)
    for mu, (y, h) in enumerate(zip(tangents, blocks)):
        _times(h * inverse_gap, rotated, out=products)
        np.multiply(products[:, :-1].T, phases, out=y)
        y -= products[:, -1]
        zero_terms[mu] = h[zero_rows, zero_cols] * c_s[zero_cols]
        sinc_terms[mu] = h[sinc_rows, sinc_cols] * c_s[sinc_cols]
    del blocks, products, phases, rotated
    if grid[0] == 0.0:  # K(0) = 0 exactly; the difference leaves rounding
        tangents[:, 0] = 0.0

    # g = 0 (the diagonal and exactly degenerate levels): K~_ij(t) = H~_ij t,
    # so each coupling adds one rank-1 term t (H~ o Z) c.  Its component
    # along c only adds a phase, which geometric_tensor projects out again;
    # kept, its square would grow as t^2 and cancel there, so it is dropped
    zero_weights = np.zeros((p.num_parameters, rows.size), dtype=complex)
    np.add.at(zero_weights, (slice(None), zero_rows), zero_terms)
    zero_weights -= np.multiply.outer(zero_weights @ c.conj() / np.vdot(c, c), c)
    for y, w in zip(tangents, zero_weights):
        y += np.multiply.outer(grid, w)

    # g != 0 but |g| t_min < SMALL_PHASE: the exact kernel, at most |R| pairs
    # at a time
    for lo in range(0, sinc_rows.size, rows.size):
        chunk = slice(lo, lo + rows.size)
        g = sinc_gaps[chunk]
        half_phase = np.multiply.outer(grid, 0.5 * g)
        kernel = np.empty(half_phase.shape, dtype=complex)
        np.cos(half_phase, out=kernel.real)
        np.sin(half_phase, out=kernel.imag)
        kernel *= kernel.imag * (2.0 / g)  # t sinc(gt/2) = sin(gt/2) (2/g)
        for y, w in zip(tangents, sinc_terms):
            np.add.at(y, (slice(None), sinc_rows[chunk]), kernel * w[chunk])
    return np.swapaxes(tangents, 0, 1), c, rows


def dynamic_report(p: PerturbationProblem, psi0: StateVector, t: float) -> EstimationReport:
    """Dynamical QFIM, Uhlmann curvature, B and R at one interaction time.

    Runs the probe-space path of :func:`scan_time` on a one-point grid.
    """
    _check_time(t)
    tangents, c, _ = _probe_tangents(p, psi0, np.array([float(t)]))
    return make_report(geometric_tensor(c, tangents)[0])


def _static_reference(p: PerturbationProblem, c: np.ndarray, rows: np.ndarray) -> float | None:
    """Static bound B for the eigenlevel matching the probe, if one matches.

    ``c`` is the probe V^dag psi0 on the eigenbasis rows ``rows``, which
    hold all of its nonzero entries.  B is what
    ``static_report([first_order_correction(replace(p, level=k), mu) ...]).bound_b``
    reads for that level k, bit for bit: :func:`static_tensor` of the
    same raw corrections, read by the same :func:`make_report`, but with
    no state vector or correction built to read one number.  None when
    the probe is not an eigenstate or a coupled level is degenerate with
    it.
    """
    projections = np.abs(c)
    top = int(np.argmax(projections))
    if projections[top] < 1.0 - 1e-10:
        return None
    level = int(rows[top])
    try:
        raws = [_correction_vector(p, level, mu) for mu in range(p.num_parameters)]
    except DegeneracyError:
        return None
    tensor = static_tensor(p.spectral.eigenvectors[:, level], raws)
    return float(make_report(tensor).bound_b)


def scan_time(p: PerturbationProblem, psi0: StateVector, times) -> TimeScan:
    """Evaluate Q, D, B and R on an increasing grid of times.

    The tangents of every time come from one eigensolve of H0, and one
    :func:`make_report` call builds the report of the whole grid.
    Singular times are recorded (bound_b = +inf), never fatal.  The
    static reference bound is filled in when the probe coincides with an
    eigenstate of H0, so dynamical and static schemes can be compared.
    ``times`` is copied; the caller's array is left as it was.
    """
    grid = np.array(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("times must be finite")
    if np.any(grid < 0.0):
        raise ValueError("times must be non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    tangents, c, rows = _probe_tangents(p, psi0, grid)
    grid.setflags(write=False)
    return TimeScan(
        times=grid,
        report=make_report(geometric_tensor(c, tangents)),
        static_reference=_static_reference(p, c, rows),
    )
