"""Precision limits for estimating weak coupling parameters in quantum Hamiltonians.

Given H = H0 + sum_mu lambda_mu H_mu with small unknown couplings, this
package computes the quantum Fisher information matrix, the Uhlmann
curvature, the total-variance bound B = Tr[Q^-1] and the quantumness R,
both for stationary perturbed eigenstates and for probes evolved for a
finite interaction time, together with an exact-diagonalization oracle
for verification.
"""

from .errors import (
    DegeneracyError,
    DimensionMismatchError,
    EigensolverError,
    FiniteDifferenceError,
    FiniteDifferenceStepError,
    HermiticityError,
    LevelTrackingError,
    ParallelCorrectionsError,
    PerturbSenseError,
    QuadratureError,
    SingularQfimError,
    ZeroCorrectionError,
)
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    geometric_tensor,
    hermitian_eig,
    integrate_operator,
)
from .perturbation import (
    AngleDecomposition,
    FirstOrderCorrection,
    OverlapMatrix,
    PerturbationProblem,
    angle_decomposition,
    first_order_correction,
    overlaps,
    perturbed_state,
)
from .static_estimation import (
    EstimationReport,
    QfiMatrix,
    UhlmannMatrix,
    bound_b,
    make_report,
    qfim_static,
    quantumness_r,
    sld_single,
    sld_two_param_explicit,
    split_tensor,
    static_report,
    uhlmann_static,
)
from .dynamic_estimation import (
    KOperator,
    TimeScan,
    dynamic_report,
    k_operator_quadrature,
    k_operator_spectral,
    qfim_dynamic,
    scan_time,
)
from .models import (
    ModelKind,
    ModelSpec,
    build,
    reference_anharmonic_dynamic,
    reference_qubit_dynamic_qfi,
    reference_qutrit_dynamic,
    reference_qutrit_static,
)
from . import models, oracle

__version__ = "0.1.0"

__all__ = [
    "AngleDecomposition",
    "DegeneracyError",
    "DimensionMismatchError",
    "EigensolverError",
    "EstimationReport",
    "FiniteDifferenceError",
    "FiniteDifferenceStepError",
    "FirstOrderCorrection",
    "HermiticityError",
    "HermitianOperator",
    "KOperator",
    "LevelTrackingError",
    "ModelKind",
    "ModelSpec",
    "OverlapMatrix",
    "ParallelCorrectionsError",
    "PerturbSenseError",
    "PerturbationProblem",
    "QfiMatrix",
    "QuadratureError",
    "SingularQfimError",
    "SpectralDecomposition",
    "StateVector",
    "TimeScan",
    "UhlmannMatrix",
    "ZeroCorrectionError",
    "angle_decomposition",
    "bound_b",
    "build",
    "dynamic_report",
    "first_order_correction",
    "geometric_tensor",
    "hermitian_eig",
    "integrate_operator",
    "k_operator_quadrature",
    "k_operator_spectral",
    "make_report",
    "models",
    "oracle",
    "overlaps",
    "perturbed_state",
    "qfim_dynamic",
    "qfim_static",
    "quantumness_r",
    "reference_anharmonic_dynamic",
    "reference_qubit_dynamic_qfi",
    "reference_qutrit_dynamic",
    "reference_qutrit_static",
    "scan_time",
    "sld_single",
    "sld_two_param_explicit",
    "split_tensor",
    "static_report",
    "uhlmann_static",
]
