"""Householder QR with a closed-form orthocomplement action, and the
independent-residual constructions for linear regression built on it."""

__version__ = "0.1.0"

from .core import (
    STANDARD,
    TO_POSITIVE,
    HouseholderQR,
    RankDeficiencyError,
    SignPolicy,
    apply_Qt,
    explicit_orthocomplement_basis,
    householder_qr,
    reconstruct,
)
from .orthocomp import (
    RowSelection,
    SingularMatrixError,
    SProjector,
    orthocomplement_apply,
    qr_for_selection,
    rank_count,
    s_from_c,
    s_from_qr,
    s_recursion,
    sign_fix,
)
from .regression import (
    IndependentResiduals,
    RegressionFit,
    StandardizedPredictor,
    fit_independent_residuals,
    fit_least_squares,
    independent_residuals,
    standardize_predictor,
    student_w,
    univariate_w,
)
from .validation import (
    SimulationConfig,
    SimulationReport,
    benchmark_apply,
    check_battery,
    cheng_matrix,
    idempotent_check,
    monte_carlo,
    oracle_compare,
    verify_theorem6_roots,
    verify_theorem7_condition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
