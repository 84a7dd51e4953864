"""Sparse LDL^T factorization, selected inversion, and log-determinant
derivatives for variance-component mixed models.

The pipeline: build or load a sparse symmetric matrix, compute a
fill-reducing ordering, analyze the pattern symbolically, factorize
numerically, then either solve linear systems, take the log-determinant,
or compute the selected inverse — the entries of the full inverse on the
factor's sparsity pattern — which is exactly what trace-form derivatives
of the log-determinant consume.
"""

from .datagen import (
    PRESETS,
    RANDOM_TERMS,
    DesignSummary,
    TrialConfig,
    design_summary,
    generate,
    preset_config,
)
from .errors import (
    AsymmetricInputError,
    EmptyFactorError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidParameterError,
    NearSingularWarning,
    NonFiniteValueError,
    NonPositivePivotError,
    NotAPermutationError,
    ParseError,
    PatternMismatchError,
    PatternNotCoveredError,
    RankDeficientDesignError,
    SeldetError,
    SingularMatrixError,
    SizeMismatchError,
    TooLargeError,
    TooLargeForDenseFormError,
    UnsupportedFormatError,
)
from .numeric import LdlFactor, ldlt_factorize, log_det, solve
from .ordering import (
    amd_order,
    load_order,
    natural_order,
    resolve_ordering,
    write_order,
)
from .reml import (
    MixedModelDataset,
    MmeSystem,
    RandomFactor,
    RemlPlan,
    RemlReport,
    VarianceParams,
    analyze,
    assemble_mme,
    logdet_gradient,
    pev_diagonal,
    plan_for,
    read_dataset,
    reml_report,
    restricted_loglik,
    trace_product,
    write_dataset,
)
from .selinv import (
    SelectedInverse,
    dense_inverse_oracle,
    get_entry,
    selected_inverse,
)
from .sparse_core import (
    Permutation,
    SparseSymmetric,
    from_coo_arrays,
    identity_matrix,
    permute_symmetric,
    read_matrix_market,
    write_matrix_market,
)
from .symbolic import (
    SymbolicFactor,
    predict_flops,
    selinv_flops_from_ldlt,
    symbolic_factor,
)

__version__ = "0.1.0"

__all__ = [
    "SparseSymmetric", "Permutation", "from_coo_arrays", "identity_matrix",
    "read_matrix_market", "write_matrix_market",
    "permute_symmetric",
    "natural_order", "amd_order", "load_order", "write_order",
    "resolve_ordering",
    "SymbolicFactor", "symbolic_factor", "predict_flops",
    "selinv_flops_from_ldlt",
    "LdlFactor", "ldlt_factorize", "log_det", "solve",
    "SelectedInverse", "selected_inverse", "get_entry", "dense_inverse_oracle",
    "RandomFactor", "MixedModelDataset", "VarianceParams", "MmeSystem",
    "assemble_mme", "restricted_loglik", "trace_product",
    "logdet_gradient", "pev_diagonal", "RemlReport", "reml_report",
    "RemlPlan", "analyze", "plan_for",
    "read_dataset", "write_dataset",
    "TrialConfig", "generate", "DesignSummary", "design_summary",
    "RANDOM_TERMS", "PRESETS", "preset_config",
    "SeldetError", "IndexOutOfRangeError", "AsymmetricInputError",
    "ParseError", "UnsupportedFormatError", "SizeMismatchError",
    "NotAPermutationError", "PatternMismatchError",
    "NonPositivePivotError", "NearSingularWarning", "SingularMatrixError",
    "TooLargeError", "TooLargeForDenseFormError", "RankDeficientDesignError",
    "EmptyFactorError", "PatternNotCoveredError", "InvalidConfigError",
    "InvalidParameterError", "NonFiniteValueError",
    "__version__",
]
