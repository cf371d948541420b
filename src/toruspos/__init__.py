"""Partial positivity of Hermitian curvature data on discretized flat tori.

The package computes with line-bundle curvature on tori C^n / Lambda
sampled on regular grids: spectral complex Hessians and trace-equation
solves (lattice), curvature assembly and degree pairings (curvature),
pointwise and uniform q-positivity with the uniformizing base-metric
transform (qpositivity), constant-scalar-curvature normalization and
trace-positivity certificates (normalizer), and an exact
pseudo-effectivity oracle with a four-way equivalence suite (suite).
`toruspos.cli` exposes all of it behind a config-driven command line.
"""

from .curvature import (
    LineBundleMetric,
    PositivityCertificate,
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_curvature,
    degree_integral,
    scalar_curvature,
    volume_integral,
)
from .errors import (
    ConfigError,
    GeometryMismatchError,
    InternalInvariantError,
    MeanNotZeroError,
    NonConstantMetricError,
    NotQPositiveError,
    TorusposError,
    UniformizationRangeError,
)
from .expressions import (
    evaluate_expression,
    parse_expression,
    random_expression,
    scalar_field_from_expression,
)
from .lattice import (
    HermitianMatrixField,
    MetricField,
    ScalarField,
    TorusGeometry,
    compensated_sum,
    complex_hessian,
    constant_metric,
    constant_representative,
    identity_metric,
    poisson_solve,
)
from .normalizer import (
    certify_n_minus_1_positive,
    normalize_scalar_curvature,
    target_constant,
)
from .qpositivity import (
    EigenvalueField,
    check_q_positive,
    check_uniform_q_positive,
    expm1_over_x,
    generalized_eigenvalues,
    growth_rate,
    uniform_margin_bound,
    uniformize_metric,
)
from .suite import (
    SuiteReport,
    dual_not_pseudo_effective,
    equivalence_suite,
    is_pseudo_effective,
    random_bundle,
    random_bundles,
    run_equivalence_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EigenvalueField",
    "GeometryMismatchError",
    "HermitianMatrixField",
    "InternalInvariantError",
    "LineBundleMetric",
    "MeanNotZeroError",
    "MetricField",
    "NonConstantMetricError",
    "NotQPositiveError",
    "UniformizationRangeError",
    "PositivityCertificate",
    "ScalarField",
    "SuiteReport",
    "TorusGeometry",
    "TorusposError",
    "bundle_from_json_dict",
    "bundle_to_json_dict",
    "certify_n_minus_1_positive",
    "check_q_positive",
    "check_uniform_q_positive",
    "chern_curvature",
    "compensated_sum",
    "complex_hessian",
    "constant_metric",
    "constant_representative",
    "degree_integral",
    "dual_not_pseudo_effective",
    "equivalence_suite",
    "evaluate_expression",
    "expm1_over_x",
    "generalized_eigenvalues",
    "growth_rate",
    "identity_metric",
    "is_pseudo_effective",
    "normalize_scalar_curvature",
    "parse_expression",
    "poisson_solve",
    "random_bundle",
    "random_bundles",
    "random_expression",
    "run_equivalence_corpus",
    "scalar_curvature",
    "scalar_field_from_expression",
    "target_constant",
    "uniform_margin_bound",
    "uniformize_metric",
    "volume_integral",
]
