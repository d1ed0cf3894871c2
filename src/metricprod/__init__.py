"""Glued products of metric spaces with sampled structural verification.

Build product metrics by combining factor distances through a gluing
function on the positive quadrant, classify the gluing (metric-compatible,
norm-induced, strictly convex, scalar-product), and check what the product
preserves: path lengths, geodesics and their uniqueness, convexity of the
distance between geodesics, the flat four-point comparison, and rank
additivity.  The names imported below are the public API.
"""

from .reports import (
    FAIL,
    PASS,
    UNDETERMINED,
    Tolerances,
    ValidationReport,
    to_jsonable,
)
from .sampling import DEFAULT_SAMPLES, SampleConfig
from .spaces import (
    CATALOG_NOTE,
    DeclaredProperties,
    DiscreteSpace,
    FiniteMetricSpace,
    HalfLine,
    INFINITY,
    LpSpace,
    MetricSpace,
    RealLine,
    line_pattern,
)
from .gluing import (
    Classification,
    GluingClass,
    GluingFunction,
    check_axis_pythagoras,
    check_definiteness,
    check_norm_conditions,
    check_quadrant_triangle,
    check_strict_convexity,
    check_symmetrized_norm_axioms,
    classify,
    scalar_product_weights,
)
from .product import ProductSpace, verify_metric_axioms
from .curves import (
    Curve,
    LengthResult,
    arclength_check,
    circle_arc,
    curve_length,
    non_length_space_demo,
    polyline,
    product_curve,
    product_curve_length_check,
    segment,
    tau_len,
    warped,
)
from .geodesics import (
    Geodesic,
    busemann_convexity_check,
    cat0_four_point_check,
    component_progress_check,
    geodesic_between,
    geodesy_test,
    midpoint,
    product_geodesic,
    uniqueness_probe,
)
from .rank import (
    AlphaDecomposition,
    BudgetExceededError,
    EmbeddingProbe,
    RankRecord,
    alpha_decompose,
    counterexample_geodesic,
    counterexample_sum_halflines,
    declared_rank,
    finite_embedding_oracle,
    product_rank,
)

__version__ = "0.1.0"
