"""Exact computations on simplicial multi-fans and multi-polytopes.

The package provides lattice and Smith-form utilities, weighted
simplicial multi-fans with completeness tests, truncated Laurent series
and Todd factors, the equivariant face ring with its exact push-forward,
Duistermaat-Heckman style lattice point counting, and the Todd-series
decomposition of cohomology classes into face classes.  All arithmetic
is exact over the integers and rationals.
"""

import types as _types

from .catalog import (
    cross_fan,
    hirzebruch_fan,
    line_fan,
    projective_plane_fan,
    weighted_p112_fan,
    with_doubled_multipliers,
)
from .cyclotomic import LaurentSeries, exp_series, todd_factor_series
from .errors import (
    BudgetExceeded,
    ConductorMismatch,
    CrossCheckFailed,
    DependentRays,
    DivisionByZero,
    EmptyFan,
    FaceNotInFan,
    FanDocumentError,
    InvalidFan,
    MultiFanError,
    NonGenericPlane,
    NonGenericVector,
    NotRational,
    NotTCartier,
    PointOnWall,
    PoleResidueNonzero,
    RankMismatch,
    RayNotInterior,
    RigidityViolation,
    SeriesWindowError,
    SingularInput,
)
from .facering import (
    CohomologyQuotient,
    EquivariantClass,
    SupportClass,
    embed_weight,
    face_class,
    graded_monomials,
    p_star,
    pushforward_eval,
    ray_class,
    restrict_eval,
)
from .fanio import (
    FanDocument,
    document_from_fan,
    format_rational,
    load_document,
    parse_document,
    render_document,
)
from .fans import (
    MultiFan,
    degree,
    fan_degree,
    is_complete,
    is_generic,
    is_precomplete,
    precompleteness,
    project,
    projective_space_fan,
    random_complete_fan,
    sample_generic_vector,
    star_subdivide,
)
from .lattices import (
    FiniteAbelianGroup,
    annihilator_basis,
    determinant,
    dot,
    dual_basis,
    hermite_normal_form,
    kernel_basis,
    plane_line_intersection,
    primitive_vector,
    quotient_group,
    rank,
    saturated_dual_basis,
    smith_normal_form,
    solve_in_span,
)
from .polytopes import (
    MultiPolytope,
    count_bruteforce,
    count_face,
    count_formula,
    dh_evaluate,
    volume,
)
from .todd import (
    GenericPlane,
    check_subdivision_cover,
    cohomology_decomposition_residual,
    cone_todd_series,
    ehrhart_coefficients,
    face_decomposition_residual,
    face_wedge,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
    subdivision_residual,
    todd_face_coefficient,
    todd_genus,
    todd_pushforward,
    wedge_coordinates,
    wedge_pair,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

__version__ = "0.1.0"
