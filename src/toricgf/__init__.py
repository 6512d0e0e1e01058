"""Exact lattice point generating functions and graded line bundle cohomology
for complete rational fans."""

from .intlinalg import (
    InternalCheckFailed,
    SNFResult,
    determinant,
    invariant_factors,
    primitive_vector,
    smith_normal_form,
    solve_integral,
)
from .polyhedral import (
    Cone,
    CompletenessReport,
    DegeneratePolytope,
    Fan,
    FanAxiomViolation,
    LatticePolytope,
    NonPointedCone,
    NotIntegral,
    NotLinearOnCone,
    SupportFunction,
    build_fan,
    check_complete,
    cone_from_rays,
    dual_cone,
    face_lattice,
    lattice_polytope,
    normal_fan_of_polytope,
    support_from_ray_values,
)
from .cellular import (
    CellComplex,
    ChainComplex,
    HomologyResult,
    NotFaceClosed,
    cell_complex,
    chain_complex,
    incidence,
    reduced_homology,
)
from .genfun import (
    DependentGenerators,
    LaurentPolynomial,
    NotFullDimensional,
    NotPointed,
    PolynomialSum,
    RationalGF,
    SeriesBox,
    cone_genfun,
    expand_in_box,
    parallelepiped_points,
    polynomial_sum,
    rational_equal,
    triangulate_halfopen,
    truncated_series,
)
from .cohomology import (
    CohomologyTable,
    DegreeRegion,
    NoArrangementVertices,
    ShellCheckFailed,
    VerificationReport,
    brion_sum,
    brion_terms,
    chi_polynomial,
    cohomology_table,
    degree_region,
    graded_cohomology,
    membership,
    signed_count,
    support_subcomplex,
    verify_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
