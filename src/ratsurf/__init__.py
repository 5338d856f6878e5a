"""Exact cotangent cohomology dimensions for rational surface singularities.

The package has two independent halves that check each other:

* a closed-form half (series, formulas) that turns a resolution dual graph
  into the dimensions of the higher cotangent modules T^i by summing
  polynomial contributions over the multiplicity tree of the singularity;

* a brute-force half (harrison) that computes Harrison and Hochschild
  cohomology of small fat points by exact linear algebra, giving the same
  T^i dimensions with no formulas involved.

Everything runs on exact rational arithmetic (qlinalg); there is no floating
point anywhere. The cli module exposes the analyze / series / oracle /
selftest subcommands, and acceptance.run_all() re-verifies every shipped
correctness claim in one call.
"""

from .qlinalg import QMatrix
from .series import (
    DimensionTable,
    IntegralityError,
    cone_tdim,
    dimension_table,
    fatpoint_tdim,
    moebius,
    poincare_series,
    shuffle_dim,
    shuffle_dim_series,
)
from .harrison import (
    BudgetError,
    CochainSpace,
    CoefficientModule,
    DEFAULT_BUDGET,
    FiniteLocalAlgebra,
    REGULAR,
    TRIVIAL,
    coboundary_matrix,
    harrison_dim,
    hochschild_dim,
    make_fat_point,
    shuffle_invariant_dim,
    signed_shuffles,
    zero_map_check,
)
from .resgraph import (
    Cycle,
    GraphError,
    NotRationalError,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    intersection_matrix,
    is_negative_definite,
    is_rational,
    is_reduced,
    multiplicity,
    parse_graph,
)
from .blowup import MultiplicityTree, NotApplicableError, blowup_components, multiplicity_tree
from .formulas import (
    AnalysisReport,
    CodimReport,
    ObstructionReport,
    T2Report,
    analyze,
    codim_ac_report,
    gmd_check,
    t2_report,
    tdim,
)

__version__ = "0.1.0"

__all__ = [
    "QMatrix",
    "DimensionTable",
    "IntegralityError",
    "moebius",
    "shuffle_dim",
    "shuffle_dim_series",
    "poincare_series",
    "cone_tdim",
    "fatpoint_tdim",
    "dimension_table",
    "FiniteLocalAlgebra",
    "CoefficientModule",
    "CochainSpace",
    "TRIVIAL",
    "REGULAR",
    "BudgetError",
    "DEFAULT_BUDGET",
    "make_fat_point",
    "signed_shuffles",
    "shuffle_invariant_dim",
    "coboundary_matrix",
    "harrison_dim",
    "hochschild_dim",
    "zero_map_check",
    "ResolutionGraph",
    "Cycle",
    "GraphError",
    "NotRationalError",
    "parse_graph",
    "intersection_matrix",
    "is_negative_definite",
    "fundamental_cycle",
    "is_reduced",
    "arithmetic_genus",
    "is_rational",
    "multiplicity",
    "MultiplicityTree",
    "NotApplicableError",
    "blowup_components",
    "multiplicity_tree",
    "AnalysisReport",
    "T2Report",
    "CodimReport",
    "ObstructionReport",
    "tdim",
    "t2_report",
    "codim_ac_report",
    "gmd_check",
    "analyze",
]
