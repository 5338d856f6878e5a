"""Exact cotangent cohomology dimensions for rational surface singularities.

The package has two independent halves that check each other:

* a closed-form half (series, formulas) that turns a resolution dual graph
  into the dimensions of the higher cotangent modules T^i by summing
  polynomial contributions over the multiplicity tree of the singularity;

* a brute-force half (harrison) that computes Harrison and Hochschild
  cohomology of small fat points by exact linear algebra, giving the same
  T^i dimensions with no formulas involved.

Every reported value is exact. The closed-form half computes in Python ints
alone and never loads qlinalg; the brute-force half eliminates over exact
rationals (qlinalg). Floats appear only in the budget estimates
(series.check_digits, harrison's _far_over), which compare logarithms to
refuse a request before its work starts. The cli module exposes the
analyze / series / oracle / selftest subcommands, and acceptance.run_all()
re-verifies every shipped correctness claim in one call.

The package loads lazily (PEP 562): each exported name imports its module on
first access. `import ratsurf` loads no layer, and `import ratsurf.cli` only
the closed-form half; the brute-force half loads when it is first used.
"""

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "series": (
        "BudgetError",
        "IntegralityError",
        "shuffle_dim",
        "shuffle_dim_series",
        "poincare_series",
        "cone_tdim",
        "fatpoint_tdim",
    ),
    "harrison": (
        "DEFAULT_BUDGET",
        "harrison_dim",
        "hochschild_dim",
        "zero_map_check",
    ),
    "resgraph": (
        "ResolutionGraph",
        "Cycle",
        "GraphError",
        "NotRationalError",
        "parse_graph",
        "fundamental_cycle",
        "is_reduced",
        "arithmetic_genus",
    ),
    "blowup": ("MultiplicityTree", "NotApplicableError", "blowup_components", "multiplicity_tree"),
    "formulas": (
        "AnalysisReport",
        "BoundedValue",
        "ObstructionReport",
        "analyze",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
