"""Combinatorial workbench for surfaces assembled from pairs of pants.

Surfaces, finite or infinite-type, are presented as gluing graphs of
three-holed spheres.  On top of that presentation the package classifies
decomposition curves, matches the ends of the curve adjacency graph with
the ends of the surface, does exact intersection arithmetic in torus and
sphere windows, builds superinjective curve maps by cutting and gluing,
and ships seeded verification sweeps for all of it.

Importing the package loads none of its submodules: each public name is
imported from the submodule that defines it on first use (PEP 562), so
a command-line call pays only for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BijectionFailure", "ComplexityTooLow", "CurveLabError", "DepthExceedsTruncation",
        "DepthMismatch", "DisconnectedGraph", "FormatError", "GadgetTooSmall",
        "IntersectionTooSmall", "NoRoom", "NonIntegralGenus", "NotSeparating",
        "NotTorusWindow", "UndefinedPair", "UnknownCurve", "WrongIntersection", "ZeroSlope",
    ),
    "surface": (
        "AdjacencyGraph", "Curve", "GluingGraph", "InfiniteModel", "PantsSlot",
        "SurfaceSignature", "Violation", "build_finite_surface", "build_truncation",
        "dumps_surface", "loads_surface", "signature", "surface_from_json", "surface_to_json",
        "validate",
    ),
    "pants_graphs": (
        "CurveClass", "adjacency_graph", "classify_all", "classify_curve", "cut_vertices",
        "random_gluing_graph",
    ),
    "ends": (
        "EndTree", "EndTreeNode", "end_tree", "end_trees_isomorphic",
        "induced_end_correspondence", "surface_end_tree",
    ),
    "curves": (
        "DualChain", "PantsCurve", "Slope", "Window", "WindowCurve", "abstract_window",
        "dt_uniqueness_check", "dt_vector", "format_ref", "global_intersection", "is_triple",
        "make_slope", "parse_ref", "parse_refs", "resolve_ref", "sch04_common_neighbors",
        "slopes_up_to", "triple_completion", "twist", "window_around",
        "window_curve_separates", "window_intersection",
    ),
    "complexes": (
        "LocalCurveGraph", "curve_inventory", "disjointness_witness", "local_graph",
        "schmutz_path",
    ),
    "morphisms": (
        "CutGlueResult", "VertexMap", "check_superinjective", "cut_and_glue",
        "surfaces_homeomorphic",
    ),
    "verify": ("SUITES", "run_suite"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    """Import the submodule defining ``name`` and keep the name here, so
    that later lookups no longer come through this function."""
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
