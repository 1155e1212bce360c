"""The package namespace: the public names, each imported from the submodule
that defines it on first use."""

import ast
import importlib
import tokenize
from pathlib import Path

import pytest

import curvelab

ROOT = Path(__file__).resolve().parents[1]

# submodule -> the public names it defines
EXPORTS = {
    "errors": [
        "BijectionFailure", "ComplexityTooLow", "CurveLabError", "DepthExceedsTruncation",
        "DepthMismatch", "DisconnectedGraph", "FormatError", "GadgetTooSmall",
        "IntersectionTooSmall", "NoRoom", "NonIntegralGenus", "NotSeparating",
        "NotTorusWindow", "UndefinedPair", "UnknownCurve", "WrongIntersection", "ZeroSlope",
    ],
    "surface": [
        "AdjacencyGraph", "Curve", "GluingGraph", "InfiniteModel", "PantsSlot",
        "SurfaceSignature", "Violation", "build_finite_surface", "build_truncation",
        "dumps_surface", "loads_surface", "signature", "surface_from_json", "surface_to_json",
        "validate",
    ],
    "pants_graphs": [
        "CurveClass", "adjacency_graph", "classify_all", "classify_curve", "cut_vertices",
        "random_gluing_graph",
    ],
    "ends": [
        "EndTree", "EndTreeNode", "end_tree", "end_trees_isomorphic",
        "induced_end_correspondence", "surface_end_tree",
    ],
    "curves": [
        "DualChain", "PantsCurve", "Slope", "Window", "WindowCurve", "abstract_window",
        "dt_uniqueness_check", "dt_vector", "format_ref", "global_intersection", "is_triple",
        "make_slope", "parse_ref", "parse_refs", "resolve_ref", "sch04_common_neighbors",
        "slopes_up_to", "triple_completion", "twist", "window_around",
        "window_curve_separates", "window_intersection",
    ],
    "complexes": [
        "LocalCurveGraph", "curve_inventory", "disjointness_witness", "local_graph",
        "schmutz_path",
    ],
    "morphisms": [
        "CutGlueResult", "VertexMap", "check_superinjective", "cut_and_glue",
        "surfaces_homeomorphic",
    ],
    "verify": ["SUITES", "run_suite"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 78
    assert curvelab.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    defining = importlib.import_module(f"curvelab.{module}")
    for name in EXPORTS[module]:
        assert getattr(curvelab, name) is getattr(defining, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from curvelab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_dir_lists_the_names():
    assert set(NAMES) <= set(dir(curvelab))
    assert "__version__" in dir(curvelab)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as exc:
        curvelab.nope
    assert str(exc.value) == "module 'curvelab' has no attribute 'nope'"
    assert not hasattr(curvelab, "nope")


def _names_used(path):
    """The NAME tokens of one file, leaving out the name that a ``def`` or
    ``class`` statement defines."""
    used = set()
    previous = None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    # the package's own modules, the demos and the benchmark; not the
    # namespace table, which names everything, nor the tests
    files = [p for p in (ROOT / "src" / "curvelab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_names_used, files))
    assert [name for name in curvelab.__all__ if name not in used] == []


def _unused_imports(path):
    """The names that a module-level import of one file binds and that
    the file never reads.  ``from __future__`` binds none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_level_import_goes_unused():
    # the namespace table binds what it exports, so it is left out
    files = [p for p in (ROOT / "src" / "curvelab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p) for p in sorted(files)}
    assert {path: names for path, names in unused.items() if names} == {}
