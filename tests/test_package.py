"""The package namespace: the public names, each imported from the submodule
that defines it on first use."""

import ast
import functools
import importlib
import sys
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


# ---------------------------------------------------------------------------
# the tests' own rules: the references live in oracle.py and the shared
# inputs in inputs.py, no test module imports another, and a test reaches
# a private name only where no public name shows the behaviour

TESTS = ROOT / "tests"
SUBMODULES = {p.stem for p in (ROOT / "src" / "curvelab").glob("*.py")}

# each private curvelab name the tests use, and why no public name will do.
# verify._meeting is checked through the sch04 suite, whose report counts a
# failure wherever it disagrees with the closed form (test_verify.py), and
# surface._ends_in_order through the constructor given one curve
# (test_surface_reference.py)
PRIVATE = {
    "curvelab._graph": "test_graph.py: the graph routines, against networkx",
    "curvelab._gc": "test_collector.py: the collector pause, however its body ends",
    "curvelab.cli._emit": "test_collector.py: the json encoder's own cycle, apart from a call's",
    "curvelab.verify._unit_neighbors": "test_curves.py: the sch04 row search, which reports counts",
    "curvelab.verify._unit_pairs": "test_curves.py: the pairs of that search, and their time",
    "curvelab.complexes._resolve": "test_complexes.py: counted, each distinct entry once",
    "curvelab.complexes._pairing": "test_complexes.py: counted, only pairs whose supports meet",
    "curvelab.curves._check": "test_complexes.py: counted, each reference checked once",
    "curvelab.curves._resolve": "test_complexes.py: the records that disjoint supports pair",
    "curvelab.curves._pairing": "test_complexes.py: 0 for every rule on disjoint supports",
    "curvelab.curves._groups_apart": "test_complexes.py: counted, each window class once",
    "curvelab.ends._end_tree": "test_ends.py: counted, each query searched once",
}


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def _curvelab_names(tree):
    """The dotted curvelab names a file imports, or reads off a curvelab
    module it imported by name, or hands over as text beside such a
    module, as to ``monkeypatch.setattr`` or ``record_calls``."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.startswith("curvelab")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("curvelab"):
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                if node.module == "curvelab" and alias.name in SUBMODULES:
                    modules[alias.asname or alias.name] = names[-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.append(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            module, name = node.args[:2]
            if getattr(module, "id", None) in modules and isinstance(name, ast.Constant):
                names.append(f"{modules[module.id]}.{name.value}")
    return names


def _private(name):
    """``name`` cut after its first private part, or None if it has none."""
    parts = name.split(".")
    for i, part in enumerate(parts):
        if part.startswith("_") and not part.endswith("__"):
            return ".".join(parts[: i + 1])
    return None


def test_no_test_module_imports_another():
    imports = {p.name: [m for m in _imported_modules(_tree(p)) if m.startswith("test_")]
               for p in TESTS.glob("*.py")}
    assert {name: found for name, found in imports.items() if found} == {}


def test_the_tests_use_only_the_allowed_private_names():
    used = {}
    for path in sorted(TESTS.glob("*.py")):
        for name in {_private(n) for n in _curvelab_names(_tree(path))} - {None}:
            used.setdefault(name, []).append(path.name)
    assert sorted(used) == sorted(PRIVATE), used


def test_the_oracle_imports_public_names_only():
    tree = _tree(TESTS / "oracle.py")
    names = [n.removeprefix("curvelab.") for n in _curvelab_names(tree)]
    assert names and set(names) <= set(curvelab.__all__)
    assert {m for m in _imported_modules(tree) if m not in sys.stdlib_module_names} == {
        "curvelab", "networkx",
    }
