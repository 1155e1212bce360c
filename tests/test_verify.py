"""The verification suites through run_suite, at their defaults, the
failure records each writes when its claim breaks, and the match between
the suites' parameters and the ``verify`` flags."""

import inspect
import random

import pytest

from curvelab import (
    SUITES,
    CurveLabError,
    CutGlueResult,
    VertexMap,
    build_truncation,
    cut_and_glue,
    induced_end_correspondence,
    make_slope,
    run_suite,
)
from curvelab import verify
from curvelab.cli import build_parser

# checked counts at the defaults; counterexample is pinned on checked + skipped
CHECKED = {
    "cutpoints": 215,
    "ends": 18,
    "triples": 2994,
    "sch04": 1021,
    "dtcoords": 32770,
    "diameter": 150,
}

# values each report echoes but no caller can set
FIXED = {
    "cutpoints": {"depths": [1, 2, 3, 4, 5], "max_pants": 40},
    "sch04": {"coord_bound": 20, "search_bound": 100},
    "dtcoords": {"slope_bound": 10, "max_twist": 5, "dt_bound": 20},
    "diameter": {"handle_samples": 50},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_at_defaults(name):
    rep = run_suite(name)
    assert rep["suite"] == name
    assert rep["failures"] == 0, rep["details"]
    if name == "counterexample":
        assert rep["checked"] + rep["skipped"] == 750
    else:
        assert rep["checked"] == CHECKED[name]
    for key, value in FIXED.get(name, {}).items():
        assert rep[key] == value, key


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_verify_flags_are_the_suite_parameters():
    args = vars(build_parser().parse_args(["verify", "--suite", "ends"]))
    flags = set(args) - {"command", "suite", "out"}
    params = set().union(*(inspect.signature(fn).parameters for fn in SUITES.values()))
    assert flags == params


def _refuse(*args, **kwargs):
    raise CurveLabError("refused")


def _scrambled_cut_and_glue(g, alpha, gadget="s12"):
    res = cut_and_glue(g, alpha, gadget=gadget)
    m = res.map
    images = [img for _, img in m.assoc]
    random.Random(0).shuffle(images)
    return CutGlueResult(VertexMap(m.source, m.target, tuple(zip(m.domain, images))), ())


def _other_model(g, depth):
    return induced_end_correspondence(build_truncation("ladder", 4), depth)


def _other_pants_tree(g, depth):
    ct, _, corr = induced_end_correspondence(g, depth)
    return ct, induced_end_correspondence(build_truncation("ladder", 4), depth)[1], corr


# (suite, name in curvelab.verify, its stand-in, keys of the first failure
# record); each stand-in breaks the claim its suite checks
MISBEHAVIOURS = [
    ("cutpoints", "cut_vertices", lambda a: [],
     {"case", "cut_not_classified", "classified_not_cut"}),
    ("ends", "induced_end_correspondence", _refuse, {"case", "error"}),
    ("ends", "induced_end_correspondence", _other_model, {"case", "curve_counts", "expected"}),
    ("ends", "induced_end_correspondence", _other_pants_tree,
     {"case", "pants_counts", "expected"}),
    ("ends", "end_trees_isomorphic", lambda t1, t2: False, {"case", "error"}),
    ("triples", "is_triple", lambda w, a, b, c: False, {"b", "g", "g2"}),
    ("sch04", "sch04_common_neighbors", _refuse, {"a", "b", "error"}),
    ("sch04", "sch04_common_neighbors", lambda w, a, b: set(), {"a", "b", "solutions"}),
    ("dtcoords", "twist", lambda w, along, s: make_slope(1, 0),
     {"kind", "along", "s", "power", "got", "want"}),
    ("dtcoords", "dt_uniqueness_check", lambda w, bound: (make_slope(1, 0),) * 2,
     {"kind", "collision"}),
    ("diameter", "disjointness_witness", _refuse, {"pair", "error"}),
    ("diameter", "disjointness_witness", lambda g, c1, c2: c1, {"pair", "witness"}),
    ("diameter", "schmutz_path", _refuse, {"handles", "error"}),
    ("diameter", "schmutz_path", lambda g, h1, h2: [h1, h1], {"handles", "steps"}),
    ("counterexample", "cut_and_glue", _scrambled_cut_and_glue,
     {"pair", "source_intersection", "target_intersection"}),
    ("counterexample", "surfaces_homeomorphic", lambda g1, g2, depth: True, {"error"}),
]


@pytest.mark.parametrize(
    "suite, name, stand_in, keys",
    MISBEHAVIOURS,
    ids=[f"{suite}-{name}-{i}" for i, (suite, name, _, _) in enumerate(MISBEHAVIOURS)],
)
def test_suite_reports_a_broken_claim(monkeypatch, suite, name, stand_in, keys):
    monkeypatch.setattr(verify, name, stand_in)
    rep = run_suite(suite)
    assert rep["failures"] > 0
    assert set(rep["details"][0]) == keys
