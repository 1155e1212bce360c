"""The verification suites through run_suite, at their defaults, and the
match between the suites' parameters and the ``verify`` flags."""

import inspect

import pytest

from curvelab import SUITES, run_suite
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
    flags = set(args) - {"command", "suite", "out", "fn"}
    params = set().union(*(inspect.signature(fn).parameters for fn in SUITES.values()))
    assert flags == params
