"""The pause of the cyclic garbage collector: its bookkeeping, and that the
regions it covers leave no cyclic garbage, so the pause never holds back
memory that a collection would have freed."""

import contextlib
import gc
import io
import random

import pytest

from curvelab import (
    SUITES,
    UnknownCurve,
    build_finite_surface,
    build_truncation,
    curve_inventory,
    dumps_surface,
    local_graph,
    parse_ref,
    random_gluing_graph,
    run_suite,
)
from curvelab._gc import collector_paused
from curvelab.cli import _emit, build_parser, main
from inputs import CALL_MODULES, CENSUS


def _body_returns():
    return None


def _body_raises():
    raise ValueError("body")


def _body_exits():
    raise SystemExit(2)


BODIES = {"return": _body_returns, "exception": _body_raises, "exit": _body_exits}


@contextlib.contextmanager
def _collector(enabled):
    """The collector set to ``enabled`` in the body, enabled again after."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


def _run_paused(body):
    with contextlib.suppress(ValueError, SystemExit), collector_paused():
        assert not gc.isenabled()
        body()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("ending", sorted(BODIES))
def test_a_pause_restores_the_collector_however_its_body_ends(ending, enabled):
    with _collector(enabled):
        _run_paused(BODIES[ending])
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_nested_pauses_restore_the_outer_state(enabled):
    with _collector(enabled):
        with collector_paused():
            _run_paused(_body_raises)
            assert not gc.isenabled()
            _run_paused(_body_returns)
            assert not gc.isenabled()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_the_paused_calls_restore_the_collector(enabled, tmp_path):
    g = build_truncation("loch_ness", 2)
    with _collector(enabled):
        local_graph(g, curve_inventory(g, 1), "c")
        assert gc.isenabled() is enabled
        with pytest.raises(UnknownCurve):
            local_graph(g, [parse_ref("pants:zz")], "n")
        assert gc.isenabled() is enabled
        run_suite("cutpoints", samples=1)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            run_suite("cutpoints", samples=-1)
        assert gc.isenabled() is enabled
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["triple", "--a", "0/1", "--b", "2/1"]) == 0
            assert main(["intersect", "--in", str(tmp_path / "none.json"),
                         "--a", "pants:h0", "--b", "pants:h1"]) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            main(["graph", "--mode", "c"])
        assert gc.isenabled() is enabled


def _garbage_left_by(region):
    """The number of objects in reference cycles that ``region`` leaves
    unreachable: every earlier cycle is collected first, and the collector
    stays disabled until the count, so no automatic collection takes any.
    The region's stdout is discarded, and its return value is dropped, so
    a cycle inside a result counts."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            region()
        return gc.collect()
    finally:
        gc.enable()


def test_the_count_sees_a_cycle():
    def cycle():
        loop = []
        loop.append(loop)
        return loop

    assert _garbage_left_by(lambda: None) == 0
    assert _garbage_left_by(cycle) == 1


def _graphs():
    for model in ("loch_ness", "ladder", "cantor_tree"):
        for depth in range(1, 5):
            yield f"{model}-{depth}", build_truncation(model, depth)
    for genus, b in CENSUS:
        yield f"S({genus},{b})", build_finite_surface(genus, b)
    rng = random.Random(33)
    for i in range(20):
        yield f"random-{i}", random_gluing_graph(rng.randint(2, 30), rng)


def test_local_graph_leaves_no_cycle():
    # one count over the three modes: a count never goes below zero
    for name, g in _graphs():
        inventory = curve_inventory(g, 2)
        assert _garbage_left_by(lambda: [local_graph(g, inventory, m) for m in "cng"]) == 0, name


def test_local_graph_leaves_no_cycle_on_a_failing_reference():
    g = build_truncation("loch_ness", 4)

    def fail(mode):
        with pytest.raises(UnknownCurve):
            local_graph(g, [parse_ref("pants:h0"), parse_ref("win:c1:1/1")], mode)

    for mode in "cng":
        assert _garbage_left_by(lambda: fail(mode)) == 0, mode


# each suite's parameters at a small size; a suite missing here fails
SMALL = {
    "cutpoints": {"samples": 5},
    "ends": {"max_depth": 2},
    "triples": {"bound": 5},
    "sch04": {},
    "dtcoords": {},
    "diameter": {"trunc_depth": 3, "samples": 5},
    "counterexample": {"samples": 10},
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_run_suite_leaves_no_cycle(suite):
    assert _garbage_left_by(lambda: run_suite(suite, **SMALL[suite])) == 0


def test_run_suite_leaves_no_cycle_on_a_refused_parameter():
    def refuse():
        with pytest.raises(ValueError):
            run_suite("cutpoints", samples=-1)

    assert _garbage_left_by(refuse) == 0


@pytest.fixture
def loch4(tmp_path):
    path = tmp_path / "l4.json"
    path.write_text(dumps_surface(build_truncation("loch_ness", 4)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", list(CALL_MODULES) + ["graph-error"])
def test_a_cli_call_leaves_no_cycle_outside_parsing_and_the_encoder(command, loch4):
    # argparse parsers hold reference cycles, counted alone and taken off;
    # so is the json encoder's own cycle, which exists only where
    # json.dumps with an indent builds the pure-Python encoder from
    # closures that refer to each other (before Python 3.13), the same
    # number of objects for every non-empty document
    if command == "graph-error":
        argv = f"graph --in {loch4} --mode c --inventory pants:h0,pants:zz".split()
    else:
        argv = CALL_MODULES[command][0].format(l4=loch4).split()
    assert main(argv) == (command == "graph-error")
    call = _garbage_left_by(lambda: main(argv))
    parsing = _garbage_left_by(lambda: build_parser(argv[0]).parse_args(argv))
    encoder = _garbage_left_by(lambda: _emit({"document": 0}))
    assert parsing > 0
    assert call - parsing - encoder == 0
