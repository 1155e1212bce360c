"""The surface reader, writer and validator against the message specs of
the oracle, and the graph tables and the constructor against its
references.

The specs are plain versions of ``surface_from_json``, ``dumps_surface``
and ``validate``: one checker call per slot and per curve id, a list of
users per slot and a scan of every slot of every pants.  The library's
versions test types inline and skip the scan when no slot can be wrong,
so they must build an equal graph or raise a ``FormatError`` with the
same detail, write the same bytes and report the same violations in the
same order.

The graph tables (the frontier, its pants, the lone-end pants, the
handles, the pants graph, the separating curves, A(P) and the curve
classes) must equal the oracle's definitions, and the constructor must
sort each curve's ends and the graph's fields as the definition says, on
valid graphs and on graphs that only the constructor accepts.
"""

import itertools
import json
import random
from collections import Counter
from functools import partial
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from curvelab import (
    Curve,
    GluingGraph,
    InfiniteModel,
    PantsSlot,
    Violation,
    classify_all,
    dumps_surface,
    loads_surface,
    random_gluing_graph,
    surface_to_json,
    validate,
)
from inputs import (
    BASES,
    DOC_MUTATIONS,
    END_MUTATIONS,
    JSON_VALUES,
    LOCH_2,
    MORE_MUTATIONS,
    MUTATIONS,
    census,
    finite,
    mutated,
    mutated_doc,
    places,
    truncation,
    with_frontier,
)


# ``("ok", result)``, or the type and message of what a call raised: any
# exception must match the reference's
_outcome = partial(oracle.outcome, Exception)


# ---------------------------------------------------------------------------
# the reader


def _assert_reads_as_the_reference(doc):
    text = json.dumps(doc)
    got, want = _outcome(loads_surface, text), _outcome(oracle.spec_loads, text)
    assert got == want, text
    # an equal graph also has curves and slots of the same types
    if got[0] == "ok":
        g = got[1]
        assert all(type(c) is Curve for c in g.curves)
        assert all(type(s) is PantsSlot for c in g.curves for s in c.ends + g.boundary)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES),
    st.lists(
        st.tuples(st.sampled_from(DOC_MUTATIONS), st.integers(0, 500), st.integers(0, 500)),
        min_size=1,
        max_size=4,
    ),
)
def test_reader_matches_the_reference_on_mutated_documents(base, mutations):
    _assert_reads_as_the_reference(mutated_doc(surface_to_json(base), mutations))


def test_reader_matches_the_reference_at_every_place_and_value():
    # every value of the document in turn dropped or replaced by one of
    # each JSON type, then a curve end and a boundary mark given every pair
    # of JSON values (a slot index is checked before its pants)
    doc = surface_to_json(LOCH_2)
    for i in range(len(list(places(doc)))):
        for value in ("drop", *JSON_VALUES):
            bad = json.loads(json.dumps(doc))
            node, key = list(places(bad))[i]
            if value == "drop":
                del node[key]
            else:
                node[key] = value
            _assert_reads_as_the_reference(bad)
    for p, k in itertools.product((*JSON_VALUES, "hp0"), (*JSON_VALUES, 2)):
        end = {**doc["curves"][0], "ends": [[p, k], doc["curves"][0]["ends"][1]]}
        _assert_reads_as_the_reference({**doc, "curves": [end] + doc["curves"][1:]})
        _assert_reads_as_the_reference({**doc, "boundary": [[p, k]]})


def test_reader_reports_an_earlier_bad_id_before_a_later_bad_curve():
    doc = surface_to_json(LOCH_2)
    doc["curves"][0]["id"] = "c:1"
    later_curves = (
        {"id": "z"},
        {"id": "z", "ends": [["hp0", "0"]]},
        {"id": 7, "ends": [["hp0", 0]]},
    )
    for later in later_curves:
        bad = {**doc, "curves": doc["curves"] + [later]}
        _assert_reads_as_the_reference(bad)
        assert _outcome(loads_surface, json.dumps(bad))[1].startswith("curve id 'c:1' cannot")


# ---------------------------------------------------------------------------
# the writer


def test_writer_matches_the_reference_on_models_and_census():
    graphs = [truncation(m, d) for m in InfiniteModel for d in range(1, 11)] + census()
    for g in graphs:
        assert dumps_surface(g) == oracle.spec_dumps(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_writer_matches_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = with_frontier(random_gluing_graph(n_pants, rng), rng)
    text = dumps_surface(g)
    assert text == oracle.spec_dumps(g)
    assert loads_surface(text) == g == oracle.spec_loads(text)


class _Name(str):
    """A str subclass: JSON writes it as a string."""


class _Opaque:
    """A value JSON cannot hold."""


def _now_and_then_opaque(values):
    """``values``, or one time in 30 a value JSON cannot hold."""
    return st.integers(0, 29).flatmap(lambda n: values if n else st.just(_Opaque()))


# text with the characters JSON escapes or passes through: quotes,
# backslashes, control characters, non-ASCII and lone surrogates
_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=()))
_IDS = _now_and_then_opaque(
    st.one_of(
        _TEXT,
        _TEXT.map(_Name),
        st.integers(-(2**70), 2**70),
        st.tuples(_TEXT, st.integers()),
    )
)
_INDICES = _now_and_then_opaque(
    st.one_of(
        st.integers(-5, 5),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.none(),
    )
)
_SLOTS = st.builds(lambda p, k: PantsSlot(p, k), _IDS, _INDICES)
_CURVES = st.builds(lambda i, ends: Curve(i, tuple(ends)), _IDS, st.lists(_SLOTS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_IDS, max_size=4), st.lists(_CURVES, max_size=5), st.lists(_SLOTS, max_size=3))
def test_writer_matches_the_reference_on_hand_built_graphs(pants, curves, boundary):
    # the three fields as drawn, since the constructor's sort cannot order
    # ids of kinds that do not compare: the writer reads them as they are
    g = tuple.__new__(GluingGraph, (tuple(pants), tuple(curves), tuple(boundary)))
    want = oracle.outcome((TypeError, ValueError), oracle.spec_dumps, g)
    assert oracle.outcome((TypeError, ValueError), dumps_surface, g) == want


# ---------------------------------------------------------------------------
# the validator and A(P)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES),
    st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS + MORE_MUTATIONS), st.integers(0, 200), st.integers(0, 200)
        ),
        max_size=3,
    ),
)
def test_validate_and_adjacency_match_the_reference_on_mutated_graphs(base, mutations):
    g = mutated(base, mutations)
    assert validate(g) == oracle.spec_validate(g)
    assert g.adjacency_graph == oracle.adjacency(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_validate_and_adjacency_match_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = with_frontier(random_gluing_graph(n_pants, rng), rng)
    assert validate(g) == oracle.spec_validate(g) == ()
    assert g.adjacency_graph == oracle.adjacency(g)


def test_validate_matches_the_reference_with_repeated_pants_ids():
    g = truncation("ladder", 3)
    for twice in (g.pants[:1], g.pants[:3], g.pants):
        h = GluingGraph(g.pants + twice, g.curves, g.boundary)
        got = validate(h)
        assert got == oracle.spec_validate(h)
        assert [v.kind for v in got] == ["DuplicateId"] * len(twice)
    # a repeated pants with a clashing slot reports the clash once per copy
    clash = GluingGraph(g.pants + g.pants[:1], g.curves, (PantsSlot(g.pants[0], 0),))
    assert validate(clash) == oracle.spec_validate(clash)
    assert sum("used 2 times" in v.detail for v in validate(clash)) == 2


# a pants id or curve id that is not hashable: validate reports it, and a
# slot on such a pants, and leaves connectivity unchecked, since the pants
# graph cannot hold it
_UNHASHABLE = {
    "pants": (
        GluingGraph([["x"]], []),
        (Violation("InvalidId", "pants id ['x'] is not hashable"),),
    ),
    "curve": (
        GluingGraph(
            ["p"], [Curve(["c"], (PantsSlot("p", 0), PantsSlot("p", 1)))], [PantsSlot("p", 2)]
        ),
        (Violation("InvalidId", "curve id ['c'] is not a string"),),
    ),
    "curve between two": (
        GluingGraph(
            ["p", "q"],
            [Curve("a", (PantsSlot(["x"], 0), PantsSlot(["y"], 0)))],
            [PantsSlot(p, k) for p in "pq" for k in range(3)],
        ),
        (
            Violation("SlotCountError", "curve 'a' references unknown pants ['x']"),
            Violation("SlotCountError", "curve 'a' references unknown pants ['y']"),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_UNHASHABLE))
def test_validate_reports_an_unhashable_id(case):
    g, want = _UNHASHABLE[case]
    assert validate(g) == oracle.spec_validate(g) == want


# ---------------------------------------------------------------------------
# the graph tables and the constructor's end sorting

# each table of a built graph, read through the library and the oracle
_TABLES = {
    "frontier": (attrgetter("frontier"), oracle.frontier),
    "frontier_pants": (attrgetter("frontier_pants"), oracle.frontier_pants),
    "lone_end_pants": (attrgetter("lone_end_pants"), oracle.lone_end_pants),
    "handles": (attrgetter("handles"), oracle.handles),
    "pants_graph": (attrgetter("pants_graph"), lambda g: oracle.lists(oracle.pants_graph(g))),
    "separating_curves": (attrgetter("separating_curves"), oracle.separating_curves),
    "adjacency_graph": (attrgetter("adjacency_graph"), oracle.adjacency),
    "classify_all": (classify_all, oracle.classes),
}


def _in_order(outcome):
    """An outcome whose dict, if any, is listed in its key order."""
    kind, value = outcome
    return (kind, list(value.items())) if isinstance(value, dict) else outcome


def _assert_tables_match_the_reference(g):
    ids = [c.id for c in g.curves]
    for name, (ours, ref) in _TABLES.items():
        # a class is a curve's, keyed by its id: with an id repeated,
        # classify_all keeps one class under it, and no definition says which
        if name == "classify_all" and len(set(ids)) < len(ids):
            continue
        got, want = _in_order(_outcome(ours, g)), _in_order(_outcome(ref, g))
        assert got == want, name
        if got[0] == "ok":
            assert type(got[1]) is type(want[1]), name


def _one_curve(build, c):
    """The curve ``c`` as a graph of no pants and that curve alone keeps it."""
    return build((), [c], ()).curves[0]


def _assert_builds_as_the_reference(pants, curves, boundary):
    """Each curve's ends are put in order, and the graph built, as the
    definition says: the same curve object when it is kept, an equal one of
    the same class otherwise, or the same error; then every table of the
    graph matches."""
    for c in curves:
        got = _outcome(_one_curve, GluingGraph, c)
        want = _outcome(_one_curve, oracle.sorted_graph, c)
        assert got == want, c
        if got[0] == "ok":
            assert (got[1] is c) == (want[1] is c) and type(got[1]) is type(want[1]), c
    got = _outcome(GluingGraph, pants, curves, boundary)
    assert got == _outcome(oracle.sorted_graph, pants, curves, boundary)
    if got[0] == "ok":
        _assert_tables_match_the_reference(got[1])
    return got


def test_graph_tables_match_the_reference_on_models_and_census():
    graphs = [truncation(m, d) for m in InfiniteModel for d in range(1, 11)] + census()
    for g in graphs:
        assert _assert_builds_as_the_reference(g.pants, g.curves, g.boundary) == ("ok", g)
    # every model has handles and, but for the finite census, marks
    assert all(g.handles and g.adjacency_graph.marks for g in graphs[:30])
    assert not finite(0, 4).handles


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_graph_tables_match_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = with_frontier(random_gluing_graph(n_pants, rng), rng)
    assert _assert_builds_as_the_reference(g.pants, g.curves, g.boundary) == ("ok", g)


def _fields(pants, curves, boundary):
    """The fields a mutation gives, before any constructor sorts them."""
    return pants, curves, boundary


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES),
    st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS + END_MUTATIONS), st.integers(0, 200), st.integers(0, 200)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_graph_tables_match_the_reference_on_mutated_graphs(base, mutations):
    _assert_builds_as_the_reference(*mutated(base, mutations, _fields))


def test_graph_tables_match_the_reference_on_each_end_mutation():
    # every base and curve under each end mutation alone; among them the
    # constructor's TypeError on a handle given a text index
    outcomes = Counter()
    for base in BASES:
        for kind in END_MUTATIONS:
            for i in range(len(base.curves)):
                got = _assert_builds_as_the_reference(*mutated(base, [(kind, i, 0)], _fields))
                outcomes[got[0]] += 1
    assert outcomes["TypeError"] > 0 and outcomes["ok"] > outcomes["TypeError"]
