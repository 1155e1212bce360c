"""The surface reader, writer and validator against reference copies.

The references below are the plain versions of ``surface_from_json``,
``surface_to_json``, ``validate`` and A(P): one checker call per slot and
per curve id, a list of users per slot, a scan of every slot of every
pants and one generator per curve-pants incidence.  The library's
versions test types inline, skip the scan when no slot can be wrong and
drop self-loops once per vertex, so they must build an equal graph or
raise a ``FormatError`` with the same detail, write the same bytes,
report the same violations in the same order and build the same A(P).

The graph tables (the frontier, its pants, the lone-end pants, the
handles, the pants graph, the separating curves, A(P) and the curve
classes) and the constructor's end sorting have references too, which
read each curve through ``Curve.is_frontier`` and ``Curve.is_self_gluing``
and sort every curve's ends.  The library tests the ends inline and
sorts only ends out of order, so it must give equal answers, or raise the
same error, on valid graphs and on graphs that only the constructor
accepts.
"""

import itertools
import json
import random
from collections import Counter
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    AdjacencyGraph,
    Curve,
    CurveClass,
    GluingGraph,
    InfiniteModel,
    PantsSlot,
    Violation,
    build_finite_surface,
    build_truncation,
    classify_all,
    dumps_surface,
    loads_surface,
    random_gluing_graph,
    surface_to_json,
    validate,
)
from curvelab._graph import lowpoints, neighbour_lists
from curvelab.errors import FormatError
from curvelab.surface import _ends_in_order
from test_cli import _DOC_MUTATIONS, _JSON_VALUES, _mutated_doc, _places
from test_pants_graphs import CENSUS, _with_frontier
from test_surface import _BASES, _MUTATIONS, LOCH_2, _mutated

# ---------------------------------------------------------------------------
# references


def _ref_array(value, what, *args):
    if type(value) is not list:
        raise FormatError(
            f"{what.format(*args)} must be a JSON array, got {type(value).__name__}"
        )
    return value


def _ref_string(value, what, *args):
    if type(value) is not str:
        raise FormatError(f"{what.format(*args)} is not a JSON string: {value!r}")
    return value


def _ref_slot(pair, what, *args):
    p, k = pair
    if type(k) is not int:
        raise FormatError(
            f"{what.format(*args)} has a slot index that is not an integer: {k!r}"
        )
    if type(p) is not str:
        raise FormatError(f"pants of {what.format(*args)} is not a JSON string: {p!r}")
    return PantsSlot(p, k)


def _ref_unreferable(cid):
    if type(cid) is not str:
        return f"curve id {cid!r} is not a string"
    if not cid or ":" in cid or "," in cid:
        return (
            f"curve id {cid!r} cannot appear in a curve reference: "
            "it is empty or holds ':' or ','"
        )
    return None


def _ref_duplicate_ids(pants, curve_ids):
    pants_ids = set()
    for p in pants:
        if p in pants_ids:
            yield f"pants id {p!r} repeated"
        pants_ids.add(p)
    seen = set()
    for cid in curve_ids:
        if cid in seen:
            yield f"curve id {cid!r} repeated"
        elif cid in pants_ids:
            yield f"curve id {cid!r} is also a pants id"
        seen.add(cid)


def _ref_from_json(doc):
    try:
        pants = [_ref_string(p, "pants id") for p in _ref_array(doc["pants"], "pants")]
        curves = []
        for rec in _ref_array(doc["curves"], "curves"):
            raw_ends = rec["ends"]
            cid = rec.get("id")
            ends = tuple(
                _ref_slot(pair, "curve {!r}", cid)
                for pair in _ref_array(raw_ends, "curve {!r} ends", cid)
            )
            if not 1 <= len(ends) <= 2:
                raise FormatError(f"curve {cid!r} has {len(ends)} ends")
            cid = _ref_string(rec["id"], "curve id")
            problem = _ref_unreferable(cid)
            if problem:
                raise FormatError(problem)
            curves.append(Curve(cid, ends))
        boundary = [
            _ref_slot(pair, "boundary mark") for pair in _ref_array(doc["boundary"], "boundary")
        ]
        declared = sorted(
            _ref_string(i, "frontier entry")
            for i in _ref_array(doc.get("frontier", []), "frontier")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed surface document: {exc}") from exc
    duplicate = next(_ref_duplicate_ids(pants, [c.id for c in curves]), None)
    if duplicate is not None:
        raise FormatError(duplicate)
    g = GluingGraph(pants, curves, boundary)
    if declared != sorted(g.frontier):
        raise FormatError(
            f"frontier list {declared} does not match one-ended curves {sorted(g.frontier)}"
        )
    return g


def _ref_loads(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not JSON: {exc}") from exc
    return _ref_from_json(doc)


def _ref_dumps(g):
    doc = {
        "pants": list(g.pants),
        "curves": [
            {"id": c.id, "ends": [[end.pants, end.slot] for end in c.ends]} for c in g.curves
        ],
        "boundary": [[s.pants, s.slot] for s in g.boundary],
        "frontier": list(g.frontier),
    }
    return json.dumps(doc, ensure_ascii=False) + "\n"


def _ref_validate(g):
    curve_ids = [c.id for c in g.curves]
    violations = [Violation("DuplicateId", d) for d in _ref_duplicate_ids(g.pants, curve_ids)]
    violations += [Violation("InvalidId", d) for d in map(_ref_unreferable, curve_ids) if d]
    pants_set = set(g.pants)
    usage = {}

    def what(user):
        return "boundary mark" if user is None else f"curve {user.id!r}"

    def use(slot, user):
        if slot.pants not in pants_set:
            violations.append(
                Violation(
                    "SlotCountError", f"{what(user)} references unknown pants {slot.pants!r}"
                )
            )
            return
        if not 0 <= slot.slot < 3:
            violations.append(
                Violation("SlotCountError", f"{what(user)} uses invalid slot index {slot.slot}")
            )
            return
        usage.setdefault(slot, []).append(user)

    for c in g.curves:
        if len(c.ends) not in (1, 2):
            violations.append(
                Violation("SlotCountError", f"curve {c.id!r} has {len(c.ends)} ends")
            )
        for end in c.ends:
            use(end, c)
        if len(c.ends) == 2 and c.ends[0] == c.ends[1]:
            violations.append(
                Violation("SlotCountError", f"curve {c.id!r} glues a slot to itself")
            )
    for slot in g.boundary:
        use(slot, None)
    for p in g.pants:
        for k in range(3):
            users = usage.get((p, k), [])
            if len(users) == 0:
                violations.append(Violation("SlotCountError", f"slot ({p!r}, {k}) is unused"))
            elif len(users) > 1:
                violations.append(
                    Violation(
                        "SlotCountError",
                        f"slot ({p!r}, {k}) used {len(users)} times: "
                        + ", ".join(map(what, users)),
                    )
                )
    if len(g.pants) > 1:
        h = g.pants_graph
        lone = {
            c.ends[0].pants for c in g.curves if c.is_self_gluing and c.ends[0].pants not in h
        }
        parts = sorted(g.pants_lowpoints[2] + [1] * len(lone))
        if len(parts) > 1:
            violations.append(
                Violation("ConnectivityError", f"pants graph splits into parts of sizes {parts}")
            )
    return tuple(violations)


def _ref_adjacency(g):
    adj = {c.id: set() for c in g.curves if not c.is_frontier}
    at = g.curves_at
    for ids in at.values():
        here = [cid for cid in ids if cid in adj]
        for u in here:
            adj[u].update(v for v in here if v != u)
    marks = sorted({v for p in _ref_frontier_pants(g) for v in at.get(p, ()) if v in adj})
    return AdjacencyGraph({v: sorted(nbrs) for v, nbrs in adj.items()}, tuple(marks))


def _ref_ends_in_order(c):
    ends = tuple(sorted(c.ends))
    return c if ends == c.ends else Curve(c.id, ends)


def _ref_gluing_graph(pants, curves, boundary):
    return tuple.__new__(
        GluingGraph,
        (
            tuple(sorted(pants)),
            tuple(sorted(map(_ref_ends_in_order, curves), key=attrgetter("id"))),
            tuple(sorted(boundary)),
        ),
    )


def _ref_pants_edges(curves):
    for c in curves:
        if len(c.ends) == 2 and not c.is_self_gluing:
            yield c.ends[0].pants, c.ends[1].pants, c.id


def _ref_frontier(g):
    return tuple(c.id for c in g.curves if c.is_frontier)


def _ref_frontier_pants(g):
    return frozenset(c.ends[0].pants for c in g.curves if c.is_frontier)


def _ref_lone_end_pants(g):
    count = Counter(end.pants for c in g.curves if not c.is_frontier for end in c.ends)
    return frozenset(p for p, n in count.items() if n == 1)


def _ref_handles(g):
    return tuple(c.id for c in g.curves if c.is_self_gluing)


def _ref_pants_graph(g):
    return neighbour_lists(g.pants, ((u, v) for u, v, _ in _ref_pants_edges(g.curves)))


def _ref_separating_curves(g):
    between = {}
    for u, v, cid in _ref_pants_edges(g.curves):
        between.setdefault((u, v), []).append(cid)
    separating = set()
    for u, v in lowpoints(_ref_pants_graph(g))[0]:
        ids = between[(u, v) if u < v else (v, u)]
        if len(ids) == 1:
            separating.add(ids[0])
    return frozenset(separating)


def _ref_classify_all(g):
    separating = _ref_separating_curves(g)
    lone = _ref_lone_end_pants(g)

    def class_of(c):
        if c.id not in separating:
            return CurveClass.NONSEPARATING
        if c.ends[0].pants in lone or c.ends[1].pants in lone:
            return CurveClass.OUTER
        return CurveClass.NON_OUTER

    return {c.id: class_of(c) for c in g.curves if not c.is_frontier}


# ---------------------------------------------------------------------------
# the reader


def _outcome(fn, *args):
    """``("ok", result)``, or the type and message of what ``fn`` raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # any exception must match the reference's
        return (type(exc).__name__, str(exc))


def _assert_reads_as_the_reference(doc):
    text = json.dumps(doc)
    got, want = _outcome(loads_surface, text), _outcome(_ref_loads, text)
    assert got == want, text
    # an equal graph also has curves and slots of the same types
    if got[0] == "ok":
        g = got[1]
        assert all(type(c) is Curve for c in g.curves)
        assert all(type(s) is PantsSlot for c in g.curves for s in c.ends + g.boundary)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_BASES),
    st.lists(
        st.tuples(st.sampled_from(_DOC_MUTATIONS), st.integers(0, 500), st.integers(0, 500)),
        min_size=1,
        max_size=4,
    ),
)
def test_reader_matches_the_reference_on_mutated_documents(base, mutations):
    _assert_reads_as_the_reference(_mutated_doc(surface_to_json(base), mutations))


def test_reader_matches_the_reference_at_every_place_and_value():
    # every value of the document in turn dropped or replaced by one of
    # each JSON type, then a curve end and a boundary mark given every pair
    # of JSON values (a slot index is checked before its pants)
    doc = surface_to_json(LOCH_2)
    for i in range(len(list(_places(doc)))):
        for value in ("drop", *_JSON_VALUES):
            bad = json.loads(json.dumps(doc))
            node, key = list(_places(bad))[i]
            if value == "drop":
                del node[key]
            else:
                node[key] = value
            _assert_reads_as_the_reference(bad)
    for p, k in itertools.product((*_JSON_VALUES, "hp0"), (*_JSON_VALUES, 2)):
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
    graphs = [build_truncation(m, d) for m in InfiniteModel for d in range(1, 11)]
    graphs += [build_finite_surface(genus, b) for genus, b in CENSUS]
    for g in graphs:
        assert dumps_surface(g) == _ref_dumps(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_writer_matches_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = _with_frontier(random_gluing_graph(n_pants, rng), rng)
    text = dumps_surface(g)
    assert text == _ref_dumps(g)
    assert loads_surface(text) == g == _ref_loads(text)


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


def _written(write, g):
    try:
        return write(g)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_IDS, max_size=4), st.lists(_CURVES, max_size=5), st.lists(_SLOTS, max_size=3))
def test_writer_matches_the_reference_on_hand_built_graphs(pants, curves, boundary):
    # the three fields as drawn, since the constructor's sort cannot order
    # ids of kinds that do not compare: the writer reads them as they are
    g = tuple.__new__(GluingGraph, (tuple(pants), tuple(curves), tuple(boundary)))
    want = _written(lambda g: json.dumps(surface_to_json(g), ensure_ascii=False) + "\n", g)
    assert _written(dumps_surface, g) == want


# ---------------------------------------------------------------------------
# the validator and A(P)

# besides the mutations of test_surface: a slot index that passes the
# range test but names no slot, and a boundary mark on a used slot
_MORE = ("half slot", "boundary on a curve slot")


def _more_mutated(g, mutations):
    pants, curves, boundary = list(g.pants), list(g.curves), list(g.boundary)
    for kind, i, _ in mutations:
        if not curves:
            break
        c = curves[i % len(curves)]
        if kind == "half slot" and c.ends:
            curves[i % len(curves)] = Curve(c.id, (PantsSlot(c.ends[0].pants, 0.5),) + c.ends[1:])
        elif kind == "boundary on a curve slot" and c.ends:
            boundary.append(c.ends[-1])
    return GluingGraph(pants, curves, boundary)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_BASES),
    st.lists(
        st.tuples(st.sampled_from(_MUTATIONS + _MORE), st.integers(0, 200), st.integers(0, 200)),
        max_size=3,
    ),
)
def test_validate_and_adjacency_match_the_reference_on_mutated_graphs(base, mutations):
    ours = [m for m in mutations if m[0] in _MUTATIONS]
    g = _more_mutated(_mutated(base, ours), [m for m in mutations if m[0] in _MORE])
    assert validate(g) == _ref_validate(g)
    assert g.adjacency_graph == _ref_adjacency(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_validate_and_adjacency_match_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = _with_frontier(random_gluing_graph(n_pants, rng), rng)
    assert validate(g) == _ref_validate(g) == ()
    assert g.adjacency_graph == _ref_adjacency(g)


def test_validate_matches_the_reference_with_repeated_pants_ids():
    g = build_truncation("ladder", 3)
    for twice in (g.pants[:1], g.pants[:3], g.pants):
        h = GluingGraph(g.pants + twice, g.curves, g.boundary)
        got = validate(h)
        assert got == _ref_validate(h)
        assert [v.kind for v in got] == ["DuplicateId"] * len(twice)
    # a repeated pants with a clashing slot reports the clash once per copy
    clash = GluingGraph(g.pants + g.pants[:1], g.curves, (PantsSlot(g.pants[0], 0),))
    assert validate(clash) == _ref_validate(clash)
    assert sum("used 2 times" in v.detail for v in validate(clash)) == 2


# ---------------------------------------------------------------------------
# the graph tables and the constructor's end sorting

# each table of a built graph, read through the library and the reference
_TABLES = {
    "frontier": (attrgetter("frontier"), _ref_frontier),
    "frontier_pants": (attrgetter("frontier_pants"), _ref_frontier_pants),
    "lone_end_pants": (attrgetter("lone_end_pants"), _ref_lone_end_pants),
    "handles": (attrgetter("handles"), _ref_handles),
    "pants_graph": (attrgetter("pants_graph"), _ref_pants_graph),
    "separating_curves": (attrgetter("separating_curves"), _ref_separating_curves),
    "adjacency_graph": (attrgetter("adjacency_graph"), _ref_adjacency),
    "classify_all": (classify_all, _ref_classify_all),
}


def _in_order(outcome):
    """An outcome whose dict, if any, is listed in its key order."""
    kind, value = outcome
    return (kind, list(value.items())) if isinstance(value, dict) else outcome


def _assert_tables_match_the_reference(g):
    for name, (ours, ref) in _TABLES.items():
        got, want = _in_order(_outcome(ours, g)), _in_order(_outcome(ref, g))
        assert got == want, name
        if got[0] == "ok":
            assert type(got[1]) is type(want[1]), name


def _assert_builds_as_the_reference(pants, curves, boundary):
    """Each curve's ends are put in order, and the graph built, as the
    references do: the same curve object when it is kept, an equal one of
    the same class otherwise, or the same error; then every table of the
    graph matches."""
    for c in curves:
        got, want = _outcome(_ends_in_order, c), _outcome(_ref_ends_in_order, c)
        assert got == want, c
        if got[0] == "ok":
            assert (got[1] is c) == (want[1] is c) and type(got[1]) is type(want[1]), c
    got = _outcome(GluingGraph, pants, curves, boundary)
    assert got == _outcome(_ref_gluing_graph, pants, curves, boundary)
    if got[0] == "ok":
        _assert_tables_match_the_reference(got[1])
    return got


def test_graph_tables_match_the_reference_on_models_and_census():
    graphs = [build_truncation(m, d) for m in InfiniteModel for d in range(1, 11)]
    graphs += [build_finite_surface(genus, b) for genus, b in CENSUS]
    for g in graphs:
        assert _assert_builds_as_the_reference(g.pants, g.curves, g.boundary) == ("ok", g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_graph_tables_match_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = _with_frontier(random_gluing_graph(n_pants, rng), rng)
    assert _assert_builds_as_the_reference(g.pants, g.curves, g.boundary) == ("ok", g)


# changes to curve ends that the constructor accepts and validate refuses,
# or that it must put back in order: an index that does not compare with
# the others, such as "0" beside 1, raises TypeError only between two ends
# on one pants
_END_MUTATIONS = ("no ends", "three ends", "reverse ends", "text index", "list of ends")


def _end_mutated(g, mutations):
    """The fields of ``g`` with each (kind, i, _) of ``mutations`` applied
    to its ``i``-th curve, before any constructor sorts them."""
    curves = list(g.curves)
    for kind, i, _ in mutations:
        if not curves:
            break
        k = i % len(curves)
        cid, ends = curves[k].id, tuple(curves[k].ends)
        if kind == "no ends":
            ends = ()
        elif kind == "three ends":
            ends = (ends * 3)[:3]
        elif kind == "reverse ends":
            ends = ends[::-1]
        elif kind == "text index" and ends:
            ends = (PantsSlot(ends[0].pants, str(ends[0].slot)),) + ends[1:]
        elif kind == "list of ends":
            ends = list(ends)
        curves[k] = Curve(cid, ends)
    return g.pants, curves, g.boundary


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_BASES),
    st.lists(
        st.tuples(
            st.sampled_from(_MUTATIONS + _END_MUTATIONS), st.integers(0, 200), st.integers(0, 200)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_graph_tables_match_the_reference_on_mutated_graphs(base, mutations):
    g = _mutated(base, [m for m in mutations if m[0] in _MUTATIONS])
    _assert_builds_as_the_reference(*_end_mutated(g, [m for m in mutations if m[0] in _END_MUTATIONS]))


def test_graph_tables_match_the_reference_on_each_end_mutation():
    # every base and curve under each end mutation alone; among them the
    # constructor's TypeError on a handle given a text index
    outcomes = Counter()
    for base in _BASES:
        for kind in _END_MUTATIONS:
            for i in range(len(base.curves)):
                got = _assert_builds_as_the_reference(*_end_mutated(base, [(kind, i, 0)]))
                outcomes[got[0]] += 1
    assert outcomes["TypeError"] > 0 and outcomes["ok"] > outcomes["TypeError"]
