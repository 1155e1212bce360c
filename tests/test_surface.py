"""Gluing graphs: construction, validation, signatures, serialization.

The small truncations are pinned against hand-written gluing tables, so
any change to the generators that moves a single slot shows up here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    ComplexityTooLow,
    Curve,
    GluingGraph,
    InfiniteModel,
    NonIntegralGenus,
    PantsSlot,
    Violation,
    build_finite_surface,
    build_truncation,
    curve_inventory,
    dumps_surface,
    format_ref,
    loads_surface,
    parse_refs,
    signature,
    surface_from_json,
    surface_to_json,
    validate,
)
from curvelab.errors import FormatError


def _graph(pants, table, boundary=()):
    """Build a gluing graph from {curve id: [(pants, slot), ...]} rows."""
    curves = [
        Curve(cid, tuple(PantsSlot(p, s) for p, s in ends)) for cid, ends in table.items()
    ]
    return GluingGraph(
        pants=tuple(pants),
        curves=tuple(curves),
        boundary=tuple(PantsSlot(p, s) for p, s in boundary),
    )


# hand tables for the smallest truncations of each model

LOCH_1 = _graph(
    ["hp0"],
    {"h0": [("hp0", 1), ("hp0", 2)], "c1": [("hp0", 0)]},
)

LOCH_2 = _graph(
    ["hp0", "cp1", "hp1"],
    {
        "h0": [("hp0", 1), ("hp0", 2)],
        "c1": [("hp0", 0), ("cp1", 0)],
        "t1": [("cp1", 1), ("hp1", 0)],
        "h1": [("hp1", 1), ("hp1", 2)],
        "c2": [("cp1", 2)],
    },
)

LADDER_1 = _graph(
    ["cp0", "hp0"],
    {
        "t0": [("cp0", 0), ("hp0", 0)],
        "h0": [("hp0", 1), ("hp0", 2)],
        "cl1": [("cp0", 1)],
        "cr1": [("cp0", 2)],
    },
)

CANTOR_1 = _graph(
    ["bp", "hp"],
    {
        "t": [("bp", 0), ("hp", 0)],
        "h": [("hp", 1), ("hp", 2)],
        "c0": [("bp", 1)],
        "c1": [("bp", 2)],
    },
)

CANTOR_2 = _graph(
    ["bp", "hp", "cp0", "bp0", "hp0", "cp1", "bp1", "hp1"],
    {
        "t": [("bp", 0), ("hp", 0)],
        "h": [("hp", 1), ("hp", 2)],
        "c0": [("bp", 1), ("cp0", 0)],
        "t0": [("cp0", 1), ("hp0", 0)],
        "s0": [("cp0", 2), ("bp0", 0)],
        "h0": [("hp0", 1), ("hp0", 2)],
        "c00": [("bp0", 1)],
        "c01": [("bp0", 2)],
        "c1": [("bp", 2), ("cp1", 0)],
        "t1": [("cp1", 1), ("hp1", 0)],
        "s1": [("cp1", 2), ("bp1", 0)],
        "h1": [("hp1", 1), ("hp1", 2)],
        "c10": [("bp1", 1)],
        "c11": [("bp1", 2)],
    },
)


def test_truncations_match_hand_tables():
    assert build_truncation(InfiniteModel.LOCH_NESS, 1) == LOCH_1
    assert build_truncation(InfiniteModel.LOCH_NESS, 2) == LOCH_2
    assert build_truncation(InfiniteModel.LADDER, 1) == LADDER_1
    assert build_truncation(InfiniteModel.CANTOR_TREE, 1) == CANTOR_1
    assert build_truncation(InfiniteModel.CANTOR_TREE, 2) == CANTOR_2


def test_truncations_accept_model_names_as_strings():
    assert build_truncation("loch_ness", 2) == LOCH_2
    assert build_truncation("ladder", 1) == LADDER_1


def test_truncations_nest():
    """Deeper truncations extend shallower ones without renaming anything."""
    for model in InfiniteModel:
        for d in (1, 2, 3, 4):
            small = build_truncation(model, d)
            big = build_truncation(model, d + 1)
            assert set(small.pants) <= set(big.pants)
            for c in small.curves:
                if c.is_frontier:
                    continue
                assert big.curve_by_id[c.id] == c


def test_truncation_sizes():
    # loch ness grows two pants per level, ladder four, cantor doubles
    assert [len(build_truncation("loch_ness", d).pants) for d in (1, 2, 3)] == [1, 3, 5]
    assert [len(build_truncation("ladder", d).pants) for d in (1, 2, 3)] == [2, 6, 10]
    assert [len(build_truncation("cantor_tree", d).pants) for d in (1, 2, 3)] == [2, 8, 20]
    assert [len(build_truncation("cantor_tree", d).frontier) for d in (1, 2, 3)] == [2, 4, 8]


def test_truncations_validate():
    for model in InfiniteModel:
        for d in (1, 2, 3, 4, 5):
            assert validate(build_truncation(model, d)) == ()


def test_frontier_and_lookups():
    g = LOCH_2
    assert g.frontier == ("c2",)
    assert g.curve_by_id["h0"].is_self_gluing
    assert not g.curve_by_id["c1"].is_self_gluing
    assert g.frontier_pants == frozenset({"cp1"})
    assert set(g.curves_at["cp1"]) == {"c1", "t1", "c2"}
    assert g.slot_occupant[("hp0", 1)] == "h0"
    assert set(g.pants_of_curve("c1")) == {"hp0", "cp1"}


def test_signature_of_finite_surfaces():
    for g, b in [(0, 4), (0, 6), (1, 1), (1, 3), (2, 0), (2, 2), (4, 1), (6, 6)]:
        s = build_finite_surface(g, b)
        sig = signature(s)
        assert (sig.genus, sig.boundary) == (g, b)
        assert len(s.pants) == 2 * g - 2 + b
        assert sum(1 for c in s.curves if not c.is_frontier) == 3 * g - 3 + b
        assert validate(s) == ()


def test_signature_counts_frontier_as_boundary():
    # a truncation's signature sees the frontier circles as boundary
    sig = signature(LOCH_2)
    assert sig.boundary == 1
    assert sig.genus == 2


def test_complexity_too_low():
    for g, b in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]:
        with pytest.raises(ComplexityTooLow):
            build_finite_surface(g, b)


def test_non_integral_genus():
    # two pants joined by two curves and two odd boundary legs: 2 - 4 + 2 odd
    g = _graph(
        ["p0", "p1"],
        {"a": [("p0", 0), ("p1", 0)], "b": [("p0", 1), ("p1", 1)]},
        boundary=[("p0", 2), ("p1", 2)],
    )
    assert signature(g).genus == 1
    bad = _graph(
        ["p0"],
        {"a": [("p0", 0), ("p0", 1)]},
        boundary=[("p0", 2)],
    )
    assert signature(bad).genus == 1  # 2g = 2 - 1 + 1
    # a well-formed graph always has boundary + pants even, so parity
    # failures only arise from malformed slot bookkeeping
    worse = _graph(["p0"], {"a": [("p0", 0), ("p0", 1)]})
    with pytest.raises(NonIntegralGenus):
        signature(worse)


def test_validate_reports_slot_clashes():
    shared = Curve("x", (PantsSlot("p0", 0), PantsSlot("p1", 0)))
    dup = GluingGraph(
        pants=("p0", "p1"),
        curves=(shared, Curve("y", (PantsSlot("p0", 0), PantsSlot("p1", 1)))),
        boundary=(PantsSlot("p0", 1), PantsSlot("p0", 2), PantsSlot("p1", 2)),
    )
    kinds = {v.kind for v in validate(dup)}
    assert "SlotCountError" in kinds


def test_validate_reports_unused_slots():
    g = GluingGraph(
        pants=("p0", "p1"),
        curves=(Curve("x", (PantsSlot("p0", 0), PantsSlot("p1", 0))),),
        boundary=(PantsSlot("p0", 1), PantsSlot("p0", 2), PantsSlot("p1", 1)),
    )
    kinds = {v.kind for v in validate(g)}
    assert "SlotCountError" in kinds  # p1 slot 2 is neither glued nor boundary


def test_validate_reports_disconnected():
    g = GluingGraph(
        pants=("p0", "p1"),
        curves=(
            Curve("a", (PantsSlot("p0", 0), PantsSlot("p0", 1))),
            Curve("b", (PantsSlot("p1", 0), PantsSlot("p1", 1))),
        ),
        boundary=(PantsSlot("p0", 2), PantsSlot("p1", 2)),
    )
    kinds = {v.kind for v in validate(g)}
    assert "ConnectivityError" in kinds


def test_validate_counts_a_self_glued_unknown_pants_as_a_part():
    # the pants graph has no self-gluings, so "nope" is not one of its
    # nodes; the self-glued pants is still a part of the surface on its own
    g = GluingGraph(
        pants=("p0", "p1"),
        curves=(
            Curve("a", (PantsSlot("p0", 0), PantsSlot("p1", 0))),
            Curve("h", (PantsSlot("nope", 0), PantsSlot("nope", 1))),
        ),
        boundary=(PantsSlot("p0", 1), PantsSlot("p0", 2), PantsSlot("p1", 1),
                  PantsSlot("p1", 2)),
    )
    assert validate(g) == (
        Violation("SlotCountError", "curve 'h' references unknown pants 'nope'"),
        Violation("SlotCountError", "curve 'h' references unknown pants 'nope'"),
        Violation("ConnectivityError", "pants graph splits into parts of sizes [1, 2]"),
    )


def test_validate_reports_a_curve_with_no_ends():
    loch = build_truncation("loch_ness", 2)
    g = GluingGraph(loch.pants, loch.curves + (Curve("zz", ()),), loch.boundary)
    assert validate(g) == (Violation("SlotCountError", "curve 'zz' has 0 ends"),)


def test_validate_reports_a_curve_id_that_is_not_a_string():
    g = _graph(["p0"], {7: [("p0", 0), ("p0", 1)]}, boundary=[("p0", 2)])
    assert validate(g) == (Violation("InvalidId", "curve id 7 is not a string"),)


def test_validate_reports_duplicate_ids():
    g = GluingGraph(
        pants=("p0",),
        curves=(
            Curve("a", (PantsSlot("p0", 0), PantsSlot("p0", 1))),
            Curve("a", (PantsSlot("p0", 2),)),
        ),
        boundary=(),
    )
    kinds = {v.kind for v in validate(g)}
    assert "DuplicateId" in kinds


def test_json_roundtrip():
    for g in (LOCH_2, LADDER_1, CANTOR_2, build_finite_surface(2, 1)):
        assert surface_from_json(surface_to_json(g)) == g
        assert loads_surface(dumps_surface(g)) == g


def _message(parse, text):
    """The message of the error ``parse(text)`` raises."""
    try:
        parse(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)


# text -> what follows "not JSON: " in the FormatError loads_surface raises
# on it: bad syntax, arrays nested past the parser's limit, and an integer
# with more digits than Python converts (in Python's own words)
NOT_JSON = {
    "{not json": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "[" * 200_000: (
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    ),
    '{"pants": [' + "1" * 5001 + "]}": _message(int, "1" * 5001),
}


def test_json_rejects_garbage():
    # with the tests below, one message of every kind surface_from_json raises
    doc = surface_to_json(LOCH_2)
    c1, rest = doc["curves"][0], doc["curves"][1:]
    cases = {
        "malformed surface document: 'curves'": {"pants": ["p0"]},
        "malformed surface document: 'ends'": {
            "pants": ["p0"], "curves": [{"id": "a"}], "boundary": [],
        },
        "curve 'c1' has 3 ends": {
            **doc, "curves": [{**c1, "ends": c1["ends"] + [["cp1", 2]]}] + rest,
        },
        "curve 'c1' has 0 ends": {**doc, "curves": [{**c1, "ends": []}] + rest},
        "frontier list [] does not match one-ended curves ['c2']": {**doc, "frontier": []},
    }
    # format_ref would write these ids as pants:, win:a:b:1/0, which
    # parse_ref refuses, and pants:c1,pants:c2, which parse_refs reads back
    # as two other curves
    for cid in ("", "a:b", "c1,pants:c2"):
        detail = (
            f"curve id {cid!r} cannot appear in a curve reference: "
            "it is empty or holds ':' or ','"
        )
        cases[detail] = {**doc, "curves": [{**c1, "id": cid}] + rest}
    for detail, bad in cases.items():
        with pytest.raises(FormatError) as exc:
            surface_from_json(bad)
        assert str(exc.value) == detail
    for text, message in NOT_JSON.items():
        with pytest.raises(FormatError) as exc:
            loads_surface(text)
        assert str(exc.value) == f"not JSON: {message}"


def test_json_rejects_duplicate_ids():
    doc = surface_to_json(LOCH_2)
    cases = {
        "pants id 'hp0' repeated": {**doc, "pants": doc["pants"] + ["hp0"]},
        "curve id 'h0' repeated": {
            **doc,
            "curves": [{**c, "id": "h0"} if c["id"] == "h1" else c for c in doc["curves"]],
        },
        "curve id 'hp1' is also a pants id": {
            **doc,
            "curves": [{**c, "id": "hp1"} if c["id"] == "h1" else c for c in doc["curves"]],
        },
    }
    for detail, bad in cases.items():
        with pytest.raises(FormatError) as exc:
            surface_from_json(bad)
        assert str(exc.value) == detail


@pytest.mark.parametrize("index", ["1e999", "NaN", "0.9", "true", '"1"'])
def test_json_rejects_slot_indices_that_are_not_integers(index):
    # in S_{2,1} the slot ["hp1", 0] ends the curve t1 and ["cp1", 2] is the
    # boundary mark
    text = dumps_surface(build_finite_surface(2, 1))
    shown = {"1e999": "inf", "NaN": "nan", "true": "True", '"1"': "'1'"}.get(index, index)
    for pants, slot, what in (("hp1", 0, "curve 't1'"), ("cp1", 2, "boundary mark")):
        old = f'["{pants}", {slot}]'
        assert text.count(old) == 1
        with pytest.raises(FormatError) as exc:
            loads_surface(text.replace(old, f'["{pants}", {index}]'))
        assert str(exc.value) == f"{what} has a slot index that is not an integer: {shown}"


def test_json_rejects_fields_that_are_not_arrays():
    doc = surface_to_json(LOCH_2)
    c1 = doc["curves"][0]
    cases = {
        "pants must be a JSON array, got str": {**doc, "pants": "ab"},
        "curves must be a JSON array, got dict": {**doc, "curves": {"c1": c1}},
        "boundary must be a JSON array, got str": {**doc, "boundary": "hp0"},
        "frontier must be a JSON array, got str": {**doc, "frontier": "c2"},
        "curve 'c1' ends must be a JSON array, got str": {
            **doc,
            "curves": [{**c1, "ends": "hp0"}] + doc["curves"][1:],
        },
    }
    for detail, bad in cases.items():
        with pytest.raises(FormatError) as exc:
            surface_from_json(bad)
        assert str(exc.value) == detail


@pytest.mark.parametrize("value", [None, 7, True, ["hp0"]])
def test_json_rejects_ids_that_are_not_strings(value):
    doc = surface_to_json(LOCH_2)
    c1, rest = doc["curves"][0], doc["curves"][1:]
    cases = {
        "pants id": {**doc, "pants": [value] + doc["pants"][1:]},
        "curve id": {**doc, "curves": [{**c1, "id": value}] + rest},
        "pants of curve 'c1'": {
            **doc,
            "curves": [{**c1, "ends": [[value, 0], c1["ends"][1]]}] + rest,
        },
        "pants of boundary mark": {**doc, "boundary": [[value, 0]]},
        "frontier entry": {**doc, "frontier": [value]},
    }
    for what, bad in cases.items():
        with pytest.raises(FormatError) as exc:
            surface_from_json(bad)
        assert str(exc.value) == f"{what} is not a JSON string: {value!r}"


def test_validate_messages_are_pinned():
    # one message of every kind validate reports, in its order
    rows = [
        ("a", [("p0", 0), ("p1", 0)]),
        ("a", [("p0", 1), ("p0", 1)]),
        ("b:c", []),
        ("p1", [("p1", 1), ("p1", 2)]),
        ("x", [("nope", 0), ("p1", 3)]),
        ("y", [("p0", 2), ("p2", 0), ("p2", 1)]),
    ]
    busy = GluingGraph(
        ["p0", "p1", "p0", "p2"],
        [Curve(cid, tuple(PantsSlot(*end) for end in ends)) for cid, ends in rows],
        [PantsSlot("p0", 2), PantsSlot("zz", 0), PantsSlot("p0", 5)],
    )
    assert validate(busy) == (
        Violation("DuplicateId", "pants id 'p0' repeated"),
        Violation("DuplicateId", "curve id 'a' repeated"),
        Violation("DuplicateId", "curve id 'p1' is also a pants id"),
        Violation(
            "InvalidId",
            "curve id 'b:c' cannot appear in a curve reference: it is empty or holds ':' or ','",
        ),
        Violation("SlotCountError", "curve 'a' glues a slot to itself"),
        Violation("SlotCountError", "curve 'b:c' has 0 ends"),
        Violation("SlotCountError", "curve 'x' references unknown pants 'nope'"),
        Violation("SlotCountError", "curve 'x' uses invalid slot index 3"),
        Violation("SlotCountError", "curve 'y' has 3 ends"),
        Violation("SlotCountError", "boundary mark uses invalid slot index 5"),
        Violation("SlotCountError", "boundary mark references unknown pants 'zz'"),
        Violation("SlotCountError", "slot ('p0', 1) used 2 times: curve 'a', curve 'a'"),
        Violation("SlotCountError", "slot ('p0', 2) used 2 times: curve 'y', boundary mark"),
        Violation("SlotCountError", "slot ('p0', 1) used 2 times: curve 'a', curve 'a'"),
        Violation("SlotCountError", "slot ('p0', 2) used 2 times: curve 'y', boundary mark"),
        Violation("SlotCountError", "slot ('p2', 2) is unused"),
        # only a curve with three ends reaches p2, and it joins no pants
        Violation("ConnectivityError", "pants graph splits into parts of sizes [1, 3]"),
    )
    apart = _graph(
        ["p0", "p1"],
        {"a": [("p0", 0), ("p0", 1)], "b": [("p1", 0), ("p1", 1)]},
        boundary=[("p0", 2), ("p1", 2)],
    )
    assert validate(apart) == (
        Violation("ConnectivityError", "pants graph splits into parts of sizes [1, 1]"),
    )


@pytest.mark.parametrize("index", ["0", None, (0,)])
def test_validate_reports_an_index_that_does_not_compare(index):
    # the range test cannot order such an index against an int; it is
    # reported like an out-of-range one, shown by its repr
    curve = Curve("a", (PantsSlot("p", index), PantsSlot("q", 1)))
    unused = [
        Violation("SlotCountError", f"slot {slot!r} is unused")
        for slot in [("p", 0), ("p", 1), ("q", 0), ("q", 2)]
    ]
    bad_end = Violation("SlotCountError", f"curve 'a' uses invalid slot index {index!r}")
    bad_mark = Violation("SlotCountError", f"boundary mark uses invalid slot index {index!r}")
    g = GluingGraph(["p", "q"], [curve], [PantsSlot("p", 2)])
    assert validate(g) == (bad_end, *unused)
    g = GluingGraph(["p", "q"], [curve], [PantsSlot("p", 2), PantsSlot("q", index)])
    assert validate(g) == (bad_end, bad_mark, *unused)
    with pytest.raises(TypeError):
        GluingGraph(["p"], [Curve("a", (PantsSlot("p", index), PantsSlot("p", 1)))])


def test_gluing_graph_keeps_curves_whose_ends_are_in_order():
    kept = Curve("a", (PantsSlot("p0", 0), PantsSlot("p1", 0)))
    flipped = Curve("b", (PantsSlot("p1", 1), PantsSlot("p0", 1)))
    g = GluingGraph(("p0", "p1"), (flipped, kept))
    assert g.curves[0] is kept
    assert g.curves[1] == Curve("b", (PantsSlot("p0", 1), PantsSlot("p1", 1)))


def test_dumps_ends_with_newline():
    assert dumps_surface(LOCH_1).endswith("\n")


def test_gluing_graph_normalizes_order():
    g1 = _graph(["b", "a"], {"x": [("b", 0), ("a", 0)]}, boundary=[("a", 1), ("a", 2), ("b", 2), ("b", 1)])
    g2 = _graph(["a", "b"], {"x": [("a", 0), ("b", 0)]}, boundary=[("b", 1), ("b", 2), ("a", 1), ("a", 2)])
    assert g1 == g2
    assert g1.pants == ("a", "b")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_finite_surfaces_validate(genus, boundary):
    if 3 * genus - 3 + boundary < 1:
        with pytest.raises(ComplexityTooLow):
            build_finite_surface(genus, boundary)
        return
    s = build_finite_surface(genus, boundary)
    assert validate(s) == ()
    sig = signature(s)
    assert (sig.genus, sig.boundary) == (genus, boundary)


# the model truncations and the census graphs the mutations start from
_BASES = [build_truncation(m, d) for m in InfiniteModel for d in (1, 2, 3)] + [
    build_finite_surface(g, b) for g in range(3) for b in range(5) if 3 * g - 3 + b >= 1
]
_MUTATIONS = (
    "drop pants", "drop curve", "repeat pants", "repeat curve id", "no ends", "three ends",
    "unknown pants", "slot 3", ":", ",",
)


def _mutated(g, mutations):
    """``g`` with each (kind, i, j) of ``mutations`` applied in turn: ``i``
    picks the pants and the curve changed, ``j`` a second curve or a place
    in the curve's id."""
    pants, curves = list(g.pants), list(g.curves)
    for kind, i, j in mutations:
        if not pants or not curves:
            break
        p, k = i % len(pants), i % len(curves)
        c = curves[k]
        if kind == "drop pants":
            del pants[p]
        elif kind == "drop curve":
            del curves[k]
        elif kind == "repeat pants":
            pants.append(pants[p])
        elif kind == "repeat curve id":
            other = j % len(curves)
            curves[other] = Curve(c.id, curves[other].ends)
        elif kind == "no ends":
            curves[k] = Curve(c.id, ())
        elif kind == "three ends":
            curves[k] = Curve(c.id, (c.ends * 3)[:3])
        elif kind == "unknown pants":
            curves[k] = Curve(c.id, (PantsSlot("nope", 0),) + c.ends[1:])
        elif kind == "slot 3":
            curves[k] = Curve(c.id, (PantsSlot(pants[p], 3),) + c.ends[1:])
        else:
            at = j % (len(c.id) + 1)
            curves[k] = Curve(c.id[:at] + kind + c.id[at:], c.ends)
    return GluingGraph(pants, curves, g.boundary)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_BASES),
    st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 200), st.integers(0, 200)),
        max_size=3,
    ),
)
def test_validate_never_raises_and_valid_inventories_read_back(base, mutations):
    g = _mutated(base, mutations)
    violations = validate(g)
    assert type(violations) is tuple
    if not violations:
        inventory = curve_inventory(g, 2)
        assert parse_refs(",".join(map(format_ref, inventory))) == inventory
