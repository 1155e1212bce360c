"""The value types' contract: hash, repr, order and immutability.

Each type hashes as the tuple of its fields, so sets and dicts of values
iterate in the same order whatever class implements them, and every
output built from such an iteration stays as it is.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    Curve,
    DualChain,
    GluingGraph,
    PantsCurve,
    PantsSlot,
    WindowCurve,
    build_truncation,
    cut_and_glue,
    make_slope,
    surface_end_tree,
)

FIELDS = {
    "Slope": ("p", "q"),
    "PantsSlot": ("pants", "slot"),
    "Curve": ("id", "ends"),
    "PantsCurve": ("id",),
    "WindowCurve": ("center", "slope"),
    "DualChain": ("handle_a", "handle_b", "interior"),
    "GluingGraph": ("pants", "curves", "boundary"),
    "EndTree": ("base", "stride", "parents", "deepest"),
}

_IDS = st.text(alphabet="ab01'", min_size=1, max_size=3)
_SLOPES = (
    st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    .filter(lambda pq: pq != (0, 0))
    .map(lambda pq: make_slope(*pq))
)
_SLOTS = st.builds(PantsSlot, _IDS, st.integers(0, 2))
_CURVES = st.builds(Curve, _IDS, st.lists(_SLOTS, min_size=1, max_size=2).map(tuple))
_CHAINS = st.builds(DualChain, _IDS, _IDS, st.lists(_IDS, max_size=3).map(tuple))
_REFS = st.one_of(st.builds(PantsCurve, _IDS), st.builds(WindowCurve, _IDS, _SLOPES), _CHAINS)
_GRAPHS = st.builds(
    GluingGraph, st.lists(_IDS, max_size=4), st.lists(_CURVES, max_size=4), st.lists(_SLOTS, max_size=3)
)
_TREES = st.sampled_from(
    [
        surface_end_tree(build_truncation(model, depth), 1)
        for model in ("loch_ness", "ladder", "cantor_tree")
        for depth in (4, 6)
    ]
)
VALUES = st.one_of(_SLOPES, _SLOTS, _CURVES, _REFS, _GRAPHS, _TREES)


def _fields(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x).__name__])


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_a_value_hashes_as_its_field_tuple(x):
    assert hash(x) == hash(_fields(x))
    assert x == type(x)(*_fields(x))


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_repr_names_each_field(x):
    name = type(x).__name__
    shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[name])
    assert repr(x) == f"{name}({shown})"


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_fields_cannot_be_assigned(x):
    before = _fields(x)
    for f in FIELDS[type(x).__name__]:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
    assert _fields(x) == before


@settings(max_examples=100, deadline=None)
@given(st.lists(_SLOPES, max_size=20), st.lists(_SLOTS, max_size=20))
def test_slopes_and_slots_sort_as_their_pairs(slopes, slots):
    assert [_fields(s) for s in sorted(slopes)] == sorted(map(_fields, slopes))
    assert [_fields(s) for s in sorted(slots)] == sorted(map(_fields, slots))


@settings(max_examples=100, deadline=None)
@given(_SLOPES, _SLOPES)
def test_slopes_compare_as_their_pairs(s, t):
    for x, y in ((s, t), (s, s), (s, make_slope(1, 0)), (make_slope(1, 0), s)):
        got = [x < y, x <= y, x > y, x >= y]
        u, v = _fields(x), _fields(y)
        assert got == [u < v, u <= v, u > v, u >= v], (x, y)


@settings(max_examples=200, deadline=None)
@given(_IDS, _IDS, _SLOPES, st.lists(_IDS, max_size=2).map(tuple))
def test_no_two_reference_kinds_compare_equal(a, b, slope, interior):
    refs = [PantsCurve(a), WindowCurve(a, slope), DualChain(a, b, interior)]
    for i, x in enumerate(refs):
        for y in refs[i + 1 :]:
            assert x != y and not x == y
    assert len(set(refs)) == 3


def test_a_vertex_map_repr_hides_its_surfaces():
    m = cut_and_glue(build_truncation("loch_ness", 3), "c2").map
    assert repr(m) == f"VertexMap(assoc={m.assoc!r}, provenance={m.provenance!r})"
    assert hash(m) == hash((m.source, m.target, m.assoc, m.provenance))
    with pytest.raises(AttributeError):
        m.source = m.target
