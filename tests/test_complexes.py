"""Local curve graphs, disjointness witnesses and handle-to-handle paths."""

import random
import sys
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from curvelab import complexes, curves
from curvelab import (
    Curve,
    CurveLabError,
    DualChain,
    GluingGraph,
    InfiniteModel,
    NoRoom,
    PantsCurve,
    PantsSlot,
    Slope,
    UnknownCurve,
    WindowCurve,
    build_finite_surface,
    build_truncation,
    curve_inventory,
    disjointness_witness,
    format_ref,
    global_intersection,
    local_graph,
    parse_ref,
    random_gluing_graph,
    resolve_ref,
    schmutz_path,
    slopes_up_to,
    window_around,
    window_curve_separates,
)
from inputs import CENSUS, census, truncation

# the value of a call, or the type and message of the library error it raised
_outcome = partial(oracle.outcome, (CurveLabError, ValueError))

DECOMPOSITION = ("c1", "c2", "c3", "t1", "t2", "t3", "h0", "h1", "h2", "h3")


def refs(*texts):
    return [parse_ref(t) for t in texts]


def fmt_pairs(pairs):
    return {(format_ref(a), format_ref(b)) for a, b in pairs}


def test_decomposition_curves_form_a_complete_disjointness_graph():
    g = build_truncation("loch_ness", 4)
    inventory = refs(*(f"pants:{c}" for c in DECOMPOSITION))
    lg = local_graph(g, inventory, "c")
    assert lg.relation == "disjointness"
    assert len(lg.vertices) == 10
    assert len(lg.edges) == 45
    assert lg.undefined_pairs == ()


def test_modes_on_a_mixed_inventory():
    g = build_truncation("loch_ness", 4)
    inventory = refs("pants:h0", "pants:h1", "win:h0:1/0", "chain:h0:h1:c1,t1")
    for mode in ("c", "n"):
        lg = local_graph(g, inventory, mode)
        assert len(lg.vertices) == 4
        assert fmt_pairs(lg.edges) == {
            ("pants:h0", "pants:h1"),
            ("pants:h1", "win:h0:1/0"),
        }
        assert fmt_pairs(lg.undefined_pairs) == {
            ("win:h0:1/0", "chain:h0:h1:c1,t1")
        }
    lg = local_graph(g, inventory, "g")
    assert lg.relation == "unit_intersection"
    assert fmt_pairs(lg.edges) == {
        ("pants:h0", "win:h0:1/0"),
        ("pants:h0", "chain:h0:h1:c1,t1"),
        ("pants:h1", "chain:h0:h1:c1,t1"),
    }


def test_restricted_modes_drop_separating_curves():
    g = build_truncation("loch_ness", 4)
    # the window curve at c2 with slope 1/1 separates, h0 does not
    inventory = refs("pants:h0", "win:c2:1/1")
    assert len(local_graph(g, inventory, "c").vertices) == 2
    for mode in ("n", "g"):
        lg = local_graph(g, inventory, mode)
        assert [format_ref(v) for v in lg.vertices] == ["pants:h0"]


def test_inventory_is_deduplicated_in_order():
    g = build_truncation("loch_ness", 4)
    inventory = refs("pants:h1", "pants:h0", "pants:h1")
    lg = local_graph(g, inventory, "c")
    assert [format_ref(v) for v in lg.vertices] == ["pants:h1", "pants:h0"]


def test_local_graph_resolves_each_distinct_entry_once(record_calls):
    g = build_truncation("loch_ness", 4)
    calls = record_calls(complexes, "_resolve", lambda g, ref: ref)
    local_graph(g, refs("pants:h1", "win:h1:1/0", "pants:h1", "win:h1:1/0"), "c")
    assert [format_ref(r) for r in calls] == ["pants:h1", "win:h1:1/0"]


def test_local_graph_fills_the_table_with_its_inventory():
    g = build_truncation("loch_ness", 10)
    inventory = curve_inventory(g, 3)
    local_graph(g, inventory, "g")
    assert len(g.ref_table) == len(set(inventory)) == 343
    assert set(g.ref_table) == set(inventory)


def test_repeated_intersection_builds_no_new_record(record_calls):
    g = build_truncation("loch_ness", 4)
    built = record_calls(curves, "_check", lambda g, ref: ref)
    a, b = parse_ref("win:h1:1/2"), parse_ref("chain:h0:h2:c1,c2,t2")
    first = global_intersection(g, a, b)
    assert built == [a, b]
    assert global_intersection(g, a, b) == first
    assert global_intersection(g, b, parse_ref("win:h1:1/2")) == first
    assert built == [a, b]


def test_window_curves_of_a_center_share_one_window():
    g = build_truncation("loch_ness", 10)
    local_graph(g, curve_inventory(g, 3), "c")
    windowed = [r for r in g.ref_table.values() if isinstance(r.ref, WindowCurve)]
    assert len(windowed) == 270
    assert len({id(r.found) for r in windowed}) == len({r.ref.center for r in windowed}) == 18


def test_each_window_center_is_searched_once():
    # the inventory finds each center through the record its window curves
    # share, so local_graph searches no center again; the profile hook
    # counts calls by code object, whatever name a module calls it by
    g = build_truncation("loch_ness", 10)
    centers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is window_around.__code__:
            centers.append(frame.f_locals["center_id"])

    sys.setprofile(profile)
    try:
        local_graph(g, curve_inventory(g, 3), "c")
    finally:
        sys.setprofile(None)
    assert centers == [c.id for c in g.curves if not c.is_frontier]
    assert len(centers) == 28


def test_a_failing_reference_is_not_kept():
    g = build_truncation("loch_ness", 4)
    bad = parse_ref("win:c1:1/1")
    details = []
    for _ in range(2):
        with pytest.raises(UnknownCurve) as exc:
            global_intersection(g, parse_ref("pants:h0"), bad)
        details.append(str(exc.value))
        assert bad not in g.ref_table
    assert details[0] == details[1]
    assert PantsCurve("h0") in g.ref_table


def test_witness_candidates_are_built_once_per_graph(record_calls):
    g = build_truncation("loch_ness", 6)
    built = record_calls(curves, "_check", lambda g, ref: ref)
    a, b = parse_ref("chain:h0:h5:c1,c2,c3,c4,c5,t5"), parse_ref("win:h1:1/1")
    # the scan passes c1-c5, h0 and h1, which meet a or b, to reach h2
    for _ in range(3):
        assert disjointness_witness(g, a, b) == PantsCurve("h2")
        assert disjointness_witness(g, b, a) == PantsCurve("h2")
    scanned = ("c1", "c2", "c3", "c4", "c5", "h0", "h1", "h2")
    assert built == [a, b] + [PantsCurve(cid) for cid in scanned]


def test_local_graph_validates_references():
    g = build_truncation("loch_ness", 4)
    with pytest.raises(UnknownCurve):
        local_graph(g, refs("pants:zz"), "c")
    with pytest.raises(UnknownCurve):
        local_graph(g, refs("win:c1:1/1"), "c")
    with pytest.raises(ValueError):
        local_graph(g, refs("pants:h0"), "q")


def test_disjointness_witness_examples():
    g = build_truncation("loch_ness", 4)
    w = disjointness_witness(g, parse_ref("pants:h0"), parse_ref("pants:h1"))
    assert format_ref(w) == "pants:c1"
    for ref in ("pants:h0", "pants:h1"):
        assert global_intersection(g, w, parse_ref(ref)) == 0
    # the witness avoids the inputs even when they come first in id order
    w = disjointness_witness(g, parse_ref("pants:c1"), parse_ref("pants:c2"))
    assert format_ref(w) == "pants:c3"


def test_disjointness_witness_for_window_curves():
    g = build_truncation("loch_ness", 4)
    a = parse_ref("win:h0:1/1")
    b = parse_ref("win:h1:1/2")
    w = disjointness_witness(g, a, b)
    assert global_intersection(g, w, a) == 0
    assert global_intersection(g, w, b) == 0


def test_disjointness_witness_needs_room():
    s12 = build_finite_surface(1, 2)
    with pytest.raises(NoRoom):
        disjointness_witness(s12, parse_ref("pants:a"), parse_ref("pants:b"))


def test_schmutz_path_between_far_handles():
    g = build_truncation("loch_ness", 4)
    path = schmutz_path(g, PantsCurve("h0"), PantsCurve("h3"))
    assert [format_ref(r) for r in path] == [
        "pants:h0",
        "chain:h0:h1:c1,t1",
        "pants:h1",
        "chain:h1:h3:t1,c2,c3,t3",
        "pants:h3",
    ]
    # consecutive members meet exactly once, so the path has length four
    for a, b in zip(path, path[1:]):
        assert global_intersection(g, a, b) == 1


def test_schmutz_path_alternates_types():
    g = build_truncation("ladder", 3)
    handles = oracle.handles(g)
    path = schmutz_path(g, PantsCurve(handles[0]), PantsCurve(handles[-1]))
    assert len(path) == 5
    assert all(isinstance(r, PantsCurve) for r in path[::2])
    assert all(isinstance(r, DualChain) for r in path[1::2])
    for a, b in zip(path, path[1:]):
        assert global_intersection(g, a, b) == 1


def test_schmutz_path_trivial_and_failing_cases():
    g = build_truncation("loch_ness", 4)
    assert schmutz_path(g, PantsCurve("h1"), PantsCurve("h1")) == [PantsCurve("h1")]
    with pytest.raises(UnknownCurve):
        schmutz_path(g, PantsCurve("c1"), PantsCurve("h1"))
    with pytest.raises(UnknownCurve):
        schmutz_path(g, PantsCurve("h0"), PantsCurve("zz"))
    with pytest.raises(UnknownCurve) as exc:
        schmutz_path(g, PantsCurve("h0"), parse_ref("win:h1:1/1"))
    assert str(exc.value) == "win:h1:1/1 is not a pants curve reference"
    # a closed genus two surface has no third handle to route through
    s20 = build_finite_surface(2, 0)
    with pytest.raises(NoRoom):
        schmutz_path(s20, PantsCurve("h0"), PantsCurve("h1"))


# ---------------------------------------------------------------------------
# the resolve-once layer against the resolve-per-pair references of the
# oracle, which examine a window afresh on every lookup, resolve both
# references again for every pair and search each window's outside anew


def _random_inventories(g, rng, windows, adj):
    """A valid inventory with repeats, and the invalid references to mix in:
    missing ids, frontier ids, centers spanning no window, broken chains.
    ``windows`` maps each ordinary curve id to its reference window outcome."""
    ordinary = [c.id for c in g.curves if not c.is_frontier]
    handles = oracle.handles(g)
    centers = [cid for cid in ordinary if windows[cid][0] == "ok"]
    windowless = [cid for cid in ordinary if windows[cid][0] != "ok"]
    slopes = [s for s in slopes_up_to(3) if s != Slope(0, 1)]
    valid = [PantsCurve(rng.choice(ordinary)) for _ in range(rng.randint(0, 8) if ordinary else 0)]
    if centers:
        valid += [
            WindowCurve(rng.choice(centers), rng.choice(slopes))
            for _ in range(rng.randint(0, 14))
        ]
    if len(handles) >= 2:
        for _ in range(rng.randint(0, 5)):
            a, b = rng.sample(handles, 2)
            path = oracle.bfs_path(adj, a, b)
            if path is not None:
                valid.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    valid += [rng.choice(valid) for _ in range(rng.randint(0, 3))] if valid else []
    rng.shuffle(valid)
    invalid = [PantsCurve("zz"), WindowCurve("zz", Slope(1, 1))]
    invalid += [PantsCurve(f) for f in g.frontier[:1]]
    invalid += [WindowCurve(f, Slope(1, 0)) for f in g.frontier[:1]]
    invalid += [WindowCurve(cid, rng.choice(slopes)) for cid in windowless[:2]]
    if handles and len(ordinary) > len(handles):
        other = next(cid for cid in ordinary if cid not in handles)
        invalid.append(DualChain(handles[0], other, ()))
    if len(handles) >= 2:
        invalid.append(DualChain(handles[0], handles[1], ("zz",)))
    return valid, invalid


def _check_against_reference(g, rng):
    # every window lookup twice, first on a cold table; a repeated failure
    # raises a fresh exception
    windows = {}
    for cid in [c.id for c in g.curves] + ["zz"]:
        want = windows[cid] = _outcome(oracle.window, g, cid)
        assert _outcome(window_around, g, cid) == want, cid
        assert _outcome(window_around, g, cid) == want, cid
    raised = []
    for cid in [cid for cid, want in windows.items() if want[0] == "UnknownCurve"]:
        for _ in range(2):
            with pytest.raises(UnknownCurve) as exc:
                window_around(g, cid)
            raised.append(exc.value)
    assert len({id(e) for e in raised}) == len(raised)
    adj = oracle.adjacency(g).adjacency_lists
    assert g.adjacency_graph.adjacency_lists == adj

    memo = {}
    spans = [want[1] for want in windows.values() if want[0] == "ok"]
    for w in rng.sample(spans, min(len(spans), 4)):
        for s in rng.sample([Slope(0, 1), Slope(1, 0), Slope(1, 1), Slope(3, 2)], 2):
            want = oracle.separates(g, w, s, memo)
            assert window_curve_separates(g, w, s) == want, (w, s)

    valid, invalid = _random_inventories(g, rng, windows, adj)
    for mode in "cng":
        got = _outcome(local_graph, g, valid, mode)
        if got[0] == "ok":
            got = "ok", (got[1].vertices, got[1].edges, got[1].undefined_pairs)
        assert got == _outcome(oracle.local_graph, g, valid, mode, memo), mode
        if invalid:
            mixed = list(valid)
            mixed.insert(rng.randint(0, len(mixed)), rng.choice(invalid))
            assert _outcome(local_graph, g, mixed, mode)[0] == "UnknownCurve"
            assert _outcome(local_graph, g, mixed, mode) == _outcome(
                oracle.local_graph, g, mixed, mode, memo
            )
    windowed = [r for r in g.ref_table.values() if isinstance(r.ref, WindowCurve)]
    assert len({id(r.found) for r in windowed}) == len({r.ref.center for r in windowed})
    pool = valid + invalid
    # failures the random inventories never draw, each checked for its message
    ordinary = [c.id for c in g.curves if not c.is_frontier]
    handles = oracle.handles(g)
    unusual = [WindowCurve(cid, Slope(0, 1)) for cid in ordinary[:1]]
    unusual += [DualChain(h, h, ()) for h in handles[:1]]
    if len(handles) >= 2:
        unusual += [DualChain(handles[0], handles[1], (x, x)) for x in (ordinary[0], "zz")]
    for ref in pool + unusual:
        assert _outcome(resolve_ref, g, ref) == _outcome(oracle.resolve, g, ref), ref
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert _outcome(global_intersection, g, a, b) == _outcome(
            oracle.intersection, g, a, b
        ), (a, b)
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert _outcome(disjointness_witness, g, a, b) == _outcome(
            oracle.witness, g, a, b
        ), (a, b)
    ids = [*handles, *(c.id for c in g.curves[:2]), "zz"]
    for _ in range(6):
        a, b = PantsCurve(rng.choice(ids)), PantsCurve(rng.choice(ids))
        want = _outcome(oracle.schmutz_path, g, adj, handles, a, b)
        assert _outcome(schmutz_path, g, a, b) == want


@pytest.mark.parametrize("model", list(InfiniteModel))
def test_resolve_once_matches_the_reference_on_models(model):
    rng = random.Random(f"{model.value}-oracle")
    for depth in range(1, 13):
        _check_against_reference(build_truncation(model, depth), rng)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_resolve_once_matches_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    g = random_gluing_graph(n_pants, rng)
    _check_inventory(g)
    _check_against_reference(g, rng)


def _memoized(fn, g):
    """``fn(g, key)`` computed once per key object, raising a fresh
    UnknownCurve with the same message on every ask of a failing key.
    Keyed by identity, since the pool's references are asked again and
    again; the memo keeps each key alive, so no identity is reused."""
    memo = {}

    def cached(graph, key):
        got = memo.get(id(key))
        if got is None:
            assert graph is g
            try:
                got = key, None, fn(g, key)
            except UnknownCurve as exc:
                got = key, str(exc), None
            memo[id(key)] = got
        if got[1] is not None:
            raise UnknownCurve(got[1])
        return got[2]

    return cached


def _pair_graphs():
    yield from (truncation(m, depth) for m in InfiniteModel for depth in range(1, 5))
    yield from census()
    for seed in range(20):
        rng = random.Random(f"pairs-{seed}")
        yield random_gluing_graph(rng.randint(1, 30), rng)


def test_every_ordered_pair_matches_the_reference(monkeypatch):
    """``global_intersection`` in both orders against the reference, value
    or error, on every pair of the slope-bound-2 inventory and the invalid
    references.  The reference's lookups are memoized per graph, its rules
    are not: on a 2-core VM the test takes about 3 s, and 36 s with the
    lookups unmemoized."""
    names = ("resolve", "window", "support")
    originals = {name: getattr(oracle, name) for name in names}
    rng = random.Random("pairs")
    for g in _pair_graphs():
        for name in names:
            monkeypatch.setattr(oracle, name, _memoized(originals[name], g))
        ordinary = [c.id for c in g.curves if not c.is_frontier]
        windows = {cid: _outcome(oracle.window, g, cid) for cid in ordinary}
        _, invalid = _random_inventories(g, rng, windows, oracle.adjacency(g).adjacency_lists)
        valid = curve_inventory(g, 2)
        for i, a in enumerate(valid):
            for b in valid[i:]:
                want = oracle.intersection(g, a, b)
                assert global_intersection(g, a, b) == want, (a, b)
                assert global_intersection(g, b, a) == want, (b, a)
        for a in invalid:
            for b in valid + invalid:
                for pair in ((a, b), (b, a)):
                    assert _outcome(global_intersection, g, *pair) == _outcome(
                        oracle.intersection, g, *pair
                    ), pair


def _check_inventory(g):
    """The standard inventory: the pants curves, the window curves up to the
    bound, then the handle chains."""
    pants = [PantsCurve(c.id) for c in g.curves if not c.is_frontier]
    chains = oracle.handle_chains(g)
    for bound in (1, 2, 3):
        want = pants + oracle.window_curves(g, bound) + chains
        assert curve_inventory(g, bound) == want, bound


def test_curve_inventory_matches_the_reference_on_models_and_census():
    # Cantor trees stop at depth 7: the reference searches every handle
    # pair, and depth 12 has 4,095 handles
    for model in InfiniteModel:
        for depth in range(1, 8 if model is InfiniteModel.CANTOR_TREE else 9):
            _check_inventory(truncation(model, depth))
    for g in census():
        _check_inventory(g)


def test_curve_inventory_stays_fast_with_many_handles():
    # one search per handle pair took about 7.7 s here
    g = build_truncation("cantor_tree", 8)
    start = time.perf_counter()
    inventory = curve_inventory(g, 1)
    elapsed = time.perf_counter() - start
    handles = sum(c.is_self_gluing for c in g.curves)
    assert handles == 255
    assert sum(isinstance(r, DualChain) for r in inventory) == handles * (handles - 1) // 2
    assert elapsed < 2.0, elapsed


def test_local_graph_stays_fast_on_a_large_inventory():
    # the resolve-per-pair reference took about 4.6 s here
    g = build_truncation("loch_ness", 10)
    inventory = curve_inventory(g, 3)
    assert len(inventory) == 343
    start = time.perf_counter()
    lg = local_graph(g, inventory, "c")
    elapsed = time.perf_counter() - start
    assert len(lg.vertices) == 343
    assert elapsed < 1.5, elapsed


def test_disjoint_supports_pair_to_zero_on_models():
    for model in InfiniteModel:
        for depth in range(1, 5):
            _assert_disjoint_supports_pair_to_zero(build_truncation(model, depth))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_disjoint_supports_pair_to_zero(n_pants, seed):
    _assert_disjoint_supports_pair_to_zero(random_gluing_graph(n_pants, random.Random(seed)))


def _assert_disjoint_supports_pair_to_zero(g):
    """Every rule of the table gives 0 on two references whose supports are
    disjoint: the invariant that lets local_graph skip such pairs."""
    records = [curves._resolve(g, ref) for ref in curve_inventory(g, 2)]
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            if not a.support & b.support:
                assert curves._pairing(a, b) == curves._pairing(b, a) == 0, (a.ref, b.ref)


@pytest.mark.parametrize("mode", "cng")
def test_local_graph_pairs_only_curves_whose_supports_meet(record_calls, mode):
    g = build_truncation("loch_ness", 10)
    inventory = curve_inventory(g, 3)
    asked = record_calls(complexes, "_pairing", lambda a, b: (a.ref, b.ref))
    lg = local_graph(g, inventory, mode)
    support = {ref: oracle.support(g, ref) for ref in lg.vertices}
    pairs = [(u, v) for i, u in enumerate(lg.vertices) for v in lg.vertices[i + 1 :]]
    meeting = [(u, v) for u, v in pairs if support[u] & support[v]]
    assert asked == meeting
    if mode == "c":
        assert (len(pairs), len(meeting)) == (58653, 10343)


def _far_apart_inventory(g):
    """Window curves on far-apart centers of Loch Ness depth 8 in blocks,
    with pants curves, chains at both ends and repeats between them: long
    runs of pairs whose supports are disjoint, and meeting pairs at the
    start, middle and end of the inventory."""
    slopes = [s for s in slopes_up_to(2) if s != Slope(0, 1)]
    blocks = [
        [WindowCurve("h0", s) for s in slopes],
        refs("pants:h3"),
        [WindowCurve("c6", s) for s in slopes],
        refs("chain:h0:h1:c1,t1", "pants:c4"),
        [WindowCurve("h7", s) for s in slopes],
        [WindowCurve("c2", s) for s in slopes],
        refs("pants:t5", "win:h0:1/1", "chain:h6:h7:t6,c7,t7", "pants:h3", "pants:h7"),
    ]
    return [ref for block in blocks for ref in block]


def test_local_graph_matches_the_reference_across_disjoint_runs():
    g = build_truncation("loch_ness", 8)
    inventory = _far_apart_inventory(g)
    rng = random.Random("far-apart")
    for order in range(4):
        for mode in "cng":
            lg = local_graph(g, inventory, mode)
            want = oracle.local_graph(g, inventory, mode, {})
            assert (lg.vertices, lg.edges, lg.undefined_pairs) == want, (order, mode)
        rng.shuffle(inventory)


# ---------------------------------------------------------------------------
# the tables a graph keeps for paths and separation


def _check_every_leg(g, rng, sample=None):
    """``schmutz_path`` against the reference on every ordered handle pair
    (or a seeded sample of ``sample`` of them), first on the fresh graph
    and again, in another order, on the warm one."""
    ids = oracle.handles(g)
    handles = [PantsCurve(h) for h in ids]
    pairs = [(a, b) for a in handles for b in handles]
    if sample is not None and len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    adj = oracle.adjacency(g).adjacency_lists
    want = {pair: _outcome(oracle.schmutz_path, g, adj, ids, *pair) for pair in pairs}
    assert "legs" not in g.adjacency_graph.__dict__
    for _ in ("fresh", "warm"):
        rng.shuffle(pairs)
        for pair in pairs:
            assert _outcome(schmutz_path, g, *pair) == want[pair], pair


def test_every_leg_matches_the_reference_on_models_and_census():
    # Cantor trees of depth 7 and 8 have 127 and 255 handles, and the
    # reference searches twice per pair, so they check a sample of pairs
    rng = random.Random("legs")
    for model in InfiniteModel:
        for depth in range(1, 9):
            sample = 600 if model is InfiniteModel.CANTOR_TREE and depth > 6 else None
            _check_every_leg(build_truncation(model, depth), rng, sample)
    for genus, b in CENSUS:
        if genus < 4 and b < 5:
            _check_every_leg(build_finite_surface(genus, b), rng)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_every_leg_matches_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    _check_every_leg(random_gluing_graph(n_pants, rng), rng)


def _record_searches(record_calls):
    """(start, goals) of every breadth-first search of complexes."""
    return record_calls(complexes, "bfs_parents", lambda adj, start, goals: (start, tuple(goals)))


def _legs_asked(handles, pairs):
    """The legs the paths between ``pairs`` of distinct handle ids ask
    for, by the definition: from the first handle to the smallest handle
    outside the pair, and from there to the second."""
    legs = set()
    for a, b in pairs:
        third = next(h for h in handles if h not in (a, b))
        legs.update({(a, third), (third, b)})
    return legs


def test_each_leg_is_searched_once_per_graph(record_calls):
    searched = _record_searches(record_calls)
    runs = []
    for _ in range(2):
        g = build_truncation("loch_ness", 10)
        handles = oracle.handles(g)
        pairs = [(a, b) for a in handles for b in handles if a != b]
        searched.clear()
        for _ in range(3):
            for a, b in pairs:
                schmutz_path(g, PantsCurve(a), PantsCurve(b))
        legs = _legs_asked(handles, pairs)
        assert sorted(searched) == sorted((a, (b,)) for a, b in legs)
        assert set(g.adjacency_graph.legs) == legs
        runs.append(sorted(searched))
    # a new graph keeps its own table and searches again
    assert runs[0] == runs[1]
    assert len(runs[0]) == 34


def test_a_missing_leg_is_kept_and_refused_alike(record_calls):
    # a handle block apart from the rest: the leg from h0 has no path
    searched = _record_searches(record_calls)
    g = GluingGraph(
        ("hp0", "hp1", "hp2"),
        [
            Curve("h0", (PantsSlot("hp0", 1), PantsSlot("hp0", 2))),
            Curve("h1", (PantsSlot("hp1", 1), PantsSlot("hp1", 2))),
            Curve("h2", (PantsSlot("hp2", 1), PantsSlot("hp2", 2))),
            Curve("c", (PantsSlot("hp1", 0), PantsSlot("hp2", 0))),
        ],
        [PantsSlot("hp0", 0)],
    )
    details = []
    for _ in range(2):
        with pytest.raises(NoRoom) as exc:
            schmutz_path(g, PantsCurve("h0"), PantsCurve("h2"))
        details.append(str(exc.value))
    assert details == ["no chain path from 'h0' to 'h1' in the adjacency graph"] * 2
    assert g.adjacency_graph.legs == {("h0", "h1"): None}
    assert searched == [("h0", ("h1",))]


def _sphere_windows(g):
    """The reference window of every curve of ``g`` spanning a sphere
    window."""
    windows = []
    for c in g.curves:
        outcome = _outcome(oracle.window, g, c.id)
        if outcome[0] == "ok" and outcome[1].kind == "sphere":
            windows.append(outcome[1])
    return windows


def _check_window_sides(g):
    """Every slope of every sphere window of ``g``, asked twice, against
    the reference; the answers of one parity class agree."""
    memo = {}
    slopes = slopes_up_to(5)
    for w in _sphere_windows(g):
        by_class = {}
        for s in slopes:
            want = oracle.separates(g, w, s, memo)
            assert window_curve_separates(g, w, s) == want, (w.center, s)
            assert window_curve_separates(g, w, s) == want, (w.center, s)
            by_class.setdefault((s.p % 2, s.q % 2), set()).add(want)
        assert all(len(answers) == 1 for answers in by_class.values()), w.center
    assert len(g.window_sides) == 3 * len(_sphere_windows(g))


def test_window_sides_match_the_reference_on_models_and_census():
    for model in InfiniteModel:
        for depth in range(1, 9 if model is InfiniteModel.CANTOR_TREE else 13):
            _check_window_sides(build_truncation(model, depth))
    for genus, b in CENSUS:
        _check_window_sides(build_finite_surface(genus, b))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_window_sides_match_the_reference_on_random_graphs(n_pants, seed):
    _check_window_sides(random_gluing_graph(n_pants, random.Random(seed)))


def test_each_window_class_is_searched_once_per_graph(record_calls):
    searched = record_calls(curves, "_groups_apart", lambda g, w, groups: (w.center, groups))
    runs = []
    for _ in range(2):
        g = build_truncation("loch_ness", 10)
        inventory = curve_inventory(g, 3)
        searched.clear()
        for mode in "ngng":
            local_graph(g, inventory, mode)
        for w in _sphere_windows(g):
            for s in slopes_up_to(5):
                window_curve_separates(g, w, s)
        # 8 sphere windows, three parity classes each
        assert len(searched) == len(set(searched)) == len(g.window_sides) == 24
        runs.append(searched[:])
    assert runs[0] == runs[1]
