"""Local curve graphs, disjointness witnesses and handle-to-handle paths."""

import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import complexes, curves
from curvelab import (
    Curve,
    CurveClass,
    CurveLabError,
    DualChain,
    GluingGraph,
    InfiniteModel,
    NoRoom,
    PantsCurve,
    PantsSlot,
    Slope,
    UnknownCurve,
    Window,
    WindowCurve,
    build_finite_surface,
    build_truncation,
    classify_curve,
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
    window_intersection,
)

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


def test_local_graph_resolves_each_distinct_entry_once(monkeypatch):
    g = build_truncation("loch_ness", 4)
    resolve = complexes._resolve
    calls = []

    def counting(g, ref):
        calls.append(ref)
        return resolve(g, ref)

    monkeypatch.setattr(complexes, "_resolve", counting)
    local_graph(g, refs("pants:h1", "win:h1:1/0", "pants:h1", "win:h1:1/0"), "c")
    assert [format_ref(r) for r in calls] == ["pants:h1", "win:h1:1/0"]


def _counting_check(monkeypatch):
    """Record every reference the graph-table builder checks."""
    check = curves._check
    built = []

    def counting(g, ref):
        built.append(ref)
        return check(g, ref)

    monkeypatch.setattr(curves, "_check", counting)
    return built


def test_local_graph_fills_the_table_with_its_inventory():
    g = build_truncation("loch_ness", 10)
    inventory = curve_inventory(g, 3)
    local_graph(g, inventory, "g")
    assert len(g.ref_table) == len(set(inventory)) == 343
    assert set(g.ref_table) == set(inventory)


def test_repeated_intersection_builds_no_new_record(monkeypatch):
    g = build_truncation("loch_ness", 4)
    built = _counting_check(monkeypatch)
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


def test_witness_candidates_are_built_once_per_graph(monkeypatch):
    g = build_truncation("loch_ness", 6)
    built = _counting_check(monkeypatch)
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
    handles = [c.id for c in g.curves if len(c.ends) == 2 and len({e.pants for e in c.ends}) == 1]
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
# the resolve-once layer against the resolve-per-pair reference
#
# The references below are the definitions the cached code must agree with:
# a window examined afresh on every lookup, both references resolved again
# for every pair, an outside-the-window graph per window and adjacency
# lists rebuilt from the pants for every path.  None calls the library's
# resolver, so they check it rather than themselves.


def _reference_curve(g, curve_id):
    c = g.curve_by_id.get(curve_id)
    if c is None:
        raise UnknownCurve(f"no curve {curve_id!r} in this decomposition")
    if c.is_frontier:
        raise UnknownCurve(f"curve {curve_id!r} is a frontier curve")
    return c


def _reference_window(g, center_id):
    c = _reference_curve(g, center_id)
    if c.is_self_gluing:
        p = c.ends[0].pants
        third = ({0, 1, 2} - {c.ends[0].slot, c.ends[1].slot}).pop()
        cuffs = (PantsSlot(p, third),)
        support = (p,)
        kind = "torus"
    else:
        support = (c.ends[0].pants, c.ends[1].pants)
        for pid in support:
            for cid in dict.fromkeys(g.curves_at[pid]):
                other = g.curve_by_id[cid]
                if other.is_self_gluing:
                    raise UnknownCurve(
                        f"no sphere window around {center_id!r}: pants {pid!r} "
                        f"carries the self-gluing {cid!r}"
                    )
                if cid != center_id and not other.is_frontier and set(
                    g.pants_of_curve(cid)
                ) == set(support):
                    raise UnknownCurve(
                        f"no sphere window around {center_id!r}: {cid!r} also "
                        f"joins its two pants"
                    )
        cuffs = tuple(
            PantsSlot(end.pants, k) for end in c.ends for k in range(3) if k != end.slot
        )
        kind = "sphere"
    return Window(kind=kind, center=center_id, support=support, cuff_slots=cuffs)


def _reference_resolve(g, ref):
    """A reference validated condition by condition, in the documented
    order: the value ``resolve_ref`` returns, or the error it raises."""
    if isinstance(ref, PantsCurve):
        return _reference_curve(g, ref.id)
    if isinstance(ref, WindowCurve):
        if ref.slope == Slope(0, 1):
            raise UnknownCurve(f"slope 0/1 duplicates the center; use pants:{ref.center}")
        return _reference_window(g, ref.center)
    if isinstance(ref, DualChain):
        if ref.handle_a == ref.handle_b:
            raise UnknownCurve("a dual chain needs two distinct handles")
        for h in (ref.handle_a, ref.handle_b):
            if not _reference_curve(g, h).is_self_gluing:
                raise UnknownCurve(f"chain endpoint {h!r} is not a handle curve")
        path = ref.path
        if len(set(path)) != len(path):
            raise UnknownCurve(f"chain path {path} repeats a curve")
        for cid in ref.interior:
            _reference_curve(g, cid)
        for u, v in zip(path, path[1:]):
            if not set(g.pants_of_curve(u)) & set(g.pants_of_curve(v)):
                raise UnknownCurve(
                    f"chain path breaks between {u!r} and {v!r}: no common pants"
                )
        return path
    raise UnknownCurve(f"unsupported reference {ref!r}")


def _reference_support(g, ref):
    """The pants a resolved reference lives on."""
    if isinstance(ref, PantsCurve):
        return set(g.pants_of_curve(ref.id))
    if isinstance(ref, WindowCurve):
        return set(_reference_window(g, ref.center).support)
    out = set()
    for cid in ref.path:
        out.update(g.pants_of_curve(cid))
    return out


def _reference_intersection(g, c1, c2):
    _reference_resolve(g, c1)
    _reference_resolve(g, c2)
    rank = {PantsCurve: 0, WindowCurve: 1, DualChain: 2}
    if rank[type(c1)] > rank[type(c2)]:
        c1, c2 = c2, c1
    if isinstance(c2, PantsCurve):
        return 0
    if isinstance(c1, PantsCurve) and isinstance(c2, WindowCurve):
        w = _reference_window(g, c2.center)
        return w.scale * abs(c2.slope.p) if c1.id == c2.center else 0
    if isinstance(c1, PantsCurve):
        if c1.id in (c2.handle_a, c2.handle_b):
            return 1
        return 2 if c1.id in c2.interior else 0
    if isinstance(c1, WindowCurve) and isinstance(c2, WindowCurve):
        if c1.center == c2.center:
            w = _reference_window(g, c1.center)
            return window_intersection(w, c1.slope, c2.slope)
        if _reference_support(g, c1) & _reference_support(g, c2):
            return None
        return 0
    if c1 == c2:
        return 0
    return None if _reference_support(g, c1) & _reference_support(g, c2) else 0


_PARITY_PAIRINGS = {(0, 1): ((0, 1), (2, 3)), (1, 0): ((0, 2), (1, 3)), (1, 1): ((0, 3), (1, 2))}


def _cuff_labels(g, w, outside):
    """For each cuff of the window ``w``, the component label, among the
    pants outside the window, of the far side of the curve at the cuff, or
    None when no curve there reconnects: built once per window of ``g`` and
    kept in ``outside`` under its center."""
    labels = outside.get(w.center)
    if labels is None:
        graph = nx.Graph()
        support = set(w.support)
        graph.add_nodes_from(p for p in g.pants if p not in support)
        for c in g.curves:
            if len(c.ends) == 2:
                u, v = c.ends[0].pants, c.ends[1].pants
                if u not in support and v not in support:
                    graph.add_edge(u, v)
        comp_of = {}
        for idx, comp in enumerate(nx.connected_components(graph)):
            for p in comp:
                comp_of[p] = idx
        labels = outside[w.center] = []
        for cuff in w.cuff_slots:
            slot = (cuff.pants, cuff.slot)
            # the occupant is the last curve, in id order, with an end at the cuff
            occupants = [c for c in g.curves if slot in [(e.pants, e.slot) for e in c.ends]]
            if not occupants or occupants[-1].is_frontier:
                labels.append(None)
                continue
            other = next(e for e in occupants[-1].ends if (e.pants, e.slot) != slot)
            labels.append(comp_of[other.pants])
    return labels


def _reference_separates(g, w, s, outside):
    """Whether no path outside the window joins the two cuff groups of
    slope ``s``; ``outside`` holds the cuff labels per window of ``g``."""
    if w.kind == "torus":
        return False
    labels = _cuff_labels(g, w, outside)
    sides = [
        {labels[k] for k in group if labels[k] is not None}
        for group in _PARITY_PAIRINGS[(s.p % 2, s.q % 2)]
    ]
    return not (sides[0] & sides[1])


def _reference_nonseparating(g, ref, outside):
    if isinstance(ref, PantsCurve):
        return classify_curve(g, ref.id) is CurveClass.NONSEPARATING
    if isinstance(ref, WindowCurve):
        w = _reference_window(g, ref.center)
        return not _reference_separates(g, w, ref.slope, outside)
    return True


def _reference_local_graph(g, inventory, mode, outside):
    if mode not in ("c", "n", "g"):
        raise ValueError(f"mode must be one of c, n, g; got {mode!r}")
    seen = []
    for ref in inventory:
        _reference_resolve(g, ref)
        if ref not in seen:
            seen.append(ref)
    if mode in ("n", "g"):
        seen = [ref for ref in seen if _reference_nonseparating(g, ref, outside)]
    want = 0 if mode in ("c", "n") else 1
    edges, undefined = [], []
    for i, u in enumerate(seen):
        for v in seen[i + 1 :]:
            val = _reference_intersection(g, u, v)
            if val is None:
                undefined.append((u, v))
            elif val == want:
                edges.append((u, v))
    return tuple(seen), tuple(edges), tuple(undefined)


def _reference_witness(g, c1, c2):
    _reference_resolve(g, c1)
    _reference_resolve(g, c2)
    for c in g.curves:
        if c.is_frontier:
            continue
        cand = PantsCurve(c.id)
        if cand in (c1, c2):
            continue
        if _reference_intersection(g, cand, c1) == 0 and _reference_intersection(g, cand, c2) == 0:
            return cand
    raise NoRoom(
        f"no pants curve avoids both {format_ref(c1)} and {format_ref(c2)}; "
        "deepen the truncation"
    )


def _reference_adjacency(g):
    """Adjacency lists rebuilt from the pants, as ``schmutz_path`` once did
    on every call."""
    vertices = sorted(c.id for c in g.curves if not c.is_frontier)
    vertex_set = set(vertices)
    adj = {v: set() for v in vertices}
    for p in g.pants:
        here = sorted(set(g.curves_at[p]) & vertex_set)
        for i, u in enumerate(here):
            for v in here[i + 1 :]:
                adj[u].add(v)
                adj[v].add(u)
    return {v: sorted(nbrs) for v, nbrs in adj.items()}


def _reference_bfs(adj, start, goal):
    parent = {start: None}
    queue = [start]
    for u in queue:
        for v in adj.get(u, ()):
            if v not in parent:
                parent[v] = u
                if v == goal:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(v)
    return None


def _reference_schmutz_path(g, adj, h1, h2):
    """The path by its definition, over adjacency lists ``adj`` built by
    :func:`_reference_adjacency`."""
    for h in (h1, h2):
        if not _reference_resolve(g, h).is_self_gluing:
            raise UnknownCurve(f"curve {h.id!r} is not a handle curve")
    if h1 == h2:
        return [h1]
    third = next(
        (c.id for c in g.curves if c.is_self_gluing and c.id not in (h1.id, h2.id)), None
    )
    if third is None:
        raise NoRoom("no third handle curve available; deepen the truncation")
    legs = []
    for a, b in ((h1.id, third), (third, h2.id)):
        path = _reference_bfs(adj, a, b)
        if path is None:
            raise NoRoom(f"no chain path from {a!r} to {b!r} in the adjacency graph")
        legs.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    return [h1, legs[0], PantsCurve(third), legs[1], h2]


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message it raised."""
    try:
        return "ok", fn(*args)
    except (CurveLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _random_inventories(g, rng, windows, adj):
    """A valid inventory with repeats, and the invalid references to mix in:
    missing ids, frontier ids, centers spanning no window, broken chains.
    ``windows`` maps each ordinary curve id to its reference window outcome."""
    ordinary = [c.id for c in g.curves if not c.is_frontier]
    handles = [c.id for c in g.curves if c.is_self_gluing]
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
            path = _reference_bfs(adj, a, b)
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
        want = windows[cid] = _outcome(_reference_window, g, cid)
        assert _outcome(window_around, g, cid) == want, cid
        assert _outcome(window_around, g, cid) == want, cid
    raised = []
    for cid in [cid for cid, want in windows.items() if want[0] == "UnknownCurve"]:
        for _ in range(2):
            with pytest.raises(UnknownCurve) as exc:
                window_around(g, cid)
            raised.append(exc.value)
    assert len({id(e) for e in raised}) == len(raised)
    adj = _reference_adjacency(g)
    assert g.adjacency_graph.adjacency_lists == adj

    outside = {}
    spans = [want[1] for want in windows.values() if want[0] == "ok"]
    for w in rng.sample(spans, min(len(spans), 4)):
        for s in rng.sample([Slope(0, 1), Slope(1, 0), Slope(1, 1), Slope(3, 2)], 2):
            want = _reference_separates(g, w, s, outside)
            assert window_curve_separates(g, w, s) == want, (w, s)

    valid, invalid = _random_inventories(g, rng, windows, adj)
    for mode in "cng":
        got = _outcome(local_graph, g, valid, mode)
        if got[0] == "ok":
            got = "ok", (got[1].vertices, got[1].edges, got[1].undefined_pairs)
        assert got == _outcome(_reference_local_graph, g, valid, mode, outside), mode
        if invalid:
            mixed = list(valid)
            mixed.insert(rng.randint(0, len(mixed)), rng.choice(invalid))
            assert _outcome(local_graph, g, mixed, mode)[0] == "UnknownCurve"
            assert _outcome(local_graph, g, mixed, mode) == _outcome(
                _reference_local_graph, g, mixed, mode, outside
            )
    windowed = [r for r in g.ref_table.values() if isinstance(r.ref, WindowCurve)]
    assert len({id(r.found) for r in windowed}) == len({r.ref.center for r in windowed})
    pool = valid + invalid
    # failures the random inventories never draw, each checked for its message
    ordinary = [c.id for c in g.curves if not c.is_frontier]
    handles = [c.id for c in g.curves if c.is_self_gluing]
    unusual = [WindowCurve(cid, Slope(0, 1)) for cid in ordinary[:1]]
    unusual += [DualChain(h, h, ()) for h in handles[:1]]
    if len(handles) >= 2:
        unusual += [DualChain(handles[0], handles[1], (x, x)) for x in (ordinary[0], "zz")]
    for ref in pool + unusual:
        assert _outcome(resolve_ref, g, ref) == _outcome(_reference_resolve, g, ref), ref
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert _outcome(global_intersection, g, a, b) == _outcome(
            _reference_intersection, g, a, b
        ), (a, b)
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert _outcome(disjointness_witness, g, a, b) == _outcome(
            _reference_witness, g, a, b
        ), (a, b)
    ids = [c.id for c in g.curves if c.is_self_gluing] + [c.id for c in g.curves[:2]] + ["zz"]
    for _ in range(6):
        a, b = PantsCurve(rng.choice(ids)), PantsCurve(rng.choice(ids))
        assert _outcome(schmutz_path, g, a, b) == _outcome(_reference_schmutz_path, g, adj, a, b)


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
    yield from (build_truncation(m, depth) for m in InfiniteModel for depth in range(1, 5))
    yield from (build_finite_surface(genus, b) for genus, b in CENSUS)
    for seed in range(20):
        rng = random.Random(f"pairs-{seed}")
        yield random_gluing_graph(rng.randint(1, 30), rng)


def test_every_ordered_pair_matches_the_reference(monkeypatch):
    """``global_intersection`` in both orders against the reference, value
    or error, on every pair of the slope-bound-2 inventory and the invalid
    references.  The reference's lookups are memoized per graph, its rules
    are not: on a 2-core VM the test takes about 3 s, and 36 s with the
    lookups unmemoized."""
    module = sys.modules[__name__]
    names = ("_reference_resolve", "_reference_window", "_reference_support")
    originals = {name: getattr(module, name) for name in names}
    rng = random.Random("pairs")
    for g in _pair_graphs():
        for name in names:
            monkeypatch.setattr(module, name, _memoized(originals[name], g))
        ordinary = [c.id for c in g.curves if not c.is_frontier]
        windows = {cid: _outcome(_reference_window, g, cid) for cid in ordinary}
        _, invalid = _random_inventories(g, rng, windows, _reference_adjacency(g))
        valid = curve_inventory(g, 2)
        for i, a in enumerate(valid):
            for b in valid[i:]:
                want = _reference_intersection(g, a, b)
                assert global_intersection(g, a, b) == want, (a, b)
                assert global_intersection(g, b, a) == want, (b, a)
        for a in invalid:
            for b in valid + invalid:
                for pair in ((a, b), (b, a)):
                    assert _outcome(global_intersection, g, *pair) == _outcome(
                        _reference_intersection, g, *pair
                    ), pair


def _reference_window_centers(g, bound):
    """Window curves with coordinates up to ``bound`` at every curve
    admitting a window."""
    refs = []
    for c in g.curves:
        if c.is_frontier:
            continue
        try:
            _reference_window(g, c.id)
        except UnknownCurve:
            continue
        for s in slopes_up_to(bound):
            if (s.p, s.q) == (0, 1):
                continue
            refs.append(WindowCurve(c.id, s))
    return refs


def _reference_handle_chains(g):
    """One shortest dual chain per unordered handle pair."""
    handles = [c.id for c in g.curves if c.is_self_gluing]
    adj = _reference_adjacency(g)
    chains = []
    for i, a in enumerate(handles):
        for b in handles[i + 1 :]:
            path = _reference_bfs(adj, a, b)
            if path is not None:
                chains.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    return chains


def _check_inventory(g):
    pants = [PantsCurve(c.id) for c in g.curves if not c.is_frontier]
    chains = _reference_handle_chains(g)
    for bound in (1, 2, 3):
        want = pants + _reference_window_centers(g, bound) + chains
        assert curve_inventory(g, bound) == want, bound


CENSUS = [(genus, b) for genus in range(5) for b in range(6) if 3 * genus - 3 + b >= 1]


def test_curve_inventory_matches_the_reference_on_models_and_census():
    # Cantor trees stop at depth 7: the reference searches every handle
    # pair, and depth 12 has 4,095 handles
    for model in InfiniteModel:
        for depth in range(1, 8 if model is InfiniteModel.CANTOR_TREE else 9):
            _check_inventory(build_truncation(model, depth))
    for genus, b in CENSUS:
        _check_inventory(build_finite_surface(genus, b))


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
def test_local_graph_pairs_only_curves_whose_supports_meet(monkeypatch, mode):
    g = build_truncation("loch_ness", 10)
    inventory = curve_inventory(g, 3)
    pairing = complexes._pairing
    asked = []

    def counting(a, b):
        asked.append((a.ref, b.ref))
        return pairing(a, b)

    monkeypatch.setattr(complexes, "_pairing", counting)
    lg = local_graph(g, inventory, mode)
    support = {ref: _reference_support(g, ref) for ref in lg.vertices}
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
            want = _reference_local_graph(g, inventory, mode, {})
            assert (lg.vertices, lg.edges, lg.undefined_pairs) == want, (order, mode)
        rng.shuffle(inventory)


# ---------------------------------------------------------------------------
# the tables a graph keeps for paths and separation


def _handle_refs(g):
    return [PantsCurve(c.id) for c in g.curves if c.is_self_gluing]


def _check_every_leg(g, rng, sample=None):
    """``schmutz_path`` against the reference on every ordered handle pair
    (or a seeded sample of ``sample`` of them), first on the fresh graph
    and again, in another order, on the warm one."""
    handles = _handle_refs(g)
    pairs = [(a, b) for a in handles for b in handles]
    if sample is not None and len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    adj = _reference_adjacency(g)
    want = {pair: _outcome(_reference_schmutz_path, g, adj, *pair) for pair in pairs}
    assert "legs" not in g.adjacency_graph.__dict__
    for _ in ("fresh", "warm"):
        rng.shuffle(pairs)
        for pair in pairs:
            assert _outcome(schmutz_path, g, *pair) == want[pair], pair


LEG_CENSUS = [(genus, b) for genus in range(4) for b in range(5) if 3 * genus - 3 + b >= 1]


def test_every_leg_matches_the_reference_on_models_and_census():
    # Cantor trees of depth 7 and 8 have 127 and 255 handles, and the
    # reference searches twice per pair, so they check a sample of pairs
    rng = random.Random("legs")
    for model in InfiniteModel:
        for depth in range(1, 9):
            sample = 600 if model is InfiniteModel.CANTOR_TREE and depth > 6 else None
            _check_every_leg(build_truncation(model, depth), rng, sample)
    for genus, b in LEG_CENSUS:
        _check_every_leg(build_finite_surface(genus, b), rng)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_every_leg_matches_the_reference_on_random_graphs(n_pants, seed):
    rng = random.Random(seed)
    _check_every_leg(random_gluing_graph(n_pants, rng), rng)


def _counting_search(monkeypatch):
    """Record (start, goals) of every breadth-first search of complexes."""
    search = complexes.bfs_parents
    searched = []

    def counting(adj, start, goals):
        searched.append((start, tuple(goals)))
        return search(adj, start, goals)

    monkeypatch.setattr(complexes, "bfs_parents", counting)
    return searched


def _legs_asked(handles, pairs):
    """The legs the paths between ``pairs`` of distinct handle ids ask
    for, by the definition: from the first handle to the smallest handle
    outside the pair, and from there to the second."""
    legs = set()
    for a, b in pairs:
        third = next(h for h in handles if h not in (a, b))
        legs.update({(a, third), (third, b)})
    return legs


def test_each_leg_is_searched_once_per_graph(monkeypatch):
    searched = _counting_search(monkeypatch)
    runs = []
    for _ in range(2):
        g = build_truncation("loch_ness", 10)
        handles = [c.id for c in g.curves if c.is_self_gluing]
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


def test_a_missing_leg_is_kept_and_refused_alike(monkeypatch):
    # a handle block apart from the rest: the leg from h0 has no path
    searched = _counting_search(monkeypatch)
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
        outcome = _outcome(_reference_window, g, c.id)
        if outcome[0] == "ok" and outcome[1].kind == "sphere":
            windows.append(outcome[1])
    return windows


def _check_window_sides(g):
    """Every slope of every sphere window of ``g``, asked twice, against
    the reference; the answers of one parity class agree."""
    outside = {}
    slopes = slopes_up_to(5)
    for w in _sphere_windows(g):
        by_class = {}
        for s in slopes:
            want = _reference_separates(g, w, s, outside)
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


def test_each_window_class_is_searched_once_per_graph(monkeypatch):
    search = curves._groups_apart
    searched = []

    def counting(g, w, groups):
        searched.append((w.center, groups))
        return search(g, w, groups)

    monkeypatch.setattr(curves, "_groups_apart", counting)
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
