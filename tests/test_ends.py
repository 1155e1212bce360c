"""End trees and the correspondence between curve ends and surface ends.

Expected component counts come from the shape of each model: the chain
surface keeps one live component at every radius, the two-armed ladder
splits into two from the first level on, and the binary tree doubles at
each level.
"""

import math
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    AdjacencyGraph,
    BijectionFailure,
    DepthExceedsTruncation,
    DepthMismatch,
    InfiniteModel,
    adjacency_graph,
    build_finite_surface,
    build_truncation,
    end_tree,
    end_trees_isomorphic,
    induced_end_correspondence,
    random_gluing_graph,
    surface_end_tree,
    validate,
)
from curvelab import ends
from curvelab._graph import neighbour_lists
from curvelab.ends import default_base
from curvelab.surface import Curve, GluingGraph, PantsSlot

# truncation depth that keeps the end tree of each model safe at query depth d
MARGIN = {
    "loch_ness": lambda d: 2 * d + 2,
    "ladder": lambda d: 2 * d + 2,
    "cantor_tree": lambda d: d + 2,
}

EXPECTED = {
    "loch_ness": lambda d: tuple(1 for _ in range(d + 1)),
    "ladder": lambda d: (1,) + tuple(2 for _ in range(d)),
    "cantor_tree": lambda d: tuple(2 ** k for k in range(d + 1)),
}


def _safe(model, depth):
    return build_truncation(model, MARGIN[model](depth))


def test_leaf_counts_match_the_models():
    for model in ("loch_ness", "ladder", "cantor_tree"):
        for d in (1, 2, 3, 4):
            g = _safe(model, d)
            pt = surface_end_tree(g, d)
            ct = end_tree(adjacency_graph(g), d)
            assert pt.leaf_counts() == EXPECTED[model](d), (model, d)
            assert ct.leaf_counts() == EXPECTED[model](d), (model, d)


def test_default_bases_are_deterministic():
    g = _safe("loch_ness", 2)
    assert surface_end_tree(g, 2).base == "hp0"
    assert end_tree(adjacency_graph(g), 2).base == "h0"
    g = _safe("cantor_tree", 2)
    assert surface_end_tree(g, 2).base == "hp"
    assert end_tree(adjacency_graph(g), 2).base == "h"


def test_curve_tree_matches_pants_tree():
    for model in ("loch_ness", "ladder", "cantor_tree"):
        for d in (1, 2, 3):
            g = _safe(model, d)
            ct = end_tree(adjacency_graph(g), d)
            pt = surface_end_tree(g, d)
            assert end_trees_isomorphic(ct, pt), (model, d)


def test_models_are_mutually_distinguished():
    for d in (1, 2, 3):
        trees = {
            m: surface_end_tree(_safe(m, d), d)
            for m in ("loch_ness", "ladder", "cantor_tree")
        }
        assert not end_trees_isomorphic(trees["loch_ness"], trees["ladder"])
        assert not end_trees_isomorphic(trees["loch_ness"], trees["cantor_tree"])
        # two ends and four grandchildren first differ at depth 2
        if d >= 2:
            assert not end_trees_isomorphic(trees["ladder"], trees["cantor_tree"])
        else:
            assert end_trees_isomorphic(trees["ladder"], trees["cantor_tree"])


def test_canonical_form_is_stable_under_deepening():
    # the same query depth on a deeper truncation gives the same tree
    for model in ("loch_ness", "ladder", "cantor_tree"):
        d = 2
        t1 = surface_end_tree(_safe(model, d), d)
        t2 = surface_end_tree(build_truncation(model, MARGIN[model](d) + 3), d)
        assert t1.canonical() == t2.canonical()
        assert end_trees_isomorphic(t1, t2)


def test_isomorphism_requires_equal_depth():
    g = _safe("loch_ness", 3)
    with pytest.raises(DepthMismatch):
        end_trees_isomorphic(surface_end_tree(g, 2), surface_end_tree(g, 3))


def test_depth_exceeding_truncation_is_refused():
    g = build_truncation("loch_ness", 3)
    with pytest.raises(DepthExceedsTruncation):
        surface_end_tree(g, 2)
    with pytest.raises(DepthExceedsTruncation):
        end_tree(adjacency_graph(g), 3)


def test_a_refused_query_keeps_nothing():
    g = build_truncation("loch_ness", 3)
    a = adjacency_graph(g)
    refused = [
        (surface_end_tree, g, 2, {}, DepthExceedsTruncation),
        (end_tree, a, 3, {}, DepthExceedsTruncation),
        (surface_end_tree, g, 1, {"stride": 0}, ValueError),
        (end_tree, a, 1, {"base": "nope"}, ValueError),
        (surface_end_tree, g, -1, {}, ValueError),
    ]
    for build, h, depth, options, error in refused:
        for _ in range(2):
            with pytest.raises(error):
                build(h, depth, **options)
    assert g.end_trees == {} and a.end_trees == {}


def test_each_query_keeps_its_own_tree():
    # depth, base and stride each make a query of its own: a key without
    # one of them would hand back the tree of another query
    g = build_truncation("loch_ness", 8)
    a = adjacency_graph(g)
    for build, h, lists, marks, base in (
        (surface_end_tree, g, g.pants_graph, g.frontier_pants, "hp1"),
        (end_tree, a, a.adjacency_lists, a.marks, "h1"),
    ):
        queries = [(2, None, 2), (3, None, 2), (2, base, 2), (2, None, 1), (2, base, 1)]
        trees = [build(h, d, base=b, stride=s) for d, b, s in queries]
        for (d, b, s), t in zip(queries, trees):
            assert t == ends._end_tree(lists, marks, d, b, s), (d, b, s)
            assert build(h, d, base=b, stride=s) is t, (d, b, s)
        assert len(h.end_trees) == len(queries)


def test_finite_surface_has_no_ends():
    g = build_finite_surface(2, 1)
    t = surface_end_tree(g, 2)
    assert t.leaf_counts() == (0, 0, 0)


def test_correspondence_on_all_models():
    for model in ("loch_ness", "ladder", "cantor_tree"):
        for d in (1, 2, 3):
            g = _safe(model, d)
            ct, pt, mapping = induced_end_correspondence(g, d)
            assert len(mapping) == d + 1
            for k, level_map in enumerate(mapping):
                assert sorted(level_map) == list(range(len(ct.levels[k])))
                assert sorted(level_map.values()) == list(range(len(pt.levels[k])))


def test_correspondence_respects_parents():
    g = _safe("cantor_tree", 3)
    ct, pt, mapping = induced_end_correspondence(g, 3)
    for k in range(1, 4):
        for i, node in enumerate(ct.levels[k]):
            assert pt.levels[k][mapping[k][i]].parent == mapping[k - 1][node.parent]


def test_correspondence_returns_the_default_trees():
    # verify_ends and the benchmark read both trees off the correspondence:
    # they must be the stride-2 trees from the default bases, at the same
    # truncation margins as verify_ends
    for model in InfiniteModel:
        for d in range(1, 7):
            g = _safe(model.value, d)
            ct, pt, _ = induced_end_correspondence(g, d)
            assert ct is end_tree(adjacency_graph(g), d), (model, d)
            assert pt is surface_end_tree(g, d), (model, d)
            a = adjacency_graph(g)
            assert ct == ends._end_tree(a.adjacency_lists, a.marks, d, None, 2)
            assert pt == ends._end_tree(g.pants_graph, g.frontier_pants, d, None, 2)


def test_correspondence_reuses_the_kept_trees(monkeypatch):
    searched = []
    search = ends._end_tree

    def counting(h, marks, depth, base, stride):
        searched.append((depth, base, stride))
        return search(h, marks, depth, base, stride)

    monkeypatch.setattr(ends, "_end_tree", counting)
    for model in InfiniteModel:
        g = _safe(model.value, 3)
        pt = surface_end_tree(g, 3)
        ct = end_tree(adjacency_graph(g), 3)
        assert searched == [(3, None, 2)] * 2, model
        got_ct, got_pt, _ = induced_end_correspondence(g, 3)
        assert searched == [(3, None, 2)] * 2, model
        assert got_ct is ct and got_pt is pt, model
        searched.clear()
        # the other way round: the correspondence searches, the calls reuse
        g = _safe(model.value, 3)
        ct, pt, _ = induced_end_correspondence(g, 3)
        assert end_tree(adjacency_graph(g), 3) is ct and surface_end_tree(g, 3) is pt
        assert searched == [(3, None, 2)] * 2, model
        searched.clear()


def test_explicit_base_changes_the_anchor():
    g = build_truncation("loch_ness", 8)
    t = surface_end_tree(g, 2, base="hp1")
    assert t.base == "hp1"
    # the chain surface still shows a single end from any safe anchor
    assert t.leaf_counts() == (1, 1, 1)


def test_correspondence_refuses_a_curve_component_meeting_two_pants_components():
    # a valid truncation whose default bases disagree: the ball around the
    # curve e3 leaves one curve component, the ball around the pants p1
    # splits the live pants into two, and the curves meet both
    g = GluingGraph(
        ["p0", "p1", "p2", "p3"],
        [
            Curve("e0", (PantsSlot("p0", 2), PantsSlot("p1", 2))),
            Curve("e1", (PantsSlot("p1", 0), PantsSlot("p2", 2))),
            Curve("e2", (PantsSlot("p0", 1), PantsSlot("p3", 1))),
            Curve("e3", (PantsSlot("p3", 0), PantsSlot("p3", 2))),
            Curve("e4", (PantsSlot("p1", 1), PantsSlot("p2", 1))),
            Curve("f0", (PantsSlot("p0", 0),)),
            Curve("f1", (PantsSlot("p2", 0),)),
        ],
    )
    assert validate(g) == ()
    ct, pt = end_tree(adjacency_graph(g), 0), surface_end_tree(g, 0)
    assert (ct.base, ct.leaf_counts()) == ("e3", (1,))
    assert (pt.base, pt.leaf_counts()) == ("p1", (2,))
    failure = (BijectionFailure, "level 0: curve component 0 meets 2 live pants components")
    assert _outcome(induced_end_correspondence, g, 0) == failure
    assert _outcome(_reference_mapping, g, ct, pt, 2) == failure


def test_closed_surface_end_tree_is_immediate():
    g = build_finite_surface(3, 0)
    start = time.perf_counter()
    t = surface_end_tree(g, 10**6)
    elapsed = time.perf_counter() - start
    assert set(t.leaf_counts()) == {0} and t.depth == 10**6
    assert t.base == min(g.pants)
    assert elapsed < 1.0, elapsed


def test_correspondence_scales_on_a_deep_ladder():
    # on a 2-core VM, walking every member on every level took 2.1 s at
    # this size; each incidence once plus a carry up the parent links
    # takes about 0.2 s
    g = build_truncation("ladder", 1602)
    start = time.perf_counter()
    ct, pt, mapping = induced_end_correspondence(g, 800)
    elapsed = time.perf_counter() - start
    assert ct.leaf_counts() == pt.leaf_counts() == (1,) + (2,) * 800
    assert [len(level_map) for level_map in mapping] == list(ct.leaf_counts())
    assert elapsed < 1.0, elapsed


def test_listing_every_level_scales():
    # a separate walk up the ancestors of every vertex on every level, the
    # O(n depth^2) way, took 0.45 s at half this size on a 2-core VM
    g = build_truncation("loch_ness", 802)
    t = surface_end_tree(g, 400)
    start = time.perf_counter()
    sizes = [len(m) for level in t.members for m in level]
    elapsed = time.perf_counter() - start
    assert len(sizes) == 401 and sizes[0] == len(g.pants) - 1
    assert sizes == sorted(sizes, reverse=True)
    assert elapsed < 1.0, elapsed
    # beside a closed surface holding the base, the Loch Ness part lies out
    # of reach on every level; listing each level by a walk up the parent
    # links of every deeper level took 4.6 s on a 2-core VM
    g = _beside(build_finite_surface(2, 0), build_truncation("loch_ness", 10))
    t = surface_end_tree(g, 4000, base="hp0")
    start = time.perf_counter()
    sizes = [len(m) for level in t.members for m in level]
    elapsed = time.perf_counter() - start
    assert sizes == [19] * 4001
    assert elapsed < 1.0, elapsed


def test_shape_and_correspondence_list_no_members(monkeypatch):
    # parents, levels, leaf counts, canonical strings, equality and the
    # correspondence read the compact form only
    g = _safe("cantor_tree", 3)
    t = surface_end_tree(g, 3)
    same = surface_end_tree(_safe("cantor_tree", 3), 3)  # an equal tree, not t

    def refuse(tree):
        raise AssertionError("members listed")

    monkeypatch.setattr(ends.EndTree, "members", property(refuse))
    assert [[node.parent for node in level] for level in t.levels] == [
        [None], [0, 0], [0, 0, 1, 1], [0, 0, 1, 1, 2, 2, 3, 3]
    ]
    assert t.parents == tuple(tuple(node.parent for node in level) for level in t.levels)
    assert t.leaf_counts() == (1, 2, 4, 8)
    assert t.canonical() == same.canonical()
    assert t is not same and t == same and t != surface_end_tree(g, 2)
    induced_end_correspondence(g, 3)
    with pytest.raises(AssertionError, match="members listed"):
        t.members


# ---------------------------------------------------------------------------
# reference definition: a fresh search and component split at every level


def _nx_of(a):
    """A networkx copy of an adjacency graph, built from its vertices and
    edges."""
    h = nx.Graph()
    h.add_nodes_from(a.vertices)
    h.add_edges_from(a.edges)
    return h


def _lists(h):
    """The library's graph shape (vertex -> sorted neighbours) of ``h``."""
    return {v: sorted(h.adj[v]) for v in h}


def _reference_default_base(h, marks):
    """The default base of the networkx graph ``h``: distances from the
    nearest mark by networkx's multi-source search, the farthest vertex
    first, a vertex no mark reaches counted as farthest of all, ties broken
    by name."""
    if not h:
        return None
    sources = {m for m in marks if m in h}
    dist = nx.multi_source_dijkstra_path_length(h, sources) if sources else {}
    return min(h.nodes, key=lambda v: (-dist.get(v, math.inf), v))


def _reference_end_tree(h, marks, depth, base, stride):
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    marks = set(m for m in marks if m in h)
    if base is None:
        base = _reference_default_base(h, marks)
    elif base not in h:
        raise ValueError(f"base {base!r} is not a vertex of this graph")
    if base is not None:
        reach = nx.single_source_shortest_path_length(h, base, cutoff=stride * depth)
        inner = [m for m in marks if reach.get(m, math.inf) <= stride * depth]
        if inner:
            raise DepthExceedsTruncation(
                f"frontier mark {min(inner)!r} lies within distance "
                f"{stride * depth} of base {base!r}; deepen the truncation"
            )
    levels = []
    prev_index = {}
    for k in range(depth + 1):
        ball = (
            set(nx.single_source_shortest_path_length(h, base, cutoff=stride * k))
            if base is not None
            else set()
        )
        outside = h.subgraph(v for v in h.nodes if v not in ball)
        nodes = sorted(
            (tuple(sorted(comp)), comp)
            for comp in nx.connected_components(outside)
            if comp & marks
        )
        built, index = [], {}
        for i, (members, comp) in enumerate(nodes):
            parent = prev_index[next(iter(comp))] if k > 0 else None
            built.append((members, parent))
            for v in comp:
                index[v] = i
        levels.append(tuple(built))
        prev_index = index
    return base, stride, tuple(levels)


def _normal_form(tree):
    """An end tree as ``(base, stride, levels)``, each level a tuple of
    ``(members, parent)`` pairs: the shape :func:`_reference_end_tree`
    returns."""
    return (
        tree.base,
        tree.stride,
        tuple(tuple(zip(ms, ps)) for ms, ps in zip(tree.members, tree.parents)),
    )


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, DepthExceedsTruncation, BijectionFailure) as exc:
        return type(exc), str(exc)


def _end_tree_of(h, marks, depth, stride, base=None):
    """The library's end tree of ``h``, in :func:`_normal_form`."""
    a = AdjacencyGraph(neighbour_lists(h.nodes, h.edges), tuple(marks))
    return _normal_form(end_tree(a, depth, base=base, stride=stride))


def _reference_mapping(g, ct, pt, stride):
    """Level maps of the correspondence between two end trees, with the
    pants inside each ball discarded by a fresh search at every level."""
    h = nx.Graph(g.pants_graph)
    mapping = []
    for k in range(len(pt.levels)):
        ball = set(nx.single_source_shortest_path_length(h, pt.base, cutoff=stride * k))
        live = {p: j for j, members in enumerate(pt.members[k]) for p in members}
        level_map = {}
        for i, members in enumerate(ct.members[k]):
            targets = {
                live[p]
                for v in members
                for p in g.pants_of_curve(v)
                if p not in ball and p in live
            }
            if len(targets) != 1:
                raise BijectionFailure(
                    f"level {k}: curve component {i} meets {len(targets)} live pants components"
                )
            level_map[i] = targets.pop()
        if sorted(level_map.values()) != list(range(len(pt.levels[k]))):
            raise BijectionFailure(
                f"level {k}: map over {len(ct.levels[k])} curve components is not a "
                f"bijection onto {len(pt.levels[k])} pants components"
            )
        for i, node in enumerate(ct.levels[k]):
            if k > 0 and mapping[k - 1][node.parent] != pt.levels[k][level_map[i]].parent:
                raise BijectionFailure(
                    f"level {k}: component {i} maps inconsistently with its parent"
                )
        mapping.append(level_map)
    return mapping


def test_end_trees_match_the_reference_on_models_and_census():
    # Cantor trees stop at depth 9 (about 1,500 pants): the reference's
    # search per level makes depths 10-12 cost over a minute together.
    for model in InfiniteModel:
        for d in range(1, 10 if model is InfiniteModel.CANTOR_TREE else 13):
            g = build_truncation(model, d)
            a = adjacency_graph(g)
            graphs = ((nx.Graph(g.pants_graph), g.frontier_pants), (_nx_of(a), a.marks))
            for stride in (1, 2, 3):
                # levels do not depend on the requested depth, so the deepest
                # depth the guard allows, and the first it refuses, cover all
                deepest = []
                for h, marks in graphs:
                    base = _reference_default_base(h, marks)
                    dist = nx.single_source_shortest_path_length(h, base)
                    q = (min(dist[m] for m in marks) - 1) // stride
                    deepest.append(q)
                    for depth in (q, q + 1):
                        if depth >= 0:
                            got = _outcome(_end_tree_of, h, marks, depth, stride)
                            want = _outcome(_reference_end_tree, h, set(marks), depth, None, stride)
                            assert got == want, (model, d, stride, depth)
                # the correspondence is a level bijection at stride 2 only;
                # _reference_mapping keeps its stride to reproduce the others
                if stride == 2 and min(deepest) >= 0:
                    q = min(deepest)
                    ct = end_tree(a, q)
                    pt = surface_end_tree(g, q)
                    got = _outcome(lambda: induced_end_correspondence(g, q)[2])
                    want = _outcome(_reference_mapping, g, ct, pt, stride)
                    assert got == want, (model, d)
    for genus in range(5):
        for b in range(6):
            if 3 * genus - 3 + b < 1:
                continue
            h = nx.Graph(build_finite_surface(genus, b).pants_graph)
            for depth in range(4):
                assert _end_tree_of(h, (), depth, 2) == _reference_end_tree(h, set(), depth, None, 2)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(0, 8),
    st.integers(1, 3),
)
def test_end_trees_match_the_reference_on_random_graphs(n_pants, seed, curves, depth, stride):
    rng = random.Random(seed)
    g = random_gluing_graph(n_pants, rng)
    h = _nx_of(adjacency_graph(g)) if curves else nx.Graph(g.pants_graph)
    nodes = sorted(h.nodes)
    marks = set(rng.sample(nodes, rng.randint(0, min(len(nodes), 4))))
    base = rng.choice([None, "nope", rng.choice(nodes)]) if nodes else None
    got = _outcome(_end_tree_of, h, marks, depth, stride, base)
    want = _outcome(_reference_end_tree, h, marks, depth, base, stride)
    assert got == want


def _with_frontier(g, rng):
    """``g`` with a random share of its boundary slots turned into frontier
    curves, so that it is a truncation with marks where they were."""
    slots = list(g.boundary)
    chosen = set(rng.sample(range(len(slots)), rng.randint(0, len(slots))))
    curves = list(g.curves) + [Curve(f"f{i}", (slots[i],)) for i in sorted(chosen)]
    return GluingGraph(g.pants, curves, [s for i, s in enumerate(slots) if i not in chosen])


def _beside(g, h):
    """The disjoint union of ``g`` and ``h``, with ``x`` before each id of
    ``h``."""
    moved = [Curve("x" + c.id, tuple(PantsSlot("x" + e.pants, e.slot) for e in c.ends)) for c in h.curves]
    return GluingGraph(
        g.pants + tuple("x" + p for p in h.pants),
        g.curves + tuple(moved),
        g.boundary + tuple(PantsSlot("x" + s.pants, s.slot) for s in h.boundary),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.booleans(),
)
def test_default_base_matches_the_reference(n_pants, n_apart, seed, n_marks, curves):
    # marks anywhere, none at all, or only on the first of two surfaces
    # side by side, where the second one's vertices are unreached and
    # farthest; a mark that is no vertex is ignored
    rng = random.Random(seed)
    g = random_gluing_graph(n_pants, rng)
    if n_apart:
        g = _beside(g, random_gluing_graph(n_apart, rng))
    h = _nx_of(adjacency_graph(g)) if curves else nx.Graph(g.pants_graph)
    nodes = sorted(h.nodes)
    if rng.random() < 0.5:
        nodes = [v for v in nodes if not v.startswith("x")]
    marks = set(rng.sample(nodes, min(len(nodes), n_marks)))
    if rng.random() < 0.5:
        marks.add("nope")
    assert default_base(_lists(h), marks) == _reference_default_base(h, marks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_correspondence_matches_the_reference_on_random_truncations(n_pants, n_apart, seed, depth):
    # the trees it returns against the reference trees, and its mapping
    # against the per-level reference on those trees.  A second surface
    # beside the first (n_apart pants) puts components out of the base's
    # reach: they enter at the deepest level, and only the carry up the
    # parent links brings their targets to the levels above.
    rng = random.Random(seed)
    g = _with_frontier(random_gluing_graph(n_pants, rng), rng)
    if n_apart:
        g = _beside(g, _with_frontier(random_gluing_graph(n_apart, rng), rng))
    a = adjacency_graph(g)

    def library():
        ct, pt, mapping = induced_end_correspondence(g, depth)
        return _normal_form(ct), _normal_form(pt), mapping

    def reference():
        ct = _reference_end_tree(_nx_of(a), set(a.marks), depth, None, 2)
        pt = _reference_end_tree(nx.Graph(g.pants_graph), set(g.frontier_pants), depth, None, 2)
        return ct, pt, _reference_mapping(g, end_tree(a, depth), surface_end_tree(g, depth), 2)

    assert _outcome(library) == _outcome(reference)
