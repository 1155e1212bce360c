"""The stdlib graph routines against networkx as the oracle.

Every graph the library builds is a dict from each vertex to its sorted
neighbour list.  The search routines of ``curvelab._graph`` (the
depth-first ``lowpoints``, ``bfs_distances``, and ``bfs_parents`` with
``path_to``) must agree with networkx on bridges, cut vertices, component
sizes, single- and multi-source distances and shortest-path lengths: on
random simple graphs (isolated vertices and several components included),
on the pants and adjacency graphs of the three models, and on a Loch Ness
truncation long enough that a recursive search would overflow the
interpreter's stack.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    CurveClass,
    InfiniteModel,
    adjacency_graph,
    build_truncation,
    classify_all,
    cut_vertices,
    surface_end_tree,
)
from curvelab._graph import bfs_distances, bfs_parents, lowpoints, path_to


def _assert_shape(adj):
    for v, nbrs in adj.items():
        assert nbrs == sorted(set(nbrs)), v
        assert v not in nbrs, v
        for u in nbrs:
            assert v in adj[u], (v, u)


def _check_routines(adj, rng, n_sources=4):
    _assert_shape(adj)
    h = nx.Graph(adj)
    vertices = list(adj)

    bridges, cuts, sizes = lowpoints(adj)
    assert len(set(bridges)) == len(bridges)
    for u, v in bridges:
        assert v in adj[u]
    assert {frozenset(e) for e in bridges} == {frozenset(e) for e in nx.bridges(h)}
    assert cuts == set(nx.articulation_points(h))

    # one size per component, in order of the component's first vertex
    position = {v: i for i, v in enumerate(vertices)}
    parts = sorted(nx.connected_components(h), key=lambda c: min(map(position.get, c)))
    assert sizes == [len(c) for c in parts]

    if not vertices:
        assert bfs_distances(adj, []) == {}
        return
    for s in rng.sample(vertices, min(n_sources, len(vertices))):
        assert bfs_distances(adj, [s]) == nx.single_source_shortest_path_length(h, s)
    for k in range(min(n_sources, len(vertices)) + 1):
        sources = rng.sample(vertices, k)
        want = nx.multi_source_dijkstra_path_length(h, set(sources)) if sources else {}
        assert bfs_distances(adj, sources) == want
    for _ in range(n_sources):
        s, t = rng.choice(vertices), rng.choice(vertices)
        path = path_to(bfs_parents(adj, s, (t,)), t)
        if not nx.has_path(h, s, t):
            assert path is None
            continue
        assert path[0] == s and path[-1] == t
        assert len(path) - 1 == nx.shortest_path_length(h, s, t)
        assert all(b in adj[a] for a, b in zip(path, path[1:]))


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(0, 40))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    index = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    nbrs = {v: set() for v in names}
    for i, j in pairs:
        if i != j:
            nbrs[names[i]].add(names[j])
            nbrs[names[j]].add(names[i])
    return {v: sorted(vs) for v, vs in nbrs.items()}


@settings(max_examples=400, deadline=None)
@given(simple_graphs(), st.randoms(use_true_random=False))
def test_routines_match_networkx_on_random_graphs(adj, rng):
    _check_routines(adj, rng)


def test_routines_match_networkx_on_models():
    rng = random.Random(7)
    for model in InfiniteModel:
        for depth in range(1, 13):
            g = build_truncation(model, depth)
            _check_routines(g.pants_graph, rng)
            _check_routines(adjacency_graph(g).adjacency_lists, rng)


def test_routines_do_not_recurse_on_a_long_path():
    # about 4,000 pants in a path: a recursive search would need a stack
    # four times deeper than the interpreter allows
    g = build_truncation("loch_ness", 2000)
    rng = random.Random(11)
    _check_routines(g.pants_graph, rng)
    a = adjacency_graph(g)
    _check_routines(a.adjacency_lists, rng)
    non_outer = {c for c, k in classify_all(g).items() if k is CurveClass.NON_OUTER}
    assert len(non_outer) == 3998
    assert set(cut_vertices(a)) == non_outer
    assert surface_end_tree(g, 10).leaf_counts() == (1,) * 11
