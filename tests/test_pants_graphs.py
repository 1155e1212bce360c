"""Adjacency graphs, curve classification, and the cut-point equivalence.

The classification oracle cases below were worked out on paper from the
gluing tables: a curve is nonseparating exactly when cutting it leaves
the pants multigraph connected, outer separating when one side is a
single pants with no further gluings, and non-outer separating otherwise.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from curvelab import (
    AdjacencyGraph,
    CurveClass,
    DisconnectedGraph,
    InfiniteModel,
    adjacency_graph,
    build_finite_surface,
    build_truncation,
    classify_all,
    classify_curve,
    cut_vertices,
    dumps_surface,
    random_gluing_graph,
    validate,
)
from curvelab import surface
from inputs import census, truncation, with_frontier

N = CurveClass.NONSEPARATING
O = CurveClass.OUTER
X = CurveClass.NON_OUTER


def test_adjacency_graph_of_small_chain():
    g = build_truncation("loch_ness", 2)
    a = adjacency_graph(g)
    assert a.vertices == ("c1", "h0", "h1", "t1")
    assert set(a.edges) == {("c1", "h0"), ("c1", "t1"), ("h1", "t1")}
    assert a.marks == ("c1", "t1")


def test_adjacency_graph_shares_the_cached_lists():
    for model in InfiniteModel:
        g = build_truncation(model, 3)
        assert adjacency_graph(g) is g.adjacency_graph
        assert g.adjacency_graph.adjacency_lists == oracle.adjacency(g).adjacency_lists


def test_adjacency_graph_is_built_once_per_graph():
    for model in InfiniteModel:
        g = build_truncation(model, 3)
        a = adjacency_graph(g)
        assert adjacency_graph(g) is a
        # an equal graph has its own
        twin = build_truncation(model, 3)
        assert adjacency_graph(twin) == a and adjacency_graph(twin) is not a


def test_adjacency_excludes_frontier():
    g = build_truncation("cantor_tree", 2)
    a = adjacency_graph(g)
    assert "c00" not in a.vertices
    assert "s0" in a.marks and "s1" in a.marks


def test_classification_oracle_cases():
    cases = {
        ("loch_ness", 4): {
            "h0": N, "h1": N, "h2": N, "h3": N,
            "c1": X, "c2": X, "c3": X, "t1": X, "t2": X, "t3": X,
        },
        ("cantor_tree", 1): {"t": O, "h": N},
        ("cantor_tree", 2): {
            "t": X, "h": N, "c0": X, "c1": X,
            "t0": X, "t1": X, "h0": N, "h1": N, "s0": O, "s1": O,
        },
        ("ladder", 2): {
            "t0": X, "h0": N, "cl1": X, "cr1": X,
            "tl1": X, "tr1": X, "hl1": N, "hr1": N,
        },
    }
    for (model, depth), expected in cases.items():
        g = build_truncation(model, depth)
        assert classify_all(g) == expected, (model, depth)


def test_classification_of_finite_surfaces():
    assert classify_all(build_finite_surface(0, 4)) == {"s1": O}
    assert classify_all(build_finite_surface(0, 5)) == {"s1": O, "s2": O}
    assert classify_all(build_finite_surface(1, 2)) == {"a": N, "b": N}
    assert classify_all(build_finite_surface(2, 0)) == {"c1": X, "h0": N, "h1": N}


REFERENCE_MODELS = [(model, depth) for model in InfiniteModel for depth in range(1, 13)]


def test_bridge_pass_matches_the_reference_on_models_and_census():
    for g in [truncation(m, d) for m, d in REFERENCE_MODELS] + census():
        _check_classes(g)


def _check_classes(g):
    """``classify_all`` against the oracle, in curve order, and each
    ``classify_curve`` against ``classify_all``."""
    classes = classify_all(g)
    assert classes == oracle.classes(g), g.pants[:3]
    assert list(classes) == [c.id for c in g.curves if not c.is_frontier]
    assert {cid: classify_curve(g, cid) for cid in classes} == classes


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_bridge_pass_matches_the_reference_on_random_graphs(n_pants, seed):
    # the random graphs have no frontier; the frontier side of the outer
    # rule, and the marks of A(P), are checked on a copy with some boundary
    # turned into frontier
    rng = random.Random(seed)
    g = random_gluing_graph(n_pants, rng)
    for h in (g, with_frontier(g, rng)):
        assert validate(h) == ()
        _check_classes(h)
        assert h.adjacency_graph == oracle.adjacency(h)
        assert h.handles == oracle.handles(h)


def test_classification_stays_linear_at_scale():
    # the per-curve reference took about 12.5 s and 20.7 s on these
    for model, depth in (("loch_ness", 800), ("cantor_tree", 9)):
        g = build_truncation(model, depth)
        start = time.perf_counter()
        classes = classify_all(g)
        elapsed = time.perf_counter() - start
        assert len(classes) == sum(not c.is_frontier for c in g.curves)
        assert elapsed < 2.0, (model, depth, elapsed)


def test_validate_and_classify_all_search_the_pants_graph_once(record_calls):
    searched = record_calls(surface, "lowpoints", lambda adj: adj)
    for model in InfiniteModel:
        g = build_truncation(model, 4)
        assert validate(g) == ()
        assert searched == [g.pants_graph], model  # the connectivity check
        classify_all(g)
        assert searched == [g.pants_graph], model
        searched.clear()


def test_parallel_curves_are_nonseparating():
    # two curves joining the same two pants form a cycle in the multigraph
    g = build_finite_surface(1, 2)
    assert classify_curve(g, "a") is N
    assert classify_curve(g, "b") is N


def test_cut_points_are_exactly_non_outer():
    graphs = [build_truncation(m, d) for m in InfiniteModel for d in (1, 2, 3, 4)]
    graphs += [build_finite_surface(g, b) for g, b in [(0, 5), (1, 2), (2, 0), (3, 1), (2, 4)]]
    rng = random.Random(99)
    graphs += [random_gluing_graph(rng.randint(2, 25), rng) for _ in range(30)]
    for g in graphs:
        assert validate(g) == ()
        cuts = set(cut_vertices(adjacency_graph(g)))
        non_outer = {cid for cid, cls in classify_all(g).items() if cls is X}
        assert cuts == non_outer


def test_cut_vertices_requires_connected():
    # three components, met in the order of sizes 3, 1, 2 and named sorted
    lists = {"x": ["y"], "y": ["x", "z"], "z": ["y"], "u": [], "v": ["w"], "w": ["v"]}
    a = AdjacencyGraph(lists, marks=())
    with pytest.raises(DisconnectedGraph) as exc:
        cut_vertices(a)
    assert str(exc.value) == "adjacency graph has components of sizes [1, 2, 3]"


def test_degree_bounds_hold():
    # a curve of A(P) meets at most two others on each of its two pants; an
    # outer separating curve has a bare pants on one side
    graphs = [build_truncation(model, 3) for model in InfiniteModel]
    rng = random.Random(3)
    graphs += [random_gluing_graph(rng.randint(2, 20), rng) for _ in range(10)]
    for g in graphs:
        lists = g.adjacency_graph.adjacency_lists
        assert all(len(nbrs) <= 4 for nbrs in lists.values())
        outer = [cid for cid, cls in classify_all(g).items() if cls is O]
        assert all(len(lists[cid]) <= 2 for cid in outer)


def test_random_graphs_match_the_reference_anchor_rule():
    for n_pants in (1, 2, 3, 5, 10, 40, 80):
        for seed in range(300):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = dumps_surface(random_gluing_graph(n_pants, rng))
            want = dumps_surface(oracle.random_gluing_graph(n_pants, ref_rng))
            assert got == want, (n_pants, seed)
            assert rng.random() == ref_rng.random(), (n_pants, seed)


def test_random_graphs_are_valid_and_deterministic():
    g1 = random_gluing_graph(12, random.Random(5))
    g2 = random_gluing_graph(12, random.Random(5))
    assert g1 == g2
    assert validate(g1) == ()
    with pytest.raises(ValueError) as exc:
        random_gluing_graph(0, random.Random(5))
    assert str(exc.value) == "need at least one pants"
