"""Acceptance suite: eight desk-scale checks, one printed line each.

Every test prints a single PASS or FAIL summary line (visible even under
pytest's output capture) before asserting, so a full run reads as a
checklist.  The checks are exact; the only tolerances are the stated
wall-clock budgets.
"""

import itertools
import random
import time

import oracle
from curvelab import (
    CurveClass,
    InfiniteModel,
    PantsCurve,
    WindowCurve,
    abstract_window,
    adjacency_graph,
    build_finite_surface,
    build_truncation,
    check_superinjective,
    classify_curve,
    cut_and_glue,
    cut_vertices,
    disjointness_witness,
    dt_uniqueness_check,
    end_tree,
    end_trees_isomorphic,
    format_ref,
    global_intersection,
    induced_end_correspondence,
    is_triple,
    make_slope,
    random_gluing_graph,
    resolve_ref,
    schmutz_path,
    sch04_common_neighbors,
    signature,
    slopes_up_to,
    surface_end_tree,
    surfaces_homeomorphic,
    triple_completion,
    twist,
    validate,
    window_around,
    window_intersection,
)

SEED = 20260814
TORUS = abstract_window("torus")
SPHERE = abstract_window("sphere")


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, detail


def non_outer_set(g):
    return {
        c.id
        for c in g.curves
        if not c.is_frontier
        and classify_curve(g, c.id) is CurveClass.NON_OUTER
    }


def test_1_cut_vertices_match_the_classification(capsys):
    start = time.perf_counter()
    graphs = [
        build_truncation(model, depth)
        for model in InfiniteModel
        for depth in range(1, 6)
    ]
    rng = random.Random(SEED)
    graphs += [random_gluing_graph(rng.randint(2, 40), rng) for _ in range(200)]
    mismatches = 0
    for g in graphs:
        if set(cut_vertices(adjacency_graph(g))) != non_outer_set(g):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(
        capsys,
        "1/8 cut vertices",
        ok,
        f"{len(graphs)} graphs, {mismatches} mismatches, {elapsed:.2f}s (budget 10s)",
    )


def test_2_end_trees_correspond(capsys):
    start = time.perf_counter()
    cases = {
        InfiniteModel.LOCH_NESS: (14, lambda d: 1),
        InfiniteModel.LADDER: (14, lambda d: 2),
        InfiniteModel.CANTOR_TREE: (8, lambda d: 2 ** d),
    }
    checked = 0
    for model, (trunc, expect) in cases.items():
        g = build_truncation(model, trunc)
        a = adjacency_graph(g)
        for depth in range(1, 7):
            pants_tree = surface_end_tree(g, depth)
            curve_tree = end_tree(a, depth)
            assert end_trees_isomorphic(pants_tree, curve_tree), (model, depth)
            assert pants_tree.leaf_counts()[-1] == expect(depth), (model, depth)
            assert curve_tree.leaf_counts()[-1] == expect(depth), (model, depth)
            induced_end_correspondence(g, depth)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 18 and elapsed < 5.0
    report(
        capsys,
        "2/8 end correspondence",
        ok,
        f"3 models at depths 1-6, leaf counts exact, {elapsed:.2f}s (budget 5s)",
    )


def test_3_triple_additivity_exhaustive(capsys):
    start = time.perf_counter()
    a = make_slope(0, 1)
    checked = 0
    failures = 0
    for b in slopes_up_to(50):
        total = window_intersection(TORUS, a, b)
        if total < 2:
            continue
        checked += 1
        g, g2 = triple_completion(TORUS, a, b)
        ig = window_intersection(TORUS, g, b)
        ig2 = window_intersection(TORUS, g2, b)
        if not (is_triple(TORUS, a, g, g2) and ig + ig2 == total and ig > 0 and ig2 > 0):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked > 0 and elapsed < 10.0
    report(
        capsys,
        "3/8 triple additivity",
        ok,
        f"{checked} slopes, {failures} failures, {elapsed:.2f}s (budget 10s)",
    )


def test_4_two_crossing_neighbor_count(capsys):
    start = time.perf_counter()
    slopes = slopes_up_to(20)
    checked = 0
    anomalies = 0
    for i, a in enumerate(slopes):
        for b in slopes[i + 1 :]:
            if window_intersection(SPHERE, a, b) != 2:
                continue
            checked += 1
            box = oracle.box_common_neighbors(a, b, 100)
            if len(box) != 2 or sch04_common_neighbors(SPHERE, a, b) != box:
                anomalies += 1
    elapsed = time.perf_counter() - start
    ok = anomalies == 0 and checked > 0
    report(
        capsys,
        "4/8 two-crossing neighbors",
        ok,
        f"{checked} sphere pairs, {anomalies} anomalies, {elapsed:.2f}s",
    )


def test_5_twist_invariance_and_coordinate_uniqueness(capsys):
    start = time.perf_counter()
    slopes = slopes_up_to(10)
    collisions = 0
    checked = 0
    for along in (make_slope(0, 1), make_slope(1, 0)):
        for x in slopes:
            for y in slopes:
                base = window_intersection(TORUS, x, y)
                tx, ty = x, y
                for _ in range(5):
                    tx = twist(TORUS, along, tx)
                    ty = twist(TORUS, along, ty)
                    checked += 1
                    if window_intersection(TORUS, tx, ty) != base:
                        collisions += 1
    unique = dt_uniqueness_check(TORUS, 20) is None and dt_uniqueness_check(SPHERE, 20) is None
    elapsed = time.perf_counter() - start
    ok = collisions == 0 and unique
    report(
        capsys,
        "5/8 twist invariance",
        ok,
        f"{checked} twisted pairs, {collisions} changed, "
        f"coordinate vectors unique to bound 20, {elapsed:.2f}s",
    )


def _sampling_pool(g):
    pool = [PantsCurve(c.id) for c in g.curves if not c.is_frontier]
    for c in g.curves:
        if c.is_frontier:
            continue
        try:
            window_around(g, c.id)
        except Exception:
            continue
        for s in slopes_up_to(2):
            if s != make_slope(0, 1):
                pool.append(WindowCurve(c.id, s))
    return pool


def test_6_witnesses_and_short_paths(capsys):
    start = time.perf_counter()
    g = build_truncation("loch_ness", 5)
    pool = _sampling_pool(g)
    handles = [c.id for c in g.curves if c.is_self_gluing]
    rng = random.Random(SEED)
    bad = 0
    for _ in range(100):
        c1, c2 = rng.choice(pool), rng.choice(pool)
        w = disjointness_witness(g, c1, c2)
        if (
            w in (c1, c2)
            or global_intersection(g, w, c1) != 0
            or global_intersection(g, w, c2) != 0
        ):
            bad += 1
    for _ in range(50):
        h1, h2 = PantsCurve(rng.choice(handles)), PantsCurve(rng.choice(handles))
        path = schmutz_path(g, h1, h2)
        if len(path) - 1 > 4:
            bad += 1
            continue
        for a, b in zip(path, path[1:]):
            if global_intersection(g, a, b) != 1:
                bad += 1
                break
    elapsed = time.perf_counter() - start
    ok = bad == 0
    report(
        capsys,
        "6/8 distance witnesses",
        ok,
        f"100 witness pairs and 50 handle paths, {bad} failures, {elapsed:.2f}s",
    )


def _defined_pairs(m, count, rng):
    domain = sorted(m.domain, key=format_ref)
    pairs = []
    draws = 0
    while len(pairs) < count:
        draws += 1
        assert draws < 100 * count, "not enough defined pairs in the domain"
        a, b = rng.choice(domain), rng.choice(domain)
        if a == b:
            continue
        if global_intersection(m.source, a, b) is None:
            continue
        if global_intersection(m.target, m.apply(a), m.apply(b)) is None:
            continue
        pairs.append((a, b))
    return pairs


def test_7_superinjective_non_surjective_maps(capsys):
    start = time.perf_counter()
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    rng = random.Random(SEED)
    rep = check_superinjective(res.map, _defined_pairs(res.map, 500, rng))
    audited = 0
    image = {res.map.apply(r) for r in res.map.domain}
    for w in res.witnesses:
        resolve_ref(res.target, w)
        if w not in image:
            audited += 1
    gadget_map = cut_and_glue(g, "c2", gadget="ladder").map
    gadget_rep = check_superinjective(
        gadget_map, _defined_pairs(gadget_map, 200, rng)
    )
    distinct = not surfaces_homeomorphic(g, gadget_map.target, 1)
    elapsed = time.perf_counter() - start
    ok = (
        rep["checked"] == 500
        and rep["violations"] == []
        and audited >= 3
        and distinct
        and gadget_rep["violations"] == []
    )
    report(
        capsys,
        "7/8 cut-and-glue maps",
        ok,
        f"500 defined pairs, {len(rep['violations'])} violations, "
        f"{audited} audited witnesses, end-changing gadget gives "
        f"non-homeomorphic target with a clean report, {elapsed:.2f}s",
    )


def test_8_finite_census(capsys):
    start = time.perf_counter()
    wrong = 0
    surfaces = 0
    for g, b in itertools.product(range(7), range(7)):
        if 3 * g - 3 + b < 1:
            continue
        surfaces += 1
        s = build_finite_surface(g, b)
        sig = signature(s)
        if (
            validate(s) != ()
            or (sig.genus, sig.boundary) != (g, b)
            or len(s.curves) != 3 * g - 3 + b
            or len(s.pants) != 2 * g - 2 + b
        ):
            wrong += 1
    elapsed = time.perf_counter() - start
    ok = wrong == 0 and surfaces == 44
    report(
        capsys,
        "8/8 finite census",
        ok,
        f"{surfaces} surfaces with curve and pants counts exact, {elapsed:.2f}s",
    )
