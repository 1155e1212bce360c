"""Vertex maps, superinjectivity checks and the cut-and-glue construction."""

import random

import pytest

from curvelab import (
    CutGlueResult,
    DualChain,
    GadgetTooSmall,
    NotSeparating,
    PantsCurve,
    UnknownCurve,
    VertexMap,
    WindowCurve,
    build_finite_surface,
    build_truncation,
    check_superinjective,
    curve_inventory,
    cut_and_glue,
    format_ref,
    global_intersection,
    make_slope,
    parse_ref,
    random_gluing_graph,
    resolve_ref,
    run_suite,
    surfaces_homeomorphic,
    validate,
)
from curvelab import verify
from curvelab.morphisms import GADGETS


def identity_map(g, ids):
    assoc = tuple((PantsCurve(i), PantsCurve(i)) for i in ids)
    return VertexMap(g, g, assoc)


# --- vertex maps -------------------------------------------------------------


def test_vertex_map_apply_and_domain():
    g = build_truncation("loch_ness", 3)
    m = identity_map(g, ("c1", "c2", "h0"))
    assert m.apply(PantsCurve("c2")) == PantsCurve("c2")
    assert set(m.domain) == {PantsCurve("c1"), PantsCurve("c2"), PantsCurve("h0")}
    with pytest.raises(UnknownCurve):
        m.apply(PantsCurve("h1"))


def test_vertex_map_requires_injectivity():
    g = build_truncation("loch_ness", 3)
    assoc = ((PantsCurve("c1"), PantsCurve("h0")), (PantsCurve("c2"), PantsCurve("h0")))
    with pytest.raises(ValueError):
        VertexMap(g, g, assoc)
    repeated = ((PantsCurve("c1"), PantsCurve("h0")), (PantsCurve("c1"), PantsCurve("h1")))
    with pytest.raises(ValueError):
        VertexMap(g, g, repeated)


def test_identity_is_superinjective():
    g = build_truncation("loch_ness", 4)
    ids = ("c1", "c2", "c3", "h0", "h1", "h2")
    m = identity_map(g, ids)
    pairs = [(PantsCurve(a), PantsCurve(b)) for a in ids for b in ids if a < b]
    report = check_superinjective(m, pairs)
    assert report["checked"] == len(pairs)
    assert report["violations"] == []
    assert report["skipped"] == []


def test_superinjectivity_violation_is_detected():
    g = build_truncation("loch_ness", 4)
    # send c1 onto a curve crossing the image of h0
    assoc = (
        (PantsCurve("h0"), PantsCurve("h0")),
        (PantsCurve("c1"), WindowCurve("h0", make_slope(1, 0))),
    )
    m = VertexMap(g, g, assoc)
    report = check_superinjective(m, [(PantsCurve("c1"), PantsCurve("h0"))])
    assert len(report["violations"]) == 1
    v = report["violations"][0]
    assert v["source_intersection"] == 0
    assert v["target_intersection"] == 1


def test_superinjectivity_check_skips_undefined_pairs():
    g = build_truncation("loch_ness", 5)
    # both windows survive untouched, but their intersection is undefined
    a = WindowCurve("c2", make_slope(1, 0))
    b = WindowCurve("c3", make_slope(1, 1))
    m = VertexMap(g, g, ((a, a), (b, b)))
    report = check_superinjective(m, [(a, b)])
    assert report["checked"] == 0
    assert len(report["skipped"]) == 1


def _reference_check_superinjective(m, pairs):
    """The per-pair definition: both intersection numbers from
    global_intersection, which resolves both references every time."""
    checked = 0
    violations = []
    skipped = []
    for x, y in pairs:
        i_src = global_intersection(m.source, x, y)
        i_tgt = global_intersection(m.target, m.apply(x), m.apply(y))
        if i_src is None or i_tgt is None:
            skipped.append((format_ref(x), format_ref(y)))
            continue
        checked += 1
        if (i_src == 0) != (i_tgt == 0):
            violations.append(
                {
                    "pair": [format_ref(x), format_ref(y)],
                    "source_intersection": i_src,
                    "target_intersection": i_tgt,
                }
            )
    return {"checked": checked, "violations": violations, "skipped": skipped}


def _check_outcome(check, m, pairs):
    try:
        return check(m, pairs)
    except UnknownCurve as exc:
        return type(exc), str(exc)


def test_resolve_once_check_matches_the_reference():
    g = build_truncation("loch_ness", 10)
    rng = random.Random(5)
    maps = [cut_and_glue(g, "c5", gadget=gadget).map for gadget in ("ladder", "s12")]
    # a scrambled map has violations and skipped pairs on both sides
    m = maps[0]
    images = [img for _, img in m.assoc]
    rng.shuffle(images)
    maps.append(VertexMap(m.source, m.target, tuple(zip(m.domain, images))))
    for m in maps:
        domain = m.domain
        pairs = [(rng.choice(domain), rng.choice(domain)) for _ in range(1500)]
        want = _reference_check_superinjective(m, pairs)
        assert check_superinjective(m, pairs) == want
    assert want["violations"] and want["skipped"]


def test_resolve_once_check_fails_like_the_reference():
    g = build_truncation("loch_ness", 4)
    h0, h1, c1, zz = (PantsCurve(i) for i in ("h0", "h1", "c1", "zz"))
    m = VertexMap(g, g, ((c1, c1), (h0, zz), (zz, h1)))
    cases = [
        [(c1, c1), (c1, h1)],  # h1 is outside the domain
        [(c1, c1), (c1, h0)],  # the image zz does not resolve on the target
        [(h0, h1)],  # the image zz fails later than h1 leaves the domain
        [(c1, zz)],  # zz does not resolve on the source
        [(PantsCurve("nope"), zz)],  # the first failing reference is reported
    ]
    for pairs in cases:
        want = _check_outcome(_reference_check_superinjective, m, pairs)
        assert isinstance(want, tuple), pairs
        assert _check_outcome(check_superinjective, m, pairs) == want, pairs


# --- cut and glue ------------------------------------------------------------


def test_cut_and_glue_s12_shape():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    assert validate(res.target) == ()
    assert len(res.target.pants) == len(g.pants) + 2
    assert len(res.target.curves) == len(g.curves) + 3
    assert set(res.target.pants) - set(g.pants) == {"gp0", "gp1"}
    new = {c.id for c in res.target.curves} - {c.id for c in g.curves}
    assert new == {"gc", "gh", "gs"}
    assert res.map.provenance == "cut at 'c2', glue s12"


def test_cut_and_glue_adds_one_handle():
    from curvelab import signature

    g = build_finite_surface(3, 1)
    res = cut_and_glue(g, "c1", gadget="s12")
    sig = signature(res.target)
    assert (sig.genus, sig.boundary) == (4, 1)


def test_cut_and_glue_reroutes_chains_through_the_seam():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    moved = {
        format_ref(src): format_ref(dst)
        for src, dst in res.map.assoc
        if format_ref(src) != format_ref(dst)
    }
    assert moved == {
        "chain:h0:h2:c1,c2,t2": "chain:h0:h2:c1,c2,gs,t2",
        "chain:h0:h3:c1,c2,c3,t3": "chain:h0:h3:c1,c2,gs,c3,t3",
        "chain:h1:h2:t1,c2,t2": "chain:h1:h2:t1,c2,gs,t2",
        "chain:h1:h3:t1,c2,c3,t3": "chain:h1:h3:t1,c2,gs,c3,t3",
    }
    # chains on one side of the cut are untouched
    assert (parse_ref("chain:h0:h1:c1,t1"), parse_ref("chain:h0:h1:c1,t1")) in res.map.assoc


def test_cut_and_glue_map_covers_the_curve_inventory():
    for depth in (4, 10):
        g = build_truncation("loch_ness", depth)
        for gadget in ("s12", "ladder"):
            res = cut_and_glue(g, "c2", gadget=gadget)
            assert res.map.domain == tuple(curve_inventory(g, 2)), (depth, gadget)


def test_cut_and_glue_map_is_superinjective_on_decomposition_pairs():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    curves = [r for r in res.map.domain if isinstance(r, PantsCurve)]
    pairs = [(a, b) for i, a in enumerate(curves) for b in curves[i + 1 :]]
    report = check_superinjective(res.map, pairs)
    assert report["violations"] == []


def test_cut_and_glue_witnesses():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    assert [format_ref(w) for w in res.witnesses] == [
        "pants:gh",
        "win:gh:1/0",
        "win:gh:1/1",
    ]
    image = {res.map.apply(r) for r in res.map.domain}
    for w in res.witnesses:
        resolve_ref(res.target, w)
        assert w not in image
    # the witnesses cross each other, so they sit in the new handle rather
    # than being image vertices under new names
    a, b, c = res.witnesses
    assert global_intersection(res.target, a, b) == 1
    assert global_intersection(res.target, b, c) == 1
    assert global_intersection(res.target, a, c) == 1


def test_cut_glue_result_rejects_witnesses_in_the_image():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    with pytest.raises(ValueError):
        CutGlueResult(res.map, (PantsCurve("c1"),))


# the ids a second cut of a glued target adds: every gadget name is taken,
# so each gets one x
SECOND_CUT_IDS = {
    "s12": {"gp0x", "gp1x", "gcx", "ghx", "gsx"},
    "ladder": {"gp0x", "acp1x", "ahp1x", "ga0x", "at1x", "ah1x", "ga1x", "gsx"},
    "cantor": {
        "gp0x", "acp1x", "ahp1x", "abp1x", "ga0x", "at1x", "ah1x", "as1x", "gb0x",
        "gb1x", "gsx",
    },
}


@pytest.mark.parametrize("gadget", GADGETS)
@pytest.mark.parametrize("alpha", ["c2", "gs"])
def test_a_second_cut_suffixes_the_taken_gadget_ids(gadget, alpha):
    first = cut_and_glue(build_truncation("loch_ness", 4), "c2", gadget=gadget).target
    res = cut_and_glue(first, alpha, gadget=gadget)
    g = res.target
    ids = set(g.pants) | set(g.curve_by_id)
    assert ids - set(first.pants) - set(first.curve_by_id) == SECOND_CUT_IDS[gadget]
    assert validate(g) == ()
    assert res.map.domain == tuple(curve_inventory(first, 2))
    handle = "ghx" if gadget == "s12" else "ah1x"
    assert [format_ref(w) for w in res.witnesses] == [
        f"pants:{handle}",
        f"win:{handle}:1/0",
        f"win:{handle}:1/1",
    ]


def _model_census_and_random_graphs():
    for model in ("loch_ness", "ladder", "cantor_tree"):
        for depth in range(1, 7):
            yield build_truncation(model, depth)
    for genus in range(5):
        for b in range(6):
            if 3 * genus - 3 + b >= 1:
                yield build_finite_surface(genus, b)
    rng = random.Random(11)
    for _ in range(100):
        yield random_gluing_graph(rng.randint(2, 30), rng)


def test_inventory_chains_cross_separating_curves_from_side_to_side():
    # cut_and_glue reroutes a chain by the side of the curve before the cut
    # curve alone, which needs the curve after it on the other side
    crossings = 0
    for g in _model_census_and_random_graphs():
        for chain in curve_inventory(g, 2):
            if not isinstance(chain, DualChain):
                continue
            path = chain.path
            for i, cid in enumerate(path[1:-1], 1):
                if cid not in g.separating_curves:
                    continue
                sides = [end.pants for end in g.curve_by_id[cid].ends]
                before, after = (
                    [side in g.pants_of_curve(path[j]) for side in sides] for j in (i - 1, i + 1)
                )
                assert before in ([True, False], [False, True]), (chain, cid)
                assert after == before[::-1], (chain, cid)
                crossings += 1
    assert crossings > 30000


def test_cut_and_glue_input_validation():
    g = build_truncation("loch_ness", 4)
    with pytest.raises(NotSeparating):
        cut_and_glue(g, "h0")
    with pytest.raises(UnknownCurve):
        cut_and_glue(g, "c4")  # frontier
    with pytest.raises(UnknownCurve):
        cut_and_glue(g, "zz")
    with pytest.raises(ValueError):
        cut_and_glue(g, "c2", gadget="mystery")


# --- homeomorphism checks ----------------------------------------------------


def test_surfaces_homeomorphic_on_models():
    l4 = build_truncation("loch_ness", 4)
    assert surfaces_homeomorphic(l4, build_truncation("loch_ness", 6), 1)
    assert not surfaces_homeomorphic(l4, build_truncation("ladder", 4), 1)
    # one end against two: already distinct at depth one; the ladder and
    # the binary tree first differ at depth two, given deep truncations
    assert surfaces_homeomorphic(
        build_truncation("ladder", 6), build_truncation("cantor_tree", 6), 1
    )
    assert not surfaces_homeomorphic(
        build_truncation("ladder", 6), build_truncation("cantor_tree", 6), 2
    )


def test_surfaces_homeomorphic_refuses_a_depth_below_one():
    # level 0 of the end trees cannot see the ladder's second end
    g = build_truncation("loch_ness", 4)
    target = build_truncation("ladder", 4)
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            surfaces_homeomorphic(g, target, depth)


def test_surfaces_homeomorphic_on_finite_surfaces():
    s21 = build_finite_surface(2, 1)
    assert surfaces_homeomorphic(s21, build_finite_surface(2, 1), 1)
    assert not surfaces_homeomorphic(s21, build_finite_surface(3, 1), 1)
    assert not surfaces_homeomorphic(s21, build_finite_surface(2, 2), 1)
    assert not surfaces_homeomorphic(s21, build_truncation("loch_ness", 4), 1)
    # no boundary on either side, so only finiteness tells them apart
    s20 = build_finite_surface(2, 0)
    assert not surfaces_homeomorphic(s20, build_truncation("loch_ness", 4), 1)


def test_gluing_a_handle_preserves_the_end_structure():
    g = build_truncation("loch_ness", 4)
    res = cut_and_glue(g, "c2", gadget="s12")
    assert surfaces_homeomorphic(g, res.target, 1)


def test_nonhomeomorphic_counterexample():
    src = build_truncation("loch_ness", 4)
    for gadget in ("ladder", "cantor"):
        m = cut_and_glue(src, "c2", gadget=gadget).map
        assert not surfaces_homeomorphic(src, m.target, 1)
        curves = [r for r in m.domain if isinstance(r, PantsCurve)]
        pairs = [(a, b) for i, a in enumerate(curves) for b in curves[i + 1 :]]
        assert check_superinjective(m, pairs)["violations"] == []


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the refusal")


def test_counterexample_needs_an_end_changing_gadget(monkeypatch):
    with pytest.raises(ValueError):
        run_suite("counterexample", samples=4, gadget="mystery")
    # refused before any map is built, with a bad alpha too
    monkeypatch.setattr(verify, "cut_and_glue", _no_work)
    with pytest.raises(GadgetTooSmall, match="the two-boundary genus-1 gadget is finite"):
        run_suite("counterexample", samples=4, gadget="s12", alpha="nope")
