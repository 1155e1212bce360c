"""Bulk verification sweeps over models, random surfaces and slope ranges.

Each suite revalidates one of the package's structural claims at desk
scale and returns a JSON-friendly report with the number of cases checked
and every failure found (detail capped, count exact).  All randomness is
seeded, so reports are reproducible, and the sweeps run sequentially.

The ``sch04`` suite checks the closed form of
:func:`~curvelab.curves.sch04_common_neighbors` (the sum and difference of
the two slopes) against an exhaustive search of the coordinate box.  It
lists its pairs instead of filtering all pairs: one row search of the box
per slope ``a`` yields every slope crossing ``a`` twice, which gives both
the pairs through ``a`` and, for each, the search the closed form is
compared with.
"""

import random
from bisect import bisect_right

from ._gc import collector_paused
from .complexes import curve_inventory, disjointness_witness, schmutz_path
from .curves import (
    PantsCurve,
    abstract_window,
    dt_uniqueness_check,
    format_ref,
    global_intersection,
    is_triple,
    make_slope,
    sch04_common_neighbors,
    slopes_up_to,
    triple_completion,
    twist,
    window_intersection,
)
from .ends import end_trees_isomorphic, induced_end_correspondence
from .errors import CurveLabError, GadgetTooSmall
from .morphisms import (
    DEFAULT_SEED, check_superinjective, cut_and_glue, sample_pairs, surfaces_homeomorphic,
)
from .pants_graphs import (
    CurveClass,
    adjacency_graph,
    classify_all,
    cut_vertices,
    random_gluing_graph,
)
from .surface import InfiniteModel, build_truncation

_DETAIL_CAP = 20

# truncation depth that keeps end trees of each model safe at query depth d
_MARGINS = {
    InfiniteModel.LOCH_NESS: lambda d: 2 * d + 2,
    InfiniteModel.LADDER: lambda d: 2 * d + 2,
    InfiniteModel.CANTOR_TREE: lambda d: d + 2,
}


def _report(suite, params, checked, failures, **extra):
    rep = {"suite": suite}
    rep.update(params)
    rep["checked"] = checked
    rep["failures"] = len(failures)
    rep["details"] = failures[:_DETAIL_CAP]
    rep.update(extra)
    return rep


def verify_cutpoints(samples=200, seed=DEFAULT_SEED):
    """Cut vertices of the adjacency graph against the separating-curve
    classification, over the model truncations at depths 1-5 and
    ``samples`` random surfaces of 2-40 pants.  Raises ValueError when
    ``samples`` is negative."""
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    depths = [1, 2, 3, 4, 5]
    max_pants = 40
    cases = [(f"{m.value}-{d}", build_truncation(m, d)) for m in InfiniteModel for d in depths]
    rng = random.Random(seed)
    for i in range(samples):
        n = rng.randint(2, max_pants)
        cases.append((f"random-{i}(n={n})", random_gluing_graph(n, rng)))
    failures = []
    for label, g in cases:
        cuts = set(cut_vertices(adjacency_graph(g)))
        non_outer = {
            cid for cid, cls in classify_all(g).items() if cls is CurveClass.NON_OUTER
        }
        if cuts != non_outer:
            failures.append(
                {
                    "case": label,
                    "cut_not_classified": sorted(cuts - non_outer),
                    "classified_not_cut": sorted(non_outer - cuts),
                }
            )
    return _report(
        "cutpoints",
        {"depths": depths, "samples": samples, "max_pants": max_pants, "seed": seed},
        len(cases),
        failures,
    )


def _expected_leaf_counts(model, depth):
    if model is InfiniteModel.LOCH_NESS:
        return tuple(1 for _ in range(depth + 1))
    if model is InfiniteModel.LADDER:
        return (1,) + tuple(2 for _ in range(depth))
    return tuple(2 ** k for k in range(depth + 1))


def verify_ends(max_depth=6):
    """End-space bookkeeping for the three standard models: live component
    counts per level, curve-tree/pants-tree isomorphism, and the level-wise
    correspondence between them.  Raises ValueError when ``max_depth`` is
    below 1."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    failures = []
    checked = 0
    for model in InfiniteModel:
        for d in range(1, max_depth + 1):
            checked += 1
            g = build_truncation(model, _MARGINS[model](d))
            label = f"{model.value}@{d}"
            try:
                ct, pt, _ = induced_end_correspondence(g, d)
            except CurveLabError as exc:
                failures.append({"case": label, "error": f"{type(exc).__name__}: {exc}"})
                continue
            expected = _expected_leaf_counts(model, d)
            if ct.leaf_counts() != expected:
                failures.append(
                    {"case": label, "curve_counts": list(ct.leaf_counts()), "expected": list(expected)}
                )
            if pt.leaf_counts() != expected:
                failures.append(
                    {"case": label, "pants_counts": list(pt.leaf_counts()), "expected": list(expected)}
                )
            if not end_trees_isomorphic(ct, pt):
                failures.append({"case": label, "error": "trees not isomorphic"})
    return _report("ends", {"max_depth": max_depth}, checked, failures)


def verify_triples(bound=50):
    """Triple completion over every slope b with |p|, |q| <= bound crossing
    a = 0/1 at least twice: the completion is a genuine triple and splits
    the crossing number of b additively."""
    w = abstract_window("torus")
    a = make_slope(0, 1)
    items = [b for b in slopes_up_to(bound) if window_intersection(w, a, b) >= 2]
    failures = []
    for b in items:
        g, g2 = triple_completion(w, a, b)
        if not (
            is_triple(w, a, g, g2)
            and window_intersection(w, g, b) + window_intersection(w, g2, b)
            == window_intersection(w, a, b)
        ):
            failures.append({"b": str(b), "g": str(g), "g2": str(g2)})
    return _report("triples", {"bound": bound}, len(items), failures)


def _unit_neighbors(a, bound):
    """Every slope with |p|, |q| <= bound at unit determinant from ``a``
    (meeting it twice in a sphere window), sorted: one search of the box,
    row by row.

    Unit determinant means p*a.q - q*a.p = s with s = +-1.  For a = 1/0
    that is the whole row q = 1.  Otherwise the row q holds a solution for
    sign s exactly when q*a.p + s is divisible by a.q, that is when q is
    -s / a.p modulo a.q, so the rows of each sign are read off in steps of
    a.q from the first, with p = (q*a.p + s) / a.q.  When a.q = 1 the
    rows q = 0 of both signs name 1/0, which is listed once.
    """
    if a.q == 0:
        return [make_slope(p, 1) for p in range(-bound, bound + 1)]
    pairs = set()
    for s in (1, -1):
        first = 0 if a.q == 1 else -s * pow(a.p, -1, a.q) % a.q
        for q in range(first, bound + 1, a.q):
            p = (q * a.p + s) // a.q
            if -bound <= p <= bound:
                pairs.add((p, q) if q else (1, 0))
    return [make_slope(p, q) for p, q in sorted(pairs)]


def _meeting(row, b):
    """The members of ``row`` at unit determinant from ``b``."""
    return {c for c in row if abs(c.p * b.q - c.q * b.p) == 1}


def _unit_pairs(coord_bound, search_bound):
    """Each pair a < b of slopes with |p|, |q| <= coord_bound at unit
    determinant, in slope order, with the row search of the box
    |p|, |q| <= search_bound around ``a`` (which holds ``b``, given
    search_bound >= coord_bound).

    Each ``a`` is searched once; its pairs are the members of its row
    after it in slope order that lie in the smaller box.
    """
    for a in slopes_up_to(coord_bound):
        row = _unit_neighbors(a, search_bound)
        for b in row[bisect_right(row, a) :]:
            if b.q <= coord_bound and -coord_bound <= b.p <= coord_bound:
                yield a, b, row


def verify_sch04():
    """Common-neighbor counts in a sphere window: every pair of slopes with
    |p|, |q| <= 20 crossing exactly twice has exactly two slopes crossing
    both twice.

    The pairs are listed, not filtered: one row search of the box
    |p|, |q| <= 100 per slope ``a`` finds every slope crossing ``a``
    twice, and its members after ``a`` with coordinates up to 20 are the
    pairs.  For each pair the closed-form answer must equal the members of
    the same search crossing ``b`` twice, the exhaustive search of that
    box; the closed form always has two elements, so equality also checks
    the count.
    """
    coord_bound = 20
    search_bound = 100
    w = abstract_window("sphere")
    checked = 0
    failures = []
    for a, b, row in _unit_pairs(coord_bound, search_bound):
        checked += 1
        try:
            sols = sch04_common_neighbors(w, a, b)
        except CurveLabError as exc:
            failures.append(
                {"a": str(a), "b": str(b), "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        if sols != _meeting(row, b):
            failures.append(
                {"a": str(a), "b": str(b), "solutions": sorted(str(c) for c in sols)}
            )
    return _report(
        "sch04",
        {"coord_bound": coord_bound, "search_bound": search_bound},
        checked,
        failures,
    )


def verify_dtcoords():
    """Twist invariance and coordinate injectivity in both window kinds.

    Twisting along a slope preserves the crossing number with that slope
    for every slope pair with |p|, |q| <= 10 and every power up to 5, and
    the coordinate triple against 0/1, 1/0, 1/1 separates slopes up to 20.
    """
    slope_bound = 10
    max_twist = 5
    dt_bound = 20
    failures = []
    checked = 0
    slopes = slopes_up_to(slope_bound)
    powers = range(1, max_twist + 1)
    for kind in ("torus", "sphere"):
        w = abstract_window(kind)
        for along in slopes:
            checked += len(slopes)
            for s in slopes:
                want = window_intersection(w, s, along)
                t = s
                for k in powers:
                    t = twist(w, along, t)
                    got = window_intersection(w, t, along)
                    if got != want:
                        failures.append(
                            {
                                "kind": kind,
                                "along": str(along),
                                "s": str(s),
                                "power": k,
                                "got": got,
                                "want": want,
                            }
                        )
                        break
        collision = dt_uniqueness_check(w, dt_bound)
        checked += 1
        if collision is not None:
            failures.append({"kind": kind, "collision": [str(s) for s in collision]})
    return _report(
        "dtcoords",
        {"slope_bound": slope_bound, "max_twist": max_twist, "dt_bound": dt_bound},
        checked,
        failures,
    )


def verify_diameter(trunc_depth=5, samples=100, seed=DEFAULT_SEED):
    """Distance-two and distance-four witnesses on a chain-surface
    truncation: ``samples`` random curve pairs get a common disjoint pants
    curve, and 50 random handle pairs get a path of unit crossings through
    a third handle.  Raises ValueError when ``samples`` is negative."""
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    handle_samples = 50
    g = build_truncation(InfiniteModel.LOCH_NESS, trunc_depth)
    inventory = curve_inventory(g, 3)
    rng = random.Random(seed)
    failures = []
    checked = 0
    for c1, c2 in sample_pairs(inventory, samples, rng):
        checked += 1
        try:
            wit = disjointness_witness(g, c1, c2)
        except CurveLabError as exc:
            failures.append(
                {
                    "pair": [format_ref(c1), format_ref(c2)],
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        if (
            wit in (c1, c2)
            or global_intersection(g, wit, c1) != 0
            or global_intersection(g, wit, c2) != 0
        ):
            failures.append(
                {"pair": [format_ref(c1), format_ref(c2)], "witness": format_ref(wit)}
            )
    for h1, h2 in sample_pairs([PantsCurve(h) for h in g.handles], handle_samples, rng):
        checked += 1
        try:
            path = schmutz_path(g, h1, h2)
        except CurveLabError as exc:
            failures.append(
                {
                    "handles": [h1.id, h2.id],
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        steps = [
            global_intersection(g, path[i], path[i + 1]) for i in range(len(path) - 1)
        ]
        if len(path) > 5 or any(s != 1 for s in steps):
            failures.append({"handles": [h1.id, h2.id], "steps": steps})
    return _report(
        "diameter",
        {
            "trunc_depth": trunc_depth,
            "samples": samples,
            "handle_samples": handle_samples,
            "seed": seed,
        },
        checked,
        failures,
    )


def verify_counterexample(
    trunc_depth=4, alpha="c2", samples=500, seed=DEFAULT_SEED, gadget="ladder"
):
    """Two cut-and-glue maps of a chain-surface truncation at ``alpha``:
    superinjectivity on sampled pairs of the map gluing in the finite
    ``s12``, whose witnesses the report lists, and of the map gluing in
    ``gadget``, and the failure of the surfaces to be homeomorphic once
    ``gadget`` adds an end.  ``gadget`` ``s12`` raises
    :class:`GadgetTooSmall`, since it cannot change the end space."""
    if gadget == "s12":
        raise GadgetTooSmall(
            "the two-boundary genus-1 gadget is finite; the glued surface "
            "remains homeomorphic to the original"
        )
    source = build_truncation(InfiniteModel.LOCH_NESS, trunc_depth)
    result = cut_and_glue(source, alpha)
    rng = random.Random(seed)
    si = check_superinjective(result.map, sample_pairs(result.map.domain, samples, rng))
    failures = list(si["violations"])
    gadget_map = cut_and_glue(source, alpha, gadget=gadget).map
    gadget_si = check_superinjective(
        gadget_map, sample_pairs(gadget_map.domain, samples // 2, rng)
    )
    failures.extend(gadget_si["violations"])
    homeomorphic = surfaces_homeomorphic(source, gadget_map.target, depth=1)
    if homeomorphic:
        failures.append({"error": "gadget surface not distinguished at depth 1"})
    return _report(
        "counterexample",
        {
            "trunc_depth": trunc_depth,
            "alpha": alpha,
            "samples": samples,
            "seed": seed,
            "gadget": gadget,
        },
        si["checked"] + gadget_si["checked"],
        failures,
        skipped=len(si["skipped"]) + len(gadget_si["skipped"]),
        witnesses=[format_ref(w) for w in result.witnesses],
        homeomorphic=homeomorphic,
    )


SUITES = {
    "cutpoints": verify_cutpoints,
    "ends": verify_ends,
    "triples": verify_triples,
    "sch04": verify_sch04,
    "dtcoords": verify_dtcoords,
    "diameter": verify_diameter,
    "counterexample": verify_counterexample,
}


def run_suite(name, **kwargs):
    """Dispatch a verification suite by name with keyword overrides.

    The cyclic garbage collector is paused while the suite runs (see
    :class:`~curvelab._gc.collector_paused`): a sweep builds many graphs
    and cases but no reference cycle, so a collection there would free
    nothing.  No collection is lost, as the collector resumes on return.
    The pause is process-wide, so cyclic garbage that another thread
    makes meanwhile waits until the suite returns.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    with collector_paused():
        return SUITES[name](**kwargs)
