"""The reference of each derived fact the tests check, in one place.

Each reference is written from the definition of its fact, not from the
library's code: A(P) and the other graph tables from the curve records,
the classes, the end trees and the default base by networkx searches, a
window from the curves on its support, the intersection table rule by
rule.  A reference reads a graph's records, and the window, path and
intersection references also its lookups by id and by pants, which only
index them.  No reference calls the routine it checks, and this module
imports public ``curvelab`` names and networkx only (``test_graph.py``
checks the library's graph routines against networkx).

Error texts and the order of violations have no definition, so the
reader, the writer and ``validate`` have specs of their messages here
instead (``spec_*``): plain versions that check one value at a time.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from operator import attrgetter

import networkx as nx

from curvelab import (
    AdjacencyGraph,
    BijectionFailure,
    Curve,
    CurveClass,
    DepthExceedsTruncation,
    DualChain,
    FormatError,
    GluingGraph,
    NoRoom,
    PantsCurve,
    PantsSlot,
    Slope,
    UnknownCurve,
    Violation,
    Window,
    WindowCurve,
    format_ref,
    global_intersection,
    is_triple,
    make_slope,
    slopes_up_to,
    window_intersection,
)


def outcome(errors, fn, *args):
    """``("ok", fn(*args))``, or the type name and message of the error
    it raised, if that error is one of the classes ``errors``."""
    try:
        return "ok", fn(*args)
    except errors as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the graph tables, from the curve records


def sorted_graph(pants, curves, boundary):
    """The gluing graph the constructor's definition gives: the pants, the
    boundary marks, each curve's ends and the curves by id, all sorted.  A
    curve whose ends are already a sorted tuple is kept as it is."""

    def in_order(c):
        ends = tuple(sorted(c.ends))
        return c if ends == c.ends else Curve(c.id, ends)

    fields = (
        tuple(sorted(pants)),
        tuple(sorted(map(in_order, curves), key=attrgetter("id"))),
        tuple(sorted(boundary)),
    )
    return tuple.__new__(GluingGraph, fields)


def frontier(g):
    """The ids of the curves with one end, in curve order."""
    return tuple(c.id for c in g.curves if c.is_frontier)


def frontier_pants(g):
    """The pants that carry the end of a frontier curve."""
    return frozenset(c.ends[0].pants for c in g.curves if c.is_frontier)


def lone_end_pants(g):
    """The pants carrying exactly one end of the curves that are not
    frontier curves."""
    count = Counter(end.pants for c in g.curves if not c.is_frontier for end in c.ends)
    return frozenset(p for p, n in count.items() if n == 1)


def handles(g):
    """The ids of the curves with both ends on one pants, sorted."""
    return tuple(sorted(c.id for c in g.curves if c.is_self_gluing))


def pants_graph(g):
    """The simple pants graph as a networkx graph: the pants, joined when
    a curve has its two ends on them.  A pants named only by a curve end
    is a vertex too; a self-gluing joins nothing."""
    h = nx.Graph()
    h.add_nodes_from(g.pants)
    h.add_edges_from(
        (c.ends[0].pants, c.ends[1].pants)
        for c in g.curves
        if len(c.ends) == 2 and not c.is_self_gluing
    )
    return h


def pants_multigraph(g):
    """The pants multigraph: the pants, and an edge for each curve with two
    ends, keyed by its place in ``g.curves``; a self-gluing is a loop."""
    m = nx.MultiGraph()
    m.add_nodes_from(g.pants)
    for i, c in enumerate(g.curves):
        if len(c.ends) == 2:
            m.add_edge(c.ends[0].pants, c.ends[1].pants, key=i)
    return m


def lists(h):
    """The library's graph shape of the networkx graph ``h``: each vertex,
    in the order of ``h``, with the sorted list of its neighbours."""
    return {v: sorted(h.adj[v]) for v in h}


def adjacency(g):
    """A(P): a vertex for the id of each curve that is not a frontier
    curve, two ids joined when curves of those ids have ends on a common
    pants of ``g``.  The marks are the vertices on a pants carrying the
    end of a frontier curve."""
    vertices = {c.id: set() for c in g.curves if not c.is_frontier}
    known = set(g.pants)
    on = {}  # a pants of g -> the vertices with an end on it
    for c in g.curves:
        if c.id in vertices:
            for end in c.ends:
                if end.pants in known:
                    on.setdefault(end.pants, set()).add(c.id)
    for here in on.values():
        for v in here:
            vertices[v] |= here - {v}
    marks = sorted({v for p in frontier_pants(g) for v in on.get(p, ())})
    return AdjacencyGraph({v: sorted(nbrs) for v, nbrs in vertices.items()}, tuple(marks))


def _cut_apart(m, i, c):
    """Whether the curve ``c``, the ``i``-th of its graph, leaves its two
    pants apart once its edge leaves the pants multigraph ``m``.  A curve
    that joins no two pants, a self-gluing or one without two ends, never
    does."""
    if len(c.ends) != 2 or c.is_self_gluing:
        return False
    u, v = c.ends[0].pants, c.ends[1].pants
    m.remove_edge(u, v, key=i)
    try:
        return not nx.has_path(m, u, v)
    finally:
        m.add_edge(u, v, key=i)


def separating_curves(g):
    """The ids of the curves that separate: their two pants are apart once
    the curve's edge leaves the pants multigraph."""
    m = pants_multigraph(g)
    return frozenset(c.id for i, c in enumerate(g.curves) if _cut_apart(m, i, c))


def classes(g):
    """The class of each curve that is not a frontier curve, by id in curve
    order, one curve at a time: a separating curve, as in
    :func:`separating_curves`, is outer when one of its pants carries no
    end of another curve but frontier ones."""
    m = pants_multigraph(g)
    ends = Counter(end.pants for c in g.curves if not c.is_frontier for end in c.ends)

    def class_of(i, c):
        if not _cut_apart(m, i, c):
            return CurveClass.NONSEPARATING
        if ends[c.ends[0].pants] == 1 or ends[c.ends[1].pants] == 1:
            return CurveClass.OUTER
        return CurveClass.NON_OUTER

    return {c.id: class_of(i, c) for i, c in enumerate(g.curves) if not c.is_frontier}


def random_gluing_graph(n_pants, rng):
    """``random_gluing_graph`` with its anchor drawn from a list rebuilt for
    every pants: the attached pants that still have a free slot."""
    names = [f"p{i}" for i in range(n_pants)]
    free = {p: [0, 1, 2] for p in names}
    curves = []
    counter = 0

    def take(p):
        return free[p].pop(rng.randrange(len(free[p])))

    attached = [names[0]]
    for p in names[1:]:
        anchor = rng.choice([q for q in attached if free[q]])
        curves.append(Curve(f"e{counter}", (PantsSlot(anchor, take(anchor)), PantsSlot(p, take(p)))))
        counter += 1
        attached.append(p)

    loose = [PantsSlot(p, s) for p in names for s in free[p]]
    rng.shuffle(loose)
    boundary = []
    while loose:
        s = loose.pop()
        if not loose or rng.random() < 0.25:
            boundary.append(s)
        else:
            t = loose.pop()
            curves.append(Curve(f"e{counter}", (s, t)))
            counter += 1
    return GluingGraph(names, curves, boundary)


# ---------------------------------------------------------------------------
# message specs: the reader, the writer and validate


def _array(value, what, *args):
    if type(value) is not list:
        raise FormatError(f"{what.format(*args)} must be a JSON array, got {type(value).__name__}")
    return value


def _string(value, what, *args):
    if type(value) is not str:
        raise FormatError(f"{what.format(*args)} is not a JSON string: {value!r}")
    return value


def _slot(pair, what, *args):
    p, k = pair
    if type(k) is not int:
        raise FormatError(
            f"{what.format(*args)} has a slot index that is not an integer: {k!r}"
        )
    if type(p) is not str:
        raise FormatError(f"pants of {what.format(*args)} is not a JSON string: {p!r}")
    return PantsSlot(p, k)


def _unreferable(cid):
    if type(cid) is not str:
        return f"curve id {cid!r} is not a string"
    if not cid or ":" in cid or "," in cid:
        return (
            f"curve id {cid!r} cannot appear in a curve reference: "
            "it is empty or holds ':' or ','"
        )
    return None


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _duplicate_ids(pants, curve_ids):
    """Each repeated pants id, then each curve id repeating an earlier one
    or a pants id, in list order; an unhashable id repeats nothing."""
    pants_ids = set()
    for p in filter(_hashable, pants):
        if p in pants_ids:
            yield f"pants id {p!r} repeated"
        pants_ids.add(p)
    seen = set()
    for cid in filter(_hashable, curve_ids):
        if cid in seen:
            yield f"curve id {cid!r} repeated"
        elif cid in pants_ids:
            yield f"curve id {cid!r} is also a pants id"
        seen.add(cid)


def spec_from_json(doc):
    """``surface_from_json`` one value at a time: the graph, or the first
    error in document order."""
    try:
        pants = [_string(p, "pants id") for p in _array(doc["pants"], "pants")]
        curves = []
        for rec in _array(doc["curves"], "curves"):
            raw_ends = rec["ends"]
            cid = rec.get("id")
            ends = tuple(
                _slot(pair, "curve {!r}", cid)
                for pair in _array(raw_ends, "curve {!r} ends", cid)
            )
            if not 1 <= len(ends) <= 2:
                raise FormatError(f"curve {cid!r} has {len(ends)} ends")
            cid = _string(rec["id"], "curve id")
            problem = _unreferable(cid)
            if problem:
                raise FormatError(problem)
            curves.append(Curve(cid, ends))
        boundary = [
            _slot(pair, "boundary mark") for pair in _array(doc["boundary"], "boundary")
        ]
        declared = sorted(
            _string(i, "frontier entry")
            for i in _array(doc.get("frontier", []), "frontier")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed surface document: {exc}") from exc
    duplicate = next(_duplicate_ids(pants, [c.id for c in curves]), None)
    if duplicate is not None:
        raise FormatError(duplicate)
    one_ended = sorted(c.id for c in curves if len(c.ends) == 1)
    if declared != one_ended:
        raise FormatError(f"frontier list {declared} does not match one-ended curves {one_ended}")
    return GluingGraph(pants, curves, boundary)


def spec_loads(text):
    """``loads_surface``: the text parsed as JSON, then read as a document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not JSON: {exc}") from exc
    return spec_from_json(doc)


def spec_dumps(g):
    """``dumps_surface``: the document of ``g`` through the ``json`` encoder."""
    doc = {
        "pants": list(g.pants),
        "curves": [
            {"id": c.id, "ends": [[end.pants, end.slot] for end in c.ends]} for c in g.curves
        ],
        "boundary": [[s.pants, s.slot] for s in g.boundary],
        "frontier": list(frontier(g)),
    }
    return json.dumps(doc, ensure_ascii=False) + "\n"


def spec_validate(g):
    """``validate``: every violation, in its order, from a list of users
    per slot and a scan of every slot of every pants."""
    curve_ids = [c.id for c in g.curves]
    violations = [Violation("DuplicateId", d) for d in _duplicate_ids(g.pants, curve_ids)]
    unhashable = [p for p in g.pants if not _hashable(p)]
    violations += [Violation("InvalidId", f"pants id {p!r} is not hashable") for p in unhashable]
    violations += [Violation("InvalidId", d) for d in map(_unreferable, curve_ids) if d]
    pants_set = set(filter(_hashable, g.pants))
    usage = {}

    def slot_error(detail):
        violations.append(Violation("SlotCountError", detail))

    def what(user):
        return "boundary mark" if user is None else f"curve {user.id!r}"

    def use(slot, user):
        if not _hashable(slot.pants) or slot.pants not in pants_set:
            return slot_error(f"{what(user)} references unknown pants {slot.pants!r}")
        try:
            in_range = 0 <= slot.slot < 3
        except TypeError:  # an index that does not compare with an int
            in_range = False
        if not in_range:
            return slot_error(f"{what(user)} uses invalid slot index {slot.slot!r}")
        usage.setdefault(slot, []).append(user)

    for c in g.curves:
        if len(c.ends) not in (1, 2):
            slot_error(f"curve {c.id!r} has {len(c.ends)} ends")
        for end in c.ends:
            use(end, c)
        if len(c.ends) == 2 and c.ends[0] == c.ends[1]:
            slot_error(f"curve {c.id!r} glues a slot to itself")
    for slot in g.boundary:
        use(slot, None)
    for p in filter(_hashable, g.pants):
        for k in range(3):
            users = usage.get((p, k), [])
            if not users:
                slot_error(f"slot ({p!r}, {k}) is unused")
            elif len(users) > 1:
                named = ", ".join(map(what, users))
                slot_error(f"slot ({p!r}, {k}) used {len(users)} times: {named}")
    # an unhashable pants id is no vertex of any graph: connectivity is
    # left unchecked when one names a pants or a slot
    slots = [*(end for c in g.curves for end in c.ends), *g.boundary]
    if len(g.pants) > 1 and not unhashable and all(_hashable(s.pants) for s in slots):
        parts = sorted(map(len, nx.connected_components(pants_multigraph(g))))
        if len(parts) > 1:
            violations.append(
                Violation("ConnectivityError", f"pants graph splits into parts of sizes {parts}")
            )
    return tuple(violations)


# ---------------------------------------------------------------------------
# end trees and the correspondence


def default_base(h, marks):
    """The default base of the networkx graph ``h``: distances from the
    nearest mark by networkx's multi-source search, the farthest vertex
    first, a vertex no mark reaches counted as farthest of all, ties broken
    by name."""
    if not h:
        return None
    sources = {m for m in marks if m in h}
    dist = nx.multi_source_dijkstra_path_length(h, sources) if sources else {}
    return min(h.nodes, key=lambda v: (-dist.get(v, math.inf), v))


def end_tree(h, marks, depth, base, stride):
    """The end tree of the networkx graph ``h`` by a fresh search and
    component split at every level, as ``(base, stride, levels)``: each
    level a tuple of ``(members, parent)`` pairs in order of members."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    marks = set(m for m in marks if m in h)
    if base is None:
        base = default_base(h, marks)
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


def correspondence(g, ct, pt, stride):
    """The level maps from the curve tree ``ct`` to the pants tree ``pt``
    of ``g``: each curve component goes to the one live pants component
    its curves lie on, with the pants inside each ball discarded by a
    fresh search at every level."""
    h = pants_graph(g)
    pants_of = {}
    for c in g.curves:
        pants_of.setdefault(c.id, set()).update(end.pants for end in c.ends)
    mapping = []
    for k, pt_parents in enumerate(pt.parents):
        ct_parents = ct.parents[k]
        ball = set(nx.single_source_shortest_path_length(h, pt.base, cutoff=stride * k))
        live = {p: j for j, members in enumerate(pt.members[k]) for p in members}
        level_map = {}
        for i, members in enumerate(ct.members[k]):
            targets = {live[p] for v in members for p in pants_of[v] if p not in ball and p in live}
            if len(targets) != 1:
                raise BijectionFailure(
                    f"level {k}: curve component {i} meets {len(targets)} live pants components"
                )
            level_map[i] = targets.pop()
        if sorted(level_map.values()) != list(range(len(pt_parents))):
            raise BijectionFailure(
                f"level {k}: map over {len(ct_parents)} curve components is not a "
                f"bijection onto {len(pt_parents)} pants components"
            )
        for i, parent in enumerate(ct_parents):
            if k > 0 and mapping[k - 1][parent] != pt_parents[level_map[i]]:
                raise BijectionFailure(
                    f"level {k}: component {i} maps inconsistently with its parent"
                )
        mapping.append(level_map)
    return mapping


# ---------------------------------------------------------------------------
# windows, references and the intersection table
#
# A window is examined afresh on every lookup, both references are resolved
# again for every pair, and each window's outside is searched in networkx.


def ordinary_curve(g, curve_id):
    """The record of a curve that is not a frontier curve."""
    c = g.curve_by_id.get(curve_id)
    if c is None:
        raise UnknownCurve(f"no curve {curve_id!r} in this decomposition")
    if c.is_frontier:
        raise UnknownCurve(f"curve {curve_id!r} is a frontier curve")
    return c


def window(g, center_id):
    """The window a curve spans: a torus on the pants of a self-gluing, or
    a sphere on the two pants of a curve when they share no second curve
    and carry no self-gluing."""
    c = ordinary_curve(g, center_id)
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


def resolve(g, ref):
    """A reference checked condition by condition, in the documented
    order: the value ``resolve_ref`` returns, or the error it raises."""
    if isinstance(ref, PantsCurve):
        return ordinary_curve(g, ref.id)
    if isinstance(ref, WindowCurve):
        if ref.slope == Slope(0, 1):
            raise UnknownCurve(f"slope 0/1 duplicates the center; use pants:{ref.center}")
        return window(g, ref.center)
    if isinstance(ref, DualChain):
        if ref.handle_a == ref.handle_b:
            raise UnknownCurve("a dual chain needs two distinct handles")
        for h in (ref.handle_a, ref.handle_b):
            if not ordinary_curve(g, h).is_self_gluing:
                raise UnknownCurve(f"chain endpoint {h!r} is not a handle curve")
        path = ref.path
        if len(set(path)) != len(path):
            raise UnknownCurve(f"chain path {path} repeats a curve")
        for cid in ref.interior:
            ordinary_curve(g, cid)
        for u, v in zip(path, path[1:]):
            if not set(g.pants_of_curve(u)) & set(g.pants_of_curve(v)):
                raise UnknownCurve(
                    f"chain path breaks between {u!r} and {v!r}: no common pants"
                )
        return path
    raise UnknownCurve(f"unsupported reference {ref!r}")


def support(g, ref):
    """The pants a resolved reference lives on."""
    if isinstance(ref, PantsCurve):
        return set(g.pants_of_curve(ref.id))
    if isinstance(ref, WindowCurve):
        return set(window(g, ref.center).support)
    out = set()
    for cid in ref.path:
        out.update(g.pants_of_curve(cid))
    return out


def intersection(g, c1, c2):
    """The intersection table, rule by rule; None where it is undefined."""
    resolve(g, c1)
    resolve(g, c2)
    rank = {PantsCurve: 0, WindowCurve: 1, DualChain: 2}
    if rank[type(c1)] > rank[type(c2)]:
        c1, c2 = c2, c1
    if isinstance(c2, PantsCurve):
        return 0
    if isinstance(c1, PantsCurve) and isinstance(c2, WindowCurve):
        w = window(g, c2.center)
        return w.scale * abs(c2.slope.p) if c1.id == c2.center else 0
    if isinstance(c1, PantsCurve):
        if c1.id in (c2.handle_a, c2.handle_b):
            return 1
        return 2 if c1.id in c2.interior else 0
    if isinstance(c1, WindowCurve) and isinstance(c2, WindowCurve):
        if c1.center == c2.center:
            return window_intersection(window(g, c1.center), c1.slope, c2.slope)
        if support(g, c1) & support(g, c2):
            return None
        return 0
    if c1 == c2:
        return 0
    return None if support(g, c1) & support(g, c2) else 0


_PARITY_PAIRINGS = {(0, 1): ((0, 1), (2, 3)), (1, 0): ((0, 2), (1, 3)), (1, 1): ((0, 3), (1, 2))}


def separates(g, w, s, memo):
    """Whether no path outside the window ``w`` joins the two groups of
    cuffs that the slope ``s`` pairs.  ``memo`` is a dict the references
    share for one graph: it keeps, per window, the component outside the
    window of the far side of the curve at each cuff, None where no curve
    reconnects."""
    if w.kind == "torus":
        return False
    if w.center not in memo:
        inside = set(w.support)
        outside = nx.Graph()
        outside.add_nodes_from(p for p in g.pants if p not in inside)
        for c in g.curves:
            if len(c.ends) == 2:
                u, v = c.ends[0].pants, c.ends[1].pants
                if u not in inside and v not in inside:
                    outside.add_edge(u, v)
        component = {p: i for i, part in enumerate(nx.connected_components(outside)) for p in part}
        # the occupant of a slot is the last curve, in id order, with an end there
        occupant = {(e.pants, e.slot): c for c in g.curves for e in c.ends}
        memo[w.center] = labels = []
        for cuff in w.cuff_slots:
            c = occupant.get(cuff)
            far = [e.pants for e in c.ends if e != cuff] if c and not c.is_frontier else []
            labels.append(component[far[0]] if far else None)
    labels = memo[w.center]
    sides = [
        {labels[k] for k in group if labels[k] is not None}
        for group in _PARITY_PAIRINGS[(s.p % 2, s.q % 2)]
    ]
    return not (sides[0] & sides[1])


_SEPARATING = ("separating curves",)  # their key in a memo, apart from every curve id


def _nonseparating(g, ref, memo):
    if isinstance(ref, PantsCurve):
        if _SEPARATING not in memo:
            memo[_SEPARATING] = separating_curves(g)
        return ref.id not in memo[_SEPARATING]
    if isinstance(ref, WindowCurve):
        return not separates(g, window(g, ref.center), ref.slope, memo)
    return True


def local_graph(g, inventory, mode, memo):
    """The vertices, edges and undefined pairs of the local graph, every
    pair asked of :func:`intersection`; a pants curve separates when
    :func:`separating_curves` says so.  ``memo`` is shared as in
    :func:`separates`, and keeps the separating curves too."""
    if mode not in ("c", "n", "g"):
        raise ValueError(f"mode must be one of c, n, g; got {mode!r}")
    seen = []
    for ref in inventory:
        resolve(g, ref)
        if ref not in seen:
            seen.append(ref)
    if mode in ("n", "g"):
        seen = [ref for ref in seen if _nonseparating(g, ref, memo)]
    want = 0 if mode in ("c", "n") else 1
    edges, undefined = [], []
    for i, u in enumerate(seen):
        for v in seen[i + 1 :]:
            val = intersection(g, u, v)
            if val is None:
                undefined.append((u, v))
            elif val == want:
                edges.append((u, v))
    return tuple(seen), tuple(edges), tuple(undefined)


def witness(g, c1, c2):
    """The first pants curve, in curve order, disjoint from both."""
    resolve(g, c1)
    resolve(g, c2)
    for c in g.curves:
        if c.is_frontier:
            continue
        cand = PantsCurve(c.id)
        if cand in (c1, c2):
            continue
        if intersection(g, cand, c1) == 0 and intersection(g, cand, c2) == 0:
            return cand
    raise NoRoom(
        f"no pants curve avoids both {format_ref(c1)} and {format_ref(c2)}; "
        "deepen the truncation"
    )


def bfs_path(adj, start, goal):
    """The breadth-first path from ``start`` to ``goal`` over the sorted
    lists ``adj``, the first found neighbour first; None if there is none."""
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


def schmutz_path(g, adj, ids, h1, h2):
    """The handle-to-handle path by its definition, over the lists ``adj``
    of :func:`adjacency` and the ``ids`` of :func:`handles`, which the
    caller works out once per graph: to the first handle that is neither
    end, and on to the second."""
    for h in (h1, h2):
        if not resolve(g, h).is_self_gluing:
            raise UnknownCurve(f"curve {h.id!r} is not a handle curve")
    if h1 == h2:
        return [h1]
    third = next((h for h in ids if h not in (h1.id, h2.id)), None)
    if third is None:
        raise NoRoom("no third handle curve available; deepen the truncation")
    legs = []
    for a, b in ((h1.id, third), (third, h2.id)):
        path = bfs_path(adj, a, b)
        if path is None:
            raise NoRoom(f"no chain path from {a!r} to {b!r} in the adjacency graph")
        legs.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    return [h1, legs[0], PantsCurve(third), legs[1], h2]


def window_curves(g, bound):
    """The window curves of the standard inventory: those with coordinates
    up to ``bound``, in slope order, at every curve spanning a window."""
    refs = []
    for c in g.curves:
        if not c.is_frontier and outcome(UnknownCurve, window, g, c.id)[0] == "ok":
            refs += [WindowCurve(c.id, s) for s in slopes_up_to(bound) if s != Slope(0, 1)]
    return refs


def handle_chains(g):
    """The dual chains of the standard inventory: one shortest chain per
    unordered pair of handles joined in A(P)."""
    adj = adjacency(g).adjacency_lists
    ids = handles(g)
    chains = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            path = bfs_path(adj, a, b)
            if path is not None:
                chains.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    return chains


def check_superinjective(m, pairs):
    """The per-pair definition: both intersection numbers from
    ``global_intersection``, which resolves both references every time."""
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


# ---------------------------------------------------------------------------
# slope arithmetic


def slope(p, q):
    """Reduce, sign-normalize, then build through the validating
    constructor."""
    d = math.gcd(abs(p), abs(q))
    p, q = p // d, q // d
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Slope(p, q)


def twist(along, s, direction, scale):
    """The twist s + direction * scale * det(s, along) * along."""
    d = scale * (s.p * along.q - s.q * along.p)
    return slope(s.p + direction * d * along.p, s.q + direction * d * along.q)


def torus_crossings(a, b):
    """Count crossings of the slope lines a, b on the unit square torus.

    A crossing is a solution of s*(a.p, a.q) = t*(b.p, b.q) + (m, n) with
    s, t in [0, 1); the 2x2 system is solved exactly with Fractions for
    every integer pair (m, n) that can possibly admit a solution.
    """
    det = -a.p * b.q + b.p * a.q
    if det == 0:
        return 0
    count = 0
    for m in range(-(abs(a.p) + abs(b.p)), abs(a.p) + abs(b.p) + 1):
        for n in range(-(abs(a.q) + abs(b.q)), abs(a.q) + abs(b.q) + 1):
            s = Fraction(-m * b.q + b.p * n, det)
            t = Fraction(a.p * n - a.q * m, det)
            if 0 <= s < 1 and 0 <= t < 1:
                count += 1
    return count


def exhaustive_completions(w, a, b, bound):
    """All unordered pairs of slopes up to ``bound`` forming a triple with
    ``a`` in the torus window ``w`` and splitting the crossings of ``b``
    additively."""
    found = set()
    slopes = slopes_up_to(bound)
    total = window_intersection(w, a, b)
    for i, g in enumerate(slopes):
        for g2 in slopes[i + 1 :]:
            if not is_triple(w, a, g, g2):
                continue
            if window_intersection(w, g, b) + window_intersection(w, g2, b) == total:
                found.add(frozenset((g, g2)))
    return found


def triple_completion(a, b):
    """``triple_completion``'s arithmetic with its Bezout pair
    u*a.p + v*a.q = 1 found by the extended Euclidean algorithm."""
    old_r, r = a.p, a.q
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_u, u = u, old_u - k * u
        old_v, v = v, old_v - k * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    u, v = old_u, old_v
    s, _ = divmod(u * b.p + v * b.q, a.q * b.p - a.p * b.q)
    return (
        make_slope(v + a.p * s, -u + a.q * s),
        make_slope(v + a.p * (s + 1), -u + a.q * (s + 1)),
    )


def box_common_neighbors(a, b, bound):
    """Every slope with |p|, |q| <= bound at unit determinant from both
    ``a`` and ``b`` (meeting each twice in a sphere window), found row by
    row: in the row q, p*a.q - q*a.p = +-1 has at most one solution p per
    sign, or the whole row when a is 1/0."""
    found = set()
    for q in range(bound + 1):
        if a.q == 0:
            row = range(-bound, bound + 1) if q == 1 else ()
        else:
            row = [(q * a.p + s) // a.q for s in (1, -1) if (q * a.p + s) % a.q == 0]
        for p in row:
            if -bound <= p <= bound and abs(p * b.q - q * b.p) == 1:
                found.add(make_slope(p, q))
    return found
