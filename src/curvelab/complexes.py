"""Finite pieces of curve graphs and constructive diameter witnesses.

Three graphs on a curve inventory matter here: the curve complex skeleton
(edges = disjointness), its restriction to nonseparating curves, and the
unit-intersection graph (edges = curves crossing exactly once, vertices
nonseparating).  Only finite inventories are built, and only pairs whose
intersection number is defined contribute; the rest are recorded, never
guessed.  :func:`curve_inventory` is the standard inventory: pants curves,
window curves up to a slope bound and one dual chain per handle pair.

The witness constructions back the small-diameter statements: any two
inventory curves admit a common disjoint pants curve (a length-2 path in
the disjointness graph), and any two handle curves are joined by a
length-4 path in the unit-intersection graph threaded through a third
handle by dual chains.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import repeat

from ._gc import collector_paused
from ._graph import bfs_parents, path_to
from .curves import (
    DualChain,
    PantsCurve,
    Slope,
    WindowCurve,
    _DUAL,
    _pairing,
    _resolve,
    format_ref,
    resolve_ref,
    slopes_up_to,
    window_curve_separates,
)
from .errors import NoRoom, UnknownCurve
from .pants_graphs import CurveClass, classify_curve

_RELATIONS = {"c": "disjointness", "n": "disjointness", "g": "unit_intersection"}


class LocalCurveGraph(namedtuple("LocalCurveGraph", "vertices edges mode undefined_pairs")):
    """A finite relation graph over curve references.

    ``vertices``, ``edges`` and ``undefined_pairs`` are tuples.  ``mode``
    is one of "c" (disjointness, all curves), "n" (disjointness,
    nonseparating curves) or "g" (unit intersection, nonseparating curves).
    ``undefined_pairs`` lists vertex pairs whose intersection number the
    arithmetic table does not cover.  A namedtuple, equal to the plain
    tuple of its four fields.
    """

    __slots__ = ()

    @property
    def relation(self):
        return _RELATIONS[self.mode]


def _is_nonseparating(g, r):
    """Whether the resolved reference ``r`` is nonseparating."""
    ref = r.ref
    if isinstance(ref, PantsCurve):
        return classify_curve(g, ref.id) is CurveClass.NONSEPARATING
    if isinstance(ref, WindowCurve):
        return not window_curve_separates(g, r.found, ref.slope)
    # a dual chain crosses its endpoint handles once; odd intersection with
    # anything rules out separating
    return True


def _dual_chain(path):
    """The dual chain along a breadth-first path between two handles, or
    None for no path."""
    if path is None:
        return None
    return DualChain(path[0], path[-1], tuple(path[1:-1]))


def curve_inventory(g, slope_bound):
    """The standard finite inventory of ``g``, in order: the ordinary
    decomposition curves; the window curves with coordinates up to
    ``slope_bound`` at every curve that spans a window; one shortest dual
    chain per unordered handle pair, found by breadth-first search in the
    adjacency graph: one search per handle reaches every later handle.

    A curve spans a window when its dual curve (slope 1/0) resolves; the
    record kept for it holds the window every window curve of that center
    shares, so each center is searched once per graph, here or before.

    The ``diameter`` suite samples it, and
    :func:`~curvelab.morphisms.cut_and_glue` maps it.
    """
    refs = [PantsCurve(c.id) for c in g.curves if not c.is_frontier]
    centers = []
    for ref in refs:
        try:
            _resolve(g, WindowCurve(ref.id, _DUAL))
        except UnknownCurve:
            continue
        centers.append(ref.id)
    if centers:
        slopes = [s for s in slopes_up_to(slope_bound) if s != Slope(0, 1)]
        refs.extend(WindowCurve(cid, s) for cid in centers for s in slopes)
    handles = g.handles
    adj = g.adjacency_graph.adjacency_lists
    for i, a in enumerate(handles):
        later = handles[i + 1 :]
        parent = bfs_parents(adj, a, later)
        for b in later:
            chain = _dual_chain(path_to(parent, b))
            if chain is not None:
                refs.append(chain)
    return refs


def local_graph(g, inventory, mode):
    """Relation graph over ``inventory`` in the given mode.

    Vertices keep inventory order (duplicates dropped); in modes "n" and
    "g" separating curves are filtered out.  An edge appears when
    global_intersection is defined and equals the mode's target value (0
    for disjointness, 1 for unit intersection); undefined pairs are
    reported in ``undefined_pairs``.

    Each distinct inventory entry is checked at most once per graph (see
    :func:`~curvelab.curves.global_intersection`).  Curves whose supports
    are disjoint are disjoint, so only the pairs whose supports meet go
    through the intersection table, found from an index of the vertices
    on each pants; the runs of later vertices in between are edges in
    modes "c" and "n" and nothing in mode "g".  The cost is Python work
    per pair whose supports meet plus the output, besides at most one
    separation search per sphere window and slope parity class in modes
    "n" and "g", kept on the graph (see
    :func:`~curvelab.curves.window_curve_separates`).

    The cyclic garbage collector is paused while the graph is built (see
    :class:`~curvelab._gc.collector_paused`): the graph holds no reference
    cycle, so a collection there would free nothing and only walk the
    heap again, the part of the graph already built included.  No
    collection is lost, as the collector resumes on return.  The pause is
    process-wide, so cyclic garbage that another thread makes meanwhile
    waits until the call returns.
    """
    if mode not in _RELATIONS:
        raise ValueError(f"mode must be one of c, n, g; got {mode!r}")
    with collector_paused():
        vertices = [_resolve(g, ref) for ref in dict.fromkeys(inventory)]
        if mode in ("n", "g"):
            vertices = [r for r in vertices if _is_nonseparating(g, r)]
        refs = [r.ref for r in vertices]
        on_pants = {}
        for i, r in enumerate(vertices):
            for pid in r.support:
                on_pants.setdefault(pid, []).append(i)
        disjoint_edges = _RELATIONS[mode] == "disjointness"
        want = 0 if disjoint_edges else 1
        edges = []
        undefined = []
        for i, u in enumerate(vertices):
            meeting = sorted({
                j for pid in u.support for j in on_pants[pid][bisect_right(on_pants[pid], i):]
            })
            start = i + 1
            with_u = repeat(u.ref)
            for j in meeting:
                if disjoint_edges and j > start:
                    edges.extend(zip(with_u, refs[start:j]))
                start = j + 1
                val = _pairing(u, vertices[j])
                if val is None:
                    undefined.append((u.ref, refs[j]))
                elif val == want:
                    edges.append((u.ref, refs[j]))
            if disjoint_edges:
                edges.extend(zip(with_u, refs[start:]))
        return LocalCurveGraph(
            vertices=tuple(refs), edges=tuple(edges), mode=mode,
            undefined_pairs=tuple(undefined),
        )


def disjointness_witness(g, c1, c2):
    """A pants curve disjoint from both inputs, giving the 2-step path
    c1 - witness - c2 in the disjointness graph.

    Scans decomposition curves in id order, so the witness is deterministic.
    Raises :class:`NoRoom` when no decomposition curve avoids both inputs;
    that means the truncation is too small to show the path and should be
    deepened.  Both inputs are checked before the scan; they and every
    candidate are checked at most once per graph.
    """
    r1 = _resolve(g, c1)
    r2 = _resolve(g, c2)
    for c in g.curves:
        if c.is_frontier:
            continue
        cand = PantsCurve(c.id)
        if cand == c1 or cand == c2:
            continue
        r = _resolve(g, cand)
        if _pairing(r, r1) == 0 and _pairing(r, r2) == 0:
            return cand
    raise NoRoom(
        f"no pants curve avoids both {format_ref(c1)} and {format_ref(c2)}; "
        "deepen the truncation"
    )


def schmutz_path(g, h1, h2):
    """A path of length at most 4 between two handle curves in the
    unit-intersection graph: [h1, chain, third handle, chain, h2].

    Every consecutive pair intersects exactly once by the dual-chain rules.
    The third handle is the smallest handle curve distinct from both
    endpoints; :class:`NoRoom` when none exists or no connecting chain path
    exists in the adjacency graph.  Each leg, from an endpoint to the third
    handle or back, is searched once per graph and kept in
    :attr:`~curvelab.surface.AdjacencyGraph.legs`, so a repeated leg costs
    a lookup.
    """
    for h in (h1, h2):
        if not isinstance(h, PantsCurve):
            raise UnknownCurve(f"{format_ref(h)} is not a pants curve reference")
        if not resolve_ref(g, h).is_self_gluing:
            raise UnknownCurve(f"curve {h.id!r} is not a handle curve")
    if h1 == h2:
        return [h1]
    third = next((h for h in g.handles if h not in (h1.id, h2.id)), None)
    if third is None:
        raise NoRoom("no third handle curve available; deepen the truncation")
    ag = g.adjacency_graph
    legs = []
    for a, b in ((h1.id, third), (third, h2.id)):
        if (a, b) not in ag.legs:
            ag.legs[a, b] = _dual_chain(path_to(bfs_parents(ag.adjacency_lists, a, (b,)), b))
        chain = ag.legs[a, b]
        if chain is None:
            raise NoRoom(f"no chain path from {a!r} to {b!r} in the adjacency graph")
        legs.append(chain)
    return [h1, legs[0], PantsCurve(third), legs[1], h2]
