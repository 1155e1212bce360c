"""Adjacency graphs of pants decompositions and curve classification.

The adjacency graph A(P) of a decomposition P has one vertex per ordinary
decomposition curve, with an edge whenever two curves lie on a common pants.
Frontier curves of a truncation are not vertices; instead the curves on a
frontier-carrying pants are *marked*, since an unbounded part of the surface
is attached there.

Every curve of a pants decomposition is one of three kinds: nonseparating,
outer separating or non-outer separating.  "A separating curve is outer
when one of its two pants has both other circles on the surface boundary
or on the frontier: a frontier circle is read as boundary."  So a class
describes the truncation, not the infinite surface: next to the frontier,
a curve outer at one depth can be non-outer one level deeper.  On the
adjacency graph the non-outer curves are exactly the cut vertices, which
is what makes A(P) useful: separation properties of curves become pure
graph theory.
"""

import enum

from ._graph import lowpoints
from .errors import DisconnectedGraph
from .surface import Curve, GluingGraph, PantsSlot


class CurveClass(str, enum.Enum):
    NONSEPARATING = "Nonseparating"
    OUTER = "OuterSeparating"
    NON_OUTER = "NonOuterSeparating"


def adjacency_graph(g):
    """The adjacency graph of the decomposition encoded by ``g``: the same
    :class:`~curvelab.surface.AdjacencyGraph` on every call, built on the
    first and kept on the graph as :attr:`GluingGraph.adjacency_graph`."""
    return g.adjacency_graph


def classify_curve(g, curve_id):
    """Classify one decomposition curve of ``g``.

    A curve is nonseparating exactly when it is not a bridge of the pants
    multigraph (self-gluings and doubled edges never separate); the bridges
    come from one pass over the whole graph, cached as
    :attr:`GluingGraph.separating_curves`.  "A separating curve is outer
    when one of its two pants has both other circles on the surface
    boundary or on the frontier: a frontier circle is read as boundary."
    That is when one of its pants is in
    :attr:`GluingGraph.lone_end_pants`; cutting there removes a pair of
    pants with no further topology, not a genuine piece.  Both tables are
    cached on ``g``, so each call is two lookups.
    """
    return _class_of(g, g.ordinary_curve(curve_id))


def _class_of(g, c):
    if c.id not in g.separating_curves:
        return CurveClass.NONSEPARATING
    lone = g.lone_end_pants
    if c.ends[0].pants in lone or c.ends[1].pants in lone:
        return CurveClass.OUTER
    return CurveClass.NON_OUTER


def classify_all(g):
    """Map each ordinary curve id to its :class:`CurveClass`, in order of
    id, by the rule of :func:`classify_curve` in one loop over the curves:
    linear in the size of ``g``."""
    return {c.id: _class_of(g, c) for c in g.curves if len(c.ends) != 1}


def cut_vertices(a):
    """Cut vertices of an adjacency graph, sorted, read from one
    depth-first search over its :attr:`AdjacencyGraph.adjacency_lists`.

    Raises :class:`DisconnectedGraph` when A(P) is not connected, since cut
    vertices of a disconnected graph do not mean what callers expect.
    """
    _, cuts, sizes = lowpoints(a.adjacency_lists)
    if len(sizes) > 1:
        raise DisconnectedGraph(f"adjacency graph has components of sizes {sorted(sizes)}")
    return tuple(sorted(cuts))


def random_gluing_graph(n_pants, rng):
    """A random valid connected gluing graph on ``n_pants`` pants, drawn
    from ``rng`` (a :class:`random.Random`), so a seed fixes the graph.

    Grows a random spanning tree of pants, then closes remaining slots by
    random matching; each leftover slot independently becomes boundary with
    probability 1/4, and an odd leftover forces one more boundary mark.
    """
    if n_pants < 1:
        raise ValueError("need at least one pants")
    names = [f"p{i}" for i in range(n_pants)]
    free = {p: [0, 1, 2] for p in names}
    curves = []
    counter = 0
    new = tuple.__new__

    def take(p):
        return free[p].pop(rng.randrange(len(free[p])))

    # the attached pants with a free slot, in order of attachment
    open_pants = [names[0]]
    for p in names[1:]:
        anchor = rng.choice(open_pants)
        ends = (new(PantsSlot, (anchor, take(anchor))), new(PantsSlot, (p, take(p))))
        curves.append(new(Curve, (f"e{counter}", ends)))
        counter += 1
        if not free[anchor]:
            open_pants.remove(anchor)
        open_pants.append(p)

    loose = [new(PantsSlot, (p, s)) for p in names for s in free[p]]
    rng.shuffle(loose)
    boundary = []
    while loose:
        s = loose.pop()
        if not loose or rng.random() < 0.25:
            boundary.append(s)
        else:
            t = loose.pop()
            curves.append(new(Curve, (f"e{counter}", (s, t))))
            counter += 1
    return GluingGraph(names, curves, boundary)
