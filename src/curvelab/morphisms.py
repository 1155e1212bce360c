"""Curve maps between surfaces and the cut-and-glue constructions.

A vertex map is a finite injective assignment of curve references on a
source surface to curve references on a target surface.  The property
checked here is superinjectivity: disjointness agrees in both directions,
i.e. a pair is disjoint exactly when its image is.

The main construction cuts a surface along a separating decomposition
curve and glues a gadget surface into the cut, then writes down the
induced map on a finite curve inventory.  With a one-ended gadget the
result is a superinjective map whose image misses an explicit list of
curves, and the two surfaces can fail to be homeomorphic, which the end
invariants detect.
"""

from collections import namedtuple
from functools import cached_property

from .complexes import curve_inventory
from .curves import (
    DualChain,
    PantsCurve,
    WindowCurve,
    format_ref,
    global_intersection,
    make_slope,
    resolve_ref,
)
from .ends import end_trees_isomorphic, surface_end_tree
from .errors import NotSeparating, UnknownCurve
from .pants_graphs import CurveClass, classify_curve
from .surface import Curve, GluingGraph, PantsSlot, signature

# the default seed of the random pairs :func:`sample_pairs` draws for the
# ``counterexample`` command, and of every seeded ``verify`` suite
DEFAULT_SEED = 20260814


def sample_pairs(items, count, rng):
    """``count`` pairs drawn uniformly, with repetition, from the sequence
    ``items`` by ``rng``: first element, then second, pair by pair.
    Raises ValueError when ``count`` is negative."""
    if count < 0:
        raise ValueError(f"samples must be at least 0, got {count}")
    n = len(items)
    return [(items[rng.randrange(n)], items[rng.randrange(n)]) for _ in range(count)]


class VertexMap(namedtuple("VertexMap", "source target assoc provenance")):
    """A finite injective assignment of curve references.

    ``source`` and ``target`` are the two :class:`GluingGraph` s, which
    the repr leaves out.  ``assoc`` is a tuple of (source reference,
    target reference) pairs; injectivity is checked at construction time.
    A namedtuple: a map hashes and compares as the tuple of its four
    fields, which it equals, and keeps a ``__dict__`` for its cached
    lookup table.
    """

    def __new__(cls, source, target, assoc, provenance=""):
        values = [img for _, img in assoc]
        if len(set(values)) != len(values):
            raise ValueError("vertex map is not injective")
        keys = [ref for ref, _ in assoc]
        if len(set(keys)) != len(keys):
            raise ValueError("vertex map assigns a reference twice")
        return tuple.__new__(cls, (source, target, assoc, provenance))

    def __repr__(self):
        return f"VertexMap(assoc={self.assoc!r}, provenance={self.provenance!r})"

    @cached_property
    def _table(self):
        return dict(self.assoc)

    @property
    def domain(self):
        return tuple(ref for ref, _ in self.assoc)

    def apply(self, ref):
        try:
            return self._table[ref]
        except KeyError:
            raise UnknownCurve(f"{format_ref(ref)} is outside the map's domain") from None


def check_superinjective(m, pairs):
    """Test disjointness agreement of ``m`` on the given reference pairs.

    Returns a report dict with the number of pairs checked, the list of
    violating pairs with their intersection numbers on both sides, and the
    pairs skipped because an intersection number was undefined.

    Each pair is read with :func:`~curvelab.curves.global_intersection`
    on the source (x, then y), then on the target once both images are
    looked up; each reference is checked at most once per graph.
    """
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


class CutGlueResult(namedtuple("CutGlueResult", "map witnesses")):
    """Outcome of gluing a gadget into a cut along a separating curve: the
    :class:`VertexMap` onto the glued surface, which is ``map.target``
    (also read as ``target``), and the witnesses, a tuple of curves of the
    gadget's handle that no source curve maps to.  A namedtuple, equal to
    the pair ``(map, witnesses)``."""

    __slots__ = ()

    def __new__(cls, map, witnesses):
        image = {img for _, img in map.assoc}
        clash = [w for w in witnesses if w in image]
        if clash:
            raise ValueError(f"witnesses meet the image: {clash!r}")
        return tuple.__new__(cls, (map, witnesses))

    @property
    def target(self):
        return self.map.target


# The gadgets cut_and_glue can glue in, each as (pants, curves, handle)
# with a curve written (id, (pants, slot), ...).  Every gadget presents
# slot 0 of its pants ``gp0`` to the cut curve, and cut_and_glue hangs the
# gluing curve ``gs`` from slot 2 of ``gp0``.  ``s12`` is the finite
# genus-1 surface with two boundary circles, ``ladder`` a one-ended arm of
# handle blocks, and ``cantor`` a stub that branches into two ends.
_GADGET_TABLE = {
    "s12": (
        ("gp0", "gp1"),
        (("gc", ("gp0", 1), ("gp1", 0)), ("gh", ("gp1", 1), ("gp1", 2))),
        "gh",
    ),
    "ladder": (
        ("gp0", "acp1", "ahp1"),
        (
            ("ga0", ("gp0", 1), ("acp1", 0)),
            ("at1", ("acp1", 1), ("ahp1", 0)),
            ("ah1", ("ahp1", 1), ("ahp1", 2)),
            ("ga1", ("acp1", 2)),
        ),
        "ah1",
    ),
    "cantor": (
        ("gp0", "acp1", "ahp1", "abp1"),
        (
            ("ga0", ("gp0", 1), ("acp1", 0)),
            ("at1", ("acp1", 1), ("ahp1", 0)),
            ("ah1", ("ahp1", 1), ("ahp1", 2)),
            ("as1", ("acp1", 2), ("abp1", 0)),
            ("gb0", ("abp1", 1)),
            ("gb1", ("abp1", 2)),
        ),
        "ah1",
    ),
}
GADGETS = tuple(_GADGET_TABLE)


def _gadget_pieces(gadget, taken):
    """Pants ids, curves, ``gp0`` id, ``gs`` id and handle id of the
    gadget, each of its names suffixed with ``x`` until it misses
    ``taken``."""
    pants, curves, handle = _GADGET_TABLE[gadget]
    new = {}
    for name in (*pants, *(cid for cid, *_ in curves), "gs"):
        new[name] = name
        while new[name] in taken:
            new[name] += "x"
    gadget_curves = [
        Curve(new[cid], tuple(PantsSlot(new[p], k) for p, k in ends))
        for cid, *ends in curves
    ]
    return [new[p] for p in pants], gadget_curves, new["gp0"], new["gs"], new[handle]


def _reroute_chain(g, chain, alpha, gs_id, q_side):
    """Image of a dual chain under the cut-and-glue map.

    Inventory chains are shortest paths in A(P), and the cut curve
    ``alpha`` is a bridge of the pants graph, so the curves just before
    and after ``alpha`` on a chain lie on opposite sides of it: on one
    side they would share a pants and the path would skip ``alpha``.  A
    crossing of ``alpha`` therefore becomes a pass through the gadget's
    splice pants, with the gluing curve ``gs_id`` on the side of the cut
    at ``q_side``: the chain reads ``gs_id, alpha`` when the curve before
    ``alpha`` meets ``q_side`` and ``alpha, gs_id`` otherwise.
    """
    path = chain.path
    if alpha not in path:
        return chain
    i = path.index(alpha)
    if q_side in g.pants_of_curve(path[i - 1]):
        seam = (gs_id, alpha)
    else:
        seam = (alpha, gs_id)
    new_path = path[:i] + seam + path[i + 1 :]
    return DualChain(new_path[0], new_path[-1], new_path[1:-1])


def cut_and_glue(g, alpha, gadget="s12"):
    """Cut along a separating decomposition curve and glue in a gadget.

    ``gadget`` is one of :data:`GADGETS`; any other value raises
    ``ValueError``.  ``alpha`` must be a separating ordinary curve (its
    removal must disconnect the pants graph).  The gadget's two splice
    points absorb the two cut ends: the side of the cut containing the
    lexicographically first slot keeps ``alpha`` as its gluing curve, the
    other side receives the fresh curve ``gs``.

    Returns a :class:`CutGlueResult` whose map covers
    :func:`~curvelab.complexes.curve_inventory` of ``g`` at slope bound 2:
    every curve maps to itself except the dual chains, which are rerouted
    through the seam.  The witnesses are curves of the glued gadget that
    no source curve maps to.
    """
    if gadget not in GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}")
    if classify_curve(g, alpha) is CurveClass.NONSEPARATING:
        raise NotSeparating(f"curve {alpha!r} does not separate")
    p_end, q_end = g.curve_by_id[alpha].ends
    taken = set(g.pants) | set(g.curve_by_id)
    pieces, gadget_curves, gp0, gs_id, handle = _gadget_pieces(gadget, taken)
    new_curves = [c for c in g.curves if c.id != alpha]
    new_curves.extend(gadget_curves)
    new_curves.append(Curve(alpha, (p_end, PantsSlot(gp0, 0))))
    new_curves.append(Curve(gs_id, (PantsSlot(gp0, 2), q_end)))
    target = GluingGraph(
        pants=tuple(g.pants) + tuple(pieces),
        curves=tuple(new_curves),
        boundary=g.boundary,
    )

    assoc = []
    for ref in curve_inventory(g, 2):
        image = ref
        if isinstance(ref, DualChain):
            image = _reroute_chain(g, ref, alpha, gs_id, q_end.pants)
            resolve_ref(target, image)
        assoc.append((ref, image))

    witnesses = (
        PantsCurve(handle),
        WindowCurve(handle, make_slope(1, 0)),
        WindowCurve(handle, make_slope(1, 1)),
    )
    for w in witnesses:
        resolve_ref(target, w)
    m = VertexMap(
        source=g,
        target=target,
        assoc=tuple(assoc),
        provenance=f"cut at {alpha!r}, glue {gadget}",
    )
    return CutGlueResult(map=m, witnesses=witnesses)


def surfaces_homeomorphic(g1, g2, depth):
    """Decide homeomorphism at the resolution the truncations allow.

    Compares real boundary counts, finiteness, genus when both surfaces
    are finite, and the canonical end trees at the given depth and the
    default stride.  A True answer means no invariant distinguishes the
    surfaces at this depth.  A depth below 1, which cannot see an added
    end, raises ValueError.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if len(g1.boundary) != len(g2.boundary):
        return False
    if bool(g1.frontier) != bool(g2.frontier):
        return False
    if not g1.frontier:
        return signature(g1).genus == signature(g2).genus
    return end_trees_isomorphic(surface_end_tree(g1, depth), surface_end_tree(g2, depth))
