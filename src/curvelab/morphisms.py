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

from __future__ import annotations

from dataclasses import dataclass, field
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
from .errors import GadgetTooSmall, NotSeparating, UnknownCurve
from .pants_graphs import CurveClass, classify_curve
from .surface import Curve, GluingGraph, InfiniteModel, PantsSlot, build_truncation, signature


@dataclass(frozen=True)
class VertexMap:
    """A finite injective assignment of curve references.

    ``assoc`` is a tuple of (source reference, target reference) pairs;
    injectivity is checked at construction time.
    """

    source: GluingGraph = field(repr=False)
    target: GluingGraph = field(repr=False)
    assoc: tuple
    provenance: str = ""

    def __post_init__(self):
        values = [img for _, img in self.assoc]
        if len(set(values)) != len(values):
            raise ValueError("vertex map is not injective")
        keys = [ref for ref, _ in self.assoc]
        if len(set(keys)) != len(keys):
            raise ValueError("vertex map assigns a reference twice")

    @cached_property
    def _table(self):
        return dict(self.assoc)

    @property
    def domain(self):
        return tuple(ref for ref, _ in self.assoc)

    def sample_pairs(self, count, rng):
        """``count`` pairs drawn uniformly, with repetition, from the
        domain by ``rng``: first element, then second, pair by pair.
        Raises ValueError when ``count`` is negative."""
        if count < 0:
            raise ValueError(f"samples must be at least 0, got {count}")
        domain = self.domain
        return [
            (domain[rng.randrange(len(domain))], domain[rng.randrange(len(domain))])
            for _ in range(count)
        ]

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


@dataclass(frozen=True)
class CutGlueResult:
    """Outcome of gluing a gadget into a cut along a separating curve."""

    target: GluingGraph = field(repr=False)
    map: VertexMap
    witnesses: tuple

    def __post_init__(self):
        image = {img for _, img in self.map.assoc}
        clash = [w for w in self.witnesses if w in image]
        if clash:
            raise ValueError(f"witnesses meet the image: {clash!r}")


# The gadgets cut_and_glue can glue in: ``s12`` is the finite genus-1
# surface with two boundary circles, ``ladder`` a one-ended arm of handle
# blocks, and ``cantor`` a stub that branches into two ends.
GADGETS = ("s12", "ladder", "cantor")


def _fresh(name, used):
    while name in used:
        name = name + "x"
    return name


def _gadget_pieces(gadget, used_pants, used_curves):
    """Pants and curves of the gadget, minus the two splice slots.

    Every gadget presents slot 0 of its pants ``gp0`` to the cut curve and
    hangs the curve ``gs`` from slot 2 of ``gp0``; the caller wires the
    free end of ``gs`` into the cut.  Returns (pants ids, curve list,
    splice pants id, gs id, handle id).
    """
    names = (
        "gp0", "gp1", "gc", "gh", "gs", "ga0", "at1", "ah1", "ga1",
        "as1", "gb0", "gb1", "abp1", "acp1", "ahp1",
    )
    taken = used_pants | used_curves
    n = {name: _fresh(name, taken) for name in names}
    gp0 = n["gp0"]
    if gadget == "s12":
        gp1 = n["gp1"]
        pants = [gp0, gp1]
        curves = [
            Curve(n["gc"], (PantsSlot(gp0, 1), PantsSlot(gp1, 0))),
            Curve(n["gh"], (PantsSlot(gp1, 1), PantsSlot(gp1, 2))),
        ]
    elif gadget == "ladder":
        acp1, ahp1 = n["acp1"], n["ahp1"]
        pants = [gp0, acp1, ahp1]
        curves = [
            Curve(n["ga0"], (PantsSlot(gp0, 1), PantsSlot(acp1, 0))),
            Curve(n["at1"], (PantsSlot(acp1, 1), PantsSlot(ahp1, 0))),
            Curve(n["ah1"], (PantsSlot(ahp1, 1), PantsSlot(ahp1, 2))),
            Curve(n["ga1"], (PantsSlot(acp1, 2),)),
        ]
    else:
        acp1, ahp1, abp1 = n["acp1"], n["ahp1"], n["abp1"]
        pants = [gp0, acp1, ahp1, abp1]
        curves = [
            Curve(n["ga0"], (PantsSlot(gp0, 1), PantsSlot(acp1, 0))),
            Curve(n["at1"], (PantsSlot(acp1, 1), PantsSlot(ahp1, 0))),
            Curve(n["ah1"], (PantsSlot(ahp1, 1), PantsSlot(ahp1, 2))),
            Curve(n["as1"], (PantsSlot(acp1, 2), PantsSlot(abp1, 0))),
            Curve(n["gb0"], (PantsSlot(abp1, 1),)),
            Curve(n["gb1"], (PantsSlot(abp1, 2),)),
        ]
    handle = n["gh"] if gadget == "s12" else n["ah1"]
    return pants, curves, gp0, n["gs"], handle


def _alpha_side(g, curve_id, p_side, q_side):
    pants = set(g.pants_of_curve(curve_id))
    on_p = p_side in pants
    on_q = q_side in pants
    if on_p and on_q:
        raise NotSeparating(f"curve {curve_id!r} runs parallel to the cut curve")
    if on_p:
        return "p"
    if on_q:
        return "q"
    raise UnknownCurve(f"curve {curve_id!r} does not meet the cut curve's pants")


def _reroute_chain(g, chain, alpha, gs_id, p_side, q_side):
    """Image of a dual chain under the cut-and-glue map.

    Each crossing of the cut curve becomes a pass through the gadget's
    splice pants, so the occurrence of the cut curve in the chain's path
    is rewritten according to which side the path approaches and leaves
    from: entering and leaving on the splice side keeps the cut curve,
    entering and leaving on the far side replaces it with the gluing
    curve, and a through crossing inserts the gluing curve next to it.
    """
    path = list(chain.path)
    if alpha not in path:
        return chain
    i = path.index(alpha)
    before = _alpha_side(g, path[i - 1], p_side, q_side)
    after = _alpha_side(g, path[i + 1], p_side, q_side)
    if before == "p" and after == "p":
        new_path = path
    elif before == "q" and after == "q":
        new_path = path[:i] + [gs_id] + path[i + 1 :]
    elif before == "q":
        new_path = path[:i] + [gs_id, alpha] + path[i + 1 :]
    else:
        new_path = path[:i] + [alpha, gs_id] + path[i + 1 :]
    return DualChain(new_path[0], new_path[-1], tuple(new_path[1:-1]))


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
    used_pants = set(g.pants)
    used_curves = set(g.curve_by_id)
    pieces, gadget_curves, gp0, gs_id, handle = _gadget_pieces(gadget, used_pants, used_curves)
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
            image = _reroute_chain(g, ref, alpha, gs_id, p_end.pants, q_end.pants)
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
    return CutGlueResult(target=target, map=m, witnesses=witnesses)


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
    inf1 = bool(g1.frontier)
    inf2 = bool(g2.frontier)
    if inf1 != inf2:
        return False
    if not inf1:
        sig1 = signature(g1)
        sig2 = signature(g2)
        if sig1.genus != sig2.genus:
            return False
        return True
    t1 = surface_end_tree(g1, depth)
    t2 = surface_end_tree(g2, depth)
    return end_trees_isomorphic(t1, t2)


def nonhomeomorphic_counterexample(gadget, trunc_depth, alpha):
    """A superinjective curve map between non-homeomorphic surfaces.

    Cuts the Loch Ness truncation of depth ``trunc_depth`` at the
    separating chain curve ``alpha`` (the ``counterexample`` suite and
    command use ``"c2"`` at depth 4) and glues in the ``ladder`` or
    ``cantor`` gadget, whose ends the end trees detect.  Returns (source,
    target, map).  The finite ``s12`` gadget raises :class:`GadgetTooSmall`
    since it cannot change the end space.
    """
    if gadget == "s12":
        raise GadgetTooSmall(
            "the two-boundary genus-1 gadget is finite; the glued surface "
            "remains homeomorphic to the original"
        )
    g = build_truncation(InfiniteModel.LOCH_NESS, trunc_depth)
    result = cut_and_glue(g, alpha, gadget=gadget)
    return g, result.target, result.map
