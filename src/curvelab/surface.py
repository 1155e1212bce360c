"""Pants-gluing graphs and the surfaces they encode.

A surface with a pants decomposition is recorded as a :class:`GluingGraph`:
pants are nodes, decomposition curves are edges between pants slots, and
unglued slots are boundary components.  Each pants has exactly three slots
(0, 1, 2).  A curve may glue two slots of the same pants; such a self-gluing
is a handle block, the basic genus-carrying piece.

Infinite surfaces enter through finite truncations.  A truncation keeps a
finite portion of an infinite gluing pattern and marks the curves along which
the surface continues as *frontier* curves.  A frontier curve occupies a
single slot; its far side is not part of the truncation.  Deepening the
truncation completes the frontier curve into an ordinary two-ended curve
under the same identifier, so the depth-d graph is an induced subgraph of the
depth-(d+1) graph.
"""

import enum
import json
from collections import Counter, namedtuple
from functools import cached_property
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter

from ._graph import lowpoints, neighbour_lists
from .errors import ComplexityTooLow, FormatError, NonIntegralGenus, UnknownCurve

SLOTS_PER_PANTS = 3
_SLOT_INDICES = frozenset(range(SLOTS_PER_PANTS))


class PantsSlot(namedtuple("PantsSlot", "pants slot")):
    """One of the three boundary circles of a pants, addressed by index.

    A namedtuple: slots hash, compare and order as the pair (pants, slot),
    and a slot equals the plain tuple of its fields."""

    __slots__ = ()


class Curve(namedtuple("Curve", "id ends")):
    """A decomposition curve.

    ``ends`` is a tuple of :class:`PantsSlot`: two entries for an ordinary
    curve (possibly on the same pants, which makes it a self-gluing) and
    one entry for a frontier curve of a truncation.  A namedtuple, so a
    curve equals the plain tuple ``(id, ends)``.  The graph's tables test
    ``ends`` inline rather than call the two properties once per curve.
    """

    __slots__ = ()

    @property
    def is_frontier(self):
        return len(self.ends) == 1

    @property
    def is_self_gluing(self):
        return len(self.ends) == 2 and self.ends[0].pants == self.ends[1].pants


def _pants_edges(curves):
    """(pants, pants, curve id) for each curve with two ends on two
    different pants.  Self-gluings, frontier half edges and curves with
    any other number of ends join no two pants."""
    for c in curves:
        ends = c.ends
        if len(ends) == 2 and ends[0].pants != ends[1].pants:
            yield ends[0].pants, ends[1].pants, c.id


def _ends_in_order(c):
    """``c`` itself if its ends are a sorted tuple, else a copy whose are.
    A tuple of one end, or of two that ``sorted`` would keep, is in order
    without a sort."""
    ends = c.ends
    if ends.__class__ is tuple and (
        len(ends) == 1 or len(ends) == 2 and not ends[1] < ends[0]
    ):
        return c
    ends = tuple(sorted(ends))
    return c if ends == c.ends else Curve(c.id, ends)


class GluingGraph(namedtuple("GluingGraph", "pants curves boundary")):
    """A pants decomposition of a surface, finite or truncated-infinite.

    ``pants`` is a tuple of pants ids, ``curves`` a tuple of
    :class:`Curve` and ``boundary`` a tuple of :class:`PantsSlot`.  The
    constructor sorts all three, so that equal decompositions compare and
    serialize identically; it does not check well-formedness.  Use
    :func:`validate` for that.  Sorting compares slot indices, so the
    constructor still raises TypeError when two ends of one curve, or two
    boundary marks, share a pants and carry indices that do not compare,
    such as ``1`` and ``"0"``.  A namedtuple: a graph hashes and compares
    as the tuple of its three fields, which it equals.  It keeps a
    ``__dict__`` for its cached tables.
    """

    def __new__(cls, pants, curves, boundary=()):
        return tuple.__new__(
            cls,
            (
                tuple(sorted(pants)),
                tuple(sorted(map(_ends_in_order, curves), key=attrgetter("id"))),
                tuple(sorted(boundary)),
            ),
        )

    @cached_property
    def curve_by_id(self):
        return {c.id: c for c in self.curves}

    def ordinary_curve(self, curve_id):
        """The record of an ordinary (non-frontier) curve; raises
        :class:`UnknownCurve` for a missing or frontier id."""
        c = self.curve_by_id.get(curve_id)
        if c is None:
            raise UnknownCurve(f"no curve {curve_id!r} in this decomposition")
        if c.is_frontier:
            raise UnknownCurve(f"curve {curve_id!r} is a frontier curve")
        return c

    @property
    def frontier(self):
        """Ids of the frontier curves, sorted."""
        return tuple(c.id for c in self.curves if len(c.ends) == 1)

    @cached_property
    def frontier_pants(self):
        """Pants that carry at least one frontier half slot."""
        return frozenset(c.ends[0].pants for c in self.curves if len(c.ends) == 1)

    @cached_property
    def curves_at(self):
        """Map pants id -> tuple of curve ids on that pants (with multiplicity)."""
        at = {p: [] for p in self.pants}
        for c in self.curves:
            for end in c.ends:
                if end.pants in at:
                    at[end.pants].append(c.id)
        return {p: tuple(ids) for p, ids in at.items()}

    def pants_of_curve(self, curve_id):
        """The pants touched by a curve (one or two ids, deduplicated)."""
        c = self.curve_by_id[curve_id]
        return tuple(dict.fromkeys(end.pants for end in c.ends))

    @cached_property
    def pants_graph(self):
        """The simple pants graph as a dict from each pants to the sorted
        list of pants joined to it by at least one two-ended curve.
        Self-gluings and frontier half edges do not appear; a pants named
        only by a curve end is a vertex too.  Shared by every caller; do
        not mutate it."""
        return neighbour_lists(self.pants, ((u, v) for u, v, _ in _pants_edges(self.curves)))

    @cached_property
    def pants_lowpoints(self):
        """The bridges, cut vertices and component sizes of
        :attr:`pants_graph`, from one depth-first search
        (:func:`curvelab._graph.lowpoints`) that
        :attr:`separating_curves` and :func:`validate` share."""
        return lowpoints(self.pants_graph)

    @cached_property
    def separating_curves(self):
        """Ids of the two-ended curves whose removal disconnects the pants
        multigraph, read from the bridges of :attr:`pants_lowpoints`.  A
        self-gluing never separates, and neither does a curve doubled by
        another curve between the same two pants."""
        between = {}
        for u, v, cid in _pants_edges(self.curves):
            between.setdefault((u, v), []).append(cid)
        separating = set()
        for u, v in self.pants_lowpoints[0]:
            ids = between[(u, v) if u < v else (v, u)]
            if len(ids) == 1:
                separating.add(ids[0])
        return frozenset(separating)

    @cached_property
    def lone_end_pants(self):
        """Pants carrying exactly one end of an ordinary curve, counted
        with multiplicity: every other circle of such a pants is surface
        boundary or frontier.  A separating curve is outer exactly when
        one of its two pants is among them."""
        count = Counter(end.pants for c in self.curves if len(c.ends) != 1 for end in c.ends)
        return frozenset(p for p, n in count.items() if n == 1)

    @cached_property
    def end_trees(self):
        """``(depth, base, stride)`` -> the end tree of :attr:`pants_graph`
        for that query, written only by :func:`curvelab.ends.surface_end_tree`
        on the query's first call.  A refused query is never stored."""
        return {}

    @cached_property
    def ref_table(self):
        """Curve reference -> its checked record, written only by
        :func:`curvelab.curves._resolve` on the reference's first lookup,
        and by :func:`curvelab.curves._check` for the dual curve of a
        window center, whose record the center's window curves share.  A
        failing reference is never stored; the table grows with the
        distinct references asked of this graph, not with the lookups."""
        return {}

    @cached_property
    def window_sides(self):
        """``(center, p % 2, q % 2)`` -> whether the sphere window curves of
        that center and slope parity class separate the surface, written
        only by :func:`curvelab.curves.window_curve_separates` on the first
        ask of the class.  Like :attr:`ref_table` it grows with the distinct
        windows and classes asked, at most three entries per window."""
        return {}

    @cached_property
    def handles(self):
        """Ids of the self-gluing curves, the handle curves, in id order."""
        return tuple(
            c.id for c in self.curves
            if len(c.ends) == 2 and c.ends[0].pants == c.ends[1].pants
        )

    @cached_property
    def adjacency_graph(self):
        """The adjacency graph A(P), one per graph: its lists give each
        ordinary curve id the sorted ids of the other ordinary curves
        sharing a pants with it, and it is marked at the curves on the
        frontier pants.  Also read through
        :func:`curvelab.pants_graphs.adjacency_graph`."""
        adj = {c.id: set() for c in self.curves if len(c.ends) != 1}
        at = self.curves_at
        for ids in at.values():
            if len(ids) > 1:
                here = [cid for cid in ids if cid in adj]
                for u in here:
                    adj[u].update(here)
        for u, nbrs in adj.items():
            nbrs.discard(u)
        marks = sorted({v for p in self.frontier_pants for v in at.get(p, ()) if v in adj})
        return AdjacencyGraph({v: sorted(nbrs) for v, nbrs in adj.items()}, tuple(marks))


class AdjacencyGraph(namedtuple("AdjacencyGraph", "adjacency_lists marks")):
    """A(P) together with the frontier marks inherited from the truncation.

    ``adjacency_lists`` maps each ordinary (two-ended) curve id to the
    sorted list of its neighbours, the one graph shape of the library,
    shared by every caller, so do not mutate it; ``marks`` are the sorted
    tuple of the vertices lying on a pants that touches the frontier.  A
    namedtuple, equal to the pair ``(adjacency_lists, marks)``; it keeps a
    ``__dict__`` for its cached ``vertices``, ``edges``, ``end_trees`` and
    ``legs``.
    A gluing graph builds its one A(P) on first use and keeps it as
    :attr:`GluingGraph.adjacency_graph`, so these tables are built once
    per graph.
    """

    @cached_property
    def vertices(self):
        """The vertices, sorted."""
        return tuple(sorted(self.adjacency_lists))

    @cached_property
    def edges(self):
        """The edges as sorted pairs, in order of their first vertex."""
        lists = self.adjacency_lists
        return tuple((u, v) for u in self.vertices for v in lists[u] if u < v)

    @cached_property
    def end_trees(self):
        """``(depth, base, stride)`` -> the end tree of this graph for that
        query, written only by :func:`curvelab.ends.end_tree` on the
        query's first call.  A refused query is never stored."""
        return {}

    @cached_property
    def legs(self):
        """``(start handle, goal handle)`` -> the dual chain along the
        breadth-first path between them, or None when no path joins them,
        written only by :func:`curvelab.complexes.schmutz_path` on the
        leg's first ask.  It grows with the distinct legs asked, not with
        the paths."""
        return {}


class SurfaceSignature(namedtuple("SurfaceSignature", "genus boundary")):
    """Topological type (genus, boundary count) of a compact surface; a
    namedtuple, equal to the pair (genus, boundary)."""

    __slots__ = ()


class InfiniteModel(str, enum.Enum):
    """The built-in infinite-type gluing patterns.

    * ``loch_ness``: a one-way chain of handle blocks; one end.
    * ``ladder``: a two-way chain with a central block; two ends.
    * ``cantor_tree``: a binary tree of handle segments; a Cantor set of ends.

    Every scaffold segment of every model carries a handle block, so genus
    accumulates toward every end.
    """

    LOCH_NESS = "loch_ness"
    LADDER = "ladder"
    CANTOR_TREE = "cantor_tree"


def _as_model(model):
    if isinstance(model, InfiniteModel):
        return model
    try:
        return InfiniteModel(model)
    except ValueError:
        names = ", ".join(m.value for m in InfiniteModel)
        raise ValueError(f"unknown model {model!r}; expected one of {names}") from None


class Violation(namedtuple("Violation", "kind detail")):
    """One well-formedness failure found by :func:`validate`; a
    namedtuple, equal to the pair (kind, detail)."""

    __slots__ = ()


def signature(g):
    """Genus and boundary count of the surface encoded by ``g``.

    Each pants contributes -1 to the Euler characteristic, so
    2 - 2*genus - boundary = -|pants|.  Frontier curves count as boundary
    here: the truncation, taken as a surface in its own right, is bounded by
    them.  Raises :class:`NonIntegralGenus` when the counts cannot come from
    a surface.
    """
    n = len(g.pants)
    b = len(g.boundary) + len(g.frontier)
    two_genus = 2 - b + n
    if two_genus < 0 or two_genus % 2 != 0:
        raise NonIntegralGenus(
            f"{n} pants with {b} boundary circles give 2g = {two_genus}"
        )
    return SurfaceSignature(genus=two_genus // 2, boundary=b)


def _duplicate_ids(pants, curve_ids):
    """Describe each repeated pants id, then each curve id that repeats
    an earlier curve id or equals a pants id, in list order."""
    pants_ids = set()
    for p in pants:
        if p in pants_ids:
            yield f"pants id {p!r} repeated"
        pants_ids.add(p)
    seen = set()
    for cid in curve_ids:
        if cid in seen:
            yield f"curve id {cid!r} repeated"
        elif cid in pants_ids:
            yield f"curve id {cid!r} is also a pants id"
        seen.add(cid)


def _unreferable(curve_ids):
    """What is wrong with each curve id that curve references cannot
    carry, one that is not a string, is empty or holds ``:`` or ``,``, in
    list order; empty when every id can be carried.  A list of such ids is
    recognised without a Python-level step per id."""
    if set(map(type, curve_ids)) <= {str} and all(curve_ids):
        text = "".join(curve_ids)
        if ":" not in text and "," not in text:
            return []
    problems = []
    for cid in curve_ids:
        if type(cid) is not str:
            problems.append(f"curve id {cid!r} is not a string")
        elif not cid or ":" in cid or "," in cid:
            problems.append(
                f"curve id {cid!r} cannot appear in a curve reference: "
                "it is empty or holds ':' or ','"
            )
    return problems


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


_BOUNDARY = object()  # the curve id under which validate reads a boundary mark


def validate(g):
    """Check well-formedness and return a tuple of violations (empty if ok).

    Checks identifier uniqueness, curve ids that curve references can
    carry, exact slot usage and connectivity of the pants graph.  The one
    slot rule: every slot of every pants is used by exactly one curve end
    or boundary mark, a mark being read as the one end of a curve.  This
    reports rather than raises so that a malformed graph can be inspected.
    An id that is not hashable, such as a list, repeats nothing: a pants id
    of that kind is an ``InvalidId``, a slot on one names an unknown pants,
    and connectivity is left unchecked, since no graph can hold it.
    """
    curve_ids = [c.id for c in g.curves]
    pants = g.pants
    try:
        violations = [Violation("DuplicateId", d) for d in _duplicate_ids(pants, curve_ids)]
    except TypeError:  # an unhashable id
        pants = tuple(filter(_hashable, g.pants))
        violations = [
            Violation("DuplicateId", d)
            for d in _duplicate_ids(pants, list(filter(_hashable, curve_ids)))
        ]
        violations += [
            Violation("InvalidId", f"pants id {p!r} is not hashable")
            for p in g.pants
            if not _hashable(p)
        ]
    violations += [Violation("InvalidId", d) for d in _unreferable(curve_ids)]

    pants_set = set(pants)
    unhashable = len(pants) < len(g.pants)  # whether an unhashable id names a pants or slot
    first = {}  # (pants, slot) -> the id of its first user
    reused = {}  # (pants, slot) -> the ids of every user, for a slot used more than once

    def what(cid):
        return "boundary mark" if cid is _BOUNDARY else f"curve {cid!r}"

    for cid, ends in g.curves + tuple([(_BOUNDARY, (slot,)) for slot in g.boundary]):
        if len(ends) not in (1, 2):
            violations.append(Violation("SlotCountError", f"curve {cid!r} has {len(ends)} ends"))
        for end in ends:
            try:
                usable = end.pants in pants_set and 0 <= end.slot < SLOTS_PER_PANTS
            except TypeError:  # an unhashable pants id or an index that is no number
                usable = False
            if usable:
                if end in first:
                    reused.setdefault(end, [first[end]]).append(cid)
                else:
                    first[end] = cid
                continue
            try:
                known = end.pants in pants_set
            except TypeError:  # an unhashable pants id names no pants
                known, unhashable = False, True
            problem = (f"uses invalid slot index {end.slot!r}" if known
                       else f"references unknown pants {end.pants!r}")
            violations.append(Violation("SlotCountError", f"{what(cid)} {problem}"))
        if len(ends) == 2 and ends[0] == ends[1]:
            violations.append(
                Violation("SlotCountError", f"curve {cid!r} glues a slot to itself")
            )

    # when every slot of every distinct pants is used exactly once there is
    # nothing to report; an index such as 0.5 passes the range test but
    # fills no slot, so the count proves it only when no such index is used
    if (
        reused
        or len(first) != SLOTS_PER_PANTS * len(pants_set)
        or not set(map(itemgetter(1), first)) <= _SLOT_INDICES
    ):
        for p in pants:
            for k in range(SLOTS_PER_PANTS):
                users = reused.get((p, k))
                if users:
                    violations.append(
                        Violation(
                            "SlotCountError",
                            f"slot ({p!r}, {k}) used {len(users)} times: "
                            + ", ".join(map(what, users)),
                        )
                    )
                elif (p, k) not in first:
                    violations.append(Violation("SlotCountError", f"slot ({p!r}, {k}) is unused"))

    if len(g.pants) > 1 and not unhashable:
        h = g.pants_graph
        # the pants graph leaves out self-gluings, so a self-glued unknown
        # pants, an isolated part of the surface, is counted apart
        lone = {
            c.ends[0].pants for c in g.curves if c.is_self_gluing and c.ends[0].pants not in h
        }
        parts = sorted(g.pants_lowpoints[2] + [1] * len(lone))
        if len(parts) > 1:
            violations.append(
                Violation("ConnectivityError", f"pants graph splits into parts of sizes {parts}")
            )
    return tuple(violations)


# ---------------------------------------------------------------------------
# generators


def _handle_block(pants, curves, open_slot, tag):
    """Append one handle block to ``pants`` and ``curves``: the connector
    pants ``cp{tag}`` glued to ``open_slot`` along ``c{tag}``, the tube
    ``t{tag}`` to the handle pants ``hp{tag}`` and its self-gluing
    ``h{tag}``.  Returns the connector's free slot.

    The builders make each record with ``tuple.__new__``, as the reader
    does: a namedtuple's generated ``__new__`` costs about 2.5 times as
    much per record."""
    new = tuple.__new__
    cp, hp = f"cp{tag}", f"hp{tag}"
    pants += [cp, hp]
    curves += [
        new(Curve, (f"c{tag}", (open_slot, new(PantsSlot, (cp, 0))))),
        new(Curve, (f"t{tag}", (new(PantsSlot, (cp, 1)), new(PantsSlot, (hp, 0))))),
        new(Curve, (f"h{tag}", (new(PantsSlot, (hp, 1)), new(PantsSlot, (hp, 2))))),
    ]
    return new(PantsSlot, (cp, 2))


def build_finite_surface(genus, boundary):
    """Canonical pants decomposition of the compact surface S_{genus,boundary}.

    The decomposition is a chain: self-glued handle blocks for the genus,
    connector pants between them, boundary legs at the tail.  When genus >= 1
    and boundary >= 2 the first boundary circle sits on a cuff of two pants
    glued along two curves, so that some pants carries slots (curve, curve,
    boundary) with both curves nonseparating.

    Raises :class:`ComplexityTooLow` when 3*genus - 3 + boundary < 1, since
    such surfaces have no curve to decompose along.
    """
    if genus < 0 or boundary < 0:
        raise ValueError("genus and boundary must be nonnegative")
    complexity = 3 * genus - 3 + boundary
    if complexity < 1:
        raise ComplexityTooLow(f"S_({genus},{boundary}) has complexity {complexity}")

    new = tuple.__new__
    pants = []
    curves = []
    bmarks = []

    # open_slot walks the free right end of the chain
    if genus == 0:
        # a boundary chain, boundary >= 4, from tp0 through the legs to tp1
        pants.append("tp0")
        bmarks += [new(PantsSlot, ("tp0", 0)), new(PantsSlot, ("tp0", 1))]
        open_slot = new(PantsSlot, ("tp0", 2))
        handles = ()
        legs = boundary - 4
    elif boundary >= 2:
        pants += ["xp", "yp"]
        bmarks.append(new(PantsSlot, ("xp", 0)))
        curves.append(new(Curve, ("a", (new(PantsSlot, ("xp", 1)), new(PantsSlot, ("yp", 0))))))
        curves.append(new(Curve, ("b", (new(PantsSlot, ("xp", 2)), new(PantsSlot, ("yp", 1))))))
        open_slot = new(PantsSlot, ("yp", 2))
        handles = range(1, genus)
        legs = boundary - 2
    else:
        pants.append("hp0")
        curves.append(new(Curve, ("h0", (new(PantsSlot, ("hp0", 1)), new(PantsSlot, ("hp0", 2))))))
        open_slot = new(PantsSlot, ("hp0", 0))
        handles = range(1, genus) if boundary >= 1 else range(1, genus - 1)
        legs = max(boundary - 1, 0)

    for k in handles:
        open_slot = _handle_block(pants, curves, open_slot, k)

    for j in range(1, legs + 1):
        mp = f"mp{j}"
        pants.append(mp)
        curves.append(new(Curve, (f"s{j}", (open_slot, new(PantsSlot, (mp, 0))))))
        bmarks.append(new(PantsSlot, (mp, 1)))
        open_slot = new(PantsSlot, (mp, 2))

    if genus == 0:
        pants.append("tp1")
        curves.append(new(Curve, (f"s{legs + 1}", (open_slot, new(PantsSlot, ("tp1", 0))))))
        bmarks += [new(PantsSlot, ("tp1", 1)), new(PantsSlot, ("tp1", 2))]
    elif boundary >= 1:
        bmarks.append(open_slot)
    else:
        # close the chain with a terminal handle block
        hp = f"hp{genus - 1}"
        pants.append(hp)
        curves += [
            new(Curve, (f"c{genus - 1}", (open_slot, new(PantsSlot, (hp, 0))))),
            new(Curve, (f"h{genus - 1}", (new(PantsSlot, (hp, 1)), new(PantsSlot, (hp, 2))))),
        ]
    return GluingGraph(pants, curves, bmarks)


def _arm(pants, curves, open_slot, side, depth):
    """Append handle blocks ``{side}1`` .. ``{side}{depth - 1}`` from
    ``open_slot`` outward and end the arm with the frontier curve
    ``c{side}{depth}``."""
    for k in range(1, depth):
        open_slot = _handle_block(pants, curves, open_slot, f"{side}{k}")
    curves.append(tuple.__new__(Curve, (f"c{side}{depth}", (open_slot,))))


def _loch_ness(depth):
    new = tuple.__new__
    pants = ["hp0"]
    curves = [new(Curve, ("h0", (new(PantsSlot, ("hp0", 1)), new(PantsSlot, ("hp0", 2)))))]
    _arm(pants, curves, new(PantsSlot, ("hp0", 0)), "", depth)
    return GluingGraph(pants, curves)


def _ladder(depth):
    new = tuple.__new__
    pants = ["cp0", "hp0"]
    curves = [
        new(Curve, ("t0", (new(PantsSlot, ("cp0", 0)), new(PantsSlot, ("hp0", 0))))),
        new(Curve, ("h0", (new(PantsSlot, ("hp0", 1)), new(PantsSlot, ("hp0", 2))))),
    ]
    _arm(pants, curves, new(PantsSlot, ("cp0", 1)), "l", depth)
    _arm(pants, curves, new(PantsSlot, ("cp0", 2)), "r", depth)
    return GluingGraph(pants, curves)


def _cantor_tree(depth):
    new = tuple.__new__
    pants = ["bp", "hp"]
    curves = [
        new(Curve, ("t", (new(PantsSlot, ("bp", 0)), new(PantsSlot, ("hp", 0))))),
        new(Curve, ("h", (new(PantsSlot, ("hp", 1)), new(PantsSlot, ("hp", 2))))),
    ]
    # bp{a} offers child slots 1 and 2 for addresses a+"0" and a+"1"
    child_slot = {"0": new(PantsSlot, ("bp", 1)), "1": new(PantsSlot, ("bp", 2))}
    level = ["0", "1"]
    for _ in range(depth - 1):
        next_level = []
        for a in level:
            free = _handle_block(pants, curves, child_slot.pop(a), a)
            bp = f"bp{a}"
            pants.append(bp)
            curves.append(new(Curve, (f"s{a}", (free, new(PantsSlot, (bp, 0))))))
            child_slot[a + "0"] = new(PantsSlot, (bp, 1))
            child_slot[a + "1"] = new(PantsSlot, (bp, 2))
            next_level += [a + "0", a + "1"]
        level = next_level
    for a in level:
        curves.append(new(Curve, (f"c{a}", (child_slot.pop(a),))))
    return GluingGraph(pants, curves)


_GENERATORS = {
    InfiniteModel.LOCH_NESS: _loch_ness,
    InfiniteModel.LADDER: _ladder,
    InfiniteModel.CANTOR_TREE: _cantor_tree,
}


def build_truncation(model, depth):
    """Depth-``depth`` truncation of one of the built-in infinite models.

    The result is a valid GluingGraph whose frontier curves mark where the
    infinite surface continues.  Truncations nest: the depth-d graph is an
    induced subgraph of the depth-(d+1) graph and identifiers are stable, so
    a frontier curve keeps its id when deepening completes it.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return _GENERATORS[_as_model(model)](depth)


# ---------------------------------------------------------------------------
# JSON


def surface_to_json(g):
    """Plain-dict form of a gluing graph, with deterministic ordering."""
    return {
        "pants": list(g.pants),
        "curves": [{"id": c.id, "ends": list(map(list, c.ends))} for c in g.curves],
        "boundary": list(map(list, g.boundary)),
        "frontier": list(g.frontier),
    }


# ``what.format(*args)`` names the checked value in the error, formatted
# only when raising.  The reader tests each value inline and calls these
# only on one that fails, so that each message has one home.


def _array(value, what, *args):
    if type(value) is not list:
        raise FormatError(
            f"{what.format(*args)} must be a JSON array, got {type(value).__name__}"
        )
    return value


def _string(value, what, *args):
    if type(value) is not str:
        raise FormatError(f"{what.format(*args)} is not a JSON string: {value!r}")
    return value


def _strings(values, what):
    """``values`` if each is a JSON string, else the error of the first
    that is not."""
    if not set(map(type, values)) <= {str}:
        for value in values:
            _string(value, what)
    return values


def _slot(pair, what, *args):
    p, k = pair
    if type(k) is not int:
        raise FormatError(
            f"{what.format(*args)} has a slot index that is not an integer: {k!r}"
        )
    if type(p) is not str:
        raise FormatError(f"pants of {what.format(*args)} is not a JSON string: {p!r}")
    return PantsSlot(p, k)


def _check_ids(curves):
    """Raise the :func:`_unreferable` error of the first of ``curves``
    whose id curve references cannot carry."""
    problems = _unreferable([c.id for c in curves])
    if problems:
        raise FormatError(problems[0]) from None


def surface_from_json(doc):
    """Rebuild a GluingGraph from its dict form.

    Raises :class:`FormatError` on schema problems, including a field that
    is not a JSON array where one is due (``pants``, ``curves``,
    ``boundary``, a curve's ``ends``, ``frontier``), a slot index that is
    not a JSON integer, a pants id, curve id, slot pants or ``frontier``
    entry that is not a JSON string, a curve id that is empty or holds
    ``:`` or ``,`` (which curve references cannot carry), a repeated pants
    or curve id, a curve id equal to a pants id, and a ``frontier`` list
    inconsistent with the one-ended curves.
    """
    new = tuple.__new__
    try:
        pants = _strings(_array(doc["pants"], "pants"), "pants id")
        curves = []
        try:
            for rec in _array(doc["curves"], "curves"):
                raw_ends = rec["ends"]
                cid = rec.get("id")
                if type(raw_ends) is not list:
                    _array(raw_ends, "curve {!r} ends", cid)
                ends = []
                for pair in raw_ends:
                    if (
                        type(pair) is list and len(pair) == 2
                        and type(pair[1]) is int and type(pair[0]) is str
                    ):
                        ends.append(new(PantsSlot, pair))
                    else:
                        ends.append(_slot(pair, "curve {!r}", cid))
                if not 1 <= len(ends) <= 2:
                    raise FormatError(f"curve {cid!r} has {len(ends)} ends")
                if type(cid) is not str:
                    _string(rec["id"], "curve id")
                curves.append(new(Curve, (cid, tuple(ends))))
        except (FormatError, KeyError, TypeError, ValueError):
            # the ids are checked once all curves are read; an earlier
            # curve's bad id is still the error reported
            _check_ids(curves)
            raise
        _check_ids(curves)
        boundary = [
            new(PantsSlot, pair)
            if type(pair) is list and len(pair) == 2
            and type(pair[1]) is int and type(pair[0]) is str
            else _slot(pair, "boundary mark")
            for pair in _array(doc["boundary"], "boundary")
        ]
        declared = sorted(
            _strings(_array(doc.get("frontier", []), "frontier"), "frontier entry")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed surface document: {exc}") from exc
    duplicate = next(_duplicate_ids(pants, [c.id for c in curves]), None)
    if duplicate is not None:
        raise FormatError(duplicate)
    g = GluingGraph(pants, curves, boundary)
    frontier = list(g.frontier)  # in id order, as the curves are
    if declared != frontier:
        raise FormatError(
            f"frontier list {declared} does not match one-ended curves {frontier}"
        )
    return g


def _json_value(v):
    """A value of the document that is not a plain string or slot index,
    as :func:`json.dumps` writes it inside the document."""
    return json.dumps(v, ensure_ascii=False)


def dumps_surface(g):
    """Serialize to a stable JSON string (byte-reproducible).

    The text is ``json.dumps(surface_to_json(g), ensure_ascii=False)``
    followed by a newline, byte for byte, and a value that JSON cannot
    hold raises the same error.  It is written directly, one f-string per
    curve, with no dict per curve: a value of exact class ``str`` goes
    through :func:`json.encoder.encode_basestring`, an ``int`` slot index
    is written as is, and any other value (a bool, a float, an id that is
    not a string) through :func:`json.dumps`.  A curve end and a boundary
    mark, each a :class:`PantsSlot`, are written alike as the pair it
    unpacks to: by the one local writer ``pairs``, save the ends of a
    two-ended curve, written inline since a call per curve costs more.
    """
    enc, dump = encode_basestring, _json_value

    def pairs(ends):
        return ", ".join([
            f"[{enc(p) if p.__class__ is str else dump(p)}, {k if k.__class__ is int else dump(k)}]"
            for p, k in ends
        ])

    pants = ", ".join([enc(p) if p.__class__ is str else dump(p) for p in g.pants])
    curves = []
    frontier = []
    for cid, ends in g.curves:
        cid = enc(cid) if cid.__class__ is str else dump(cid)
        if len(ends) == 2:
            (p, k), (q, m) = ends
            curves.append(
                f'{{"id": {cid}, "ends": [[{enc(p) if p.__class__ is str else dump(p)}, '
                f"{k if k.__class__ is int else dump(k)}], "
                f"[{enc(q) if q.__class__ is str else dump(q)}, "
                f"{m if m.__class__ is int else dump(m)}]]}}"
            )
            continue
        if len(ends) == 1:
            frontier.append(cid)
        curves.append(f'{{"id": {cid}, "ends": [{pairs(ends)}]}}')
    return (
        f'{{"pants": [{pants}], "curves": [{", ".join(curves)}], '
        f'"boundary": [{pairs(g.boundary)}], "frontier": [{", ".join(frontier)}]}}\n'
    )


def loads_surface(text):
    """Parse a surface document.  Text that is not JSON, nests too deeply
    for the parser or holds an integer too long for Python to convert is a
    :class:`FormatError` whose detail starts ``not JSON:``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not JSON: {exc}") from exc
    return surface_from_json(doc)
