"""Slope arithmetic in windows and the global intersection table.

A window is an embedded subsurface spanned by one decomposition curve: a
self-glued pants gives a one-holed torus, a curve joining two otherwise
unrelated pants spans a four-holed sphere.  Curves inside a window are named
by coprime slopes (p, q), with the window's center curve at (0, 1) and the
dual curve at (1, 0).  Intersection numbers inside a window are determinant
formulas: |p1*q2 - q1*p2| on the torus, twice that on the sphere.  The sign
conventions (slope normalization, twist direction) are fixed once by drawing
line classes on the square torus; everything downstream inherits them.

Besides window curves the inventory has plain decomposition curves and dual
chains, which cross a path of decomposition curves between two handles.
``global_intersection`` evaluates exactly the pairings the rest of the
package needs and returns None for pairs outside its table.  None means
undefined, not zero; callers must branch on it.
"""

import math
from collections import namedtuple
from functools import cached_property

from .errors import (
    FormatError,
    IntersectionTooSmall,
    NotTorusWindow,
    UndefinedPair,
    UnknownCurve,
    WrongIntersection,
    ZeroSlope,
)


class _SlopeFields:
    """The slots of :class:`Slope` and of the open class it is built in."""

    __slots__ = ("p", "q")


class _OpenSlope(_SlopeFields):
    __slots__ = ()


class Slope(_SlopeFields):
    """A coprime pair naming a curve in a window; q > 0, or (p,q) = (1,0).

    An immutable, slotted pair: slopes hash, compare and order as the
    tuple (p, q), but equal no tuple, only another Slope (``>`` and ``>=``
    are ``__lt__`` and ``__le__`` reflected).  Assigning
    ``p`` or ``q`` raises AttributeError.  The public constructor
    validates: ``Slope(p, q)`` raises ValueError unless the pair is already
    reduced and sign-normalized.  To name the slope of an arbitrary nonzero
    integer pair, use :func:`make_slope`.  Every slope, this
    constructor's included, is built by :func:`_slope`, which says how.
    """

    __slots__ = ()

    def __new__(cls, p, q):
        if q < 0 or (q == 0 and p != 1):
            raise ValueError(f"slope ({p}, {q}) is not sign-normalized")
        if math.gcd(abs(p), q) != 1:
            raise ValueError(f"slope ({p}, {q}) is not reduced")
        return _slope(p, q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Slope")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Slope")

    def __reduce__(self):
        return Slope, (self.p, self.q)

    def __repr__(self):
        return f"Slope(p={self.p!r}, q={self.q!r})"

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __hash__(self):
        return hash((self.p, self.q))

    def __eq__(self, other):
        if other.__class__ is Slope:
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is Slope:
            return (self.p, self.q) < (other.p, other.q)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is Slope:
            return (self.p, self.q) <= (other.p, other.q)
        return NotImplemented


def _slope(p, q):
    """The one builder of a Slope, from a pair that is already reduced and
    sign-normalized; it checks neither.  :class:`Slope`'s refusing
    ``__setattr__`` blocks plain slot stores, and a slot descriptor call
    per field costs more than a store, so the fields are stored on an
    :class:`_OpenSlope`, which shares the slots, and the object's class is
    then switched to Slope.  :func:`twist` repeats these steps inline."""
    s = _OpenSlope()
    s.p = p
    s.q = q
    s.__class__ = Slope
    return s


def make_slope(p, q):
    """Reduce and sign-normalize an integer pair into a Slope.

    One gcd reduces the pair (the division is skipped when it is already
    coprime), the sign is normalized, and the Slope is built by
    :func:`_slope` without running the constructor's validation again,
    since the pair is valid by construction.  Raises :class:`ZeroSlope`
    on (0, 0), which names no curve.
    """
    d = math.gcd(p, q)
    if d != 1:
        if d == 0:
            raise ZeroSlope("the pair (0, 0) names no curve")
        p, q = p // d, q // d
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _slope(p, q)


def parse_slope(text):
    """Parse ``p/q`` into a Slope.

    Raises :class:`FormatError` on anything else, including ``0/0``.
    """
    try:
        p_text, q_text = text.split("/")
        return make_slope(int(p_text), int(q_text))
    except (ValueError, ZeroSlope) as exc:
        raise FormatError(f"expected a slope like 3/2, got {text!r}") from exc


def slopes_up_to(bound):
    """All normalized slopes with |p|, |q| <= bound, sorted."""
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    # emitted in (p, q) order, the Slope order
    return [
        make_slope(p, q)
        for p in range(-bound, bound + 1)
        for q in range(bound + 1)
        if (q > 0 or p == 1) and math.gcd(p, q) == 1
    ]


# ---------------------------------------------------------------------------
# windows


class Window(namedtuple("Window", "kind center support cuff_slots")):
    """A one-holed-torus or four-holed-sphere neighbourhood of a curve.

    ``kind`` is ``"torus"`` or ``"sphere"``, ``center`` the id of the
    center curve and ``support`` the tuple of its pants ids.
    ``cuff_slots`` are the pants slots along which the window meets the rest
    of the surface (one for a torus window, four for a sphere window, in
    support order).  A namedtuple, so a window equals the plain tuple of
    its four fields; it keeps a ``__dict__`` for its cached ``scale``.
    """

    @cached_property
    def scale(self):
        """Intersection-number multiplier: 1 on the torus, 2 on the sphere."""
        return 1 if self.kind == "torus" else 2


def abstract_window(kind):
    """A detached window for pure slope arithmetic with no ambient surface."""
    if kind not in ("torus", "sphere"):
        raise ValueError(f"window kind must be torus or sphere, got {kind!r}")
    return Window(kind=kind, center="window", support=(), cuff_slots=())


def window_around(g, center_id):
    """The window spanned by a decomposition curve of ``g``.

    A self-gluing curve spans a torus window on its pants.  A curve joining
    two distinct pants spans a sphere window provided the union really is a
    four-holed sphere: the two pants share no second curve and neither
    carries a self-gluing.  Raises :class:`UnknownCurve` otherwise.

    Each call examines the center afresh.  The library calls it once per
    center: the window curve references of one center share the window
    kept in :attr:`GluingGraph.ref_table` on the record of the center's
    dual curve (see :func:`_resolve`), which
    :func:`~curvelab.complexes.curve_inventory` looks up to find centers.
    """
    from .surface import PantsSlot  # here, so that slope-only calls skip loading surface

    c = g.ordinary_curve(center_id)
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
                        f"no sphere window around {c.id!r}: pants {pid!r} "
                        f"carries the self-gluing {cid!r}"
                    )
                if cid != c.id and not other.is_frontier and set(
                    g.pants_of_curve(cid)
                ) == set(support):
                    raise UnknownCurve(
                        f"no sphere window around {c.id!r}: {cid!r} also "
                        f"joins its two pants"
                    )
        cuffs = tuple(
            PantsSlot(end.pants, k)
            for end in c.ends
            for k in range(3)
            if k != end.slot
        )
        kind = "sphere"
    return Window(kind=kind, center=c.id, support=support, cuff_slots=cuffs)


def window_intersection(w, s1, s2):
    """Geometric intersection number of two slope curves in one window."""
    return w.scale * abs(s1.p * s2.q - s1.q * s2.p)


def twist(w, along, s, direction=1):
    """Dehn twist of slope ``s`` along slope ``along`` in window ``w``.

    The action is s + direction * scale * det(s, along) * along, which
    fixes ``along`` and preserves every pairwise window intersection
    number.  The window's scale (2 on the sphere) makes it the Dehn twist,
    not the half-twist, in both kinds: i(T^k(s), s) = |k| i(along, s)^2.
    ``direction`` is the int 1 or -1; anything else, a float or a bool
    included, raises ValueError.

    The action is a unimodular linear map, so it sends a coprime pair to a
    coprime pair: the image of a Slope needs no gcd, only the sign
    normalization (q > 0, or the pair (1, 0)).  The image is built by the
    steps of :func:`_slope`, inline: the call would cost a tenth of a twist.
    """
    if direction.__class__ is not int or direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    ap = along.p
    aq = along.q
    sp = s.p
    sq = s.q
    d = direction * w.scale * (sp * aq - sq * ap)
    p = sp + d * ap
    q = sq + d * aq
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    t = _OpenSlope()
    t.p = p
    t.q = q
    t.__class__ = Slope
    return t


def is_triple(w, a, b, c):
    """Whether three slopes are pairwise distinct and pairwise intersect
    once in the torus window ``w``."""
    if w.kind != "torus":
        raise NotTorusWindow(f"triples live in torus windows, not {w.kind}")
    if len({a, b, c}) != 3:
        return False
    return (
        window_intersection(w, a, b) == 1
        and window_intersection(w, b, c) == 1
        and window_intersection(w, a, c) == 1
    )


def triple_completion(w, a, b):
    """Complete two slopes crossing >= 2 times to a triple through ``a``.

    Returns (g, g2) with {a, g, g2} a triple, i(a,b) = i(b,g) + i(b,g2),
    both summands positive, and g2 the positive twist of g along a.  Works
    by moving a to (0,1) with a unimodular map; against (0,1) the two Farey
    neighbours of b are read off the division b.q = s*b.p + t.
    """
    if w.kind != "torus":
        raise NotTorusWindow(f"triple completion needs a torus window, not {w.kind}")
    n = window_intersection(w, a, b)
    if n < 2:
        raise IntersectionTooSmall(f"i(a, b) = {n}; completion needs at least 2")
    # any u, v with u*a.p + v*a.q = 1 do: the pair (u + k*a.q, v - k*a.p)
    # raises s below by k, which cancels in g and g2
    if a.q:
        u = pow(a.p, -1, a.q)
        v = (1 - u * a.p) // a.q
    else:
        u, v = 1, 0
    # the map [[a.q, -a.p], [u, v]] has determinant 1 and sends a to (0, 1)
    big_p = a.q * b.p - a.p * b.q
    big_q = u * b.p + v * b.q
    s, _ = divmod(big_q, big_p)
    g = make_slope(v + a.p * s, -u + a.q * s)
    g2 = make_slope(v + a.p * (s + 1), -u + a.q * (s + 1))
    return g, g2


def sch04_common_neighbors(w, a, b):
    """All slopes meeting both ``a`` and ``b`` twice in a sphere window.

    For a pair meeting twice, |det(a, b)| = 1, so every slope c is x*a + y*b
    with det(c, a) = -y*det(a, b) and det(c, b) = x*det(a, b).  Meeting both
    twice forces |x| = |y| = 1, leaving exactly the sum a + b and the
    difference a - b; :func:`curvelab.verify.verify_sch04` checks this
    closed form against an exhaustive search of a coordinate box.
    """
    if w.kind != "sphere":
        raise ValueError(f"common-neighbor counting needs a sphere window, not {w.kind}")
    i = window_intersection(w, a, b)
    if i != 2:
        raise WrongIntersection(f"i(a, b) = {i}, need exactly 2")
    return {make_slope(a.p + b.p, a.q + b.q), make_slope(a.p - b.p, a.q - b.q)}


# ---------------------------------------------------------------------------
# curve references


# The three reference kinds are namedtuples of one, two and three fields:
# each equals the plain tuple of its fields, and no two kinds compare equal.


class PantsCurve(namedtuple("PantsCurve", "id")):
    """A decomposition curve, referenced by id; equal to the 1-tuple
    ``(id,)``."""

    __slots__ = ()


class WindowCurve(namedtuple("WindowCurve", "center slope")):
    """The slope curve of the window centered at a decomposition curve;
    equal to the pair ``(center, slope)``.

    Slope (0, 1) is the center itself and must be referenced as a
    PantsCurve instead.

    Not slotted: its ``text`` attribute, set on the first format, keeps
    the text :func:`format_ref` wrote for it, so a curve on many edges is
    formatted once.  The text is a cache, not state: copies and pickles
    carry none (``__getstate__`` returns None), and equality, hash, repr
    and ``_asdict()`` ignore it.
    """

    def __getstate__(self):
        return None


class DualChain(namedtuple("DualChain", "handle_a handle_b interior")):
    """A curve crossing each of two handles once and each interior path
    curve twice.  Stored with endpoints in sorted order (the interior
    reversed with them) so equal chains compare equal; equal to the
    triple ``(handle_a, handle_b, interior)``.

    Like :class:`WindowCurve`, it keeps its :func:`format_ref` text as
    its ``text`` attribute, and copies and pickles carry none."""

    def __getstate__(self):
        return None

    def __new__(cls, handle_a, handle_b, interior):
        if handle_b < handle_a:
            handle_a, handle_b, interior = handle_b, handle_a, tuple(reversed(interior))
        return tuple.__new__(cls, (handle_a, handle_b, interior))

    @property
    def path(self):
        return (self.handle_a,) + self.interior + (self.handle_b,)


def parse_ref(text):
    """Parse ``pants:ID``, ``win:ID:p/q`` or ``chain:H1:H2:ID,ID,...``."""
    parts = text.split(":")
    if parts[0] == "pants" and len(parts) == 2 and parts[1]:
        return PantsCurve(parts[1])
    if parts[0] == "win" and len(parts) == 3 and parts[1]:
        try:
            slope = parse_slope(parts[2])
        except FormatError as exc:
            raise FormatError(f"bad slope in {text!r}: {exc}") from exc
        if slope == Slope(0, 1):
            raise FormatError(
                f"slope 0/1 is the window center; write pants:{parts[1]}"
            )
        return WindowCurve(parts[1], slope)
    if parts[0] == "chain" and len(parts) == 4 and parts[1] and parts[2]:
        interior = tuple(x for x in parts[3].split(",") if x)
        return DualChain(parts[1], parts[2], interior)
    raise FormatError(f"unrecognized curve reference {text!r}")


def parse_refs(text):
    """Parse a comma-separated list of references, as ``",".join`` of
    :func:`format_ref` writes it.  A chain's interior holds commas itself,
    so a piece that starts no reference continues the one before."""
    texts = []
    for piece in text.split(","):
        if piece.startswith(("pants:", "win:", "chain:")) or not texts:
            texts.append(piece)
        else:
            texts[-1] += "," + piece
    return [parse_ref(t) for t in texts]


def format_ref(ref):
    """The text :func:`parse_ref` reads back as ``ref``.  Raises TypeError
    for anything but the three reference types.

    The text of a window curve or a dual chain is kept on the reference
    as its ``text`` attribute on its first format and read back on later
    ones: a graph document writes each vertex once per edge it is on.  A
    pants curve is formatted afresh each time: its text costs little more
    than the lookup, and keeping it would slow the first format of the
    many fresh pants references that the witness and path searches build.
    """
    kind = ref.__class__
    if kind is WindowCurve or kind is DualChain:
        try:
            return ref.text
        except AttributeError:
            pass
        if kind is WindowCurve:
            s = ref.slope
            text = f"win:{ref.center}:{s.p}/{s.q}"
        else:
            text = f"chain:{ref.handle_a}:{ref.handle_b}:{','.join(ref.interior)}"
        ref.text = text
        return text
    if kind is PantsCurve:
        return f"pants:{ref.id}"
    raise TypeError(f"not a curve reference: {ref!r}")


def resolve_ref(g, ref):
    """Validate a reference against ``g``.

    Returns the Window for a WindowCurve, the full path for a DualChain and
    the curve record for a PantsCurve.  Raises :class:`UnknownCurve` with
    the failing condition otherwise.  This is the ``found`` part of
    :func:`_resolve`, the one place checked references are kept.
    """
    return _resolve(g, ref).found


_DUAL = Slope(1, 0)


class _Resolved(namedtuple("_Resolved", "ref found support")):
    """A reference checked against a graph: what :func:`resolve_ref`
    returns for it, and the frozenset of pants supporting it (the region
    the curve lives in)."""

    __slots__ = ()


def _resolve(g, ref):
    """The record of ``ref`` checked against ``g``: read from
    :attr:`GluingGraph.ref_table`, or built by :func:`_check` and stored
    there on the first ask.  A failing reference is not stored and raises
    again with the same message.  The table trades memory for repeats: it
    keeps one record per distinct reference asked of ``g``, and the record
    of the dual curve (slope 1/0) of each window center asked, whose
    Window and support the center's window curves share.  A record is
    read only for a reference of its own class: an equal object of
    another class, such as a subclass instance or a plain tuple, goes to
    :func:`_check`, which refuses it."""
    r = g.ref_table.get(ref)
    if r is None or r.ref.__class__ is not ref.__class__:
        r = g.ref_table[ref] = _check(g, ref)
    return r


def _check(g, ref):
    """Check ``ref`` against ``g`` and collect its support from the same
    lookups.  Dispatches on the exact class of ``ref``: a subclass of a
    reference type, like any other object, is an unsupported reference,
    so :func:`_pairing` sees only the three classes it knows."""
    kind = ref.__class__
    if kind is PantsCurve:
        c = g.ordinary_curve(ref.id)
        return _Resolved(ref, c, frozenset(g.pants_of_curve(ref.id)))
    if kind is WindowCurve:
        if ref.slope == Slope(0, 1):
            raise UnknownCurve(
                f"slope 0/1 duplicates the center; use pants:{ref.center}"
            )
        # the window curves of a center share one Window: the one on the
        # record of its dual curve, stored with the first of them checked
        dual = WindowCurve(ref.center, _DUAL)
        r = g.ref_table.get(dual)
        if r is None:
            w = window_around(g, ref.center)
            r = g.ref_table[dual] = _Resolved(dual, w, frozenset(w.support))
        return r if ref == dual else _Resolved(ref, r.found, r.support)
    if kind is DualChain:
        if ref.handle_a == ref.handle_b:
            raise UnknownCurve("a dual chain needs two distinct handles")
        for h in (ref.handle_a, ref.handle_b):
            if not g.ordinary_curve(h).is_self_gluing:
                raise UnknownCurve(f"chain endpoint {h!r} is not a handle curve")
        path = ref.path
        if len(set(path)) != len(path):
            raise UnknownCurve(f"chain path {path} repeats a curve")
        for cid in ref.interior:
            g.ordinary_curve(cid)
        pants = {cid: set(g.pants_of_curve(cid)) for cid in path}
        for u, w_ in zip(path, path[1:]):
            if not pants[u] & pants[w_]:
                raise UnknownCurve(
                    f"chain path breaks between {u!r} and {w_!r}: no common pants"
                )
        return _Resolved(ref, path, frozenset().union(*pants.values()))
    raise UnknownCurve(f"unsupported reference {ref!r}")


def _pairing(a, b):
    """The intersection table on two resolved references; see
    :func:`global_intersection`.  The only home of the pairing rules.

    Dispatches on the exact classes of the two references, which
    :func:`_check` guarantees are the three reference classes; a pants
    curve is put first by one swap.  A pairing costs these class tests
    and at most one disjointness test of the supports.

    Two references whose supports are disjoint pair to 0, under every rule:
    a pants curve meets a window curve only as its center and a dual chain
    only on its path, both inside the other's support.
    :func:`~curvelab.complexes.local_graph` rests on this and never asks
    such a pair, so a new rule must keep it."""
    c1 = a.ref
    c2 = b.ref
    k1 = c1.__class__
    k2 = c2.__class__
    if k2 is PantsCurve:
        if k1 is PantsCurve:
            return 0
        a, b, c1, c2, k1, k2 = b, a, c2, c1, k2, k1
    if k1 is PantsCurve:
        if k2 is WindowCurve:
            return b.found.scale * abs(c2.slope.p) if c1.id == c2.center else 0
        if c1.id == c2.handle_a or c1.id == c2.handle_b:
            return 1
        return 2 if c1.id in c2.interior else 0
    if k1 is k2:
        if k1 is WindowCurve:
            if c1.center == c2.center:
                return window_intersection(a.found, c1.slope, c2.slope)
        elif c1 == c2:  # one dual chain twice
            return 0
    return 0 if a.support.isdisjoint(b.support) else None


def global_intersection(g, c1, c2):
    """Geometric intersection number for the supported pairings, else None.

    The defined table: pants curves are pairwise disjoint (0); a window
    curve meets its center |p| (torus) or 2|p| (sphere) times and no other
    pants curve (any other curve near the window is one of its boundary
    circles); two curves of one window use the determinant formula; curves
    of windows with disjoint supports are disjoint; a dual chain meets each
    endpoint handle once, each interior path curve twice and every other
    pants curve not at all; chains against window curves or other chains are
    only defined when supports are disjoint (0) or the refs are equal (0).
    None is a value meaning "outside the table", never an error.  Curves
    whose supports (the pants they live on) are disjoint always get 0;
    any new rule must keep that, since
    :func:`~curvelab.complexes.local_graph` does not ask such pairs.

    Looks up ``c1``, then ``c2``, in the graph's table of checked
    references (see :func:`_resolve`), checking each on its first ask and
    raising :class:`UnknownCurve` for the first that fails, and then
    applies the table; a repeated call checks nothing again.
    """
    return _pairing(_resolve(g, c1), _resolve(g, c2))


def dt_vector(g, c, coords):
    """Intersection numbers of ``c`` against a coordinate family, in order.

    Returns a tuple of (formatted coordinate ref, value) pairs.  Raises
    :class:`UndefinedPair` when any pairing falls outside the defined
    domain, since a coordinate vector with holes identifies nothing.
    """
    out = []
    for coord in coords:
        val = global_intersection(g, c, coord)
        if val is None:
            raise UndefinedPair(
                f"i({format_ref(c)}, {format_ref(coord)}) is undefined"
            )
        out.append((format_ref(coord), val))
    return tuple(out)


def dt_uniqueness_check(w, bound):
    """Search for two slopes with equal coordinates against (0,1), (1,0), (1,1).

    Returns None when the coordinate map is injective on all normalized
    slopes with |p|, |q| <= bound, otherwise the first colliding pair.
    """
    basis = (Slope(0, 1), Slope(1, 0), Slope(1, 1))
    seen = {}
    for s in slopes_up_to(bound):
        key = tuple(window_intersection(w, s, d) for d in basis)
        if key in seen:
            return (seen[key], s)
        seen[key] = s
    return None


# Which pairs of cuffs (by position in Window.cuff_slots) end up on a common
# side of a sphere-window curve, keyed by the slope's parity class.
_CUFF_PAIRINGS = {
    (0, 1): ((0, 1), (2, 3)),
    (1, 0): ((0, 2), (1, 3)),
    (1, 1): ((0, 3), (1, 2)),
}


def window_curve_separates(g, w, s):
    """Whether the window curve with slope ``s`` separates the whole surface.

    ``w`` must be the window of ``g`` at ``w.center``, the one kept on the
    record of the center's dual curve (see :func:`_resolve`); any other
    window, a detached one or one of another graph, raises
    :class:`UnknownCurve`, as does a center that spans no window.

    Torus window curves never separate.  A sphere window curve splits the
    window's four cuffs two against two according to the slope's parity
    class; it separates the surface exactly when no path outside the window
    reconnects the two cuff groups.  The answer depends on the slope only
    through its parity class, so it is kept in
    :attr:`GluingGraph.window_sides` on the first ask of each class: each
    window is searched at most once per class per graph.
    """
    if _resolve(g, WindowCurve(w.center, _DUAL)).found != w:
        raise UnknownCurve(f"the {w.kind} window at {w.center!r} does not belong to this graph")
    if w.kind == "torus":
        return False
    key = (w.center, s.p % 2, s.q % 2)
    sides = g.window_sides
    answer = sides.get(key)
    if answer is None:
        answer = sides[key] = _groups_apart(g, w, _CUFF_PAIRINGS[key[1:]])
    return answer


def _groups_apart(g, w, groups):
    """Whether no path outside the sphere window ``w`` joins its two cuff
    groups.  A cuff's occupant is the last curve in id order with an end
    there; a cuff on boundary or frontier reconnects nothing.  The paths
    are searched in the cached :attr:`GluingGraph.pants_graph` without the
    window's pants, from one group's far pants to the other group's."""
    by_id = g.curve_by_id
    sides = []
    for group in groups:
        far = set()
        for k in group:
            slot = w.cuff_slots[k]
            ends = ()
            for cid in g.curves_at[slot.pants]:
                if slot in by_id[cid].ends:
                    ends = by_id[cid].ends
            if len(ends) > 1:
                far.add(next(e for e in ends if e != slot).pants)
        sides.append(far)
    start, goal = sides
    if not start or not goal:
        return True
    adj = g.pants_graph
    seen = start | set(w.support)
    stack = list(start)
    while stack:
        u = stack.pop()
        if u in goal:
            return False
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return True
