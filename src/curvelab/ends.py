"""End trees of truncated infinite surfaces.

The ends of an infinite surface are read off a truncation by watching how
the graph falls apart outside growing balls.  Fix a base vertex and a ball
schedule (radius ``stride * k`` at level ``k``).  The level-k nodes of the
end tree are the *live* components of the graph minus the ball: those still
containing a frontier mark, hence still connected to the unbounded part of
the surface.  A live component at level k+1 lies inside a unique live
component at level k, its parent.  Dead components are finite pockets and
are dropped.

The same construction runs on two graphs, each a dict from a vertex to
its sorted neighbour list: the pants graph of the decomposition
(:attr:`GluingGraph.pants_graph`; marks are the frontier-carrying pants)
and the adjacency graph A(P) (:attr:`AdjacencyGraph.adjacency_lists`;
marks are the curves lying on such pants).  For a decomposition of an
infinite surface the two trees are isomorphic, and
:func:`induced_end_correspondence` exhibits the bijection level by level
at the default stride.

A finite surface has no marks, every component is dead, and the tree is
empty at every level; it is returned at once, with no search.

A tree is a merge forest.  The components only grow as the ball shrinks,
so a vertex lies in a live component on every level from 0 down to its
deepest one, and its component on a level is the ancestor, through the
parent links, of its component on its deepest level.  The tree stores
just that: the parent links of each level, and each vertex's deepest
level with its node there.  Members are listed on the first read of
:attr:`EndTree.members`, for every level at once, in one sweep from the
deepest level up.

The whole tree comes from at most two breadth-first searches and one
union-find pass.  With the default base, a multi-source search from the
marks first picks the base (:func:`default_base`); a second one, from the
base, fixes for each vertex the deepest level whose ball it lies outside.
Adding the vertices in order of decreasing distance to a union-find
structure, and reading out the components that hold a mark before each
ball radius is crossed, is offline connectivity by reverse deletion
(Tarjan 1975), and the live components it reads out form the merge tree
of the distance function (Carr, Snoeyink and Axen 2003, "Computing
contour trees in all dimensions").  With path halving,
small-into-large moves of the vertices still waiting for a live
component, and sorting, it takes O((n + m) log n) for n vertices and m
edges, plus the number of nodes.

:func:`induced_end_correspondence` reads the two trees level by level from
the deepest up.  It keeps one flat union-find list per tree over all its
nodes and links each level to its parents before reading it, so the root
of a deeper node is its ancestor on the current level.  Each (curve,
pants) incidence is read on the shallower of the two deepest levels, and
only its deeper side is looked up.

Each tree is searched once per query: the graph searched keeps it under
``(depth, base, stride)``, the pants-graph trees in
:attr:`GluingGraph.end_trees` and the A(P) trees in
:attr:`AdjacencyGraph.end_trees` of the graph's one
:attr:`GluingGraph.adjacency_graph`.  A later call with the same query, and
:func:`induced_end_correspondence`, get the same tree back.  Trees are
immutable, so sharing one is safe.
"""

import math
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from ._graph import bfs_distances
from .errors import BijectionFailure, DepthExceedsTruncation, DepthMismatch

DEFAULT_STRIDE = 2


class EndTreeNode(namedtuple("EndTreeNode", "parent")):
    """One live component, as read from :attr:`EndTree.levels`.

    ``parent`` is the index of the component holding it on the previous
    level (None at level 0).  The members of node i of level k are
    ``tree.members[k][i]``.
    """

    __slots__ = ()


class EndTree(namedtuple("EndTree", "base stride parents deepest")):
    """Levelled forest of live components around ``base``, as a merge
    forest.

    ``parents[k][i]`` is the index on level k-1 of the component holding
    node i of level k (None on level 0); nodes of a level are ordered by
    their smallest member.  ``deepest[k]`` pairs each vertex whose deepest
    live level is k with the index of its node there, sorted by vertex.
    Two trees are equal exactly when their bases, strides, parents and
    members agree.  The tree of a surface with no frontier has every level
    empty.

    ``base`` is a vertex id (None for an empty graph) and ``stride`` an
    int; ``parents`` and ``deepest`` are tuples of tuples.  A namedtuple:
    a tree hashes and compares as the tuple of those four fields, which
    it equals, and keeps a ``__dict__`` for its cached ``levels`` and
    ``members``.
    """

    @cached_property
    def levels(self):
        """The nodes level by level: ``levels[k][i]`` is node i of level k,
        with its ``parent``, as a tuple of tuples.  Empty levels are
        ``()``."""
        return tuple(tuple(map(EndTreeNode, ps)) for ps in self.parents)

    @cached_property
    def members(self):
        """``members[k][i]`` is the sorted tuple of the vertices of node i
        of level k.  The first read lists every level in one sweep from the
        deepest level up: a node holds the vertices whose deepest node it
        is and the members of its children."""
        parents, deepest = self.parents, self.deepest
        members = [()] * len(parents)
        below = ()
        for k in range(len(parents) - 1, -1, -1):
            lists = [[] for _ in parents[k]]
            for v, i in deepest[k]:
                lists[i].append(v)
            if below:
                for p, m in zip(parents[k + 1], below):
                    lists[p] += m
            for m in lists:
                m.sort()  # its own vertices and each child's members are sorted runs
            below = members[k] = tuple(map(tuple, lists))
        return tuple(members)

    @property
    def depth(self):
        return len(self.parents) - 1

    def leaf_counts(self):
        """Number of live components at each level."""
        return tuple(len(lv) for lv in self.parents)

    def canonical(self):
        """Canonical bracket string of the forest, invariant under
        relabelling (children are sorted recursively)."""
        labels = []
        for k in range(len(self.parents) - 1, -1, -1):
            children = [[] for _ in self.parents[k]]
            if k + 1 < len(self.parents):
                for p, lab in zip(self.parents[k + 1], labels):
                    children[p].append(lab)
            labels = ["(" + "".join(sorted(c)) + ")" for c in children]
        return "(" + "".join(sorted(labels)) + ")"


def default_base(h, marks):
    """The vertex of the graph ``h`` (a dict of sorted neighbour lists)
    farthest from every mark (maximin distance), ties broken by name.  A
    vertex no mark reaches is farthest of all, so with no marks any vertex
    does; the smallest is returned."""
    if not h:
        return None
    dist = bfs_distances(h, [m for m in marks if m in h])
    if len(dist) < len(h):
        return min(h.keys() - dist.keys())
    # the search lists the vertices by distance, so the farthest come last
    farthest = reversed(dist.items())
    base, far = next(farthest)
    for v, d in farthest:
        if d != far:
            break
        if v < base:
            base = v
    return base


def _find(link, x):
    """The root of ``x`` in the union-find forest ``link`` (a dict or a
    list, each entry pointing to its parent, a root to itself), with path
    halving."""
    while link[x] != x:
        link[x] = link[link[x]]
        x = link[x]
    return x


def _end_tree(h, marks, depth, base, stride):
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    marks = set(m for m in marks if m in h)
    if base is None:
        base = default_base(h, marks)
    elif base not in h:
        raise ValueError(f"base {base!r} is not a vertex of this graph")
    if not marks:
        empty = ((),) * (depth + 1)
        return EndTree(base=base, stride=stride, parents=empty, deepest=empty)

    dist = bfs_distances(h, [base])
    inner = [m for m in marks if dist.get(m, math.inf) <= stride * depth]
    if inner:
        raise DepthExceedsTruncation(
            f"frontier mark {min(inner)!r} lies within distance "
            f"{stride * depth} of base {base!r}; deepen the truncation"
        )

    # A vertex at distance d lies outside the level-k ball exactly when
    # k <= (d - 1) // stride; unreachable vertices lie outside every ball.
    entering = [[] for _ in range(depth + 1)]
    for v, d in dist.items():
        k = (d - 1) // stride
        if k >= depth:
            entering[depth].append(v)
        elif k >= 0:
            entering[k].append(v)
    if len(dist) < len(h):
        entering[depth] += h.keys() - dist.keys()

    # Union-find over the outside of the ball, grown level by level from
    # the deepest one inward.  The root of a component is its smallest
    # vertex, which orders the live ones.  Each root keeps the vertices
    # that have not yet lain in a live component: the first level where
    # it is live is their deepest.
    root = {}
    waiting = {}
    live = set()

    parents = [()] * (depth + 1)
    deepest = [()] * (depth + 1)
    below = []
    for k in range(depth, -1, -1):
        for v in entering[k]:
            root[v] = v
            waiting[v] = [v]
            if v in marks:
                live.add(v)
            top = v  # the root of v's component
            for u in h[v]:
                up = root.get(u)
                if up is None:
                    continue
                while up != u:  # find u's root, halving the path
                    root[u] = up = root[up]
                    u, up = up, root[up]
                if u == top:
                    continue
                keep, gone = (u, top) if u < top else (top, u)
                root[gone] = keep
                moved = waiting.pop(gone)
                if len(moved) > len(waiting[keep]):
                    moved, waiting[keep] = waiting[keep], moved
                waiting[keep].extend(moved)
                if gone in live:
                    live.discard(gone)
                    live.add(keep)
                top = keep
        nodes = sorted(live)
        index = {r: i for i, r in enumerate(nodes)}
        deepest[k] = tuple(sorted((v, i) for i, r in enumerate(nodes) for v in waiting[r]))
        for r in nodes:
            waiting[r].clear()
        if k < depth:
            parents[k + 1] = tuple(index[_find(root, r)] for r in below)
        below = nodes
    parents[0] = (None,) * len(below)
    return EndTree(base=base, stride=stride, parents=tuple(parents), deepest=tuple(deepest))


def _kept_tree(memo, h, marks, depth, base, stride):
    """The end tree of ``h`` for the query, from ``memo`` (the searched
    value's ``end_trees``) under ``(depth, base, stride)``; searched and
    kept there on the query's first call.  A refused query raises and
    keeps nothing, so it raises again on the next call."""
    key = (depth, base, stride)
    tree = memo.get(key)
    if tree is None:
        tree = memo[key] = _end_tree(h, marks, depth, base, stride)
    return tree


def end_tree(a, depth, base=None, stride=DEFAULT_STRIDE):
    """End tree of an adjacency graph ``a`` (an :class:`AdjacencyGraph`),
    searched in its :attr:`~AdjacencyGraph.adjacency_lists` on the first
    call for ``(depth, base, stride)`` and kept in
    :attr:`~AdjacencyGraph.end_trees`; later calls return the same tree.

    Raises :class:`DepthExceedsTruncation` when some mark falls inside the
    deepest ball, since then the truncation is too shallow for the requested
    depth and deeper levels would be artifacts of the cut.
    """
    return _kept_tree(a.end_trees, a.adjacency_lists, a.marks, depth, base, stride)


def surface_end_tree(g, depth, base=None, stride=DEFAULT_STRIDE):
    """End tree of the pants graph of ``g``, marks at frontier pants;
    searched on the first call for ``(depth, base, stride)`` and kept in
    :attr:`GluingGraph.end_trees`, so later calls return the same tree."""
    return _kept_tree(g.end_trees, g.pants_graph, g.frontier_pants, depth, base, stride)


def end_trees_isomorphic(t1, t2):
    """Whether two end trees are isomorphic as levelled rooted forests.

    Raises :class:`DepthMismatch` when they were computed to different
    depths, since the comparison would be meaningless.
    """
    if t1.depth != t2.depth:
        raise DepthMismatch(f"tree depths differ: {t1.depth} vs {t2.depth}")
    return t1.canonical() == t2.canonical()


def induced_end_correspondence(g, depth):
    """Match the A(P) end tree of ``g`` with its pants-graph end tree.

    Both trees are the stride-2 trees from the default bases, the ones
    :func:`end_tree` and :func:`surface_end_tree` return for ``depth``:
    taken from the graphs' memos, and searched only when no earlier call
    asked for them.  Every level-k component of curves is sent to the
    unique live pants component meeting the supports of its curves, after
    discarding pants inside the level-k ball and pants in dead components.
    Returns ``(curve_tree, pants_tree, mapping)`` where ``mapping[k][i] =
    j`` matches node i of the curve tree to node j of the pants tree at
    level k.  Raises :class:`BijectionFailure` if any assignment is ambiguous, the
    level maps fail to be bijections, or parents do not match; the levels
    are checked from 0 down, so the failure named is the shallowest.

    A curve and a pants of its support meet on every level where both are
    live, that is up from the shallower of their deepest levels.  Each such
    incidence is taken once, on that level, and the pants components found
    for each curve component are carried up the parent links to level 0.

    The level bijection is checked at stride 2 only: at other strides a
    curve ball and a pants ball of the same radius need not nest, so it
    can fail on valid truncations.  Matching the two end spaces there needs
    an interleaving of the trees, which this module does not build yet.
    """
    ct = end_tree(g.adjacency_graph, depth)
    pt = surface_end_tree(g, depth)

    # One flat union-find list per tree over all its nodes, node i of level
    # k at start[k] + i.  Walking up from the deepest level, each level is
    # linked to its parents before it is read, so the root of a deeper
    # node is its ancestor on the current level.
    cstart = list(accumulate(map(len, ct.parents), initial=0))
    pstart = list(accumulate(map(len, pt.parents), initial=0))
    clink, plink = list(range(cstart[-1])), list(range(pstart[-1]))

    curve_node = {v: (k, cstart[k] + i) for k, level in enumerate(ct.deepest) for v, i in level}
    meets = [[] for _ in range(depth + 1)]
    for kp, level in enumerate(pt.deepest):
        first = pstart[kp]
        for p, j in level:
            for v in g.curves_at[p]:
                node = curve_node.get(v)
                if node is not None:
                    kc, x = node
                    meets[kc if kc < kp else kp].append((kc, x, kp, first + j))

    targets = [None] * (depth + 1)
    for k in range(depth, -1, -1):
        c0, p0 = cstart[k], pstart[k]
        here = [set() for _ in ct.parents[k]]
        if k < depth:
            curve_parents, pants_parents = ct.parents[k + 1], pt.parents[k + 1]
            for i, below in enumerate(targets[k + 1]):
                here[curve_parents[i]].update(pants_parents[j] for j in below)
            clink[cstart[k + 1]:cstart[k + 2]] = [c0 + i for i in curve_parents]
            plink[pstart[k + 1]:pstart[k + 2]] = [p0 + j for j in pants_parents]
        # only a side whose deepest level lies below k needs its ancestor;
        # the other is its own node on level k
        for kc, x, kp, y in meets[k]:
            if kc != k:
                x = _find(clink, x)
            if kp != k:
                y = _find(plink, y)
            here[x - c0].add(y - p0)
        targets[k] = here

    mapping = []
    for k in range(depth + 1):
        level_map = {}
        for i, found in enumerate(targets[k]):
            if len(found) != 1:
                raise BijectionFailure(
                    f"level {k}: curve component {i} meets {len(found)} live pants components"
                )
            level_map[i] = next(iter(found))
        if sorted(level_map.values()) != list(range(len(pt.parents[k]))):
            raise BijectionFailure(
                f"level {k}: map over {len(ct.parents[k])} curve components is not a "
                f"bijection onto {len(pt.parents[k])} pants components"
            )
        if k > 0:
            # the carry puts the parent of each child's target among its
            # parent's targets, so this holds once level k - 1 has passed
            for i, parent in enumerate(ct.parents[k]):
                if mapping[k - 1][parent] != pt.parents[k][level_map[i]]:
                    raise BijectionFailure(
                        f"level {k}: component {i} maps inconsistently with its parent"
                    )
        mapping.append(level_map)
    return ct, pt, mapping
