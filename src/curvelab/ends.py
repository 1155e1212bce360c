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

Every level comes from one breadth-first search and one union-find pass.
The distances from the base fix, for each vertex, the deepest level whose
ball it lies outside.  Adding the vertices in order of decreasing distance
to a union-find structure, and reading out the components that hold a
mark before each ball radius is crossed, is offline connectivity by
reverse deletion (Tarjan 1975): the components of every level and their
parent links in about O(n α(n)) besides the size of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._graph import bfs_distances
from .errors import BijectionFailure, DepthExceedsTruncation, DepthMismatch
from .pants_graphs import AdjacencyGraph, adjacency_graph

DEFAULT_STRIDE = 2


@dataclass(frozen=True)
class EndTreeNode:
    """One live component: its sorted member vertices and the index of its
    parent in the previous level (None at level 0); its level is its index
    in :attr:`EndTree.levels`."""

    members: tuple[str, ...]
    parent: int | None


@dataclass(frozen=True)
class EndTree:
    """Levelled forest of live components around ``base``.

    ``levels[k]`` lists the level-k nodes in deterministic order.  The tree
    of a surface with no frontier has every level empty.
    """

    base: str | None
    stride: int
    levels: tuple[tuple[EndTreeNode, ...], ...]

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def has_ends(self):
        return any(self.levels)

    def leaf_counts(self):
        """Number of live components at each level."""
        return tuple(len(lv) for lv in self.levels)

    def canonical(self):
        """Canonical bracket string of the forest, invariant under
        relabelling (children are sorted recursively)."""
        labels = [["" for _ in lv] for lv in self.levels]
        for k in range(len(self.levels) - 1, -1, -1):
            children = [[] for _ in self.levels[k]]
            if k + 1 < len(self.levels):
                for node, lab in zip(self.levels[k + 1], labels[k + 1]):
                    children[node.parent].append(lab)
            for i in range(len(self.levels[k])):
                labels[k][i] = "(" + "".join(sorted(children[i])) + ")"
        return "(" + "".join(sorted(labels[0])) + ")"


def default_base(h, marks):
    """The vertex of the graph ``h`` (a dict of sorted neighbour lists)
    farthest from every mark (maximin distance), ties broken by name.
    With no marks any vertex does; the smallest is returned."""
    if not h:
        return None
    dist = bfs_distances(h, [m for m in marks if m in h])
    return min(h, key=lambda v: (-dist.get(v, math.inf), v))


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
        return EndTree(base=base, stride=stride, levels=((),) * (depth + 1))

    dist = bfs_distances(h, [base])
    inner = [m for m in marks if dist.get(m, math.inf) <= stride * depth]
    if inner:
        raise DepthExceedsTruncation(
            f"frontier mark {min(inner)!r} lies within distance "
            f"{stride * depth} of base {base!r}; deepen the truncation"
        )

    # A vertex at distance d lies outside the level-k ball exactly when
    # k <= (d - 1) // stride; unreachable vertices lie outside every ball.
    entering = {}
    for v in h:
        d = dist.get(v)
        k = depth if d is None else min(depth, (d - 1) // stride)
        if k >= 0:
            entering.setdefault(k, []).append(v)

    # Union-find over the outside of the ball, grown level by level from
    # the deepest one inward; only components holding a mark are read out.
    root = {}
    members = {}
    live = set()

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    level_members = [()] * (depth + 1)
    parents = [()] * (depth + 1)
    for k in range(depth, -1, -1):
        for v in entering.get(k, ()):
            root[v] = v
            members[v] = [v]
            if v in marks:
                live.add(v)
            for u in h[v]:
                if u not in root:
                    continue
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                if len(members[ru]) < len(members[rv]):
                    ru, rv = rv, ru
                root[rv] = ru
                members[ru].extend(members.pop(rv))
                if rv in live:
                    live.discard(rv)
                    live.add(ru)
        level_members[k] = sorted(tuple(sorted(members[r])) for r in live)
        index = {find(m[0]): i for i, m in enumerate(level_members[k])}
        if k < depth:
            parents[k + 1] = [index[find(m[0])] for m in level_members[k + 1]]
    parents[0] = [None] * len(level_members[0])
    levels = tuple(
        tuple(
            EndTreeNode(members=m, parent=p)
            for m, p in zip(level_members[k], parents[k])
        )
        for k in range(depth + 1)
    )
    return EndTree(base=base, stride=stride, levels=levels)


def end_tree(a, depth, base=None, stride=DEFAULT_STRIDE):
    """End tree of an adjacency graph ``a`` (an :class:`AdjacencyGraph`),
    searched in its :attr:`~AdjacencyGraph.adjacency_lists`.

    Raises :class:`DepthExceedsTruncation` when some mark falls inside the
    deepest ball, since then the truncation is too shallow for the requested
    depth and deeper levels would be artifacts of the cut.
    """
    return _end_tree(a.adjacency_lists, set(a.marks), depth, base, stride)


def surface_end_tree(g, depth, base=None, stride=DEFAULT_STRIDE):
    """End tree of the pants graph of ``g``, marks at frontier pants."""
    return _end_tree(g.pants_graph, set(g.frontier_pants), depth, base, stride)


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

    Both trees are built at the default stride 2, each from its default
    base.  Every level-k component of curves is sent to the unique live
    pants component meeting the supports of its curves, after discarding
    pants inside the level-k ball and pants in dead components.  Returns
    ``(curve_tree, pants_tree, mapping)`` where ``mapping[k][i] = j``
    matches node i of the curve tree to node j of the pants tree at level
    k.  Raises :class:`BijectionFailure` if any assignment is ambiguous, the
    level maps fail to be bijections, or parents do not match.

    The level bijection is checked at stride 2 only: at other strides a
    curve ball and a pants ball of the same radius need not nest, so it
    can fail on valid truncations.  Matching the two end spaces there needs
    an interleaving of the trees, which this module does not build yet.
    """
    a = adjacency_graph(g)
    ct = end_tree(a, depth)
    pt = surface_end_tree(g, depth)

    support = {v: g.pants_of_curve(v) for v in a.vertices}
    mapping = []
    for k in range(depth + 1):
        # pants inside the level-k ball lie in no live component, so the
        # live components alone decide where a curve component goes
        live_pants = {}
        for j, node in enumerate(pt.levels[k]):
            for p in node.members:
                live_pants[p] = j
        level_map = {}
        for i, node in enumerate(ct.levels[k]):
            targets = set()
            for v in node.members:
                for p in support[v]:
                    if p in live_pants:
                        targets.add(live_pants[p])
            if len(targets) != 1:
                raise BijectionFailure(
                    f"level {k}: curve component {i} meets {len(targets)} live pants components"
                )
            level_map[i] = targets.pop()
        if sorted(level_map.values()) != list(range(len(pt.levels[k]))):
            raise BijectionFailure(
                f"level {k}: map over {len(ct.levels[k])} curve components is not a "
                f"bijection onto {len(pt.levels[k])} pants components"
            )
        if k > 0:
            for i, node in enumerate(ct.levels[k]):
                want = mapping[k - 1][node.parent]
                got = pt.levels[k][level_map[i]].parent
                if want != got:
                    raise BijectionFailure(
                        f"level {k}: component {i} maps inconsistently with its parent"
                    )
        mapping.append(level_map)
    return ct, pt, mapping
