"""The graph routines the library needs.

Every graph here has one shape: a dict from each vertex to the sorted
list of its neighbours, every neighbour itself a key.  The graphs are
simple (no loops, no parallel edges) and small enough to search in pure
Python; all searches are iterative, since a truncation can be a path far
longer than the recursion limit.
"""

from collections import deque


def neighbour_lists(vertices, edges):
    """The graph on ``vertices`` and ``edges`` in the shared shape; an
    edge given twice counts once, and an endpoint missing from
    ``vertices`` becomes a vertex after them."""
    nbrs = {v: set() for v in vertices}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    return {v: sorted(vs) for v, vs in nbrs.items()}


def bfs_distances(adj, sources):
    """Hop distance from the nearest of ``sources`` to every vertex it
    reaches (unreached vertices are absent)."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for v in adj[u]:
            if v not in dist:
                dist[v] = d
                queue.append(v)
    return dist


def bfs_parents(adj, start, goals):
    """Breadth-first search from ``start`` with lexicographic
    tie-breaking: the parent of each reached vertex at its first
    discovery, with ``start`` mapped to None.  The search stops as soon
    as every vertex of ``goals`` is reached, so a goal's parents are the
    same whichever other goals are asked for."""
    parent = {start: None}
    left = set(goals)
    left.discard(start)
    if not left:
        return parent
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in parent:
                parent[v] = u
                if v in left:
                    left.discard(v)
                    if not left:
                        return parent
                queue.append(v)
    return parent


def path_to(parent, goal):
    """The search path from the start of :func:`bfs_parents` to
    ``goal``; None if the search did not reach it."""
    if goal not in parent:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def lowpoints(adj):
    """Bridges, cut vertices and components from one depth-first search.

    Returns ``(bridges, cuts, sizes)``: the bridges as (parent, child)
    pairs of the search tree (Tarjan 1974), the set of cut vertices
    (Hopcroft and Tarjan 1973), and the list of component sizes, one per
    search tree, in order of the component's first vertex in ``adj``.  A
    tree edge into ``v`` is a bridge when no edge from below ``v`` climbs
    back to ``v``'s parent or above; a non-root vertex is a cut vertex
    when some child's subtree climbs no higher than the vertex itself,
    and a root when it has two children.
    """
    order = {}
    low = {}
    bridges = []
    cuts = set()
    sizes = []
    for root in adj:
        if root in order:
            continue
        first = len(order)
        order[root] = low[root] = first
        root_children = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if v not in order:
                    order[v] = low[v] = len(order)
                    stack.append((v, u, iter(adj[v])))
                    break
                if v != parent and order[v] < low[u]:
                    low[u] = order[v]
            else:
                stack.pop()
                if parent is None:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] > order[parent]:
                    bridges.append((parent, u))
                if parent == root:
                    root_children += 1
                elif low[u] >= order[parent]:
                    cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
        sizes.append(len(order) - first)
    return bridges, cuts, sizes
