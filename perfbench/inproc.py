"""The three in-process workloads: truncations, inventory and sweeps.

Each workload builds its inputs in ``__init__`` (timed as set-up) and runs
one fixed pass per ``run_pass`` call.  A pass returns its work units and
appends the wall time of each operation to ``ops``.  Every timed result is
checked, against an independent fact where one exists and otherwise against
outputs pinned at the seed commit (``expected/*.json``).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import time
from collections import Counter
from pathlib import Path

from curvelab import (
    CurveClass,
    DualChain,
    PantsCurve,
    SUITES,
    UnknownCurve,
    WindowCurve,
    adjacency_graph,
    build_truncation,
    check_superinjective,
    classify_all,
    cut_and_glue,
    cut_vertices,
    disjointness_witness,
    dumps_surface,
    end_tree,
    format_ref,
    global_intersection,
    induced_end_correspondence,
    loads_surface,
    local_graph,
    run_suite,
    schmutz_path,
    slopes_up_to,
    surface_end_tree,
    surfaces_homeomorphic,
    validate,
    window_around,
)

from record import loop_slowness

EXPECTED = Path(__file__).resolve().parent / "expected"


def load_pins(name):
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# truncations

# Three depths per model, sized so that one pass takes a few seconds on a
# 2-core machine at the seed commit while the largest is three times the
# smallest: a quadratic layer shows as a rate that falls with size.
TRUNCATION_SIZES = (
    ("loch_ness", (50, 100, 150)),
    ("ladder", (25, 50, 75)),
    ("cantor_tree", (5, 6, 7)),
)


def end_depth(model, depth):
    """Deepest end-tree level the truncation's margin allows (the margins
    of the ``ends`` suite: 2d+2 for the chain models, d+2 for the tree)."""
    return depth - 2 if model == "cantor_tree" else (depth - 2) // 2


def expected_leaf_counts(model, depth):
    """Live components per level: one end, two ends, or 2^k branches."""
    if model == "loch_ness":
        return (1,) * (depth + 1)
    if model == "ladder":
        return (1,) + (2,) * depth
    return tuple(2 ** k for k in range(depth + 1))


def tree_shape(tree):
    """Canonical bracket form of a levelled forest, from its parent links
    alone, so that it does not rely on ``EndTree.canonical``."""
    below = None
    for level in reversed(tree.levels):
        kids = [[] for _ in level]
        if below is not None:
            for parent, shape in below:
                kids[parent].append(shape)
        below = [(node.parent, "(" + "".join(sorted(k)) + ")") for node, k in zip(level, kids)]
    return "(" + "".join(sorted(shape for _, shape in below or ())) + ")"


def _bijective(mapping, ct, pt):
    for k, level_map in enumerate(mapping):
        if len(level_map) != len(ct.levels[k]):
            return False
        if sorted(level_map.values()) != list(range(len(pt.levels[k]))):
            return False
    return len(mapping) == len(ct.levels)


class Truncations:
    """Few, large graphs through the whole per-surface pipeline."""

    operation = "pass"
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed, tiny=False):
        self.pins = load_pins("truncations")
        self.sizes = [(m, d) for m, depths in TRUNCATION_SIZES for d in depths]
        random.Random(seed).shuffle(self.sizes)
        self.counters = Counter()

    def run_pass(self, tr, tally, ops):
        curves = 0
        for model, depth in self.sizes:
            label = f"{model}-{depth}"
            start = time.perf_counter()
            with tr.span("bench.surface", label):
                try:
                    curves += self._surface(model, depth, label, tr, tally)
                except Exception as exc:  # a failed surface must not end the run
                    tally.check(False, f"{label}: {_describe(exc)}")
            ops.append(time.perf_counter() - start)
        return curves

    def _surface(self, model, depth, label, tr, tally):
        pin = self.pins[label]
        g = tr.call("surface.build_truncation", label, build_truncation, model, depth)
        violations = tr.call("surface.validate", label, validate, g)
        text = tr.call("surface.dumps_surface", label, dumps_surface, g)
        back = tr.call("surface.loads_surface", label, loads_surface, text)
        tally.check(
            not violations and back == g
            and hashlib.sha256(text.encode()).hexdigest() == pin["dumps_sha256"],
            f"{label}: build, validate or JSON round trip",
        )

        classes = tr.call("pants_graphs.classify_all", label, classify_all, g)
        counts = Counter(cls.value for cls in classes.values())
        tally.check(counts == pin["classes"], f"{label}: class counts {dict(counts)}")

        a = tr.call("pants_graphs.adjacency_graph", label, adjacency_graph, g)
        cuts = tr.call("pants_graphs.cut_vertices", label, cut_vertices, a)
        non_outer = {cid for cid, cls in classes.items() if cls is CurveClass.NON_OUTER}
        tally.check(set(cuts) == non_outer, f"{label}: cut vertices differ from NonOuterSeparating")

        q = end_depth(model, depth)
        leaves = expected_leaf_counts(model, q)
        st = tr.call("ends.surface_end_tree", label, surface_end_tree, g, q)
        et = tr.call("ends.end_tree", label, end_tree, a, q)
        tally.check(
            st.leaf_counts() == leaves and et.leaf_counts() == leaves
            and tree_shape(st) == tree_shape(et),
            f"{label}: end trees at depth {q}",
        )

        ct, pt, mapping = tr.call(
            "ends.induced_end_correspondence", label, induced_end_correspondence, g, q
        )
        tally.check(
            ct == et and pt == st and _bijective(mapping, ct, pt),
            f"{label}: end correspondence at depth {q}",
        )
        return len(classes)


# ---------------------------------------------------------------------------
# inventory

INVENTORY_DEPTH = 10
WINDOW_SLOPE_BOUND = 3
GADGETS = ("ladder", "s12")
# Batch sizes per pass, chosen so that each batch is a visible share of it.
BATCHES = {"pairs": 4000, "witnesses": 1500, "paths": 1000, "superinjective": 1500}
TINY_BATCHES = {"pairs": 200, "witnesses": 50, "paths": 50, "superinjective": 100}


def _bfs_path(adj, start, goal):
    """Shortest path, neighbours taken in sorted order; None if unreachable."""
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    if v == goal:
                        path = [v]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        frontier = nxt
    return None


def diameter_inventory(g):
    """The ``diameter`` suite's inventory through public calls: the ordinary
    pants curves, window curves with coordinates up to 3 at every curve that
    spans a window, and one shortest dual chain per handle pair."""
    refs = [PantsCurve(c.id) for c in g.curves if not c.is_frontier]
    for c in g.curves:
        if c.is_frontier:
            continue
        try:
            window_around(g, c.id)
        except UnknownCurve:
            continue
        refs.extend(
            WindowCurve(c.id, s) for s in slopes_up_to(WINDOW_SLOPE_BOUND) if (s.p, s.q) != (0, 1)
        )
    a = adjacency_graph(g)
    adj = {v: set() for v in a.vertices}
    for u, v in a.edges:
        adj[u].add(v)
        adj[v].add(u)
    adj = {v: sorted(n) for v, n in adj.items()}
    handles = [c.id for c in g.curves if c.is_self_gluing]
    for i, h1 in enumerate(handles):
        for h2 in handles[i + 1 :]:
            path = _bfs_path(adj, h1, h2)
            if path is not None:
                refs.append(DualChain(path[0], path[-1], tuple(path[1:-1])))
    return refs


class IntersectionTable:
    """Pinned intersection numbers of every inventory pair (0 unless listed)."""

    def __init__(self, pins):
        self.n = len(pins["refs"])
        self.values = {}
        for i, j in pins["undefined"]:
            self.values[i * self.n + j] = None
        for i, j, v in pins["nonzero"]:
            self.values[i * self.n + j] = v

    def __call__(self, i, j):
        if i > j:
            i, j = j, i
        return self.values.get(i * self.n + j, 0)


class Inventory:
    """One graph reused by many intersection, complex and map queries."""

    operation = "pass"
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed, tiny=False):
        pins = load_pins("inventory")
        self.pins = pins
        self.g = build_truncation("loch_ness", INVENTORY_DEPTH)
        self.refs = diameter_inventory(self.g)
        self.refs_match = [format_ref(r) for r in self.refs] == pins["refs"]
        self.table = IntersectionTable(pins)
        batches = TINY_BATCHES if tiny else BATCHES
        rng = random.Random(seed)
        n = len(self.refs)
        self.n_pants = sum(isinstance(r, PantsCurve) for r in self.refs)
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(batches["pairs"])]
        self.witness_pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(batches["witnesses"])
        ]
        self.witness_work = 0
        self.expected_witness = [self._expected_witness(i, j) for i, j in self.witness_pairs]
        handles = [c.id for c in self.g.curves if c.is_self_gluing]
        self.handle_pairs = [
            (rng.choice(handles), rng.choice(handles)) for _ in range(batches["paths"])
        ]
        self.alpha = rng.choice(sorted(pins["cut_and_glue"]))
        domain = pins["cut_and_glue"][self.alpha]["ladder"]["domain"]
        self.si_pairs = [
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(batches["superinjective"])
        ]
        self.counters = Counter()

    def _expected_witness(self, i, j):
        """The first pants curve, in id order, disjoint from both inputs by
        the pinned table; also counts the intersections that scan evaluates."""
        for k in range(self.n_pants):
            if self.refs[k] in (self.refs[i], self.refs[j]):
                continue
            self.witness_work += 1
            if self.table(k, i) != 0:
                continue
            self.witness_work += 1
            if self.table(k, j) == 0:
                return k
        return None

    def run_pass(self, tr, tally, ops):
        g, refs, pins = self.g, self.refs, self.pins
        work = 0
        tally.check(self.refs_match, "inventory differs from the pinned inventory")
        for mode in "cng":
            start = time.perf_counter()
            try:
                lg = tr.call("complexes.local_graph", mode, local_graph, g, refs, mode)
                got = {
                    "vertices": len(lg.vertices),
                    "edges": digest(f"{format_ref(u)} {format_ref(v)}" for u, v in lg.edges),
                    "undefined": digest(
                        f"{format_ref(u)} {format_ref(v)}" for u, v in lg.undefined_pairs
                    ),
                }
                want = pins["local_graph"][mode]
                tally.check(got == want, f"local_graph {mode}: {got}")
                work += want["vertices"] * (want["vertices"] - 1) // 2
            except Exception as exc:
                tally.check(False, f"local_graph {mode}: {_describe(exc)}")
            ops.append(time.perf_counter() - start)

        start = time.perf_counter()
        defined = 0
        for i, j in self.pairs:
            try:
                val = tr.call("curves.global_intersection", None, global_intersection,
                              g, refs[i], refs[j])
            except Exception as exc:
                tally.check(False, f"global_intersection {i} {j}: {_describe(exc)}")
                continue
            defined += val is not None
            tally.check(val == self.table(i, j), f"global_intersection {pins['refs'][i]} "
                        f"{pins['refs'][j]} = {val}")
        self.counters["curves.global_intersection.calls"] += len(self.pairs)
        self.counters["curves.global_intersection.defined"] += defined
        work += len(self.pairs)
        ops.append(time.perf_counter() - start)

        start = time.perf_counter()
        for (i, j), want in zip(self.witness_pairs, self.expected_witness):
            try:
                wit = tr.call("complexes.disjointness_witness", None, disjointness_witness,
                              g, refs[i], refs[j])
                tally.check(want is not None and wit == refs[want],
                            f"disjointness_witness {pins['refs'][i]} {pins['refs'][j]}")
            except Exception as exc:
                tally.check(False, f"disjointness_witness {i} {j}: {_describe(exc)}")
        work += self.witness_work
        ops.append(time.perf_counter() - start)

        start = time.perf_counter()
        for h1, h2 in self.handle_pairs:
            try:
                path = tr.call("complexes.schmutz_path", None, schmutz_path,
                               g, PantsCurve(h1), PantsCurve(h2))
                tally.check([format_ref(r) for r in path] == pins["schmutz_path"][f"{h1} {h2}"],
                            f"schmutz_path {h1} {h2}")
            except Exception as exc:
                tally.check(False, f"schmutz_path {h1} {h2}: {_describe(exc)}")
        ops.append(time.perf_counter() - start)

        for gadget in GADGETS:
            start = time.perf_counter()
            try:
                work += self._cut_and_glue(gadget, tr, tally)
            except Exception as exc:
                tally.check(False, f"cut_and_glue {self.alpha} {gadget}: {_describe(exc)}")
            ops.append(time.perf_counter() - start)
        return work

    def _cut_and_glue(self, gadget, tr, tally):
        pin = self.pins["cut_and_glue"][self.alpha][gadget]
        res = tr.call("morphisms.cut_and_glue", gadget, cut_and_glue, self.g, self.alpha,
                      gadget=gadget)
        domain = res.map.domain
        tally.check(len(domain) == pin["domain"], f"cut_and_glue {gadget}: domain {len(domain)}")
        pairs = [(domain[i], domain[j]) for i, j in self.si_pairs]
        rep = tr.call("morphisms.check_superinjective", gadget, check_superinjective,
                      res.map, pairs)
        tally.check(
            not rep["violations"] and rep["checked"] + len(rep["skipped"]) == len(pairs),
            f"check_superinjective {gadget}: {len(rep['violations'])} violations",
        )
        self.counters["morphisms.check_superinjective.pairs"] += len(pairs)
        self.counters["morphisms.check_superinjective.skipped"] += len(rep["skipped"])
        same = tr.call("morphisms.surfaces_homeomorphic", gadget, surfaces_homeomorphic,
                       self.g, res.target, 1)
        tally.check(same == pin["homeomorphic"], f"surfaces_homeomorphic {gadget}: {same}")
        return 2 * len(pairs)


# ---------------------------------------------------------------------------
# sweeps

# ``checked`` totals at the default parameters; counterexample's depends on
# the seed through its skipped pairs, so its checked + skipped is pinned.
SUITE_CHECKED = {
    "cutpoints": 215,
    "ends": 18,
    "triples": 2994,
    "sch04": 1021,
    "dtcoords": 32770,
    "diameter": 150,
}
COUNTEREXAMPLE_PAIRS = 750


class Sweeps:
    """The seven verification suites at their default parameters."""

    operation = "pass"
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed, tiny=False):
        # Each pass draws a new seed for the suites that take one, so that a
        # run averages over many random graph sets instead of repeating one.
        self.rng = random.Random(seed)
        self.seeded = {
            name: "seed" in inspect.signature(fn).parameters for name, fn in SUITES.items()
        }
        self.counters = Counter()

    def run_pass(self, tr, tally, ops):
        cases = 0
        pass_seed = self.rng.randrange(2**32)
        for name, seeded in self.seeded.items():
            kwargs = {"seed": pass_seed} if seeded else {}
            start = time.perf_counter()
            try:
                rep = tr.call(f"verify.{name}", None, run_suite, name, **kwargs)
            except Exception as exc:
                tally.check(False, f"{name}: {_describe(exc)}")
                ops.append(time.perf_counter() - start)
                continue
            ops.append(time.perf_counter() - start)
            if name == "counterexample":
                total_ok = rep["checked"] + rep["skipped"] == COUNTEREXAMPLE_PAIRS
            else:
                total_ok = rep["checked"] == SUITE_CHECKED[name]
            tally.check(rep["failures"] == 0 and total_ok,
                        f"{name}: {rep['failures']} failures, {rep['checked']} checked")
            self.counters[f"verify.{name}.checked"] += rep["checked"]
            cases += rep["checked"]
        return cases
