"""Command line front end.

Every subcommand returns one JSON document, which :func:`main` prints to
stdout (with a trailing newline); it exits 0 on success, and ``verify``
exits 1 when its report counts failures.  Domain errors, malformed input
files and I/O problems print {"error": <exception class>, "detail": ...}
and exit 1; usage errors exit 2.  Every subcommand that reads ``--in``
except ``validate`` refuses a surface with any violation as a
``FormatError`` naming the first one; ``validate`` reports them all and
exits 0.  ``--out FILE`` writes the same document to a file and still
echoes it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random
import sys

from .complexes import local_graph, schmutz_path
from .curves import (
    PantsCurve,
    abstract_window,
    format_ref,
    global_intersection,
    parse_ref,
    parse_slope,
    sch04_common_neighbors,
    triple_completion,
)
from .ends import end_tree, surface_end_tree
from .errors import CurveLabError, FormatError
from .morphisms import GADGETS, check_superinjective, cut_and_glue, surfaces_homeomorphic
from .pants_graphs import adjacency_graph, classify_all, classify_curve
from .surface import (
    InfiniteModel,
    build_finite_surface,
    build_truncation,
    surface_from_json,
    surface_to_json,
    validate,
)
from .verify import DEFAULT_SEED, SUITES, run_suite


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _read_surface(path):
    with open(path, encoding="utf-8") as fh:
        return surface_from_json(json.load(fh))


def _load_surface(path):
    """Read a surface and refuse it, naming its first violation, unless
    :func:`validate` finds it well formed."""
    g = _read_surface(path)
    violations = validate(g)
    if violations:
        v = violations[0]
        raise FormatError(f"{v.kind}: {v.detail}")
    return g


def _split_inventory(text):
    """Split a comma-separated reference list, keeping chain interiors
    (which contain commas themselves) attached to their reference."""
    parts = []
    for piece in text.split(","):
        if piece.startswith(("pants:", "win:", "chain:")) or not parts:
            parts.append(piece)
        else:
            parts[-1] += "," + piece
    return parts


def _tree_json(tree, which):
    return {
        "graph": which,
        "base": tree.base,
        "stride": tree.stride,
        "leaf_counts": list(tree.leaf_counts()),
        "canonical": tree.canonical(),
        "levels": [
            [{"members": list(n.members), "parent": n.parent} for n in level]
            for level in tree.levels
        ],
    }


def cmd_gen(args):
    if args.model:
        if args.depth is None:
            raise FormatError("--model requires --depth")
        g = build_truncation(args.model, args.depth)
    elif args.genus is not None:
        g = build_finite_surface(args.genus, args.boundary)
    else:
        raise FormatError("provide --model with --depth, or --genus with --boundary")
    return surface_to_json(g)


def cmd_validate(args):
    g = _read_surface(args.infile)
    violations = validate(g)
    return {
        "valid": not violations,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
    }


def cmd_classify(args):
    g = _load_surface(args.infile)
    if args.curve is not None:
        return {"curve": args.curve, "class": classify_curve(g, args.curve).value}
    classes = classify_all(g)
    return {"classes": {cid: cls.value for cid, cls in sorted(classes.items())}}


def cmd_adjacency(args):
    g = _load_surface(args.infile)
    a = adjacency_graph(g)
    return {
        "vertices": list(a.vertices),
        "edges": [list(e) for e in a.edges],
        "marks": list(a.marks),
    }


def cmd_ends(args):
    g = _load_surface(args.infile)
    if args.graph == "curves":
        tree = end_tree(adjacency_graph(g), args.depth, base=args.base, stride=args.stride)
    else:
        tree = surface_end_tree(g, args.depth, base=args.base, stride=args.stride)
    return _tree_json(tree, args.graph)


def cmd_intersect(args):
    g = _load_surface(args.infile)
    a = parse_ref(args.a)
    b = parse_ref(args.b)
    val = global_intersection(g, a, b)
    return {
        "a": format_ref(a),
        "b": format_ref(b),
        "defined": val is not None,
        "intersection": val,
    }


def cmd_triple(args):
    w = abstract_window("torus")
    a = parse_slope(args.a)
    b = parse_slope(args.b)
    g, g2 = triple_completion(w, a, b)
    return {"a": str(a), "b": str(b), "g": str(g), "g2": str(g2)}


def cmd_sch04(args):
    w = abstract_window("sphere")
    a = parse_slope(args.a)
    b = parse_slope(args.b)
    sols = sch04_common_neighbors(w, a, b)
    return {"a": str(a), "b": str(b), "solutions": sorted(str(s) for s in sols)}


def cmd_graph(args):
    g = _load_surface(args.infile)
    inventory = [parse_ref(text) for text in _split_inventory(args.inventory)]
    lg = local_graph(g, inventory, args.mode)
    return {
        "mode": lg.mode,
        "relation": lg.relation,
        "vertices": [format_ref(v) for v in lg.vertices],
        "edges": [[format_ref(u), format_ref(v)] for u, v in lg.edges],
        "undefined_pairs": [[format_ref(u), format_ref(v)] for u, v in lg.undefined_pairs],
    }


def cmd_path(args):
    g = _load_surface(args.infile)
    path = schmutz_path(g, PantsCurve(args.src), PantsCurve(args.dst))
    return {"path": [format_ref(ref) for ref in path], "length": len(path) - 1}


def cmd_counterexample(args):
    source = build_truncation(InfiniteModel.LOCH_NESS, args.trunc_depth)
    result = cut_and_glue(source, args.alpha, gadget=args.gadget)
    pairs = result.map.sample_pairs(args.samples, random.Random(args.seed))
    report = check_superinjective(result.map, pairs)
    homeomorphic = surfaces_homeomorphic(source, result.target, args.depth)
    return {
        "gadget": args.gadget,
        "alpha": args.alpha,
        "checked": report["checked"],
        "skipped": len(report["skipped"]),
        "violations": report["violations"],
        "witnesses": [format_ref(w) for w in result.witnesses],
        "homeomorphic": homeomorphic,
    }


def cmd_verify(args):
    fn = SUITES[args.suite]
    accepted = set(inspect.signature(fn).parameters)
    overrides = {}
    for name in ("seed", "samples", "max_depth", "trunc_depth", "bound", "alpha", "gadget"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if name not in accepted:
            raise FormatError(f"suite {args.suite!r} does not accept --{name.replace('_', '-')}")
        overrides[name] = value
    return run_suite(args.suite, **overrides)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="Combinatorial workbench for surfaces built from pants gluings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a surface gluing graph")
    p.add_argument("--model", choices=[m.value for m in InfiniteModel])
    p.add_argument("--depth", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--boundary", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="check a gluing graph for defects")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="classify decomposition curves")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--curve")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("adjacency", help="adjacency graph of the decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_adjacency)

    p = sub.add_parser("ends", help="end tree of a truncation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--graph", choices=["pants", "curves"], default="pants")
    p.add_argument("--base")
    p.add_argument("--stride", type=int, default=2)
    p.set_defaults(fn=cmd_ends)

    p = sub.add_parser("intersect", help="intersection number of two curve references")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_intersect)

    p = sub.add_parser("triple", help="complete two torus-window slopes to a triple")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_triple)

    p = sub.add_parser("sch04", help="slopes crossing two sphere-window slopes twice")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_sch04)

    p = sub.add_parser("graph", help="finite curve graph over an inventory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--mode", choices=["c", "n", "g"], required=True)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("path", help="short path between two handle curves")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser(
        "counterexample",
        help="cut-and-glue map with superinjectivity and homeomorphism report",
    )
    p.add_argument("--gadget", choices=GADGETS, default="ladder")
    p.add_argument("--alpha", default="c2")
    p.add_argument("--trunc-depth", dest="trunc_depth", type=int, default=4)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--trunc-depth", dest="trunc_depth", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--alpha")
    p.add_argument("--gadget", choices=GADGETS)
    p.set_defaults(fn=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", help="also write the JSON document to this file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.fn(args)
        _emit(doc, args.out)
    except (CurveLabError, ValueError, OSError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1
    return 1 if args.command == "verify" and doc["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
