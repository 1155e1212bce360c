"""Command line front end.

Every subcommand returns one JSON document, which :func:`main` prints to
stdout (with a trailing newline); it exits 0 on success, and ``verify``
exits 1 when its report counts failures.  Domain errors, malformed input
files and I/O problems print {"error": <exception class>, "detail": ...}
and exit 1; usage errors exit 2.  :func:`main` reads the ``--in`` surface
of every subcommand that takes one, before its handler runs, and except
for ``validate`` refuses a surface with any violation as a
``FormatError`` naming the first one; ``validate`` reports them all and
exits 0.  ``--out FILE`` writes the same document to a file and still
echoes it.

A call imports only the library modules its subcommand runs: this
module loads :mod:`curvelab.errors` and :mod:`curvelab._gc` alone, each
``cmd_*`` imports what it calls, and :func:`main` adds the arguments of
the called subcommand only.

:func:`main` pauses the cyclic garbage collector around the handler and
the writing of its document (see :class:`~curvelab._gc.collector_paused`),
not around parsing: an argparse parser holds reference cycles, a few
hundred objects, which the collector frees after the pause.  A document
holds no cycle, so a collection while it is built would only walk the
heap again.  Before Python 3.13 the only cycle made in the pause is the
``json`` encoder's own, a few dozen objects per document; from 3.13 the
indented encoder is in C and makes none.  The pause is process-wide.
"""

import argparse
import json
import sys

from ._gc import collector_paused
from .errors import CurveLabError, FormatError


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _read_text(path):
    """The text of the file at ``path``.  Bytes that are not UTF-8 are a
    :class:`FormatError` whose detail starts ``not UTF-8:``, in a surface
    file and an inventory file alike."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}") from exc


def _read_surface(path):
    from .surface import loads_surface

    return loads_surface(_read_text(path))


def _load_surface(path):
    """Read a surface and refuse it, naming its first violation, unless
    :func:`~curvelab.surface.validate` finds it well formed."""
    from .surface import validate

    g = _read_surface(path)
    violations = validate(g)
    if violations:
        v = violations[0]
        raise FormatError(f"{v.kind}: {v.detail}")
    return g


def _tree_json(tree, which):
    return {
        "graph": which,
        "base": tree.base,
        "stride": tree.stride,
        "leaf_counts": list(tree.leaf_counts()),
        "canonical": tree.canonical(),
        "levels": [
            [{"members": list(m), "parent": p} for p, m in zip(parents, members)]
            for parents, members in zip(tree.parents, tree.members)
        ],
    }


def cmd_gen(args):
    from .surface import build_finite_surface, build_truncation, surface_to_json

    if (args.model, args.depth) != (None, None) and (args.genus, args.boundary) != (None, None):
        raise FormatError("give --model with --depth, or --genus with --boundary, not a mix")
    if args.model:
        if args.depth is None:
            raise FormatError("--model requires --depth")
        g = build_truncation(args.model, args.depth)
    elif args.genus is not None:
        g = build_finite_surface(args.genus, args.boundary or 0)
    else:
        raise FormatError("provide --model with --depth, or --genus with --boundary")
    return surface_to_json(g)


def cmd_validate(args, g):
    from .surface import validate

    violations = validate(g)
    return {
        "valid": not violations,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
    }


def cmd_classify(args, g):
    from .pants_graphs import classify_all, classify_curve

    if args.curve is not None:
        return {"curve": args.curve, "class": classify_curve(g, args.curve).value}
    classes = classify_all(g)
    return {"classes": {cid: cls.value for cid, cls in sorted(classes.items())}}


def cmd_adjacency(args, g):
    a = g.adjacency_graph
    return {
        "vertices": list(a.vertices),
        "edges": [list(e) for e in a.edges],
        "marks": list(a.marks),
    }


def cmd_ends(args, g):
    from .ends import end_tree, surface_end_tree

    if args.graph == "curves":
        tree = end_tree(g.adjacency_graph, args.depth, base=args.base, stride=args.stride)
    else:
        tree = surface_end_tree(g, args.depth, base=args.base, stride=args.stride)
    return _tree_json(tree, args.graph)


def cmd_intersect(args, g):
    from .curves import format_ref, global_intersection, parse_ref

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
    from .curves import abstract_window, parse_slope, triple_completion

    w = abstract_window("torus")
    a = parse_slope(args.a)
    b = parse_slope(args.b)
    g, g2 = triple_completion(w, a, b)
    return {"a": str(a), "b": str(b), "g": str(g), "g2": str(g2)}


def cmd_sch04(args):
    from .curves import abstract_window, parse_slope, sch04_common_neighbors

    w = abstract_window("sphere")
    a = parse_slope(args.a)
    b = parse_slope(args.b)
    sols = sch04_common_neighbors(w, a, b)
    return {"a": str(a), "b": str(b), "solutions": sorted(str(s) for s in sols)}


def cmd_graph(args, g):
    from .complexes import local_graph
    from .curves import format_ref, parse_refs

    text = args.inventory
    if text.startswith("@"):  # a file holding the list; no reference starts with "@"
        text = _read_text(text[1:]).strip()
    lg = local_graph(g, parse_refs(text), args.mode)
    return {
        "mode": lg.mode,
        "relation": lg.relation,
        "vertices": [format_ref(v) for v in lg.vertices],
        "edges": [[format_ref(u), format_ref(v)] for u, v in lg.edges],
        "undefined_pairs": [[format_ref(u), format_ref(v)] for u, v in lg.undefined_pairs],
    }


def cmd_path(args, g):
    from .complexes import schmutz_path
    from .curves import PantsCurve, format_ref

    path = schmutz_path(g, PantsCurve(args.src), PantsCurve(args.dst))
    return {"path": [format_ref(ref) for ref in path], "length": len(path) - 1}


def cmd_counterexample(args):
    import random

    from .curves import format_ref
    from .morphisms import check_superinjective, cut_and_glue, sample_pairs, surfaces_homeomorphic
    from .surface import InfiniteModel, build_truncation

    source = build_truncation(InfiniteModel.LOCH_NESS, args.trunc_depth)
    result = cut_and_glue(source, args.alpha, gadget=args.gadget)
    homeomorphic = surfaces_homeomorphic(source, result.target, args.depth)
    pairs = sample_pairs(result.map.domain, args.samples, random.Random(args.seed))
    report = check_superinjective(result.map, pairs)
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
    from .verify import SUITES, run_suite

    code = SUITES[args.suite].__code__
    # the suite's parameter names, read without importing inspect
    accepted = set(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])
    overrides = {}
    # the suite flags, in the order the parser adds them, so the first foreign one is named
    for name, value in vars(args).items():
        if name in ("command", "suite", "out") or value is None:
            continue
        if name not in accepted:
            raise FormatError(f"suite {args.suite!r} does not accept --{name.replace('_', '-')}")
        overrides[name] = value
    return run_suite(args.suite, **overrides)


# Each adds one subcommand's arguments but ``--in`` and ``--out``, importing
# what their choices and defaults name.


def _gen_arguments(p):
    from .surface import InfiniteModel

    p.add_argument("--model", choices=[m.value for m in InfiniteModel])
    p.add_argument("--depth", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--boundary", type=int)


def _classify_arguments(p):
    p.add_argument("--curve")


def _ends_arguments(p):
    from .ends import DEFAULT_STRIDE

    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--graph", choices=["pants", "curves"], default="pants")
    p.add_argument("--base")
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)


def _pair_arguments(p):
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)


def _graph_arguments(p):
    p.add_argument("--inventory", required=True)
    p.add_argument("--mode", choices=["c", "n", "g"], required=True)


def _path_arguments(p):
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)


def _counterexample_arguments(p):
    from .morphisms import DEFAULT_SEED, GADGETS

    p.add_argument("--gadget", choices=GADGETS, default="ladder")
    p.add_argument("--alpha", default="c2")
    p.add_argument("--trunc-depth", dest="trunc_depth", type=int, default=4)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _verify_arguments(p):
    from .morphisms import GADGETS
    from .verify import SUITES

    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--trunc-depth", dest="trunc_depth", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--alpha")
    p.add_argument("--gadget", choices=GADGETS)


# subcommand -> (help, handler, adds its other arguments, reads the surface
# named by --in), in the order of --help; None where it has none
SUBCOMMANDS = {
    "gen": ("generate a surface gluing graph", cmd_gen, _gen_arguments, None),
    "validate": ("check a gluing graph for defects", cmd_validate, None, _read_surface),
    "classify": ("classify decomposition curves", cmd_classify, _classify_arguments, _load_surface),
    "adjacency": ("adjacency graph of the decomposition", cmd_adjacency, None, _load_surface),
    "ends": ("end tree of a truncation", cmd_ends, _ends_arguments, _load_surface),
    "intersect": (
        "intersection number of two curve references", cmd_intersect, _pair_arguments,
        _load_surface,
    ),
    "triple": ("complete two torus-window slopes to a triple", cmd_triple, _pair_arguments, None),
    "sch04": ("slopes crossing two sphere-window slopes twice", cmd_sch04, _pair_arguments, None),
    "graph": ("finite curve graph over an inventory", cmd_graph, _graph_arguments, _load_surface),
    "path": ("short path between two handle curves", cmd_path, _path_arguments, _load_surface),
    "counterexample": (
        "cut-and-glue map with superinjectivity and homeomorphism report",
        cmd_counterexample, _counterexample_arguments, None,
    ),
    "verify": ("run a verification sweep", cmd_verify, _verify_arguments, None),
}


def build_parser(command=None):
    """The argument parser.  It lists every subcommand with its help, but
    adds the arguments of ``command`` alone (of every subcommand when
    ``command`` is None), so that it imports only what they name."""
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="Combinatorial workbench for surfaces built from pants gluings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text)
    for name in SUBCOMMANDS if command is None else [command]:
        p = sub.choices[name]
        _, _, add_arguments, read = SUBCOMMANDS[name]
        if read:
            p.add_argument("--in", dest="infile", required=True)
        if add_arguments:
            add_arguments(p)
        p.add_argument("--out", help="also write the JSON document to this file")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    _, handler, _, read = SUBCOMMANDS[args.command]
    with collector_paused():
        try:
            doc = handler(args, read(args.infile)) if read else handler(args)
            _emit(doc, args.out)
        except (CurveLabError, ValueError, OSError) as exc:
            _emit({"error": type(exc).__name__, "detail": str(exc)})
            return 1
    return 1 if args.command == "verify" and doc["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
