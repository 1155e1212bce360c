"""Write the pinned outputs in ``expected/`` from the current program.

The files in ``expected/`` were written by this script at the seed commit
of the benchmark and are the reference every later commit is checked
against; a change that claims only speed must leave them untouched.  Run
it only when a change to the outputs is intended, and say so:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from curvelab import (  # noqa: E402
    CurveClass,
    PantsCurve,
    build_truncation,
    classify_all,
    cut_and_glue,
    dumps_surface,
    format_ref,
    global_intersection,
    local_graph,
    schmutz_path,
    surfaces_homeomorphic,
)

import cli_mix  # noqa: E402
import inproc  # noqa: E402
from record import child_env  # noqa: E402


def write(name, doc, indent=1):
    path = HERE / "expected" / f"{name}.json"
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")


def pin_truncations():
    doc = {}
    for model, depths in inproc.TRUNCATION_SIZES:
        for depth in depths:
            g = build_truncation(model, depth)
            doc[f"{model}-{depth}"] = {
                "dumps_sha256": hashlib.sha256(dumps_surface(g).encode()).hexdigest(),
                "classes": Counter(cls.value for cls in classify_all(g).values()),
            }
    write("truncations", doc)


def pin_inventory():
    g = build_truncation("loch_ness", inproc.INVENTORY_DEPTH)
    refs = inproc.diameter_inventory(g)
    undefined, nonzero = [], []
    for i, a in enumerate(refs):
        for j in range(i, len(refs)):
            v = global_intersection(g, a, refs[j])
            if v != global_intersection(g, refs[j], a):
                raise SystemExit(f"intersection not symmetric at {i} {j}")
            if v is None:
                undefined.append([i, j])
            elif v != 0:
                nonzero.append([i, j, v])
    lgs = {}
    for mode in "cng":
        lg = local_graph(g, refs, mode)
        lgs[mode] = {
            "vertices": len(lg.vertices),
            "edges": inproc.digest(f"{format_ref(u)} {format_ref(v)}" for u, v in lg.edges),
            "undefined": inproc.digest(
                f"{format_ref(u)} {format_ref(v)}" for u, v in lg.undefined_pairs
            ),
        }
    handles = [c.id for c in g.curves if c.is_self_gluing]
    paths = {
        f"{h1} {h2}": [format_ref(r) for r in schmutz_path(g, PantsCurve(h1), PantsCurve(h2))]
        for h1 in handles
        for h2 in handles
    }
    cuts = {}
    for cid, cls in sorted(classify_all(g).items()):
        if cls is CurveClass.NONSEPARATING:
            continue
        cuts[cid] = {}
        for gadget in inproc.GADGETS:
            res = cut_and_glue(g, cid, gadget=gadget)
            cuts[cid][gadget] = {
                "domain": len(res.map.domain),
                "homeomorphic": surfaces_homeomorphic(g, res.target, 1),
            }
    write("inventory", {
        "refs": [format_ref(r) for r in refs],
        "undefined": undefined,
        "nonzero": nonzero,
        "local_graph": lgs,
        "schmutz_path": paths,
        "cut_and_glue": cuts,
    }, indent=None)


def pin_cli():
    root = HERE.parent
    workdir = HERE / ".work" / "pin"
    cli_mix.write_inputs(workdir)
    env = child_env(root / "src")
    doc = {}
    try:
        for name, argv in sorted(cli_mix.WELL_FORMED.items()):
            _, code, stdout, _ = cli_mix.run_child(["-m", "curvelab.cli", *argv], workdir, env, workdir)
            if code != 0:
                raise SystemExit(f"{name} exited {code}: {stdout[:200]!r}")
            doc[name] = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest(),
                         "bytes": len(stdout)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write("cli", doc)


if __name__ == "__main__":
    pin_truncations()
    pin_inventory()
    pin_cli()
