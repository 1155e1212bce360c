"""Refactor guard: the command line's stdout and exit code, byte for byte.

Each probe runs :func:`curvelab.cli.main` in process and compares the
sha256 of everything it printed, and its exit code, with the digest in
``inputs.PROBES``, which the CLI tests also read.  The set covers every
subcommand, the error documents of ``classify``, ``intersect`` and
``triple``, and all seven ``verify`` suites at their defaults.  Its
inputs are written by ``gen`` into a temporary directory (``{d}`` in a
probe), so no output names a path; beside them
goes the standard inventory of the Loch Ness depth 4 truncation at slope
bound 3 (106 curves), whose graphs write each curve on many edges.

A change meant to keep the outputs must leave every digest as it is.  A
change meant to alter an output replaces that digest and says why.
"""

import hashlib
import io
from contextlib import redirect_stdout

from curvelab import build_truncation, curve_inventory, format_ref
from curvelab.cli import main
from inputs import PROBES

INPUTS = {
    "l4.json": "gen --model loch_ness --depth 4",
    "lad3.json": "gen --model ladder --depth 3",
    "ct3.json": "gen --model cantor_tree --depth 3",
    "s21.json": "gen --genus 2 --boundary 1",
}

# file name -> (model, depth, slope bound) of a curve_inventory list
INVENTORIES = {"l4inv.txt": ("loch_ness", 4, 3)}


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cli_output_matches_the_pinned_digests(tmp_path):
    for name, argv in INPUTS.items():
        code, _ = run(argv.split() + ["--out", str(tmp_path / name)])
        assert code == 0, argv
    for name, (model, depth, bound) in INVENTORIES.items():
        refs = curve_inventory(build_truncation(model, depth), bound)
        (tmp_path / name).write_text(",".join(map(format_ref, refs)))
    mismatched = []
    for argv, want_code, want in PROBES:
        code, out = run(argv.format(d=tmp_path).split())
        got = hashlib.sha256(out.encode()).hexdigest()
        if (code, got) != (want_code, want):
            mismatched.append((argv, code, got))
    assert mismatched == []
