"""Command line interface: JSON output, exit codes and determinism."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import (
    build_truncation,
    curve_inventory,
    format_ref,
    loads_surface,
    surface_to_json,
)
from curvelab import morphisms
from curvelab.cli import SUBCOMMANDS, build_parser, main
from test_golden import PROBES
from test_surface import _BASES, NOT_JSON

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def loch4(tmp_path, capsys):
    path = tmp_path / "l4.json"
    code, _ = run(capsys, "gen", "--model", "loch_ness", "--depth", "4", "--out", str(path))
    assert code == 0
    return str(path)


def test_gen_writes_and_echoes_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "surface.json"
    code, out = run(capsys, "gen", "--model", "ladder", "--depth", "2", "--out", str(path))
    assert code == 0
    assert out == path.read_text()
    g = loads_surface(out)
    assert g == build_truncation("ladder", 2)


def test_gen_finite_surface(capsys):
    code, out = run(capsys, "gen", "--genus", "2", "--boundary", "1")
    assert code == 0
    assert out.endswith("\n")
    assert len(loads_surface(out).pants) == 3


def test_gen_requires_a_recipe(capsys):
    code, out = run(capsys, "gen")
    assert code == 1
    assert json.loads(out)["error"] == "FormatError"


@pytest.mark.parametrize(
    "argv",
    [
        "gen --model loch_ness --depth 2 --genus 2",
        "gen --genus 2 --depth 5",
        "gen --model ladder --depth 1 --boundary 3",
    ],
)
def test_gen_refuses_a_mix_of_recipes(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 1
    assert json.loads(out) == {
        "error": "FormatError",
        "detail": "give --model with --depth, or --genus with --boundary, not a mix",
    }


def test_gen_reads_a_lone_genus_as_closed(capsys):
    code, out = run(capsys, "gen", "--genus", "2")
    assert code == 0
    assert out == run(capsys, "gen", "--genus", "2", "--boundary", "0")[1]


def test_output_is_deterministic(capsys):
    args = ("gen", "--model", "cantor_tree", "--depth", "3")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_validate(loch4, capsys, tmp_path):
    code, out = run(capsys, "validate", "--in", loch4)
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "validate", "--in", str(bad))
    assert code == 1
    assert "error" in json.loads(out)


def test_classify_single_and_all(loch4, capsys):
    code, out = run(capsys, "classify", "--in", loch4, "--curve", "c2")
    assert code == 0
    assert json.loads(out) == {"curve": "c2", "class": "NonOuterSeparating"}
    code, out = run(capsys, "classify", "--in", loch4)
    classes = json.loads(out)["classes"]
    assert classes["h0"] == "Nonseparating"
    assert "c4" not in classes  # frontier curves are not classified


def test_classify_rejects_duplicate_ids(loch4, capsys, tmp_path):
    doc = json.loads(Path(loch4).read_text())
    for rec in doc["curves"]:
        if rec["id"] == "t2":
            rec["id"] = "t1"
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(doc))
    code, out = run(capsys, "classify", "--in", str(dup))
    assert code == 1
    assert json.loads(out) == {"error": "FormatError", "detail": "curve id 't1' repeated"}


def test_classify_rejects_a_curve_id_references_cannot_carry(loch4, capsys, tmp_path):
    doc = json.loads(Path(loch4).read_text())
    for rec in doc["curves"]:
        if rec["id"] == "t2":
            rec["id"] = "c1,pants:c2"
    bad = tmp_path / "bad_id.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "classify", "--in", str(bad))
    assert code == 1
    assert json.loads(out) == {
        "error": "FormatError",
        "detail": "curve id 'c1,pants:c2' cannot appear in a curve reference: "
        "it is empty or holds ':' or ','",
    }


@pytest.fixture
def unknown_pants(loch4, tmp_path):
    doc = json.loads(Path(loch4).read_text())
    doc["curves"].append({"id": "zz", "ends": [["nope", 0], [doc["pants"][0], 0]]})
    path = tmp_path / "unknown_pants.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_adjacency(loch4, capsys):
    code, out = run(capsys, "adjacency", "--in", loch4)
    assert code == 0
    j = json.loads(out)
    assert set(j) == {"vertices", "edges", "marks"}
    assert j["marks"] == ["c3", "t3"]
    assert all(len(e) == 2 for e in j["edges"])


def test_ends_tree(loch4, capsys):
    code, out = run(capsys, "ends", "--in", loch4, "--depth", "1")
    assert code == 0
    j = json.loads(out)
    assert j["graph"] == "pants"
    assert j["leaf_counts"] == [1, 1]
    assert len(j["levels"]) == 2
    code, out = run(capsys, "ends", "--in", loch4, "--depth", "1", "--graph", "curves")
    assert json.loads(out)["graph"] == "curves"


def test_ends_depth_guard(loch4, capsys):
    code, out = run(capsys, "ends", "--in", loch4, "--depth", "5")
    assert code == 1
    assert json.loads(out)["error"] == "DepthExceedsTruncation"


def test_intersect(loch4, capsys):
    code, out = run(capsys, "intersect", "--in", loch4, "--a", "chain:h0:h1:c1,t1", "--b", "pants:c1")
    assert code == 0
    assert json.loads(out) == {
        "a": "chain:h0:h1:c1,t1",
        "b": "pants:c1",
        "defined": True,
        "intersection": 2,
    }
    code, out = run(capsys, "intersect", "--in", loch4, "--a", "win:c2:1/0", "--b", "win:c3:1/1")
    assert code == 0
    assert json.loads(out) == {
        "a": "win:c2:1/0",
        "b": "win:c3:1/1",
        "defined": False,
        "intersection": None,
    }
    code, out = run(capsys, "intersect", "--in", loch4, "--a", "pants:zz", "--b", "pants:c1")
    assert code == 1
    assert json.loads(out)["error"] == "UnknownCurve"


def test_triple(capsys):
    code, out = run(capsys, "triple", "--a", "0/1", "--b", "2/5")
    assert code == 0
    assert json.loads(out) == {"a": "0/1", "b": "2/5", "g": "1/2", "g2": "1/3"}
    code, out = run(capsys, "triple", "--a", "0/1", "--b", "1/2")
    assert code == 1
    assert json.loads(out)["error"] == "IntersectionTooSmall"
    for bad in ("1/x", "0/0"):
        code, out = run(capsys, "triple", "--a", bad, "--b", "1/1")
        assert code == 1
        assert json.loads(out) == {
            "error": "FormatError",
            "detail": f"expected a slope like 3/2, got {bad!r}",
        }


def test_sch04(capsys):
    code, out = run(capsys, "sch04", "--a", "0/1", "--b", "1/0")
    assert code == 0
    assert json.loads(out) == {"a": "0/1", "b": "1/0", "solutions": ["-1/1", "1/1"]}


def test_cli_import_does_not_load_numpy_or_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    check = (
        "import curvelab.cli, sys; "
        "loaded = {'numpy', 'networkx'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# each costs milliseconds of import on every call; dataclasses also loads
# inspect; __future__ is loaded by a module that imports from it, and no
# module has an annotation to postpone
_HEAVY = {"__future__", "dataclasses", "inspect", "typing"}


def _loaded_submodules(code, *argv):
    """The ``curvelab.*`` modules a fresh ``python -S`` interpreter holds
    after ``code``, which must have loaded none of ``_HEAVY``.  ``-S``
    skips the site hooks, which may import modules of their own."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert not loaded & _HEAVY, sorted(loaded & _HEAVY)
    return {m[9:] for m in loaded if m.startswith("curvelab.")}


def test_package_import_loads_no_submodule():
    assert _loaded_submodules("import curvelab") == set()
    assert _loaded_submodules("import curvelab.cli") == _CLI


# the front end itself: argument parsing, error documents, the collector pause
_CLI = {"cli", "errors", "_gc"}
_SURFACE = _CLI | {"surface", "_graph"}
_CURVES = _SURFACE | {"curves"}
# slope arithmetic alone: window_around loads surface only when called
_SLOPES = _CLI | {"curves"}
_COMPLEXES = _CURVES | {"pants_graphs", "complexes"}
_EVERY = _COMPLEXES | {"ends", "morphisms", "verify"}

# subcommand -> one well-formed call and the submodules it may load
CALL_MODULES = {
    "gen": ("gen --genus 2 --boundary 1", _SURFACE),
    "validate": ("validate --in {l4}", _SURFACE),
    "classify": ("classify --in {l4}", _SURFACE | {"pants_graphs"}),
    "adjacency": ("adjacency --in {l4}", _SURFACE),
    "ends": ("ends --in {l4} --depth 1", _SURFACE | {"ends"}),
    "intersect": ("intersect --in {l4} --a pants:h0 --b win:h0:2/1", _CURVES),
    "triple": ("triple --a 0/1 --b 2/1", _SLOPES),
    "sch04": ("sch04 --a 0/1 --b 1/1", _SLOPES),
    "graph": ("graph --in {l4} --mode c --inventory pants:h0,win:h1:1/2", _COMPLEXES),
    "path": ("path --in {l4} --from h0 --to h2", _COMPLEXES),
    "counterexample": ("counterexample --samples 5", _EVERY - {"verify"}),
    "verify": ("verify --suite triples --bound 3", _EVERY),
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_a_call_loads_only_its_subcommands_modules(command, loch4):
    argv, allowed = CALL_MODULES[command]
    call = (
        "import contextlib, io, sys\n"
        "from curvelab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0"
    )
    loaded = _loaded_submodules(call, *argv.format(l4=loch4).split())
    assert loaded <= allowed, sorted(loaded - allowed)


@pytest.mark.parametrize("command", [name for name, entry in SUBCOMMANDS.items() if entry[3]])
def test_a_surface_with_an_unknown_pants_is_refused_except_by_validate(
    command, unknown_pants, capsys
):
    code, out = run(capsys, *CALL_MODULES[command][0].format(l4=unknown_pants).split())
    detail = "curve 'zz' references unknown pants 'nope'"
    if command == "validate":
        assert code == 0
        j = json.loads(out)
        assert j["valid"] is False
        assert {"kind": "SlotCountError", "detail": detail} in j["violations"]
    else:
        assert code == 1
        assert json.loads(out) == {"error": "FormatError", "detail": f"SlotCountError: {detail}"}


def _calls_of(command, monkeypatch):
    """The golden probes' and the ``cli`` bench workload's argv lists that
    start with ``command``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cli_mix = importlib.import_module("cli_mix")
    argvs = [probe.format(d="D").split() for probe, _, _ in PROBES]
    argvs += [*cli_mix.WELL_FORMED.values(), *cli_mix.MALFORMED.values()]
    return [argv for argv in argvs if argv[0] == command]


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_partial_parser_matches_the_full_parser(command, capsys, monkeypatch):
    full, partial = build_parser(), build_parser(command)
    helps = []
    for parser in (full, partial):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    calls = _calls_of(command, monkeypatch)
    assert calls
    for argv in calls:
        assert partial.parse_args(argv) == full.parse_args(argv), argv


@pytest.mark.parametrize(
    "argv, code",
    [
        ("gen --model klein_bottle", 2),
        ("verify --suite nope", 2),
        ("no-such-command", 2),
        ("--help", 0),
    ],
)
def test_main_parses_like_the_full_parser(argv, code, capsys):
    seen = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv.split())
        seen.append((exc.value.code, capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == code


# two pants joined by three curves, slot k to slot k
THETA = {
    "pants": ["p", "q"],
    "curves": [{"id": cid, "ends": [["p", k], ["q", k]]} for k, cid in enumerate("abc")],
    "boundary": [],
    "frontier": [],
}


def test_output_does_not_depend_on_the_hash_seed(loch4, capsys, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(THETA))
    ladder = tmp_path / "lad3.json"
    code, _ = run(capsys, "gen", "--model", "ladder", "--depth", "3", "--out", str(ladder))
    assert code == 0
    inventory = (
        "pants:c1,pants:h0,pants:h1,win:c2:1/0,win:h1:1/0,win:h1:1/1,win:h2:2/1,"
        "chain:h0:h1:c1,t1"
    )
    calls = [
        ["intersect", "--in", str(theta), "--a", "win:a:1/0", "--b", "pants:b"],
        ["graph", "--in", loch4, "--inventory", inventory, "--mode", "n"],
        ["ends", "--in", str(ladder), "--depth", "1", "--graph", "curves"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for argv in calls:
        seen = set()
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "curvelab.cli", *argv],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
            )
            seen.add((proc.returncode, proc.stdout))
        assert len(seen) == 1, argv
        outputs.append(seen.pop())
    assert json.loads(outputs[0][1]) == {
        "error": "UnknownCurve",
        "detail": "no sphere window around 'a': 'b' also joins its two pants",
    }


def test_graph_with_chain_inventory(loch4, capsys):
    code, out = run(
        capsys,
        "graph", "--in", loch4,
        "--inventory", "pants:h0,pants:h1,chain:h0:h1:c1,t1",
        "--mode", "g",
    )
    assert code == 0
    j = json.loads(out)
    assert j["mode"] == "g"
    assert j["relation"] == "unit_intersection"
    assert j["vertices"] == ["pants:h0", "pants:h1", "chain:h0:h1:c1,t1"]
    assert ["pants:h0", "chain:h0:h1:c1,t1"] in j["edges"]


@pytest.fixture
def loch3(tmp_path, capsys):
    path = tmp_path / "l3.json"
    code, _ = run(capsys, "gen", "--model", "loch_ness", "--depth", "3", "--out", str(path))
    assert code == 0
    return str(path)


def test_graph_reads_the_inventory_from_a_file(loch3, capsys, tmp_path):
    inventory = ",".join(map(format_ref, curve_inventory(build_truncation("loch_ness", 3), 3)))
    listed = tmp_path / "inventory.txt"
    listed.write_text(inventory + "\n")
    code, inline = run(capsys, "graph", "--in", loch3, "--mode", "n", "--inventory", inventory)
    assert code == 0
    code, out = run(capsys, "graph", "--in", loch3, "--mode", "n", "--inventory", f"@{listed}")
    assert code == 0
    assert out == inline


def test_graph_reports_a_missing_inventory_file(loch3, capsys, tmp_path):
    missing = tmp_path / "no-such-inventory.txt"
    code, out = run(capsys, "graph", "--in", loch3, "--mode", "c", "--inventory", f"@{missing}")
    assert code == 1
    assert json.loads(out) == {
        "error": "FileNotFoundError",
        "detail": f"[Errno 2] No such file or directory: '{missing}'",
    }


def test_path(loch4, capsys):
    code, out = run(capsys, "path", "--in", loch4, "--from", "h0", "--to", "h3")
    assert code == 0
    j = json.loads(out)
    assert j["length"] == 4
    assert j["path"][0] == "pants:h0" and j["path"][-1] == "pants:h3"


def test_counterexample_report(capsys):
    code, out = run(capsys, "counterexample", "--gadget", "ladder", "--samples", "40")
    assert code == 0
    j = json.loads(out)
    assert j["violations"] == []
    assert j["homeomorphic"] is False
    assert len(j["witnesses"]) == 3
    assert j["checked"] + j["skipped"] == 40


def test_verify_subcommand(capsys):
    code, out = run(capsys, "verify", "--suite", "triples", "--bound", "12")
    assert code == 0
    j = json.loads(out)
    assert j["suite"] == "triples"
    assert j["failures"] == 0
    code, out = run(capsys, "verify", "--suite", "ends", "--max-depth", "2")
    assert code == 0
    assert json.loads(out)["failures"] == 0


@pytest.mark.parametrize(
    "argv, detail",
    [
        ("verify --suite cutpoints --samples -1", "samples must be at least 0, got -1"),
        ("verify --suite diameter --samples -1", "samples must be at least 0, got -1"),
        ("verify --suite counterexample --samples -2", "samples must be at least 0, got -2"),
        ("counterexample --samples -2", "samples must be at least 0, got -2"),
        ("verify --suite ends --max-depth 0", "max_depth must be at least 1, got 0"),
    ],
    ids=["cutpoints", "diameter", "verify-counterexample", "counterexample", "ends"],
)
def test_vacuous_sizes_are_refused(capsys, argv, detail):
    code, out = run(capsys, *argv.split())
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "detail": detail}


def test_counterexample_refuses_depth_zero(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("pairs sampled before the refusal")

    monkeypatch.setattr(morphisms, "sample_pairs", no_sampling)
    code, out = run(capsys, "counterexample", "--depth", "0")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "detail": "depth must be at least 1, got 0"}


def test_verify_rejects_foreign_flags(capsys):
    code, out = run(capsys, "verify", "--suite", "triples", "--alpha", "c2")
    assert code == 1
    assert json.loads(out)["error"] == "FormatError"
    # the first refused flag, in the order the parser adds them, is named
    code, out = run(capsys, "verify", "--suite", "triples", "--alpha", "c2", "--gadget", "s12")
    assert code == 1
    assert json.loads(out)["detail"] == "suite 'triples' does not accept --alpha"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "klein_bottle", "--depth", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_input_file_reports_cleanly(capsys):
    code, out = run(capsys, "validate", "--in", "/no/such/file.json")
    assert code == 1
    assert json.loads(out)["error"] == "FileNotFoundError"


# bytes no UTF-8 text starts with, and what follows "not UTF-8: " in the
# FormatError of reading them
UNDECODABLE = (
    b"\xff\xfe{}",
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
)


def test_a_file_that_is_not_json_is_a_format_error(loch4, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    cases = [(t.encode(), f"not JSON: {m}") for t, m in NOT_JSON.items()]
    cases.append((UNDECODABLE[0], f"not UTF-8: {UNDECODABLE[1]}"))
    for content, detail in cases:
        bad.write_bytes(content)
        code, out = run(capsys, "validate", "--in", str(bad))
        assert code == 1
        assert json.loads(out) == {"error": "FormatError", "detail": detail}
    # the undecodable bytes, last written, read as an inventory file
    code, out = run(capsys, "graph", "--in", loch4, "--mode", "c", "--inventory", f"@{bad}")
    assert code == 1
    assert json.loads(out) == {"error": "FormatError", "detail": cases[-1][1]}


def test_verify_with_failures_still_prints_and_writes_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(
        capsys, "verify", "--suite", "diameter", "--trunc-depth", "1", "--samples", "2",
        "--out", str(path),
    )
    assert code == 1
    assert json.loads(out)["failures"] > 0
    assert path.read_text() == out


def test_out_into_a_missing_directory_is_an_error_document(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.json"
    code, out = run(capsys, "triple", "--a", "0/1", "--b", "2/5", "--out", str(missing))
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "detail"}
    assert doc["error"] == "FileNotFoundError"


def test_validate_rejects_ids_that_are_not_strings(capsys, tmp_path):
    # a null curve id and a pants renamed to the integer 7 everywhere
    doc = surface_to_json(build_truncation("loch_ness", 2))
    text = json.dumps(doc).replace('"id": "c1"', '"id": null').replace('"hp1"', "7")
    bad = tmp_path / "ids.json"
    bad.write_text(text)
    code, out = run(capsys, "validate", "--in", str(bad))
    assert code == 1
    assert json.loads(out) == {
        "error": "FormatError",
        "detail": "pants id is not a JSON string: 7",
    }


def test_validate_rejects_an_infinite_slot_index(loch4, capsys, tmp_path):
    doc = json.loads(Path(loch4).read_text())
    for rec in doc["curves"]:
        if rec["id"] == "t1":
            rec["ends"][0][1] = 987654321
    bad = tmp_path / "inf_slot.json"
    bad.write_text(json.dumps(doc).replace("987654321", "1e999"))
    code, out = run(capsys, "validate", "--in", str(bad))
    assert code == 1
    assert json.loads(out) == {
        "error": "FormatError",
        "detail": "curve 't1' has a slot index that is not an integer: inf",
    }


# one value of each JSON type, for the mutation that retypes a field
_JSON_VALUES = (None, True, 0, 1.5, "x", [], {})
_DOC_MUTATIONS = ("drop", "repeat", "retype", "restring", "reslot")


def _places(node):
    """(container, key) for every value inside a JSON document, depth first."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key])


def _mutated_doc(doc, mutations):
    """``doc`` with each (kind, i, j) of ``mutations`` applied in turn at
    its ``i``-th place: drop the value there, repeat it in its list, give
    it another JSON type, rename a string (to an unknown name, another
    string of the document, or with ``:`` or ``,`` put in at ``j``) or
    renumber an integer.  Between them they drop and repeat pants, curves,
    ends, boundary marks and frontier entries."""
    for kind, i, j in mutations:
        places = list(_places(doc))
        if not places:
            break
        node, key = places[i % len(places)]
        value = node[key]
        if kind == "drop":
            del node[key]
        elif kind == "repeat" and isinstance(node, list):
            node.insert(key, json.loads(json.dumps(value)))
        elif kind == "retype":
            others = [v for v in _JSON_VALUES if type(v) is not type(value)]
            node[key] = others[j % len(others)]
        elif kind == "restring" and isinstance(value, str):
            strings = [n[k] for n, k in places if isinstance(n[k], str)]
            at = j % (len(value) + 1)
            choices = ("nope", value[:at] + ":" + value[at:], value[:at] + "," + value[at:])
            node[key] = (*choices, *strings)[j % (len(strings) + 3)]
        elif kind == "reslot" and type(value) is int:
            node[key] = j % 5 - 1
    return doc


# every subcommand that reads a surface; ``a`` and ``b`` are curves of the
# document before it was mutated
_FUZZ_CALLS = (
    "validate --in {f}",
    "classify --in {f}",
    "classify --in {f} --curve {a}",
    "adjacency --in {f}",
    "ends --in {f} --depth 1",
    "ends --in {f} --depth 1 --graph curves",
    "intersect --in {f} --a pants:{a} --b win:{b}:1/2",
    "graph --in {f} --mode n --inventory pants:{a},win:{b}:1/2,pants:{b}",
    "path --in {f} --from {a} --to {b}",
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_BASES),
    st.lists(
        st.tuples(st.sampled_from(_DOC_MUTATIONS), st.integers(0, 500), st.integers(0, 500)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_every_call_on_a_mutated_document_exits_0_or_1(tmp_path_factory, base, mutations, x, y):
    ids = [c.id for c in base.curves]
    a, b = ids[x % len(ids)], ids[y % len(ids)]
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(_mutated_doc(surface_to_json(base), mutations)))
    for call in _FUZZ_CALLS:
        argv = [part.format(f=path, a=a, b=b) for part in call.split()]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        doc = json.loads(out.getvalue())
        assert code in (0, 1), argv
        assert code == 0 or set(doc) == {"error", "detail"}, (argv, doc)
