"""The ``cli`` workload: sequential ``python -m curvelab.cli`` calls.

Set-up writes small surface files (and malformed ones) into a private work
directory.  A round is a seeded mix of well-formed calls covering every
subcommand plus three malformed-input calls; a run measures whole rounds,
so the share of malformed calls is the same in every run.  A well-formed
call must reproduce the exit code and the stdout bytes pinned at the seed
commit; a malformed call must print the documented ``{"error", "detail"}``
document and exit 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from curvelab import build_finite_surface, build_truncation, dumps_surface

from inproc import load_pins
from record import child_env, interpreter_slowness

CALL_TIMEOUT_S = 60
PROBE_REPEATS = 5

SURFACES = {
    "ln3.json": lambda: build_truncation("loch_ness", 3),
    "ln8.json": lambda: build_truncation("loch_ness", 8),
    "ladder2.json": lambda: build_truncation("ladder", 2),
    "cantor2.json": lambda: build_truncation("cantor_tree", 2),
    "g2b1.json": lambda: build_finite_surface(2, 1),
}

# Well-formed calls by subcommand; each does little library work, so the
# interpreter start and the imports dominate every call.
POOL = {
    "gen": {
        "gen-ln4": ["gen", "--model", "loch_ness", "--depth", "4"],
        "gen-cantor3": ["gen", "--model", "cantor_tree", "--depth", "3"],
        "gen-g2b2": ["gen", "--genus", "2", "--boundary", "2"],
    },
    "validate": {
        "validate-ln3": ["validate", "--in", "ln3.json"],
        "validate-g2b1": ["validate", "--in", "g2b1.json"],
    },
    "classify": {
        "classify-ln8": ["classify", "--in", "ln8.json"],
        "classify-cantor2": ["classify", "--in", "cantor2.json"],
        "classify-ln3-c1": ["classify", "--in", "ln3.json", "--curve", "c1"],
    },
    "adjacency": {
        "adjacency-ladder2": ["adjacency", "--in", "ladder2.json"],
        "adjacency-g2b1": ["adjacency", "--in", "g2b1.json"],
    },
    "ends": {
        "ends-ln8-pants": ["ends", "--in", "ln8.json", "--depth", "3"],
        "ends-ln8-curves": ["ends", "--in", "ln8.json", "--depth", "3", "--graph", "curves"],
    },
    "intersect": {
        "intersect-window": ["intersect", "--in", "ln3.json", "--a", "pants:h0", "--b", "win:h0:2/1"],
        "intersect-chain": ["intersect", "--in", "ln3.json", "--a", "pants:h1",
                            "--b", "chain:h0:h1:c1,t1"],
    },
    "triple": {
        "triple-0-1-2-1": ["triple", "--a", "0/1", "--b", "2/1"],
        "triple-0-1-5-3": ["triple", "--a", "0/1", "--b", "5/3"],
    },
    "sch04": {
        "sch04-0-1-1-1": ["sch04", "--a", "0/1", "--b", "1/1"],
        "sch04-1-2-1-1": ["sch04", "--a", "1/2", "--b", "1/1"],
    },
    "graph": {
        "graph-c": ["graph", "--in", "ln3.json", "--mode", "c",
                    "--inventory", "pants:c1,pants:h0,win:h0:1/1,win:h1:1/2"],
        "graph-g": ["graph", "--in", "ln3.json", "--mode", "g",
                    "--inventory", "pants:h0,pants:h1,win:h0:1/0,chain:h0:h1:c1,t1"],
    },
    "path": {
        "path-h0-h2": ["path", "--in", "ln3.json", "--from", "h0", "--to", "h2"],
        "path-h1-h3": ["path", "--in", "ln8.json", "--from", "h1", "--to", "h3"],
    },
    "counterexample": {
        "counterexample-ladder": ["counterexample", "--samples", "50"],
        "counterexample-cantor": ["counterexample", "--gadget", "cantor", "--samples", "50"],
    },
    "verify": {
        "verify-ends": ["verify", "--suite", "ends", "--max-depth", "2"],
        "verify-triples": ["verify", "--suite", "triples", "--bound", "8"],
    },
}
WELL_FORMED = {name: argv for calls in POOL.values() for name, argv in calls.items()}
SUBCOMMAND = {name: sub for sub, calls in POOL.items() for name in calls}

# Malformed-input calls.  The first two hit defects recorded at the seed
# commit (a raw KeyError traceback; a silent merge of duplicate ids that
# exits 0); they stay in every round so that the fix shows as a lower
# failed ratio.  The others exercise error paths that already work.
DEFECTS = {
    "unknown-pants": ["classify", "--in", "unknown_pants.json"],
    "duplicate-id": ["classify", "--in", "duplicate_id.json"],
}
HANDLED = {
    "unknown-curve": ["classify", "--in", "ln3.json", "--curve", "zz"],
    "bad-slope": ["triple", "--a", "1/x", "--b", "1/1"],
    "not-json": ["validate", "--in", "not_json.json"],
    "unknown-ref": ["intersect", "--in", "ln3.json", "--a", "pants:zz", "--b", "pants:c1"],
}
MALFORMED = {**DEFECTS, **HANDLED}

ROUND_EXTRA = 3  # well-formed calls per round beyond two per subcommand


def write_inputs(workdir):
    """Write the surface files and the malformed documents."""
    workdir.mkdir(parents=True, exist_ok=True)
    docs = {}
    for name, build in SURFACES.items():
        text = dumps_surface(build())
        (workdir / name).write_text(text, encoding="utf-8")
        docs[name] = json.loads(text)
    bad = docs["ln3.json"]
    bad["curves"].append({"id": "zz", "ends": [["nope", 0], [bad["pants"][0], 0]]})
    (workdir / "unknown_pants.json").write_text(json.dumps(bad), encoding="utf-8")
    dup = json.loads(json.dumps(docs["ln3.json"]))
    for rec in dup["curves"]:
        if rec["id"] == "t2":
            rec["id"] = "t1"
    (workdir / "duplicate_id.json").write_text(json.dumps(dup), encoding="utf-8")
    (workdir / "not_json.json").write_text("{not json", encoding="utf-8")


def run_child(argv, cwd, env, outdir):
    """Run one child to completion; return (wall seconds, exit code, stdout, rusage)."""
    out_path, err_path = outdir / "stdout", outdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out_path.read_bytes(), usage


def is_error_document(stdout):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    return isinstance(doc, dict) and set(doc) == {"error", "detail"}


class Cli:
    """Closed loop, one client: each call starts after the previous exits."""

    operation = "call"

    def __init__(self, seed, tiny, root):
        self.workdir = root / "perfbench" / ".work" / f"cli-{os.getpid()}"
        write_inputs(self.workdir)
        self.env = child_env(root / "src")
        self.pins = load_pins("cli")
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.peak_rss_kib = 0
        self.calls = []  # (subcommand, seconds, traced) of well-formed calls
        self.counters = Counter()

    def slowness(self):
        return interpreter_slowness(self.env)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round(self):
        """One seeded round: two calls per subcommand (one when tiny), a few
        extra well-formed calls, both defect probes and one handled error."""
        rng = self.rng
        per_sub = 1 if self.tiny else 2
        calls = [rng.choice(sorted(POOL[sub])) for sub in POOL for _ in range(per_sub)]
        if not self.tiny:
            calls += [rng.choice(sorted(WELL_FORMED)) for _ in range(ROUND_EXTRA)]
        calls += sorted(DEFECTS) + [rng.choice(sorted(HANDLED))]
        rng.shuffle(calls)
        return calls

    def run_pass(self, tr, tally, ops):
        calls = self.round()
        for name in calls:
            argv = MALFORMED.get(name) or WELL_FORMED[name]
            start = time.perf_counter()
            try:
                seconds, code, stdout, usage = run_child(
                    ["-m", "curvelab.cli", *argv], self.workdir, self.env, self.workdir
                )
            except OSError as exc:
                tally.check(False, f"{name}: {type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter()
            tr.record(f"cli.{SUBCOMMAND.get(name, 'malformed')}", name, start, end)
            ops.append(seconds)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            if name in MALFORMED:
                tally.check(code == 1 and is_error_document(stdout),
                            f"{name}: exit {code}, stdout {stdout[:80]!r}", known=name in DEFECTS)
            else:
                pin = self.pins[name]
                tally.check(code == pin["exit"]
                            and hashlib.sha256(stdout).hexdigest() == pin["sha256"],
                            f"{name}: exit {code} or stdout differs from the pin")
                self.calls.append((SUBCOMMAND[name], seconds, tr.enabled))
        return len(calls)

    def probe(self, code):
        """Median wall time, in ms, of ``python -c code``."""
        times = []
        for _ in range(PROBE_REPEATS):
            seconds, status, _, _ = run_child(["-c", code], self.workdir, self.env, self.workdir)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited {status}")
            times.append(seconds * 1000)
        return statistics.median(times)

    def cli_metrics(self):
        """Interpreter start, import time and the median traced call per subcommand."""
        interpreter = self.probe("pass")
        out = {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": self.probe("import curvelab.cli") - interpreter,
        }
        for sub in POOL:
            times = [s * 1000 for name, s, traced in self.calls if traced and name == sub]
            out[f"cli.{sub}.ms_p50"] = statistics.median(times) if times else 0.0
        return out
