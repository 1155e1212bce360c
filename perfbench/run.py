#!/usr/bin/env python3
"""Benchmark of curvelab: one workload per run, result on the last stdout line.

    python3 perfbench/run.py --workload truncations --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout that holds ``src/curvelab``; it exits 2
without a result anywhere else.  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``, measured with tracing off.  With
``--trace 1`` it runs passes untraced for half the time, then as many passes
traced, and reports the per-layer metrics with the tracing overhead.  Every
run also writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` with
the environment, the failures and the operation-time distribution (and the
spans, for a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from record import LAYERS, Ops, Tally, Tracer, child_env, interpreter_slowness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("truncations", "inventory", "sweeps", "cli")
SETUP_SAMPLES = 5
SPEED_SAMPLES = 3  # interpreter probes after each set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description="curvelab benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; whole passes run until it is spent (0: one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smaller batches and CLI rounds, one set-up sample (for the self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build(name, seed, tiny):
    """Import curvelab and build the workload's inputs.  Returns the workload,
    the wall seconds taken and the speed factor sampled right after."""
    start = time.perf_counter()
    if name == "cli":
        import cli_mix

        wl = cli_mix.Cli(seed, tiny, ROOT)
    else:
        import inproc

        cls = {"truncations": inproc.Truncations, "inventory": inproc.Inventory,
               "sweeps": inproc.Sweeps}[name]
        wl = cls(seed, tiny)
    seconds = time.perf_counter() - start
    env = child_env(SRC)
    return wl, seconds, 1 / statistics.median(
        interpreter_slowness(env) for _ in range(SPEED_SAMPLES)
    )


def setup_in_child(args):
    """Set-up of a fresh interpreter, import included: (seconds, speed factor)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    out = subprocess.run(argv, cwd=ROOT, env=child_env(SRC), capture_output=True, text=True,
                         timeout=120, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup"])


@dataclass
class Passes:
    """Per pass: wall seconds (speed probes left out), work units and
    seconds at the nominal speed."""

    ops: Ops
    walls: list = field(default_factory=list)
    works: list = field(default_factory=list)
    scaled: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(self.walls)


def measure(wl, tr, tally, seconds=None, passes=None, sampling=False):
    """Run whole passes until ``seconds`` are spent or ``passes`` are done.

    With ``sampling``, each operation is scaled by the workload's speed
    probe taken just before and just after it; the little time between
    operations is scaled by the median factor of its pass."""
    out = Passes(Ops(wl.slowness if sampling else None))
    begin = time.perf_counter()
    while True:
        n_ops, sampling_s = len(out.ops), out.ops.sampling_s
        start = time.perf_counter()
        with tr.span("bench.pass"):
            out.works.append(wl.run_pass(tr, tally, out.ops))
        wall = time.perf_counter() - start - (out.ops.sampling_s - sampling_s)
        out.walls.append(wall)
        if sampling:
            ops, factors = out.ops[n_ops:], out.ops.factors[n_ops:]
            between = wall - sum(ops)
            out.scaled.append(sum(o * f for o, f in zip(ops, factors))
                              + between * statistics.median(factors))
        if passes is not None:
            if len(out.walls) >= passes:
                return out
        elif time.perf_counter() - begin >= seconds:
            return out


def tail(values):
    """The highest percentile with at least ten values beyond it."""
    s = sorted(values)
    if len(s) < 11:
        return None
    return {"value": s[-11], "percentile": round(100 * (len(s) - 10) / len(s), 2),
            "count": len(s)}


def end_to_end(wl, setup, m):
    """Medians over set-ups, passes and operations, in seconds at the
    nominal speed.  On ``cli`` the operation is a call, elsewhere a pass."""
    if wl.operation == "call":  # the largest child, for the CLI workload
        rss_kib = wl.peak_rss_kib
        ops = [o * f for o, f in zip(m.ops, m.ops.factors)]
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ops = m.scaled
    return {
        "setup_s": statistics.median(t * f for t, f in setup),
        "peak_rss_mb": rss_kib / 1024,
        "work_per_s": statistics.median(w / t for w, t in zip(m.works, m.scaled)),
        "op_ms_p50": statistics.median(ops) * 1000,
    }


def per_layer(names, wl, tr, n, untraced_wall, traced_wall):
    busy = tr.busy()
    self_times = tr.self_times()
    pass_wall = sum(e - s for name, _, s, e, _ in tr.spans if name == "bench.pass")
    c = wl.counters
    values = {
        "trace.wall_s": traced_wall / n,
        "trace.overhead_s": (traced_wall - untraced_wall) / n,
        "trace.layer_share": sum(self_times[layer] for layer in LAYERS) / pass_wall,
        "bench.self_s": self_times["bench"] / n,
        "curves.global_intersection.calls": c["curves.global_intersection.calls"] / n,
        "curves.global_intersection.defined_ratio":
            c["curves.global_intersection.defined"] / c["curves.global_intersection.calls"]
            if c["curves.global_intersection.calls"] else 0.0,
        "morphisms.check_superinjective.skipped_ratio":
            c["morphisms.check_superinjective.skipped"] / c["morphisms.check_superinjective.pairs"]
            if c["morphisms.check_superinjective.pairs"] else 0.0,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_times[layer] / n
    cli = wl.cli_metrics() if hasattr(wl, "cli_metrics") else {}
    for name in names:
        if name in values:
            continue
        if name.endswith(".s"):
            values[name] = busy[name[:-2]] / n
        elif name.startswith("verify.") and name.endswith(".checked"):
            values[name] = c[name] / n
        elif name.startswith("cli."):
            values[name] = cli.get(name, 0.0)
    missing = [name for name in names if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return values


def environment(seed):
    import networkx
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "curvelab_threads": "unset",
    }


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "curvelab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no curvelab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("CURVELAB_THREADS", None)  # measure the default worker pool
    sys.path.insert(0, str(SRC))

    wl, setup_s, factor = build(args.workload, args.seed, args.tiny)
    try:
        if args.setup_only:
            print(json.dumps({"setup": [setup_s, factor]}))
            return 0
        return run(args, wl, (setup_s, factor),
                   json.loads(spec_path.read_text(encoding="utf-8")))
    finally:
        if hasattr(wl, "close"):
            wl.close()


def run(args, wl, setup, spec):
    children = 0 if args.tiny else SETUP_SAMPLES - 1
    setup_samples = [setup] + [setup_in_child(args) for _ in range(children)]
    tally = Tally()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_samples": setup_samples}
    if args.trace:
        untraced = measure(wl, Tracer(False), tally, seconds=args.seconds / 2)
        wl.counters.clear()
        tr = Tracer(True)
        m = measure(wl, tr, tally, passes=len(untraced.walls))
        names = [d["name"] for d in spec["per_layer"]]
        values = per_layer(names, wl, tr, len(m.walls), untraced.wall, m.wall)
        units = {d["name"]: d["unit"] for d in spec["per_layer"]}
    else:
        m = measure(wl, Tracer(False), tally, seconds=args.seconds, sampling=True)
        values = end_to_end(wl, setup_samples, m)
        units = {d["name"]: d["unit"] for d in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    result.update({
        "environment": environment(args.seed),
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else None,
        "failures": tally.details,
        "pass_walls_s": m.walls,
        "pass_scaled_s": m.scaled,
        "pass_work": m.works,
        "op_walls_s": list(m.ops),
        "op_speed_factors": m.ops.factors,
        "speed_samples_s": m.ops.samples,
        "unscaled_work_per_s": statistics.median(w / t for w, t in zip(m.works, m.walls)),
        "ops": {"count": len(m.ops), "p50_ms": statistics.median(m.ops) * 1000,
                "tail_ms": tail([o * 1000 for o in m.ops])},
        "metrics": metrics,
    })
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tr.dump()) + "\n",
                                                     encoding="utf-8")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
