#!/usr/bin/env python3
"""wpcsma benchmark: optimizer scaling, dense simulation and the paper pipeline.

    python3 wpbench/run.py --workload opt-scaling --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. A run sets up its seeded inputs several times (setup_s is the
median), then repeats whole rounds of the same operations while another
round fits in `--seconds`, checks every output against the reference
computations, and prints one JSON result as its last line. `--trace 1`
alternates untraced and traced rounds and reports per-layer figures.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("params", "timing", "mac", "energy", "optimize", "sim", "scenario_io", "cli")
SETUP_REPEATS = 9
DEFAULT_SEED = 1      # the documented seed; seed 2 is held back to validate claims


def import_program() -> SimpleNamespace:
    """Import wpcsma afresh from this checkout's src/ (setup_s includes it)."""
    for k in [k for k in sys.modules if k == "wpcsma" or k.startswith("wpcsma.")]:
        del sys.modules[k]
    pkg = importlib.import_module("wpcsma")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"wpcsma imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"wpcsma.{m}") for m in MODULES})


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(ops, rec) -> dict:
    """One pass over the operations: timed calls, then untimed checks."""
    r = {"program_s": 0.0, "layer_s": {"optimize": 0.0, "simulate": 0.0},
         "failed_known": [], "failed_other": [], "digest": [], "facts": {}}
    for op in ops:
        if rec is not None:
            rec.begin_op(op.name)
        result, err = None, None
        t0 = perf_counter()
        try:
            if op.call is not None:
                result = op.call()
        except Exception:  # a program fault is a failed operation, not a crash
            err = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        r["program_s"] += dt
        if op.layer:
            r["layer_s"][op.layer] += dt
        try:
            bad = [f"raised: {err}"] if err else op.check(result)
            if not err:
                r["digest"].append(op.digest(result))
                for k, v in op.facts(result).items():
                    r["facts"][k] = r["facts"].get(k, 0) + v
        except Exception:
            bad = [f"check raised: {traceback.format_exc(limit=3)}"]
        if op.out is not None and op.out.exists():
            r["facts"]["bytes_written"] = r["facts"].get("bytes_written", 0) + dir_bytes(op.out)
        if bad:
            r["failed_known" if op.known_fault else "failed_other"].append((op.name, bad))
    return r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wpcsma" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'wpcsma'}; run from a wpcsma checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported before timing: the benchmark needs it anyway)
    import reference
    import workloads
    table = {"opt-scaling": workloads.opt_scaling, "sim-dense": workloads.sim_dense,
             "paper-pipeline": workloads.paper_pipeline}
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; have {sorted(table)}", file=sys.stderr)
        return 2

    setup_times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        prog = import_program()
        setup = table[args.workload](prog, args.seed, ROOT)
        setup_times.append(perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            setup.cleanup()
    ref_bad = reference.self_test()

    rec = None
    rounds, traced = [], []
    # Whole rounds while another fits in --seconds; with --trace 1 the unit
    # is a pair (untraced, traced), so a traced run ends on a traced round.
    t_start = t_unit = perf_counter()
    try:
        while True:
            tracing = bool(args.trace) and len(rounds) % 2 == 1
            if tracing:
                import tracer
                rec = rec or tracer.Recorder()
                rec.install()
            try:
                rounds.append(run_round(setup.ops, rec if tracing else None))
            finally:
                if tracing:
                    rec.uninstall()
            traced.append(tracing)
            if args.trace and not tracing:
                continue
            now = perf_counter()
            if (now - t_start) + (now - t_unit) > args.seconds:
                break
            t_unit = now
    finally:
        setup.cleanup()

    digests = [hashlib.sha256("\n".join(r["digest"]).encode()).hexdigest() for r in rounds]
    other = [f for r in rounds for f in r["failed_other"]]
    if len(set(digests)) != 1:
        other.append(("determinism", ["rounds on the same inputs gave different outputs"]))
    if ref_bad:
        other.append(("reference self-test", ref_bad))
    known = [f for r in rounds for f in r["failed_known"]]
    for name, bad in other[:20]:
        print(f"FAILED {name}: {bad[0]}", file=sys.stderr)
    for name, bad in known[:2]:
        print(f"known fault {name}: {bad[0]}", file=sys.stderr)

    for line in setup.describe:
        print(f"input  {line}")
    untraced = [r for r, t in zip(rounds, traced) if not t]
    med = statistics.median
    run_s = med([r["program_s"] for r in untraced])
    summary = {"setup_s": (med(setup_times), "s"), "run_s": (run_s, "s")}
    for layer in ("optimize", "simulate"):
        t = med([r["layer_s"][layer] for r in untraced])
        if t > 0:
            summary[f"{layer}_s"] = (t, "s")
    facts = untraced[0]["facts"]
    if summary.get("simulate_s"):
        summary["sim_slots_per_s"] = (facts.get("advanced", 0) / summary["simulate_s"][0], "slot/s")
        summary["sim_cycles_per_s"] = (facts.get("cycles", 0) / summary["simulate_s"][0], "cycle/s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["peak_rss_mib"] = (peak, "MiB")
    for name, (value, unit) in summary.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"rounds {len(rounds)} ({sum(traced)} traced), operations per round {len(setup.ops)}, "
          f"program s per round {[round(r['program_s'], 3) for r in rounds]}")
    print(f"digest {digests[0]}")

    if args.trace:
        traced_rounds = [r for r, t in zip(rounds, traced) if t]
        layer = rec.report(len(traced_rounds))
        traced_s = med([r["program_s"] for r in traced_rounds])
        layer["cli.bytes_written"] = facts.get("bytes_written", 0)
        layer["trace.overhead_s"] = traced_s - run_s
        layer["trace.coverage"] = rec.top_level_s / sum(r["program_s"] for r in traced_rounds)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        rec.write(HERE / "_out" / f"spans-{args.workload}-{args.seed}-{os.getpid()}.csv.gz")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()
                   if k in ("setup_s", "run_s", "peak_rss_mib")}
    print(json.dumps({"correct": not other, "attempted": len(rounds) * len(setup.ops),
                      "failed": len(known), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"sim.slots": "slot", "sim.busy_slots": "slot", "sim.cycles": "cycle",
            "sim.host_ns_per_slot": "ns/slot", "cli.bytes_written": "byte",
            "trace.coverage": "ratio"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
