"""The three workloads: their seeded set-up and the operations of one round.

An operation is one timed call into the program (`call`, may be None for
a pure check) followed by untimed checks of what it returned or wrote
(`check`, returning failure messages). Every round of a run repeats the
same operations on the same inputs, so every round must give the same
digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs
import reference as ref

# The workload seed draws the N = 6 family. The N = 12 and N = 24 instances
# come from fixed generator seeds: their cost differs up to 2.7x between
# instances (one outer iteration at N = 24 costs 0.3-0.8 s, or 0.03 s when no
# energy bound is active early and the pair sweep never runs), too much for
# two instances a round to average out, and some N = 12 instances take all
# 200 outer iterations (40-45 s) without converging.
SEEDED_FAMILY = ((6, 8),)                                  # (N, count)
# A converged N = 24 solve takes 35-45 s on a 2-core host (39-45 outer
# iterations), longer than a run, so those solves get a fixed budget.
N24_OUTER_ITERS = 4
FIXED_FAMILY = ((12, (12000, 12001), None), (24, (24000, 24001), N24_OUTER_ITERS))
SIM_WARMUP = 10_000


@dataclass
class Op:
    name: str
    layer: str | None                   # "optimize", "simulate" or None
    call: Callable[[], Any] | None
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str] = lambda result: ""
    facts: Callable[[Any], dict] = lambda result: {}   # slots advanced, cycles
    known_fault: bool = False
    out: Path | None = None             # directory a CLI command writes


@dataclass
class Setup:
    ops: list[Op]
    describe: list[str] = field(default_factory=list)   # input make-up lines
    cleanup: Callable[[], None] = lambda: None
    inputs: dict = field(default_factory=dict)          # generated documents by name


def _floats(x) -> str:
    return ",".join(repr(float(v)) for v in np.ravel(x))


def _quiet(fn, *args, **kwargs):
    """Call a program function with its stdout and RuntimeWarnings held back."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


# --- opt-scaling ----------------------------------------------------------

def opt_scaling(prog, seed: int, root: Path) -> Setup:
    """solve_bcd, round_decision and check_kkt on both bundled scenarios and
    a seeded family at N = 6, 12 and 24. The simulator is never called."""
    rng = np.random.default_rng(seed)
    sio = prog.scenario_io
    cases = [(name, sio.bundled_scenario(name), None) for name in ("example1", "example2")]
    docs = {}
    for n_nodes, count in SEEDED_FAMILY:
        for k in range(count):
            doc = inputs.feasible_doc(rng, n_nodes, f"gen{n_nodes}-{k}", sio.scenario_from_dict)
            docs[doc["name"]] = doc
            cases.append((doc["name"], sio.scenario_from_dict(doc), None))
    for n_nodes, seeds, cap in FIXED_FAMILY:
        for fixed in seeds:
            doc = inputs.feasible_doc(np.random.default_rng(fixed), n_nodes,
                                      f"gen{n_nodes}-{fixed}", sio.scenario_from_dict)
            docs[doc["name"]] = doc
            cases.append((doc["name"], sio.scenario_from_dict(doc), cap))
    ops = [_solve_op(prog, name, scn, cap) for name, scn, cap in cases]
    describe = [f"{name}: N={scn.n_nodes}, n_max {int(min(nd.duty.n_max for nd in scn.nodes))}"
                f"..{int(max(nd.duty.n_max for nd in scn.nodes))}"
                + (f", {cap} outer iterations" if cap else ", solved to convergence")
                for name, scn, cap in cases]
    return Setup(ops, describe, inputs=docs)


def _solve_op(prog, name, scn, cap) -> Op:
    opt = prog.optimize
    cfg = opt.OptimizerConfig(max_outer_iters=cap) if cap else opt.OptimizerConfig()

    def call():
        res = _quiet(opt.solve_bcd, scn, cfg)
        return res, opt.round_decision(scn, res.decision), opt.check_kkt(scn, res.decision)

    def check(out):
        res, (n_int, w_int, _), kkt = out
        converged = res.status == "converged"
        # the bundled scenarios must converge; a generated one may end at its
        # iteration cap, which the solver reports (the CLI exits 4 for it)
        bad = [] if converged or name.startswith("gen") else [f"status {res.status}"]
        if len(res.utility_trace) != res.outer_iters:
            bad.append("utility trace length != outer iterations")
        bad += checks.decision(scn, res.decision.n, res.decision.alpha, res.utility,
                               res.utility_trace, converged, res.perf.throughput)
        bad += checks.integer_point(scn, n_int, w_int)
        if list(n_int) != list(res.integer_n) or list(w_int) != list(res.integer_w):
            bad.append("round_decision disagrees with the solver's integer point")
        if len(kkt.entries) != 2 * scn.n_nodes:
            bad.append(f"check_kkt reports {len(kkt.entries)} coordinates")
        if converged and not kkt.ok:
            bad.append("check_kkt is not ok at a converged point: "
                       + ", ".join(e.name for e in kkt.entries if not e.ok))
        if name == "example1":
            bad += checks.example1_shape(scn, res.decision.n, res.decision.alpha)
        return bad

    def digest(out):
        res, (n_int, w_int, feas), kkt = out
        return (f"{name} {res.status} {res.outer_iters} u={res.utility!r} "
                f"n={_floats(res.decision.n)} a={_floats(res.decision.alpha)} "
                f"int={list(map(int, n_int))}/{list(map(int, w_int))}/{feas} kkt={kkt.ok}")

    return Op(f"solve:{name}", "optimize", call, check, digest)


# --- sim-dense ------------------------------------------------------------

# (N, n values, W range, slots): busy channels, every window >= 8. Each
# point uses every listed n equally often and windows spread evenly over the
# range, shuffled over the nodes by the seed: the simulator's cost per slot
# follows the attempt rates sum(tau), which this keeps the same for every
# seed (drawing n and W independently moved it by 30% between seeds).
SIM_POINTS = ((24, (2, 3, 4, 5, 6), (8, 24), 350_000), (12, (1, 2, 3), (8, 16), 250_000))


def sim_dense(prog, seed: int, root: Path) -> Setup:
    """simulate at integer mixing points of a 24-node and a 12-node scenario.
    The optimizer is never called."""
    rng = np.random.default_rng(seed)
    ops, describe, docs = [], [], {}
    for n_nodes, n_values, (w_lo, w_hi), slots in SIM_POINTS:
        doc = inputs.heterogeneous_doc(rng, n_nodes, f"dense{n_nodes}")
        scn = prog.scenario_io.scenario_from_dict(doc)
        n = rng.permutation(np.resize(n_values, n_nodes))
        w = rng.permutation(np.rint(np.linspace(w_lo, w_hi, n_nodes)).astype(int))
        cfg = prog.sim.SimConfig(n_slots=slots, seed=int(rng.integers(1, 2**31)),
                                 warmup_slots=SIM_WARMUP)
        ops.append(_sim_op(prog, doc["name"], scn, n, w, cfg))
        docs[doc["name"]] = doc
        docs[doc["name"] + ".point"] = {"n": n.tolist(), "w": w.tolist(), "seed": cfg.seed,
                                        "slots": slots, "warmup": SIM_WARMUP}
        sp = ref.slot_probs(ref.tau_of_window(w, ref.sleep_slots(scn, n)))
        describe.append(f"{doc['name']}: N={n_nodes}, n {n.min()}..{n.max()}, W {w.min()}..{w.max()}, "
                        f"{slots} slots, model idle {sp['p_idle']:.3f} collision {sp['p_col']:.3f}")
    return Setup(ops, describe, inputs=docs)


def _sim_op(prog, name, scn, n, w, cfg) -> Op:
    def call():
        return prog.sim.simulate(scn, n, w, cfg)

    def digest(st):
        return (f"{name} slots={st.slots} idle={round(st.p_idle * st.slots)} "
                f"cycles={_floats(st.cycles)} bits={_floats(st.delivered_bits)}")

    return Op(f"simulate:{name}", "simulate", call,
              lambda st: checks.sim_stats(scn, n, w, cfg, st), digest,
              lambda st: {"advanced": cfg.n_slots, "cycles": float(st.cycles.sum())})


# --- paper-pipeline -------------------------------------------------------

PIPE_SLOTS = {"opt": 1_000_000, "w16": 400_000}


def paper_pipeline(prog, seed: int, root: Path) -> Setup:
    """The CLI as a user runs it: reproduce, optimize, analyze and simulate
    on the bundled scenario files, in-process through wpcsma.cli.main."""
    rng = np.random.default_rng(seed)
    data = root / "src" / "wpcsma" / "data"
    scen_path = {k: data / f"{k}.json" for k in ("example1", "example2")}
    scen = {k: prog.scenario_io.load_scenario(p) for k, p in scen_path.items()}
    out_root = root / "wpbench" / "_out"
    out_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="paper-", dir=out_root))

    # a mixing point of example1: n at the CPU caps (as at its optimum) and
    # alpha that recovers W = 16 exactly. n is not drawn: the simulator's cost
    # per slot falls steeply with the sleep length m = n h + g.
    ex1 = scen["example1"]
    n16 = ref.node_arrays(ex1)["n_max"]
    a16 = ref.alpha_of_window(np.full(ex1.n_nodes, 16.0), ref.sleep_slots(ex1, n16))
    w16_point = tmp / "w16_point.json"
    w16_point.write_text(json.dumps({"n": n16.tolist(), "alpha": a16.tolist()}))
    sim_seeds = [int(v) for v in rng.integers(1, 2**31, 3)]
    results: dict[str, Any] = {}

    def cli(*argv):
        return _quiet(prog.cli.main, [str(a) for a in argv])

    def exit_ok(code, want=0):
        return [] if code == want else [f"exit code {code}, expected {want}"]

    ops: list[Op] = []
    for exp in (1, 2):
        d = tmp / f"reproduce{exp}"
        ops.append(Op(f"reproduce:{exp}", "optimize",
                      lambda exp=exp, d=d: cli("reproduce", "--exp", exp, "--out", d),
                      lambda code, exp=exp, d=d: exit_ok(code) + checks.reproduce(
                          scen[f"example{exp}"], d, exp),
                      lambda code, exp=exp, d=d: f"reproduce{exp} {code} "
                      + checks.read_csv(d / f"exp{exp}_energy.csv")[0].get("utility", ""),
                      out=d))
    for key in ("example1", "example2"):
        d = tmp / f"optimize-{key}"
        ops.append(Op(f"optimize:{key}", "optimize",
                      lambda key=key, d=d: cli("optimize", "--scenario", scen_path[key], "--out", d),
                      lambda code, key=key, d=d: exit_ok(code) + _check_optimize(scen[key], d, key, results),
                      lambda code, key=key: _optimize_digest(results, key), out=d))
        ops.append(Op(f"integer-point:{key}", None, None,
                      lambda _, key=key: _check_integer_point(scen[key], results, key),
                      known_fault=True))
    for key in ("example1", "example2"):
        d = tmp / f"analyze-{key}"
        ops.append(Op(f"analyze:{key}", None,
                      lambda key=key, d=d: cli("analyze", "--scenario", scen_path[key],
                                               "--point", tmp / f"{key}_opt_point.json", "--out", d),
                      lambda code, key=key, d=d: exit_ok(code) + _check_analyze(scen[key], d, key, results),
                      out=d))
    sims = [("example1-opt", "example1", None), ("example2-opt", "example2", None),
            ("example1-w16", "example1", w16_point)]
    for (tag, key, point), sim_seed in zip(sims, sim_seeds):
        d = tmp / f"simulate-{tag}"
        slots = PIPE_SLOTS["w16" if point else "opt"]
        ops.append(_cli_sim_op(cli, tag, scen[key], scen_path[key], point, key, sim_seed,
                               slots, d, tmp, results))
    n16_int, w16 = checks.expected_integer_point(ex1, n16, a16)
    sp = ref.slot_probs(ref.tau_of_window(w16, ref.sleep_slots(ex1, n16_int)))
    describe = ["example1, example2: bundled files, N=6",
                f"example1-w16: n={n16_int.tolist()}, W={w16.tolist()}, model idle "
                f"{sp['p_idle']:.3f}, {PIPE_SLOTS['w16']} slots",
                f"optimum points: {PIPE_SLOTS['opt']} slots each, W=1 after rounding"]
    return Setup(ops, describe, lambda: shutil.rmtree(tmp, ignore_errors=True),
                 {"example1-w16.point": json.loads(w16_point.read_text()),
                  "simulate.seeds": sim_seeds})


def _check_optimize(scn, d: Path, key, results) -> list[str]:
    doc = checks.read_json(d / "optimize.json")
    results[key] = doc
    # the point file of the analyze and simulate commands that follow: this
    # round's optimum, written here so that no timed call includes it
    (d.parent / f"{key}_opt_point.json").write_text(json.dumps(
        {"n": [r["n"] for r in doc["nodes"]], "alpha": [r["alpha"] for r in doc["nodes"]]}))
    _, trace_rows = checks.read_csv(d / "utility_trace.csv")
    trace = [float(r["utility"]) for r in trace_rows]
    n = np.array([r["n"] for r in doc["nodes"]])
    alpha = np.array([r["alpha"] for r in doc["nodes"]])
    bad = [] if doc["status"] == "converged" else [f"status {doc['status']}"]
    bad += checks.decision(scn, n, alpha, doc["utility"], trace, True,
                           [r["throughput_bps"] for r in doc["nodes"]])
    bad += checks.table_point(scn, doc)
    if not doc["kkt_ok"]:
        bad.append("kkt_ok is false")
    bad += checks.integer_point(scn, doc["integer_decision"]["n"], doc["integer_decision"]["w"])
    if key == "example1":
        bad += checks.example1_shape(scn, n, alpha)
    return bad


def _optimize_digest(results, key) -> str:
    doc = results.get(key, {})
    nodes = doc.get("nodes", [])
    return (f"optimize {key} u={doc.get('utility')!r} n={_floats([r['n'] for r in nodes])} "
            f"a={_floats([r['alpha'] for r in nodes])} int={doc.get('integer_decision')}")


def _check_integer_point(scn, results, key) -> list[str]:
    if key not in results:
        return ["no optimize output to check"]
    ip = results[key]["integer_decision"]
    return checks.integer_point_energy_neutral(scn, ip["n"], ip["w"], ip["feasible"])


def _check_analyze(scn, d: Path, key, results) -> list[str]:
    doc = checks.read_json(d / "analyze.json")
    bad = checks.table_point(scn, doc)
    opt = results.get(key)
    if opt is not None and [r["throughput_bps"] for r in doc["nodes"]] != \
            [r["throughput_bps"] for r in opt["nodes"]]:
        bad.append("analyze at the optimum disagrees with optimize")
    return bad


def _cli_sim_op(cli, tag, scn, scen_path, point, key, sim_seed, slots, d, tmp, results) -> Op:
    facts: dict = {}

    def call():
        p = point if point is not None else tmp / f"{key}_opt_point.json"
        return cli("simulate", "--scenario", scen_path, "--point", p, "--slots", slots,
                   "--seed", sim_seed, "--warmup", SIM_WARMUP, "--out", d)

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        p = json.loads((point if point is not None else tmp / f"{key}_opt_point.json").read_text())
        bad, found = checks.simulate_files(scn, d, p["n"], p["alpha"])
        facts.clear()
        facts.update(found)
        return bad

    def digest(code):
        return f"simulate {tag} {code} {json.dumps(facts, sort_keys=True)}"

    return Op(f"simulate:{tag}", "simulate", call, check, digest, lambda code: {k: facts[k] for k in ("advanced", "cycles")}, out=d)
