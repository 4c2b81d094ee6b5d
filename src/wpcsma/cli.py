"""Command-line front end: analyze / optimize / simulate / reproduce.

Results are CSV tables (a `# key=value` metadata comment block, a header
row, full-precision numeric cells) with a JSON sidecar carrying the same
content. Exit codes: 0 success, 2 infeasible scenario, 3 invalid input,
4 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, mac, optimize, sim
from .optimize import (DecisionVector, OptimizerConfig, check_kkt,
                       decision_reports, solve_bcd, utility)
from .params import InfeasibleError, InvalidParameterError, InvalidStateError
from .scenario_io import bundled_scenario, load_scenario

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_TOLERANCE = 4


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list], meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_sidecar(path: Path, payload: dict) -> None:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not serializable: {type(o)}")
    path.write_text(json.dumps(payload, indent=2, default=default) + "\n")


def _load_point(path, n_nodes: int) -> DecisionVector:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InvalidParameterError(f"cannot read point file: {err}") from None
    if not isinstance(doc, dict) or "n" not in doc or "alpha" not in doc:
        raise InvalidParameterError("point file must contain 'n' and 'alpha' arrays")
    try:
        n, alpha = (np.asarray(doc[k], dtype=float) for k in ("n", "alpha"))
    except (TypeError, ValueError):
        raise InvalidParameterError("point 'n' and 'alpha' must be arrays of "
                                    "numbers") from None
    dv = DecisionVector(n=n, alpha=alpha)
    if dv.n.shape != (n_nodes,):
        raise InvalidParameterError(
            f"point 'n' and 'alpha' must each list {n_nodes} numbers")
    return dv


def _meta(scenario, **extra) -> dict:
    meta = {"tool": "wpcsma", "version": __version__, "scenario": scenario.name}
    meta.update(extra)
    return meta


_TABLE_HEADER = ["node", "n", "alpha", "tau", "w_recovered", "throughput_bps",
                 "airtime", "energy_consumed_j", "energy_received_j", "slack_j"]


def _table_rows(dv: DecisionVector, perf, breakdowns, slacks):
    """Table rows and sidecar payload from `decision_reports` at dv."""
    rows = []
    payload = {"nodes": []}
    for i, br in enumerate(breakdowns):
        slack = float(slacks[i])
        rows.append([i, dv.n[i], dv.alpha[i], perf.tau[i], perf.window[i],
                     perf.throughput[i], perf.airtime[i], br.e_total,
                     br.budget, slack])
        payload["nodes"].append({
            "node": i, "n": float(dv.n[i]), "alpha": float(dv.alpha[i]),
            "tau": float(perf.tau[i]), "w_recovered": float(perf.window[i]),
            "throughput_bps": float(perf.throughput[i]),
            "airtime": float(perf.airtime[i]),
            "energy": {"acq": br.e_acq, "proc": br.e_proc,
                       "backoff": br.e_backoff, "data": br.e_data,
                       "background": br.e_bg, "total": br.e_total,
                       "budget": br.budget, "slack": slack},
        })
    payload["channel_load"] = perf.channel_load
    payload["mean_slot_duration_s"] = perf.mean_slot_duration
    # the two throughput forms agreeing is the standing internal check
    gap = np.max(np.abs(perf.throughput - perf.throughput_renewal)
                 / perf.throughput)
    if gap > 1e-8:
        raise InvalidStateError(
            f"throughput forms disagree by {gap:.3e} relative")
    return rows, payload


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    dv = _load_point(args.point, scenario.n_nodes)
    utility(scenario, dv)  # validates the box constraints
    rows, payload = _table_rows(dv, *decision_reports(scenario, dv.n, dv.alpha))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(scenario, command="analyze")
    write_csv(out / "analyze.csv", _TABLE_HEADER, rows, meta)
    payload["meta"] = meta
    write_sidecar(out / "analyze.json", payload)
    print(f"wrote {out/'analyze.csv'}")
    return EXIT_OK


def _optimizer_config(path) -> OptimizerConfig:
    if path is None:
        return OptimizerConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InvalidParameterError(f"cannot read config file: {err}") from None
    try:
        return OptimizerConfig(**doc)
    except TypeError as err:
        raise InvalidParameterError(f"bad optimizer config: {err}") from None


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    res = solve_bcd(scenario, _optimizer_config(args.config))
    rows, payload = _table_rows(res.decision, res.perf, res.energy, res.slacks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "utility_trace.csv"
    meta = _meta(scenario, command="optimize", status=res.status,
                 outer_iterations=res.outer_iters,
                 outer_tol=optimize.OUTER_TOL, inner_tol=optimize.INNER_TOL,
                 utility=repr(res.utility), utility_trace=trace_path.name)
    write_csv(out / "optimize.csv", _TABLE_HEADER, rows, meta)
    write_csv(trace_path, ["iteration", "utility"],
              [[k, u] for k, u in enumerate(res.utility_trace)],
              _meta(scenario, command="optimize"))
    payload["meta"] = meta
    payload["utility"] = res.utility
    payload["status"] = res.status
    payload["integer_decision"] = {"n": res.integer_n.tolist(),
                                   "w": res.integer_w.tolist(),
                                   "feasible": res.integer_feasible}
    payload["kkt_ok"] = check_kkt(scenario, res.decision).ok
    write_sidecar(out / "optimize.json", payload)
    print(f"wrote {out/'optimize.csv'} (status: {res.status})")
    return EXIT_OK if res.status == "converged" else EXIT_TOLERANCE


def _integer_point(scenario, dv: DecisionVector):
    """(n, W, tau): n rounded into 1..n_max, and `mac.integer_window` at it."""
    n_int = np.maximum(1, np.rint(dv.n).astype(int))
    n_int = np.minimum(n_int, [nd.duty.n_max for nd in scenario.nodes])
    m_int = np.array([nd.duty.sleep_slots(v)
                      for nd, v in zip(scenario.nodes, n_int)])
    return (n_int, *mac.integer_window(dv.alpha, m_int))


def integer_point(scenario, dv: DecisionVector):
    """Integer (n, W) nearest to a continuous decision (`mac.integer_window`)."""
    return _integer_point(scenario, dv)[:2]


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    dv = _load_point(args.point, scenario.n_nodes)
    n_int, w_int, taus = _integer_point(scenario, dv)
    perf = mac.evaluate(scenario, n_int.astype(float), mac.alpha_from_tau(taus))

    out = Path(args.out)
    cfg = sim.SimConfig(n_slots=args.slots, seed=args.seed,
                        warmup_slots=args.warmup,
                        trace_path=str(out / "trace.csv") if args.trace else None)
    out.mkdir(parents=True, exist_ok=True)   # only once the input is accepted
    stats = sim.simulate(scenario, n_int, w_int, cfg)

    header = ["node", "n", "w", "tau",
              "throughput_model", "throughput_sim", "throughput_rel_err",
              "airtime_model", "airtime_sim", "airtime_rel_err",
              "p_succ_model", "p_succ_sim"]
    rows = []
    for i in range(scenario.n_nodes):
        rows.append([i, int(n_int[i]), int(w_int[i]), taus[i],
                     perf.throughput[i], stats.throughput[i],
                     abs(stats.throughput[i] - perf.throughput[i]) / perf.throughput[i],
                     perf.airtime[i], stats.airtime[i],
                     abs(stats.airtime[i] - perf.airtime[i]) / perf.airtime[i],
                     perf.slot_probs.p_succ[i], stats.p_succ[i]])
    meta = _meta(scenario, command="simulate", seed=args.seed,
                 slots=args.slots, warmup=args.warmup, rng=stats.rng_name,
                 p_idle_model=repr(perf.slot_probs.p_idle),
                 p_idle_sim=repr(stats.p_idle),
                 p_col_model=repr(perf.slot_probs.p_col),
                 p_col_sim=repr(stats.p_col))
    write_csv(out / "simulate.csv", header, rows, meta)
    payload = {
        "meta": meta,
        "model": {"throughput": perf.throughput, "airtime": perf.airtime,
                  "p_idle": perf.slot_probs.p_idle,
                  "p_succ": perf.slot_probs.p_succ,
                  "p_col": perf.slot_probs.p_col},
        "simulated": {"throughput": stats.throughput, "airtime": stats.airtime,
                      "p_idle": stats.p_idle, "p_succ": stats.p_succ,
                      "p_col": stats.p_col,
                      "energy_per_cycle": stats.energy_per_cycle,
                      "cycles": stats.cycles,
                      "total_time_s": stats.total_time,
                      "event_slots": stats.event_slots},
        "ci_halfwidth": stats.ci_halfwidth,
    }
    write_sidecar(out / "simulate.json", payload)
    print(f"wrote {out/'simulate.csv'}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    which = f"example{args.exp}"
    scenario = bundled_scenario(which)
    res = solve_bcd(scenario)
    perf = res.perf
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(scenario, command="reproduce", experiment=args.exp,
                 status=res.status, utility=repr(res.utility))
    prefix = f"exp{args.exp}"

    energy_rows = [[i, float(b.e_total), float(b.budget), float(s)]
                   for i, (b, s) in enumerate(zip(res.energy, res.slacks))]
    write_csv(out / f"{prefix}_energy.csv",
              ["node", "consumed_j", "received_j", "slack_j"],
              energy_rows, meta)
    airtime_rows = [[i, scenario.nodes[i].duty.n_max, float(perf.airtime[i])]
                    for i in range(scenario.n_nodes)]
    write_csv(out / f"{prefix}_airtime.csv", ["node", "n_max", "airtime"],
              airtime_rows, meta)
    files = [f"{prefix}_energy.csv", f"{prefix}_airtime.csv"]
    if args.exp == 1:
        sample_rows = [[i, scenario.nodes[i].duty.n_max, float(res.decision.n[i])]
                       for i in range(scenario.n_nodes)]
        write_csv(out / f"{prefix}_samples.csv", ["node", "n_max", "n_opt"],
                  sample_rows, meta)
        files.append(f"{prefix}_samples.csv")
    print(f"wrote {', '.join(str(out / f) for f in files)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wpcsma",
        description="Throughput/energy model, proportional-fair optimizer and "
                    "slot simulator for RF-powered 802.11 sensor networks.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate the model at a decision point")
    p.add_argument("--scenario", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="proportional-fair allocation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="slot-level Monte Carlo at a point")
    p.add_argument("--scenario", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--slots", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=int, default=10_000)
    p.add_argument("--trace", action="store_true",
                   help="also write a per-slot trace CSV")
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="rerun a bundled experiment")
    p.add_argument("--exp", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        for detail in err.details:
            print(f"  {detail}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvalidParameterError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidStateError as err:
        print(f"tolerance failure: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
