"""Checks of the program's outputs against the reference computations.

Each check returns a list of failure messages; an empty list is a pass.
Nothing here compares against a stored copy of earlier output: every
expected value is recomputed from the scenario by `reference`, or is a
property the method must have.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference as ref

REL = 1e-9               # reported figure vs reference
SLACK_TOL = 1e-9         # energy neutrality, share of the budget
STEP_GAIN_TOL = 1e-7     # single-coordinate improvement, relative to |utility|
STEPS = (1e-3, 1e-2)     # single-coordinate step sizes, relative to the coordinate
# Two-sided 1e-6 quantile of Student's t with 19 dof (20 batch means): a
# family level of 1e-4 over up to 100 comparisons in one run.
T19_FAMILY = 7.069118187058833
T19_95 = 2.093024054408263    # the 95% quantile behind SimStats.ci_halfwidth
Z_FAMILY = 4.891638475698591  # the same 1e-6 level for the normal law


def _rel_bad(name, got, want, rel=REL) -> list[str]:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    if not np.all(err <= rel):
        k = int(np.argmax(err))
        return [f"{name}[{k}]: {got[k]!r} vs reference {want[k]!r} (rel {err[k]:.2e})"]
    return []


# --- optimizer ------------------------------------------------------------

def decision(scn, n, alpha, utility, trace, converged: bool,
             throughput=None) -> list[str]:
    """Box, energy neutrality, utility, monotone trace and, when the solve
    converged, first-order optimality by single-coordinate steps."""
    bad = []
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n_max = ref.node_arrays(scn)["n_max"]
    if not (np.all(n >= 1.0) and np.all(n <= n_max * (1 + 1e-12))):
        bad.append(f"n outside [1, n_max]: {n.tolist()}")
    if not (np.all(alpha > 0.0) and np.all(alpha <= 0.5)):
        bad.append(f"alpha outside (0, 0.5]: {alpha.tolist()}")
    if bad:
        return bad
    e = ref.cycle_energy(scn, n, alpha)
    rel_slack = e["slack"] / e["budget"]
    if np.any(rel_slack < -SLACK_TOL):
        k = int(np.argmin(rel_slack))
        bad.append(f"node {k} not energy-neutral: slack {rel_slack[k]:.3e} of budget")
    u_ref = ref.utility(scn, n, alpha)
    bad += _rel_bad("utility", utility, u_ref)
    if throughput is not None:
        bad += _rel_bad("throughput", throughput, ref.throughput(scn, n, alpha / (1 + alpha))[0])
    trace = np.asarray(trace, dtype=float)
    if trace.size and np.any(np.diff(trace) < -1e-12 * max(1.0, abs(trace[-1]))):
        bad.append("utility trace decreases")
    if converged:
        bad += _single_steps(scn, n, alpha, u_ref, n_max)
    return bad


def _single_steps(scn, n, alpha, u_ref, n_max) -> list[str]:
    tol = STEP_GAIN_TOL * max(1.0, abs(u_ref))
    for which, x in (("n", n), ("alpha", alpha)):
        for i in range(x.size):
            for rel in STEPS:
                for sign in (1.0, -1.0):
                    trial_n, trial_a = n.copy(), alpha.copy()
                    t = trial_n if which == "n" else trial_a
                    t[i] = x[i] * (1.0 + sign * rel)
                    if not (np.all(trial_n >= 1.0) and np.all(trial_n <= n_max)
                            and np.all(trial_a > 0.0) and np.all(trial_a <= 0.5)):
                        continue
                    if np.any(ref.cycle_energy(scn, trial_n, trial_a)["slack"] < 0.0):
                        continue
                    gain = ref.utility(scn, trial_n, trial_a) - u_ref
                    if gain > tol:
                        return [f"feasible step {which}[{i}] *= {1 + sign * rel} "
                                f"improves utility by {gain:.3e}"]
    return []


def example1_shape(scn, n, alpha) -> list[str]:
    """Experiment 1's published shape: every node at its CPU cap and only
    node 0's energy constraint binding."""
    bad = []
    n_max = ref.node_arrays(scn)["n_max"]
    if not np.allclose(n, n_max, rtol=1e-9):
        bad.append(f"n* != n_max: {np.asarray(n).tolist()}")
    e = ref.cycle_energy(scn, n, alpha)
    rel = e["slack"] / e["budget"]
    if abs(rel[0]) > 1e-6 or np.any(rel[1:] < 1e-3):
        bad.append(f"binding set is not {{node 0}}: slack/budget {np.round(rel, 8).tolist()}")
    return bad


def integer_point(scn, n_int, w_int) -> list[str]:
    bad = []
    n_int, w_int = np.asarray(n_int), np.asarray(w_int)
    if not (np.all(n_int >= 1) and np.all(n_int <= ref.node_arrays(scn)["n_max"])):
        bad.append(f"integer n outside [1, n_max]: {n_int.tolist()}")
    if not np.all(w_int >= 1):
        bad.append(f"integer window below 1: {w_int.tolist()}")
    return bad


def integer_point_energy_neutral(scn, n_int, w_int, feasible: bool) -> list[str]:
    """An integer point reported feasible is energy-neutral at its realized
    alpha(W, m). Reporting it infeasible also passes."""
    if not feasible:
        return []
    n_int = np.asarray(n_int, dtype=float)
    alpha = ref.alpha_of_window(w_int, ref.sleep_slots(scn, n_int))
    e = ref.cycle_energy(scn, n_int, alpha)
    rel = e["slack"] / e["budget"]
    if np.any(rel < -SLACK_TOL):
        return [f"reported feasible, but slack/budget at (n, W) = "
                f"{np.round(rel, 4).tolist()}"]
    return []


# --- simulator ------------------------------------------------------------

def sim_counts(scn, n, w, slots, p_idle, p_succ, p_col, total_time, cycles,
               throughput, ci, energy_per_cycle, energy_split=None,
               delivered_bits=None) -> list[str]:
    """Checks of one simulated run at integer point (n, w).

    `slots` counts the measured (post warm-up) slots; `ci` holds the 95%
    batch-means half-widths SimStats reports; `energy_split` is the
    (backoff, data) per-cycle mean when the run exposes it.
    """
    bad = []
    n = np.asarray(n, dtype=float)
    w = np.asarray(w, dtype=float)
    a = ref.node_arrays(scn)
    counts = [p_idle * slots, *(np.asarray(p_succ) * slots), p_col * slots]
    ints = np.rint(counts)
    if np.any(np.abs(np.asarray(counts) - ints) > 1e-6 * max(slots, 1)):
        bad.append("slot shares are not whole counts of the measured slots")
    if int(ints.sum()) != int(slots):
        bad.append(f"slot counts sum to {int(ints.sum())}, not {slots}")
    idle, succ, col = ints[0], ints[1:-1], ints[-1]
    d = ref.durations(scn, n)
    want_time = idle * scn.protocol.sigma + float(np.sum(succ * d["success"])) + col * d["collision"]
    bad += _rel_bad("total time", total_time, want_time)
    bits = succ * n * a["l"]
    if delivered_bits is not None:
        bad += _rel_bad("delivered bits", delivered_bits, bits)
    bad += _rel_bad("throughput = bits/time", throughput, bits / want_time)

    m = ref.sleep_slots(scn, n)
    tau = ref.tau_of_window(w, m)
    # cycle length m + 1 + U{0..W-1}: renewal count CI plus one cycle per edge
    mu, var = 1.0 / tau, (w * w - 1.0) / 12.0
    sd = np.sqrt(slots * var / mu ** 3)
    dev = np.abs(np.asarray(cycles, dtype=float) - slots * tau)
    if np.any(dev > Z_FAMILY * sd + 2.0):
        k = int(np.argmax(dev - Z_FAMILY * sd))
        bad.append(f"node {k} cycle rate {cycles[k] / slots:.6g} vs tau {tau[k]:.6g}")

    p = scn.protocol
    difs_listen = p.t_difs * a["p_listen"]
    e_alpha = ref.cycle_energy(scn, n, ref.alpha_of_window(w, m))
    fixed = e_alpha["fixed"]   # acquisition + processing + background
    if energy_split is not None:
        backoff, data = (np.asarray(v, dtype=float) for v in energy_split)
        epc = np.asarray(energy_per_cycle, dtype=float)
        if np.any(np.abs(epc - backoff - data - fixed) > 1e-9 * np.abs(epc)):
            bad.append("acquisition + processing + background energy per cycle "
                       "differs from n p_acq sigma + n p_proc g sigma + e_bg")
        # uniform backoff draws: mean listening (DIFS + (W-1)/2 slots) p_listen
        se_bo = p.sigma * a["p_listen"] * np.sqrt(var / np.maximum(cycles, 1.0))
        if np.any(np.abs(backoff - e_alpha["backoff"]) > Z_FAMILY * se_bo + 1e-15):
            bad.append("mean backoff energy outside its confidence interval")
    else:
        # the per-cycle mean lies between its cheapest and dearest outcomes
        lo = fixed + difs_listen + np.minimum(e_alpha["eps_succ"], e_alpha["eps_col"])
        hi = (fixed + difs_listen + (w - 1.0) * p.sigma * a["p_listen"]
              + np.maximum(e_alpha["eps_succ"], e_alpha["eps_col"]))
        e = np.asarray(energy_per_cycle)
        if np.any(e < lo * (1 - 1e-12)) or np.any(e > hi * (1 + 1e-12)):
            bad.append("energy per cycle outside its possible range")

    if np.all(w >= 2):
        # mixing chains: the product form is the simulator's exact limit
        s_ref, sp = ref.throughput(scn, n, tau)
        for name, got, want, hw in (
                ("throughput", throughput, s_ref, ci["throughput"]),
                ("p_succ", p_succ, sp["p_succ"], ci["p_succ"]),
                ("p_idle", p_idle, sp["p_idle"], ci["p_idle"]),
                ("p_col", p_col, sp["p_col"], ci["p_col"])):
            se = np.maximum(np.atleast_1d(np.asarray(hw, dtype=float)) / T19_95, 1e-300)
            z = np.abs(np.atleast_1d(got) - np.atleast_1d(want)) / se
            if np.any(z > T19_FAMILY):
                k = int(np.argmax(z))
                bad.append(f"{name}[{k}] {np.atleast_1d(got)[k]:.6g} vs model "
                           f"{np.atleast_1d(want)[k]:.6g} ({z[k]:.1f} standard errors)")
        if energy_split is not None:
            q = sp["quiet_others"]
            se_d = np.abs(e_alpha["eps_succ"] - e_alpha["eps_col"]) * np.sqrt(
                q * (1 - q) / np.maximum(cycles, 1.0))
            if np.any(np.abs(energy_split[1] - e_alpha["data"]) > Z_FAMILY * se_d + 1e-15):
                bad.append("mean exchange energy outside its confidence interval")
    return bad


def sim_stats(scn, n, w, cfg, st) -> list[str]:
    bad = []
    if st.slots != cfg.n_slots - cfg.warmup_slots:
        bad.append(f"{st.slots} measured slots, expected {cfg.n_slots - cfg.warmup_slots}")
    return bad + sim_counts(scn, n, w, st.slots, st.p_idle, st.p_succ, st.p_col,
                            st.total_time, st.cycles, st.throughput, st.ci_halfwidth,
                            st.energy_per_cycle, (st.energy_backoff, st.energy_data),
                            st.delivered_bits)


# --- CLI output files -----------------------------------------------------

def read_csv(path: Path) -> tuple[dict, list[dict]]:
    """A CLI table: its `# key=value` metadata and its rows as dicts."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def table_point(scn, doc: dict) -> list[str]:
    """Rows of an analyze/optimize sidecar against the reference model."""
    rows = doc["nodes"]
    n = np.array([r["n"] for r in rows])
    alpha = np.array([r["alpha"] for r in rows])
    tau = alpha / (1 + alpha)
    e = ref.cycle_energy(scn, n, alpha)
    bad = _rel_bad("tau", [r["tau"] for r in rows], tau)
    bad += _rel_bad("throughput_bps", [r["throughput_bps"] for r in rows],
                    ref.throughput(scn, n, tau)[0])
    bad += _rel_bad("w_recovered", [r["w_recovered"] for r in rows], e["window"])
    bad += _rel_bad("energy budget", [r["energy"]["budget"] for r in rows], e["budget"])
    scale = e["budget"]
    for key in ("total", "slack"):
        got = np.array([r["energy"][key] for r in rows])
        if np.any(np.abs(got - e[key]) > 1e-9 * scale):
            bad.append(f"energy {key} differs from the reference")
    at = np.array([r["airtime"] for r in rows])
    if not np.all((at > 0) & (at < 1)):
        bad.append("airtime outside (0, 1)")
    return bad


def reproduce(scn, out: Path, exp: int) -> list[str]:
    """Experiment tables: consistent energy rows, feasible slacks, airtimes
    in (0, 1) and, for experiment 1, every node at its CPU cap."""
    bad = []
    meta, energy = read_csv(out / f"exp{exp}_energy.csv")
    consumed = np.array([float(r["consumed_j"]) for r in energy])
    received = np.array([float(r["received_j"]) for r in energy])
    slack = np.array([float(r["slack_j"]) for r in energy])
    if len(energy) != scn.n_nodes:
        bad.append(f"{len(energy)} energy rows for {scn.n_nodes} nodes")
    if np.any(np.abs(received - consumed - slack) > 1e-12 * received):
        bad.append("slack != received - consumed")
    if np.any(slack < -SLACK_TOL * received):
        bad.append("a node is not energy-neutral")
    _, air = read_csv(out / f"exp{exp}_airtime.csv")
    at = np.array([float(r["airtime"]) for r in air])
    if not np.all((at > 0) & (at < 1)):
        bad.append("airtime outside (0, 1)")
    if meta.get("status") != "converged":
        bad.append(f"status {meta.get('status')}")
    if exp == 1:
        _, samples = read_csv(out / "exp1_samples.csv")
        n = np.array([float(r["n_opt"]) for r in samples])
        n_max = ref.node_arrays(scn)["n_max"]
        if not np.allclose(n, n_max, rtol=1e-9):
            bad.append(f"experiment 1: n_opt != n_max: {n.tolist()}")
        bad += _rel_bad("experiment 1 budget", received,
                        ref.node_arrays(scn)["phi"] * ref.sleep_slots(scn, n) * scn.protocol.sigma)
    return bad


def expected_integer_point(scn, n, alpha):
    """The integer (n, W) the simulate command documents: n rounded to the
    nearest count within [1, n_max], W rounded and clamped to >= 1."""
    n_int = np.minimum(np.maximum(1, np.rint(n)), ref.node_arrays(scn)["n_max"])
    m = ref.sleep_slots(scn, n_int)
    w = 2.0 * (1.0 + np.asarray(alpha)) / np.asarray(alpha) - 2.0 * m - 1.0
    return n_int.astype(int), np.maximum(1, np.rint(w)).astype(int)


def simulate_files(scn, out: Path, n, alpha) -> tuple[list[str], dict]:
    """The simulate command's table and sidecar; returns failures and the
    figures the digest and rate metrics use."""
    meta, rows = read_csv(out / "simulate.csv")
    doc = read_json(out / "simulate.json")
    n_int = np.array([int(r["n"]) for r in rows])
    w_int = np.array([int(r["w"]) for r in rows])
    bad = []
    want_n, want_w = expected_integer_point(scn, n, alpha)
    if n_int.tolist() != want_n.tolist() or w_int.tolist() != want_w.tolist():
        bad.append(f"integer point (n={n_int.tolist()}, W={w_int.tolist()}) != "
                   f"(n={want_n.tolist()}, W={want_w.tolist()})")
    s = doc["simulated"]
    slots = int(meta["slots"]) - int(meta["warmup"])
    bad += sim_counts(scn, n_int, w_int, slots, s["p_idle"], np.array(s["p_succ"]),
                      s["p_col"], s["total_time_s"], np.array(s["cycles"]),
                      np.array(s["throughput"]), doc["ci_halfwidth"],
                      np.array(s["energy_per_cycle"]))
    facts = {"n": n_int.tolist(), "w": w_int.tolist(), "slots": slots,
             "advanced": int(meta["slots"]), "cycles": float(np.sum(s["cycles"])),
             "idle": round(s["p_idle"] * slots)}
    return bad, facts

