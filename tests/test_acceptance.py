"""Acceptance suite: one test per criterion, each printing a verdict line.

Two criteria carry sub-checks that the model provably cannot satisfy and
that are asserted as stated anyway, failing honestly with the measured
numbers printed above the failure:

- C3: at the second bundled example's optimum the air-time rises
  monotonically through the last node; no feasible optimum of this model
  puts the peak at the fourth node (exhaustive multistart search finds a
  single optimum, and the best point forced into that shape is a tie
  t4=t5=t6 with lower utility).
- C6: the rounded operating points of both bundled examples have W=1 for
  every node, making each node a deterministic oscillator; relative phases
  never mix, so simulated collision statistics depend on initial phases and
  cannot converge to the independent-attempts model (the errors are
  identical at 1e6 and 4e6 slots). At mixing points (W >= 2) the model and
  simulator agree well inside the stated tolerances (see test_sim).
"""

import json
import time

import numpy as np
import pytest

from wpcsma import (DecisionVector, InfeasibleError, SimConfig,
                    alpha_from_tau, check_kkt, constraint_slack, cycle_energy,
                    evaluate, simulate, stationary_distribution,
                    tau_from_window)
from wpcsma.cli import integer_point, main
from wpcsma.optimize import argmax_log_minus_linear
from wpcsma.scenario_io import save_scenario, scenario_from_dict

from conftest import (make_node, make_scenario, random_point,
                      random_scenario, solve_quiet)

_3SIGMA = 3.0 / 2.093  # 3 sigma in units of a 95% batch-means halfwidth


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    return ok


def test_c1_algebraic_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    count = 0
    for _ in range(100):
        scn = random_scenario(rng)
        for _ in range(10):
            n, alpha = random_point(rng, scn)
            i = int(rng.integers(0, scn.n_nodes))
            br = cycle_energy(scn, i, n, alpha)
            slack = constraint_slack(scn, i, n, alpha)
            direct = br.budget - br.e_total
            scale = max(abs(direct), abs(slack), br.budget)
            worst = max(worst, abs(direct - slack) / scale)
            count += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _verdict("C1 algebraic equivalence",
                    ok, f"{count} points, worst rel diff {worst:.2e}, "
                        f"{elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_c2_experiment1_reproduction(example1):
    t0 = time.time()
    res = solve_quiet(example1)
    elapsed = time.time() - t0
    n_max = np.array([node.duty.n_max for node in example1.nodes])
    budgets = np.array([b.budget for b in res.energy])
    rel = res.slacks / budgets
    at = res.perf.airtime
    ok_n = bool(np.allclose(res.decision.n, n_max, rtol=1e-9))
    ok_bind = abs(rel[0]) <= 1e-6
    ok_loose = bool(np.all(rel[1:] >= 1e-3))
    ok_airtime = bool(np.all(np.diff(at[1:]) < 0))
    print(f"  n* = {res.decision.n.tolist()}")
    print(f"  slack/budget = {np.round(rel, 6).tolist()}")
    print(f"  airtime = {np.round(at, 6).tolist()}")
    ok = ok_n and ok_bind and ok_loose and ok_airtime and elapsed < 10
    _verdict("C2 experiment-1 reproduction", ok,
             f"n=n_max:{ok_n} bind:{ok_bind} loose:{ok_loose} "
             f"airtime-decreasing:{ok_airtime} {elapsed:.1f}s")
    assert ok_n and ok_bind and ok_loose and ok_airtime
    assert elapsed < 10


def test_c3_experiment2_reproduction(example2):
    t0 = time.time()
    res = solve_quiet(example2)
    elapsed = time.time() - t0
    budgets = np.array([b.budget for b in res.energy])
    rel = res.slacks / budgets
    at = res.perf.airtime
    ok_n = bool(np.allclose(res.decision.n, 10.0, rtol=1e-9))
    ok_bind = abs(rel[0]) <= 1e-6
    # nodes 2..6 are at[1:]; unimodal with the peak at node 4 means
    # strictly rising through index 3 and strictly falling after it
    ok_peak = bool(np.all(np.diff(at[1:4]) > 0) and np.all(np.diff(at[3:]) < 0))
    print(f"  n* = {res.decision.n.tolist()}")
    print(f"  slack/budget = {np.round(rel, 6).tolist()}")
    print(f"  airtime nodes 2..6 = {np.round(at[1:], 6).tolist()} "
          f"(argmax -> node {2 + int(np.argmax(at[1:]))})")
    ok = ok_n and ok_bind and ok_peak and elapsed < 10
    _verdict("C3 experiment-2 reproduction", ok,
             f"n=10:{ok_n} bind:{ok_bind} airtime-peak-at-4:{ok_peak} "
             f"{elapsed:.1f}s")
    assert ok_n and ok_bind
    assert elapsed < 10
    assert ok_peak, ("air-time over nodes 2-6 is not unimodal with peak at "
                     "node 4: the model's optimum rises monotonically to "
                     "node 6 (see notes on the published figure)")


def test_c4_bcd_monotonicity_and_kkt(example1, example2):
    rng = np.random.default_rng(2026)
    cases = [example1, example2]
    solved = 0
    tried = 0
    while solved < 100 and tried < 500:
        tried += 1
        scn = random_scenario(rng)
        try:
            res = solve_quiet(scn)
        except InfeasibleError:
            continue
        solved += 1
        cases.append((scn, res))
    checked = 0
    worst = 0.0
    for item in cases:
        if isinstance(item, tuple):
            scn, res = item
        else:
            scn, res = item, solve_quiet(item)
        trace = np.asarray(res.utility_trace)
        assert np.all(np.diff(trace) >= -1e-9), f"trace dipped in {scn.name}"
        report = check_kkt(scn, res.decision)
        bad = [e for e in report.entries if not e.ok]
        assert report.ok, f"KKT failed in {scn.name}: {bad}"
        assert report.residual <= 1e-4, (
            f"multiplier residual {report.residual:.2e} in {scn.name}")
        worst = max(worst, report.residual)
        checked += 1
    assert _verdict("C4 solver monotonicity + KKT", checked >= 102,
                    f"{checked} solved instances, all monotone, all "
                    f"first-order optimal at tol 1e-4, worst multiplier "
                    f"residual {worst:.1e}")


def test_c5_inner_solver_oracle():
    def bisect_argmax(gamma, lo, hi, iters=100):
        def deriv(x):
            return 1.0 / x - gamma
        if deriv(lo) <= 0:
            return lo
        if deriv(hi) >= 0:
            return hi
        a, b = lo, hi
        for _ in range(iters):
            mid = 0.5 * (a + b)
            if deriv(mid) > 0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def golden_argmax(gamma, lo, hi):
        def f(x):
            return np.log(x) - gamma * x
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-13 * max(1.0, b):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    rng = np.random.default_rng(55)
    worst = 0.0
    cases, gots = [], []
    for k in range(1000):
        lo = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.0))))
        hi = lo + float(np.exp(rng.uniform(np.log(1e-6), np.log(100.0))))
        gamma = float(rng.uniform(-5, 200))
        got = argmax_log_minus_linear(gamma, lo, hi)
        ref = bisect_argmax(gamma, lo, hi)
        if k % 20 == 0:
            # golden section compares function values, so its localization
            # bottoms out at ~sqrt(eps); it cross-checks at that precision
            ref_g = golden_argmax(gamma, lo, hi)
            assert abs(got - ref_g) <= 5e-8 * max(1.0, abs(got))
        worst = max(worst, abs(got - ref) / max(1.0, abs(got)))
        cases.append((gamma, lo, hi))
        gots.append(got)
    # the n block solves every node in one call: the array form must give
    # the scalar answers bit for bit
    assert np.array_equal(argmax_log_minus_linear(*np.array(cases).T), gots)
    assert _verdict("C5 inner-solver oracle", worst <= 1e-10,
                    f"1000 subproblems, worst |closed-form - bisection| "
                    f"= {worst:.2e}")


def test_c6_model_vs_simulator(example1, example2):
    t0 = time.time()
    failures = []
    for scn in (example1, example2):
        res = solve_quiet(scn)
        n_int, w_int, taus = integer_point(scn, res.decision)
        perf = evaluate(scn, n_int.astype(float), alpha_from_tau(taus))
        st = simulate(scn, n_int, w_int,
                      SimConfig(n_slots=1_000_000, seed=1,
                                warmup_slots=10_000))
        s_err = np.abs(st.throughput - perf.throughput) / perf.throughput
        t_err = np.abs(st.airtime - perf.airtime) / perf.airtime
        print(f"  {scn.name}: W={w_int.tolist()}  "
              f"max S err={s_err.max():.4f}  max airtime err={t_err.max():.4f}")
        if s_err.max() > 0.02:
            failures.append(f"{scn.name}: throughput err {s_err.max():.4f}")
        if t_err.max() > 0.02:
            failures.append(f"{scn.name}: airtime err {t_err.max():.4f}")
        for name, mod, simv, hw in (
                ("p_idle", perf.slot_probs.p_idle, st.p_idle,
                 st.ci_halfwidth["p_idle"]),
                ("p_col", perf.slot_probs.p_col, st.p_col,
                 st.ci_halfwidth["p_col"])):
            if abs(simv - mod) > _3SIGMA * max(hw, 1e-300):
                failures.append(f"{scn.name}: {name} model {mod:.5f} vs sim "
                                f"{simv:.5f} outside 3 sigma")
        if np.any(np.abs(st.p_succ - perf.slot_probs.p_succ)
                  > _3SIGMA * np.maximum(st.ci_halfwidth["p_succ"], 1e-300)):
            failures.append(f"{scn.name}: p_succ outside 3 sigma")

    # single-node chain occupancy is exact (no cross-node approximation)
    one = make_scenario([make_node()])
    st1 = simulate(one, [4], [8], SimConfig(n_slots=300_000, seed=3,
                                            warmup_slots=5_000,
                                            track_occupancy=True))
    active, sleep = stationary_distribution(8, 14)
    total = st1.occupancy_active[0].sum() + st1.occupancy_sleep[0].sum()
    occ_ok = True
    for emp, ana in ((st1.occupancy_active[0], active),
                     (st1.occupancy_sleep[0], sleep)):
        for k in range(len(ana)):
            sd = np.sqrt(total * ana[k] * (1 - ana[k]))
            if abs(emp[k] - total * ana[k]) > 3.0 * sd:
                occ_ok = False
    print(f"  single-node occupancy within 3 sigma: {occ_ok}")
    if not occ_ok:
        failures.append("single-node occupancy outside 3 sigma")
    elapsed = time.time() - t0
    _verdict("C6 model vs simulator", not failures and elapsed < 60,
             f"{elapsed:.1f}s" + ("" if not failures else
                                  f"; {len(failures)} violations"))
    assert elapsed < 60
    assert occ_ok
    assert not failures, (
        "the rounded operating points have W=1 for every node, whose "
        "backoff is deterministic; relative phases freeze and collision "
        "statistics cannot match the independence model (errors are "
        "unchanged from 1e6 to 4e6 slots): " + "; ".join(failures))


def test_c7_determinism_and_round_trip(tmp_path, example1, example2):
    scn = make_scenario([make_node(phi=40e-3), make_node(phi=40e-3, n_max=20)])
    spath = tmp_path / "scn.json"
    save_scenario(scn, spath)
    ppath = tmp_path / "pt.json"
    ppath.write_text(json.dumps({"n": [5.0, 8.0], "alpha": [0.05, 0.05]}))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(spath), "--point",
                     str(ppath), "--slots", "50000", "--seed", "17",
                     "--warmup", "1000", "--out", str(out)]) == 0
        blobs.append(((out / "simulate.csv").read_bytes(),
                      (out / "simulate.json").read_bytes()))
    same_bytes = blobs[0] == blobs[1]

    rng = np.random.default_rng(7)
    ident = True
    for k, scn2 in enumerate([example1, example2]
                             + [random_scenario(rng) for _ in range(10)]):
        p1 = tmp_path / f"rt{k}.json"
        save_scenario(scn2, p1)
        from wpcsma import load_scenario
        s1 = load_scenario(p1)
        p2 = tmp_path / f"rt{k}b.json"
        save_scenario(s1, p2)
        if load_scenario(p2) != s1:
            ident = False
    assert _verdict("C7 determinism + round-trip", same_bytes and ident,
                    f"byte-identical:{same_bytes} load/emit identity:{ident}")


def test_c8_boundary_cases(tmp_path, capsys):
    exact = tau_from_window(1, 2) == 1 / 3
    scn = make_scenario([make_node(phi=80e-3, n_max=7)])
    res = solve_quiet(scn)
    single_ok = (res.decision.alpha[0] == pytest.approx(0.5, abs=1e-12)
                 and res.decision.n[0] == pytest.approx(7.0, abs=1e-9))

    doc = {
        "name": "starved",
        "protocol": {"sigma_us": 9, "t_sifs_us": 16, "t_difs_us": 34,
                     "t_ack_us": 38.67, "t_rts_us": 46.67, "t_cts_us": 38.67,
                     "t_phy_hdr_us": 20, "l_mac_hdr_bytes": 36,
                     "l_shdr_bytes": 14, "l_fcs_bytes": 4},
        "nodes": [{"l_bytes": 50, "rate_mbps": 11, "n_max": 10, "h_slots": 3,
                   "g_slots": 2, "p_tx_mw": 15, "p_rx_mw": 11.37,
                   "p_listen_mw": 1, "p_acq_mw": 5, "p_proc_mw": 6,
                   "e_bg_uj": 0, "phi_mw": 0.01}] * 3,
    }
    spath = tmp_path / "starved.json"
    spath.write_text(json.dumps(doc))
    code = main(["optimize", "--scenario", str(spath),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    diag_ok = (code == 2 and all(f"node {i}" in err for i in range(3)))
    with capsys.disabled():
        ok = exact and single_ok and diag_ok
        _verdict("C8 boundary cases", ok,
                 f"tau(1,2)==1/3:{exact} single-node-optimum:{single_ok} "
                 f"infeasible-exit-2-with-diagnosis:{diag_ok}")
    assert exact and single_ok and diag_ok
