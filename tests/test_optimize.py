import json
import math
from pathlib import Path

import numpy as np
import pytest

from wpcsma import (DecisionVector, InfeasibleError, InvalidParameterError,
                    OptimizerConfig, check_kkt, evaluate, solve_alpha_block,
                    solve_n_block, utility)
from wpcsma import optimize
from wpcsma.energy import cycle_energy
from wpcsma.mac import alpha_from_tau, tau_from_window
from wpcsma.model import build, load, slacks
from wpcsma.optimize import (argmax_log_minus_linear, attempt_interval,
                             round_decision, sample_intervals, _derivatives,
                             _energy_scale, _utility_raw)
from wpcsma.scenario_io import scenario_from_dict
from wpcsma.timing import frame_times

from conftest import (PROTO, make_node, make_scenario, random_point,
                      random_scenario, solve_quiet)


def bisect_argmax(gamma, lo, hi, iters=80):
    """Independent 1-D oracle: bisection on d/dx (log x - gamma x) = 1/x - gamma."""
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


def grid_argmax(fun, lo, hi, coarse=4001):
    xs = np.linspace(lo, hi, coarse)
    return xs[int(np.argmax([fun(x) for x in xs]))]


def test_closed_form_matches_bisection():
    rng = np.random.default_rng(0)
    for _ in range(300):
        lo = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.0))))
        hi = lo + float(np.exp(rng.uniform(np.log(1e-6), np.log(100.0))))
        gamma = float(rng.uniform(-2, 50))
        got = argmax_log_minus_linear(gamma, lo, hi)
        assert abs(got - bisect_argmax(gamma, lo, hi)) <= 1e-10 * max(1.0, got)


def test_utility_identity_and_symmetry():
    scn = make_scenario([make_node(), make_node()])
    dv = DecisionVector(n=[4.0, 4.0], alpha=[0.2, 0.2])
    u = utility(scn, dv)
    perf = evaluate(scn, dv.n, dv.alpha)
    assert u == pytest.approx(2 * np.log(perf.throughput[0]), rel=1e-12)
    # U - sum log(n l alpha) == -N log(X T_col)
    t_col = frame_times(PROTO, scn.nodes[0].link).collision
    lhs = u - np.sum(np.log(dv.n * 400.0 * dv.alpha))
    rhs = -2 * np.log(perf.channel_load * t_col)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_utility_rejects_excess_n():
    scn = make_scenario([make_node(n_max=5)])
    with pytest.raises(InvalidParameterError):
        utility(scn, DecisionVector(n=[6.0], alpha=[0.2]))


def test_n_block_single_node_hits_cap():
    # loose energy: the block objective increases up to the box edge
    scn = make_scenario([make_node(phi=80e-3, n_max=10)])
    n = solve_n_block(scn, np.array([0.3]), np.array([1.0]))
    assert n[0] == pytest.approx(10.0)
    # grid-search oracle over the feasible interval
    md = build(scn)
    lo, hi = sample_intervals(scn, np.array([0.3]))

    def f1(v):
        return np.log(v) - 1 * np.log(load(md, np.array([v]), np.array([0.3])))

    best = grid_argmax(f1, max(lo[0], 1.0), hi[0])
    assert abs(best - n[0]) <= (hi[0] - max(lo[0], 1.0)) / 4000 + 1e-9


def test_n_block_respects_energy_cap():
    # acquisition/processing-heavy node: each sample costs net energy, so
    # the energy constraint caps n strictly inside the box
    scn = make_scenario([make_node(phi=150e-3, p_acq=50e-3, p_proc=50e-3,
                                   g=5, h=1, p_tx=5e-3, p_rx=5e-3,
                                   p_listen=5e-3)])
    lo, hi = sample_intervals(scn, np.array([0.5]))
    assert 1.0 <= hi[0] < 10.0
    n = solve_n_block(scn, np.array([0.5]), np.array([1.0]))
    assert n[0] == pytest.approx(hi[0], rel=1e-12)


def test_n_block_lower_bound_regime():
    # Table-2 style parameters make extra samples net energy-positive, so
    # the energy constraint forces a minimum sample count
    scn = make_scenario([make_node(n_max=nm)
                         for nm in (10, 20, 30, 40, 50, 60)])
    alpha = np.full(6, 0.5)
    lo, hi = sample_intervals(scn, alpha)
    assert np.all(lo > 1.0)
    n = solve_n_block(scn, alpha, np.ones(6))
    assert np.all(n >= lo - 1e-12)


def test_n_block_multinode_matches_coordinate_grid():
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(20):
        scn = random_scenario(rng, 3)
        alpha = rng.uniform(0.3, 0.5, 3)
        try:
            n = solve_n_block(scn, alpha, np.ones(3))
        except InfeasibleError:
            continue
        hits += 1
        md = build(scn)
        lo, hi = sample_intervals(scn, alpha)
        lo = np.maximum(lo, 1.0)
        # coordinatewise optimality against a fine grid
        for i in range(3):
            def f1(v, i=i):
                trial = n.copy()
                trial[i] = v
                return float(np.sum(np.log(trial))
                             - 3 * np.log(load(md, trial, alpha)))
            best = grid_argmax(f1, lo[i], hi[i], 2001)
            assert f1(float(n[i])) >= f1(best) - 1e-6
    assert hits >= 3


def test_alpha_block_single_node_loose_energy():
    scn = make_scenario([make_node(phi=80e-3)])
    got = solve_alpha_block(scn, np.array([10.0]), np.array([0.3]), 0)
    assert got == pytest.approx(0.5)


def test_alpha_block_clamps_at_energy_bound(solved_example1, example1):
    # the binding node's alpha sits exactly at its feasible lower end
    dv = solved_example1.decision
    lo, hi = attempt_interval(example1, dv.n, dv.alpha, 0)
    assert dv.alpha[0] == pytest.approx(lo, rel=1e-9)


def test_alpha_block_matches_grid_oracle():
    # each 1-D solve is optimal against a fine grid, checked immediately
    # for the other-coordinate values it was solved with
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(12):
        scn = random_scenario(rng, 3)
        md = build(scn)
        n = np.array([float(node.duty.n_max) for node in scn.nodes])
        alpha = np.full(3, 0.5)
        try:
            for i in range(3):
                alpha[i] = solve_alpha_block(scn, n, alpha, i)
                lo, hi = attempt_interval(scn, n, alpha, i)

                def f2(v, i=i):
                    trial = alpha.copy()
                    trial[i] = v
                    return float(np.log(v) - 3 * np.log(load(md, n, trial)))

                best = grid_argmax(f2, lo, hi, 2001)
                assert f2(float(alpha[i])) >= f2(best) - 1e-6
                checked += 1
        except InfeasibleError:
            continue
    assert checked >= 6


def test_bcd_monotone_and_feasible_on_random(capsys):
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(12):
        scn = random_scenario(rng)
        try:
            res = solve_quiet(scn)
        except InfeasibleError:
            continue
        solved += 1
        trace = np.asarray(res.utility_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        budgets = np.array([b.budget for b in res.energy])
        assert np.all(res.slacks / budgets >= -1e-9)
        assert np.all(res.decision.n >= 1.0)
        assert np.all(res.decision.n <= [nd.duty.n_max for nd in scn.nodes] )
        assert np.all(res.decision.alpha > 0) and np.all(res.decision.alpha <= 0.5)
    assert solved >= 4


def test_bcd_single_node_loose():
    scn = make_scenario([make_node(phi=80e-3, n_max=7)])
    res = solve_quiet(scn)
    assert res.decision.n[0] == pytest.approx(7.0)
    assert res.decision.alpha[0] == pytest.approx(0.5)
    assert res.status == "converged"


def test_bcd_infeasible_reports_nodes():
    scn = make_scenario([make_node(phi=0.01e-3, p_listen=1e-3),
                         make_node(phi=0.01e-3, p_listen=1e-3)])
    with pytest.raises(InfeasibleError) as err:
        solve_quiet(scn)
    assert err.value.details
    assert any("node 0" in d for d in err.value.details)


def test_scale_invariance_of_argmax():
    # scaling every bit quantity and bit rate by k leaves all durations,
    # energies and the feasible set untouched while multiplying each
    # throughput by k: the argmax is identical, U shifts by N log k
    from wpcsma import ProtocolParams, Scenario
    k = 3.0
    base = make_scenario([make_node(n_max=10, phi=40e-3),
                          make_node(n_max=20, phi=40e-3)])
    proto_k = ProtocolParams(
        sigma=PROTO.sigma, t_sifs=PROTO.t_sifs, t_difs=PROTO.t_difs,
        t_ack=PROTO.t_ack, t_rts=PROTO.t_rts, t_cts=PROTO.t_cts,
        t_phy_hdr=PROTO.t_phy_hdr, l_mac_hdr=PROTO.l_mac_hdr * k,
        l_shdr=PROTO.l_shdr * k, l_fcs=PROTO.l_fcs * k)
    scaled = Scenario(protocol=proto_k, nodes=tuple(
        make_node(n_max=nm, phi=40e-3, l=400.0 * k, rate=11e6 * k)
        for nm in (10, 20)), name="scaled")
    r1 = solve_quiet(base)
    r2 = solve_quiet(scaled)
    assert r2.decision.n == pytest.approx(r1.decision.n, rel=1e-9)
    assert r2.decision.alpha == pytest.approx(r1.decision.alpha, rel=1e-9)
    assert r2.utility - r1.utility == pytest.approx(2 * np.log(k), rel=1e-9)


def test_log_load_concave_along_coordinates():
    # second differences of log X along any single coordinate stay <= ~0
    rng = np.random.default_rng(4)
    for _ in range(40):
        scn = random_scenario(rng)
        md = build(scn)
        n, alpha = random_point(rng, scn)
        i = int(rng.integers(0, scn.n_nodes))
        h = 1e-3
        for kind in ("n", "alpha"):
            def logx(d):
                nn, aa = n.copy(), alpha.copy()
                if kind == "n":
                    nn[i] += d
                else:
                    aa[i] += d
                return np.log(load(md, nn, aa))
            second = (logx(h) - 2 * logx(0.0) + logx(-h)) / h**2
            assert second <= 1e-8


def test_kkt_at_bcd_solution(solved_example1, example1):
    report = check_kkt(example1, solved_example1.decision)
    assert report.ok
    names = {e.name for e in report.entries}
    assert names == {f"n[{i}]" for i in range(6)} | {f"alpha[{i}]" for i in range(6)}


def test_kkt_flags_suboptimal_point(example1):
    dv = DecisionVector(n=np.full(6, 10.0), alpha=np.full(6, 0.45))
    report = check_kkt(example1, dv)
    assert not report.ok


def test_kkt_shares_the_solver_alpha_floor(example1, monkeypatch):
    # one floor for solver and certificate: raised to 0.2, the optimum sits
    # on it at alpha[3..5], and check_kkt takes those box ends as active
    monkeypatch.setattr(optimize, "ALPHA_FLOOR", 0.2)
    res = solve_quiet(example1)
    assert res.status == "converged"
    assert np.allclose(res.decision.alpha[3:], 0.2, rtol=1e-12, atol=0)
    report = check_kkt(example1, res.decision)
    assert report.ok
    assert {f"alpha[{i}] lower" for i in (3, 4, 5)} <= set(report.active)


def test_round_decision_on_integral_solution(solved_example1, example1):
    n_int, w_int, feasible = round_decision(example1, solved_example1.decision)
    # every window rounds up to W = 1, which spends far more on backoff
    # listening than the continuous optimum: not energy-neutral
    assert not feasible
    assert np.array_equal(n_int, [10, 20, 30, 40, 50, 60])
    assert np.all(w_int >= 1)


def test_round_decision_fractional():
    scn = make_scenario([make_node(phi=80e-3, n_max=9)])
    dv = DecisionVector(n=[6.4], alpha=[0.5])
    n_int, w_int, feasible = round_decision(scn, dv)
    assert feasible
    # greedy increments walk up to the box cap while utility improves
    assert n_int[0] == 9
    assert w_int[0] >= 1


def test_status_iteration_cap():
    scn = make_scenario([make_node(phi=80e-3)])
    res = solve_quiet(scn, OptimizerConfig(max_outer_iters=1))
    assert res.status == "iteration-cap"
    assert res.outer_iters == 1


def test_clamp_at_energy_lower_bound_example():
    # unconstrained maximizer 1/gamma = 0.3 below the energy bound 0.4
    assert argmax_log_minus_linear(1 / 0.3, 0.4, 0.5) == 0.4


def test_example1_utility_regression(solved_example1, example1):
    # the joint optimum in log coordinates (block coordinate descent once
    # stopped 2.9e-6 lower, at 83.70271990307022)
    assert solved_example1.utility == pytest.approx(83.7029658512, rel=1e-6)
    # grid spot check: no single feasible coordinate move beats the optimum
    md = build(example1)
    dv = solved_example1.decision
    u_star = solved_example1.utility
    n_lo, n_hi = sample_intervals(example1, dv.alpha)
    n_lo = np.maximum(n_lo, 1.0)
    for i in range(6):
        for v in np.linspace(n_lo[i], n_hi[i], 200):
            trial = dv.n.copy()
            trial[i] = v
            assert _utility_raw(md, trial, dv.alpha) <= u_star + 1e-6
        lo, hi = attempt_interval(example1, dv.n, dv.alpha, i)
        for v in np.linspace(lo, hi, 200):
            trial = dv.alpha.copy()
            trial[i] = v
            assert _utility_raw(md, dv.n, trial) <= u_star + 1e-6


def test_round_decision_feasible_iff_energy_neutral(solved_example1, example1,
                                                    solved_example2, example2):
    loose = make_scenario([make_node(phi=80e-3, n_max=9)])
    cases = [(example1, solved_example1.decision),
             (example2, solved_example2.decision),
             (loose, DecisionVector(n=[6.4], alpha=[0.5]))]
    for scn, dv in cases:
        n_int, w_int, feasible = round_decision(scn, dv)
        m = np.array([node.duty.sleep_slots(v) for node, v in zip(scn.nodes, n_int)])
        alpha = alpha_from_tau(tau_from_window(w_int.astype(float), m))
        slack = np.array([cycle_energy(scn, i, n_int.astype(float), alpha).slack
                          for i in range(scn.n_nodes)])
        assert feasible == bool(np.all(slack >= 0.0))
    assert feasible  # the loose single node


def test_bcd_converges_on_slow_n12_instance():
    # a generated 12-node scenario on which the solver once ran into its
    # 200-iteration cap, still creeping up by ~1e-9 per iteration
    doc = json.loads((Path(__file__).parent / "data" / "gen12_rng203.json").read_text())
    scn = scenario_from_dict(doc)
    res = solve_quiet(scn, OptimizerConfig(max_outer_iters=60))
    assert res.status == "converged"
    assert check_kkt(scn, res.decision).ok


def test_kkt_certificate_known_multipliers():
    # one node with loose energy at its optimum n = n_max, alpha = 0.5: only
    # the two upper boxes are active, so each multiplier is the utility's
    # derivative in that log coordinate and the residual vanishes
    scn = make_scenario([make_node(phi=80e-3, n_max=7)])
    md = build(scn)
    n, alpha = np.array([7.0]), np.array([0.5])
    report = check_kkt(scn, DecisionVector(n=n, alpha=alpha))
    assert report.ok
    assert report.active == ["n[0] upper", "alpha[0] upper"]
    x = load(md, n, alpha)
    per = md.per_ratio[0] * 7.0 * 0.5
    want = [1.0 - per / x, 1.0 - (per + md.ovh_ratio[0] * 0.5 + 1.5 * 0.5 / 1.5) / x]
    assert report.multipliers == pytest.approx(want, rel=1e-12)
    assert report.multipliers == pytest.approx([0.4232, 0.0319], abs=1e-4)
    assert report.residual == pytest.approx(0.0, abs=1e-15)


def test_kkt_certificate_sees_a_pinned_suboptimal_point(solved_example1, example1):
    # slide along node 0's active energy constraint: raise alpha[0] by 5% and
    # scale the other alphas down until node 0's slack is 0 again. Each alpha
    # alone is then held at its lower end by that constraint, so no single
    # coordinate can move, but the point is not first-order optimal
    md = build(example1)
    n = solved_example1.decision.n
    base = solved_example1.decision.alpha * np.r_[1.05, np.ones(5)]

    def scaled(c):
        return base * np.r_[1.0, np.full(5, c)]

    feasible, infeasible = 1.0, 0.5
    for _ in range(100):
        mid = 0.5 * (feasible + infeasible)
        if slacks(md, n, scaled(mid))[0] >= 0.0:
            feasible = mid
        else:
            infeasible = mid
    dv = DecisionVector(n=n, alpha=scaled(feasible))
    report = check_kkt(example1, dv)
    assert not report.ok
    assert any(e.name.startswith("alpha[") and not e.ok for e in report.entries)
    assert utility(example1, dv) < solved_example1.utility
    assert "energy[0]" in report.active
    assert report.residual > 1e-3


@pytest.mark.parametrize("nn", [1, 6, 24])
def test_derivatives_match_central_differences(nn):
    # check_kkt's verdict rests on the analytic gradient and energy Jacobian
    # alone: hold both against central differences in z = (log n, log alpha)
    rng = np.random.default_rng(100 + nn)
    h = 1e-6
    for _ in range(3):
        scn = random_scenario(rng, nn)
        md = build(scn)
        scale = _energy_scale(md)
        n, alpha = random_point(rng, scn)
        z = np.log(np.concatenate([n, alpha]))
        grad, rows = _derivatives(md, n, alpha, scale)
        assert rows.shape == (5 * nn, 2 * nn)
        grad_fd = np.empty(2 * nn)
        jac_fd = np.empty((nn, 2 * nn))
        for k in range(2 * nn):
            step = np.zeros(2 * nn)
            step[k] = h
            up, down = np.exp(z + step), np.exp(z - step)
            grad_fd[k] = (_utility_raw(md, up[:nn], up[nn:])
                          - _utility_raw(md, down[:nn], down[nn:])) / (2 * h)
            jac_fd[:, k] = (slacks(md, up[:nn], up[nn:])
                            - slacks(md, down[:nn], down[nn:])) / (2 * h)
        assert grad == pytest.approx(grad_fd, rel=1e-6, abs=1e-6 * np.abs(grad).max())
        jac = rows[:nn] * scale[:, None]
        for i in range(nn):
            assert jac[i] == pytest.approx(jac_fd[i], rel=1e-6,
                                           abs=1e-6 * np.abs(jac[i]).max())


def test_bcd_reaches_the_joint_optimum_on_gen48():
    # the 48-node wpbench instance gen48-48000: block coordinate descent with
    # pair moves once stopped here as "converged" at U = -88.28
    doc = json.loads((Path(__file__).parent / "data" / "gen48_rng48000.json").read_text())
    scn = scenario_from_dict(doc)
    res = solve_quiet(scn)
    assert res.status == "converged"
    assert res.utility >= 546.4946862 * (1.0 - 1e-9)
    report = check_kkt(scn, res.decision)
    assert report.ok and report.residual <= 1e-6
    assert np.all(res.slacks >= -1e-18)
