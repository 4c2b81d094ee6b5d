import json
import math
from pathlib import Path

import numpy as np
import pytest

from wpcsma import (DecisionVector, InfeasibleError, InvalidParameterError,
                    OptimizerConfig, check_kkt, evaluate, solve_alpha_block,
                    solve_n_block, utility)
from wpcsma.energy import cycle_energy
from wpcsma.mac import alpha_from_tau, tau_from_window
from wpcsma.optimize import (argmax_log_minus_linear, attempt_interval,
                             round_decision, sample_intervals, _load, _model,
                             _feasible_end, _pair_sweep, _PairTerms, _slacks,
                             _utility_raw)
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
    md = _model(scn)
    lo, hi = sample_intervals(scn, np.array([0.3]))

    def f1(v):
        return np.log(v) - 1 * np.log(_load(md, np.array([v]), np.array([0.3])))

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
        md = _model(scn)
        lo, hi = sample_intervals(scn, alpha)
        lo = np.maximum(lo, 1.0)
        # coordinatewise optimality against a fine grid
        for i in range(3):
            def f1(v, i=i):
                trial = n.copy()
                trial[i] = v
                return float(np.sum(np.log(trial))
                             - 3 * np.log(_load(md, trial, alpha)))
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
        md = _model(scn)
        n = np.array([float(node.duty.n_max) for node in scn.nodes])
        alpha = np.full(3, 0.5)
        try:
            for i in range(3):
                alpha[i] = solve_alpha_block(scn, n, alpha, i)
                lo, hi = attempt_interval(scn, n, alpha, i)

                def f2(v, i=i):
                    trial = alpha.copy()
                    trial[i] = v
                    return float(np.log(v) - 3 * np.log(_load(md, n, trial)))

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
        md = _model(scn)
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
                return np.log(_load(md, nn, aa))
            second = (logx(h) - 2 * logx(0.0) + logx(-h)) / h**2
            assert second <= 1e-8


def test_kkt_at_bcd_solution(solved_example1, example1):
    report = check_kkt(example1, solved_example1.decision, tol=1e-4)
    assert report.ok
    names = {e.name for e in report.entries}
    assert names == {f"n[{i}]" for i in range(6)} | {f"alpha[{i}]" for i in range(6)}


def test_kkt_flags_suboptimal_point(example1):
    dv = DecisionVector(n=np.full(6, 10.0), alpha=np.full(6, 0.45))
    report = check_kkt(example1, dv, tol=1e-4)
    assert not report.ok


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
    # golden value recorded at the first cross-checked run of this suite
    assert solved_example1.utility == pytest.approx(83.70271990307022,
                                                    rel=1e-6)
    # grid spot check: no single feasible coordinate move beats the optimum
    md = _model(example1)
    dv = solved_example1.decision
    u_star = solved_example1.utility
    n_lo, n_hi = sample_intervals(example1, dv.alpha)
    n_lo = np.maximum(n_lo, 1.0)
    from wpcsma.optimize import _utility_raw
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
    assert check_kkt(scn, res.decision, tol=1e-4).ok


def _pinned_point(rng, n_nodes):
    """A random scenario and the BCD iterate after one outer iteration:
    alpha blocks have pinned some energy constraints, pair moves have not run."""
    while True:
        scn = random_scenario(rng, n_nodes)
        try:
            res = solve_quiet(scn, OptimizerConfig(max_outer_iters=1))
        except InfeasibleError:
            continue
        return scn, _model(scn), res.decision.n, res.decision.alpha.copy()


def _budgets(scn, n, alpha):
    return np.array([cycle_energy(scn, i, n, alpha).budget for i in range(scn.n_nodes)])


def test_pair_terms_match_full_vector():
    rng = np.random.default_rng(7)
    for _ in range(6):
        scn, md, n, alpha = _pinned_point(rng, int(rng.integers(3, 8)))
        terms = _PairTerms(md, n, alpha)
        budgets = _budgets(scn, n, alpha)
        u0 = _utility_raw(md, n, alpha)
        x0_full = _load(md, n, alpha)
        for _ in range(20):
            i, j = sorted(rng.choice(md.n, 2, replace=False))
            bi, bj = 1.0 + alpha[i], 1.0 + alpha[j]
            x0 = x0_full - terms.s[i] * alpha[i] - terms.s[j] * alpha[j]
            d = float(rng.uniform(max(np.log(1.001 / bi), np.log(bj / 1.5)),
                                  min(np.log(1.5 / bi), np.log(bj / 1.001))))
            trial = alpha.copy()
            trial[i] = bi * math.exp(d) - 1.0
            trial[j] = bj * math.exp(-d) - 1.0
            u_scalar = u0 + terms.gain(i, j, x0, bi, bj, d) - terms.gain(i, j, x0, bi, bj, 0.0)
            assert u_scalar == pytest.approx(_utility_raw(md, n, trial), rel=1e-12)
            full = _slacks(md, n, trial)
            for k in (i, j):
                assert abs(terms.slack(k, trial[k]) - full[k]) <= 1e-12 * budgets[k]


def _bisection_ends(md, n, alpha, i, j, floor):
    """The step range of a pair move by bisection on the full-vector slacks."""
    bi, bj = 1.0 + alpha[i], 1.0 + alpha[j]

    def feasible(d):
        trial = alpha.copy()
        trial[i] = bi * np.exp(d) - 1.0
        trial[j] = bj * np.exp(-d) - 1.0
        s = _slacks(md, n, trial)
        return s[i] >= -1e-18 and s[j] >= -1e-18

    d_hi = min(np.log(1.5 / bi), np.log(bj / (1.0 + floor)))
    d_lo = max(np.log((1.0 + floor) / bi), np.log(bj / 1.5))
    return (-_feasible_end(lambda d: feasible(-d), -d_lo),
            _feasible_end(feasible, d_hi))


def test_pair_ends_match_bisection():
    rng = np.random.default_rng(8)
    compared = 0
    for _ in range(6):
        scn, md, n, alpha = _pinned_point(rng, int(rng.integers(3, 8)))
        terms = _PairTerms(md, n, alpha)
        for i in range(md.n):
            for j in range(i + 1, md.n):
                if max(alpha[i], alpha[j]) >= 0.5:
                    continue   # the bisection needs both directions open
                span = terms.ends(i, j, 1.0 + alpha[i], 1.0 + alpha[j], 1e-6)
                want = _bisection_ends(md, n, alpha, i, j, 1e-6)
                assert span == pytest.approx(want, abs=1e-9)
                compared += 1
    assert compared >= 20


def test_pair_sweep_ascends_and_keeps_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(8):
        scn, md, n, alpha = _pinned_point(rng, int(rng.integers(3, 9)))
        budgets = _budgets(scn, n, alpha)
        u_before = _utility_raw(md, n, alpha)
        prod_before = np.prod(1.0 + alpha)
        _pair_sweep(md, n, alpha, 1e-6)
        assert _utility_raw(md, n, alpha) >= u_before
        assert np.all(_slacks(md, n, alpha) >= -1e-12 * budgets)
        assert np.prod(1.0 + alpha) == pytest.approx(prod_before, rel=1e-12)
        assert np.all((alpha > 0.0) & (alpha <= 0.5 + 1e-15))
