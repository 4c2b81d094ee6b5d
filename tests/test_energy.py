import itertools
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import energy_oracle as oracle
from wpcsma import (InvalidParameterError, SimConfig, alpha_from_tau,
                    channel_load, collision_transmit_energy, constraint_slack,
                    cycle_energy, empirical_energy_check, energy_coefficients,
                    evaluate, success_transmit_energy, tau_from_alpha,
                    tau_from_window)
from wpcsma import model
from wpcsma.energy import _backoff
from wpcsma.mac import window_from_alpha
from wpcsma.optimize import decision_reports
from wpcsma.scenario_io import scenario_from_dict
from wpcsma.timing import frame_times

from conftest import (PROTO, make_node, make_scenario, random_point,
                      random_scenario, solve_quiet)

DATA = Path(__file__).parent / "data"


def test_backoff_energy_minimum_window():
    node = make_node()
    assert _backoff(PROTO, node.power, 1) == pytest.approx(0.34e-6, rel=1e-12)


def test_backoff_energy_linear_in_w():
    node = make_node()
    vals = [_backoff(PROTO, node.power, w) for w in range(1, 40)]
    diffs = np.diff(vals)
    assert diffs == pytest.approx(np.full(38, PROTO.sigma * 10e-3 / 2),
                                  rel=1e-12)


def test_backoff_energy_alpha_form():
    # E_bo == B/alpha - m*sigma*P_L + T_difs*P_L with W recovered from alpha
    node = make_node()
    b = PROTO.sigma * node.power.p_listen
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = float(rng.integers(2, 200))
        alpha = float(rng.uniform(0.001, 0.5))
        w = window_from_alpha(alpha, m)
        direct = (PROTO.t_difs + (w - 1) / 2 * PROTO.sigma) * node.power.p_listen
        via_alpha = (b / alpha - m * PROTO.sigma * node.power.p_listen
                     + PROTO.t_difs * node.power.p_listen)
        assert direct == pytest.approx(via_alpha, rel=1e-9)


def _e_data(n, alpha):
    """e_data of node 0 (make_node) with peers at attempt odds alpha[1:]."""
    scn = make_scenario([make_node()] * len(alpha))
    return cycle_energy(scn, 0, [n] * len(alpha), alpha).e_data


def test_data_energy_no_peers_is_success_energy():
    node = make_node()
    times = frame_times(PROTO, node.link)
    expect = success_transmit_energy(PROTO, node.power, times, 10)
    assert _e_data(10.0, [0.1]) == pytest.approx(expect, rel=1e-12)


def test_data_energy_all_peers_certain_is_collision_energy():
    node = make_node()
    times = frame_times(PROTO, node.link)
    got = _e_data(10.0, [0.1, 1e12, 1e12])
    assert got == pytest.approx(
        collision_transmit_energy(PROTO, node.power, times), rel=1e-9)


def test_data_energy_matches_peer_enumeration():
    # expectation over every pattern of the peers transmitting or not
    node = make_node()
    times = frame_times(PROTO, node.link)
    taus = [0.1, 0.1]
    eps_s = success_transmit_energy(PROTO, node.power, times, 10)
    eps_c = collision_transmit_energy(PROTO, node.power, times)
    expect = 0.0
    for pattern in itertools.product((0, 1), repeat=2):
        pr = np.prod([taus[j] if b else 1 - taus[j]
                      for j, b in enumerate(pattern)])
        expect += pr * (eps_s if sum(pattern) == 0 else eps_c)
    got = _e_data(10.0, [0.1, *alpha_from_tau(np.array(taus))])
    assert got == pytest.approx(expect, rel=1e-12)


def test_data_energy_between_extremes():
    rng = np.random.default_rng(1)
    node = make_node()
    times = frame_times(PROTO, node.link)
    for _ in range(30):
        n = float(rng.uniform(1, 40))
        taus = rng.uniform(0.01, 0.6, int(rng.integers(1, 6)))
        val = _e_data(n, [0.1, *alpha_from_tau(taus)])
        eps_s = success_transmit_energy(PROTO, node.power, times, n)
        eps_c = collision_transmit_energy(PROTO, node.power, times)
        assert min(eps_s, eps_c) - 1e-18 <= val <= max(eps_s, eps_c) + 1e-18


def test_cycle_energy_acquisition_and_processing():
    scn = make_scenario([make_node()])
    br = cycle_energy(scn, 0, [10.0], [0.03])
    assert br.e_acq == pytest.approx(0.45e-6, rel=1e-12)
    assert br.e_proc == pytest.approx(10 * 0.108e-6, rel=1e-12)
    assert br.e_total == pytest.approx(
        br.e_acq + br.e_proc + br.e_tx_total + br.e_bg, rel=1e-12)
    assert br.budget == pytest.approx(15e-3 * 32 * 9e-6, rel=1e-12)


def test_cycle_components_nonnegative_in_physical_regime():
    # windows >= 1 keep every component nonnegative
    rng = np.random.default_rng(2)
    for _ in range(30):
        scn = random_scenario(rng)
        n = np.array([float(rng.integers(1, node.duty.n_max + 1))
                      for node in scn.nodes])
        m = np.array([v * node.duty.h + node.duty.g
                      for node, v in zip(scn.nodes, n)])
        w = rng.integers(1, 64, scn.n_nodes).astype(float)
        tau = 2 / (w + 2 * m + 1)
        alpha = tau / (1 - tau)
        for i in range(scn.n_nodes):
            br = cycle_energy(scn, i, n, alpha)
            assert br.e_acq >= 0 and br.e_proc >= 0
            assert br.e_backoff >= 0 and br.e_data >= 0
            assert br.e_total >= 0


def test_coefficients_match_hand_values():
    scn = make_scenario([make_node()])
    co = energy_coefficients(scn, 0)
    assert co.b == pytest.approx(9e-8, rel=1e-12)
    assert co.c == pytest.approx(((400 + 112) / 11e6) * 15e-3, rel=1e-12)
    assert co.a < 0  # each extra sample is net energy-positive at Table values
    assert co.per_sample_acq == pytest.approx(5e-3 * 9e-6, rel=1e-12)
    assert co.per_sample_proc == pytest.approx(6e-3 * 2 * 9e-6, rel=1e-12)


def test_coefficient_form_equals_direct_energy():
    # master identity: budget - e_total == slack, for random scenarios/points,
    # on every node of the shared model's slacks
    rng = np.random.default_rng(3)
    for _ in range(200):
        scn = random_scenario(rng)
        n, alpha = random_point(rng, scn)
        shared = model.slacks(model.build(scn), n, alpha)
        for i in range(scn.n_nodes):
            br = cycle_energy(scn, i, n, alpha)
            direct = br.budget - br.e_total
            scale = max(abs(direct), abs(shared[i]), br.budget)
            assert abs(direct - shared[i]) <= 1e-12 * scale
        i = int(rng.integers(0, scn.n_nodes))
        assert constraint_slack(scn, i, n, alpha) == shared[i]


def test_cycle_energy_extrapolates_backoff_below_one_slot():
    # alpha = 0.5 at n = 10 recovers W = 6 - 2*32 - 1 = -59 on make_node()
    node = make_node()
    scn = make_scenario([node, make_node()])
    n, alpha = [10.0, 10.0], [0.5, 0.1]
    w = window_from_alpha(0.5, 10.0 * node.duty.h + node.duty.g)
    assert w < 1
    br = cycle_energy(scn, 0, n, alpha)
    assert br.e_backoff == ((PROTO.t_difs + (w - 1) / 2 * PROTO.sigma)
                            * node.power.p_listen)
    assert br.e_backoff < 0


def test_energies_scale_linearly_with_power():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    k = 3.7
    scaled_nodes = []
    for node in scn.nodes:
        scaled_nodes.append(make_node(
            n_max=node.duty.n_max,
            p_tx=node.power.p_tx * k, p_rx=node.power.p_rx * k,
            p_listen=node.power.p_listen * k, p_acq=node.power.p_acq * k,
            p_proc=node.power.p_proc * k, e_bg=node.power.e_bg * k,
            phi=node.power.phi * k))
    scn2 = make_scenario(scaled_nodes)
    n = np.array([3.0, 7.0])
    alpha = np.array([0.1, 0.2])
    for i in range(2):
        b1 = cycle_energy(scn, i, n, alpha)
        b2 = cycle_energy(scn2, i, n, alpha)
        assert b2.e_total == pytest.approx(k * b1.e_total, rel=1e-12)
        assert b2.budget == pytest.approx(k * b1.budget, rel=1e-12)


def test_slack_sign_detects_violation():
    # blow up the transmit power until the constraint must break
    scn = make_scenario([make_node(p_tx=500e-3), make_node()])
    slack = constraint_slack(scn, 0, [10.0, 10.0], [0.4, 0.01])
    br = cycle_energy(scn, 0, [10.0, 10.0], [0.4, 0.01])
    assert (slack >= 0) == (br.e_total <= br.budget)
    assert slack < 0


def test_example1_optimum_slacks(solved_example1):
    budgets = np.array([b.budget for b in solved_example1.energy])
    rel = solved_example1.slacks / budgets
    assert abs(rel[0]) <= 1e-6
    assert np.all(rel[1:] >= 1e-3)


def test_a_point_must_name_one_value_per_node_and_a_node(example1):
    # each of these once gave a wrong answer or a bare IndexError
    n = np.array([float(nd.duty.n_max) for nd in example1.nodes])
    alpha = np.full(6, 0.01)
    probes = [lambda: cycle_energy(example1, 0, n, alpha[:3]),
              lambda: cycle_energy(example1, -1, n, alpha),
              lambda: cycle_energy(example1, 6, n, alpha),
              lambda: constraint_slack(example1, -1, n, alpha),
              lambda: constraint_slack(example1, 6, n, alpha),
              lambda: evaluate(example1, 5.0, alpha),
              lambda: channel_load(example1, n[:5], alpha[:5]),
              lambda: decision_reports(example1, n, alpha[:5]),
              lambda: cycle_energy(example1, 0, n, np.r_[alpha[:5], 0.0]),
              lambda: evaluate(example1, np.r_[n[:5], 0.5], alpha)]
    for probe in probes:
        with pytest.raises(InvalidParameterError):
            probe()


def test_energy_coefficients_take_only_a_node_index(example1):
    # -1 once gave node 5's coefficients and 6 a bare IndexError
    for i in (-1, 6):
        with pytest.raises(InvalidParameterError,
                           match=rf"node index must be in 0\.\.5, got {i}"):
            energy_coefficients(example1, i)
    md = model.build(example1)
    assert energy_coefficients(example1, np.int64(5)).f == md.f[5]


# --- the all-node breakdown against its per-node form (tests/energy_oracle.py) ---

def same_bits(got, want) -> bool:
    return (np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
            and all(type(g) is float for g in astuple(got)))


def _stored(name):
    return scenario_from_dict(json.loads((DATA / f"{name}.json").read_text()))


def _integer_alpha(scn, n, w):
    m = np.array([v * nd.duty.h + nd.duty.g for nd, v in zip(scn.nodes, n)])
    return alpha_from_tau(tau_from_window(np.asarray(w, dtype=float), m))


def _assert_breakdowns_match(scn, n, alpha):
    n, alpha = np.asarray(n, dtype=float), np.asarray(alpha, dtype=float)
    reports = decision_reports(scn, n, alpha)[1]
    for i in range(scn.n_nodes):
        want = oracle.cycle_energy(scn, i, n, alpha)
        assert same_bits(cycle_energy(scn, i, n, alpha), want)
        assert same_bits(reports[i], want)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_breakdown_matches_oracle_at_the_bundled_optima(name, request):
    res = request.getfixturevalue(f"solved_{name}")
    n, alpha = res.decision.n, res.decision.alpha
    # the extrapolated regime: every window below one slot, backoff a credit
    assert np.all(res.perf.window < 1.0)
    assert all(br.e_backoff < 0.0 for br in res.energy)
    _assert_breakdowns_match(request.getfixturevalue(name), n, alpha)


@pytest.mark.parametrize("name", ["gen24_rng24000", "gen48_rng48000"])
def test_breakdown_matches_oracle_at_the_stored_optima(name):
    scn = _stored(name)
    res = solve_quiet(scn)
    _assert_breakdowns_match(scn, res.decision.n, res.decision.alpha)


def test_breakdown_matches_oracle_on_one_node_and_random_points():
    _assert_breakdowns_match(make_scenario([make_node()]), [7.0], [0.2])
    rng = np.random.default_rng(13)
    for _ in range(100):
        scn = random_scenario(rng)
        _assert_breakdowns_match(scn, *random_point(rng, scn))


@pytest.mark.parametrize("w_of", [lambda k: np.ones(k, dtype=int),
                                  lambda k: 2 + np.arange(k) * 7],
                         ids=["w1", "w2up"])
def test_breakdown_and_energy_check_match_oracle_at_integer_points(w_of):
    rng = np.random.default_rng(17)
    for n_nodes in (1, 2, 5, 9):
        scn = random_scenario(rng, n_nodes)
        n = [int(rng.integers(1, nd.duty.n_max + 1)) for nd in scn.nodes]
        w = [int(v) for v in w_of(n_nodes)]
        _assert_breakdowns_match(scn, n, _integer_alpha(scn, n, w))
        rows = empirical_energy_check(scn, n, w, SimConfig(n_slots=3_000, warmup_slots=0))
        got = [(r.node, r.component, r.analytical) for r in rows]
        want = oracle.analytical_check(scn, n, w)
        assert [g[:2] for g in got] == [v[:2] for v in want]
        assert np.array([g[2] for g in got]).tobytes() == np.array([v[2] for v in want]).tobytes()
        assert all(type(g[2]) is float for g in got)


# --- one others-quiet probability behind p_succ, air-time and e_data ---

def test_p_succ_and_exchange_energy_read_one_others_quiet_probability():
    rng = np.random.default_rng(31)
    for _ in range(300):
        scn = random_scenario(rng)
        n, alpha = random_point(rng, scn)
        tau = tau_from_alpha(alpha)
        probs = evaluate(scn, n, alpha).slot_probs
        reports = decision_reports(scn, n, alpha)[1]
        for i, node in enumerate(scn.nodes):
            assert probs.p_quiet[i] == np.prod(np.delete(1.0 - tau, i))
            assert probs.p_succ[i] == tau[i] * probs.p_quiet[i]
            times = frame_times(scn.protocol, node.link)
            assert reports[i].e_data == oracle.data_energy(
                scn.protocol, node.power, times, float(n[i]), np.delete(tau, i))


def test_cycle_energy_refuses_a_tau_that_rounds_to_one(example1):
    n = np.array([float(nd.duty.n_max) for nd in example1.nodes])
    alpha = np.r_[np.full(5, 0.01), 1e17]
    assert tau_from_alpha(alpha[5]) == 1.0
    for probe in (lambda: evaluate(example1, n, alpha),
                  lambda: cycle_energy(example1, 0, n, alpha)):
        with pytest.raises(InvalidParameterError, match=r"tau must be in \(0, 1\)"):
            probe()
