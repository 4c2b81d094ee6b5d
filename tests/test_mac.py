import itertools

import numpy as np
import pytest

from wpcsma import (InvalidParameterError, alpha_from_tau, attempt_probability,
                    channel_load, evaluate, slot_probabilities,
                    stationary_distribution, tau_from_alpha, tau_from_window,
                    window_from_alpha)
from wpcsma.timing import frame_times

from conftest import PROTO, make_node, make_scenario


def enum_slot_probs(taus):
    """Brute force over all 2^N attempt patterns."""
    taus = np.asarray(taus)
    nn = taus.size
    p_idle = 0.0
    p_succ = np.zeros(nn)
    p_col = 0.0
    p_col_node = np.zeros(nn)
    for pattern in itertools.product((0, 1), repeat=nn):
        pr = np.prod([taus[i] if b else 1 - taus[i]
                      for i, b in enumerate(pattern)])
        tx = sum(pattern)
        if tx == 0:
            p_idle += pr
        elif tx == 1:
            p_succ[pattern.index(1)] += pr
        else:
            p_col += pr
            for i, b in enumerate(pattern):
                if b:
                    p_col_node[i] += pr
    return p_idle, p_succ, p_col, p_col_node


def test_stationary_boundary_case():
    active, sleep = stationary_distribution(1, 2)
    assert active == pytest.approx([1 / 3])
    assert sleep == pytest.approx([1 / 3, 1 / 3])


def test_stationary_direct_value():
    active, _ = stationary_distribution(32, 5)
    assert active[0] == pytest.approx(2 / 43, rel=1e-14)


def test_stationary_normalizes():
    rng = np.random.default_rng(1)
    for _ in range(40):
        w = int(rng.integers(1, 200))
        m = int(rng.integers(2, 400))
        active, sleep = stationary_distribution(w, m)
        assert active.sum() + sleep.sum() == pytest.approx(1.0, abs=1e-12)
        assert active[0] == pytest.approx(attempt_probability(w, m), rel=1e-14)


def test_stationary_rejects_bad_args():
    with pytest.raises(InvalidParameterError):
        stationary_distribution(0, 2)
    with pytest.raises(InvalidParameterError):
        stationary_distribution(1, 1)


def test_attempt_probability_values():
    assert attempt_probability(1, 2) == 1 / 3
    assert attempt_probability(15, 10) == pytest.approx(1 / 18, rel=1e-14)


def test_attempt_probability_monotone():
    for m in (2, 5, 50):
        taus = [attempt_probability(w, m) for w in range(1, 30)]
        assert np.all(np.diff(taus) < 0)
    for w in (1, 8, 64):
        taus = [attempt_probability(w, m) for m in range(2, 30)]
        assert np.all(np.diff(taus) < 0)


def test_slot_probabilities_single_node():
    probs = slot_probabilities([0.2])
    assert probs.p_idle == pytest.approx(0.8)
    assert probs.p_succ[0] == pytest.approx(0.2)
    assert probs.p_col == 0.0


def test_slot_probabilities_two_symmetric():
    probs = slot_probabilities([1 / 3, 1 / 3])
    assert probs.p_idle == pytest.approx(4 / 9, rel=1e-14)
    assert probs.p_succ == pytest.approx([2 / 9, 2 / 9], rel=1e-14)
    assert probs.p_col == pytest.approx(1 / 9, rel=1e-14)


def test_slot_probabilities_match_enumeration():
    cases = [np.array([0.1, 0.2, 0.3])]
    rng = np.random.default_rng(2)
    cases += [rng.uniform(0.01, 0.6, int(rng.integers(2, 7)))
              for _ in range(30)]
    for taus in cases:
        probs = slot_probabilities(taus)
        e_idle, e_succ, e_col, e_col_node = enum_slot_probs(taus)
        assert probs.p_idle == pytest.approx(e_idle, rel=1e-12)
        assert probs.p_succ == pytest.approx(e_succ, rel=1e-12)
        assert probs.p_col == pytest.approx(e_col, rel=1e-12, abs=1e-15)
        assert probs.p_col_node == pytest.approx(e_col_node, rel=1e-12)
        total = probs.p_idle + probs.p_succ.sum() + probs.p_col
        assert total == pytest.approx(1.0, abs=1e-12)
        # a node colliding is a subset of any collision happening
        assert np.all(probs.p_col_node <= probs.p_col + 1e-15)


def test_slot_probabilities_match_explicit_products():
    # the prefix/suffix products against the explicit product over j != i
    rng = np.random.default_rng(5)
    for n_nodes in range(2, 49):
        taus = rng.uniform(0.001, 0.6, n_nodes)
        quiet = 1.0 - taus
        prod_others = np.array([np.prod(np.delete(quiet, i))
                                for i in range(n_nodes)])
        probs = slot_probabilities(taus)
        assert probs.p_idle == pytest.approx(np.prod(quiet), rel=1e-14)
        assert np.allclose(probs.p_succ, taus * prod_others, rtol=1e-14, atol=0)
        assert np.allclose(probs.p_col_node, taus * (1.0 - prod_others),
                           rtol=1e-14, atol=0)


def test_slot_probabilities_rejects_bad_tau():
    with pytest.raises(InvalidParameterError):
        slot_probabilities([0.0, 0.2])
    with pytest.raises(InvalidParameterError):
        slot_probabilities([1.0])


def test_conversions_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = float(rng.integers(1, 300))
        m = float(rng.integers(2, 500))
        tau = tau_from_window(w, m)
        alpha = alpha_from_tau(tau)
        assert tau_from_alpha(alpha) == pytest.approx(tau, rel=1e-12)
        assert window_from_alpha(alpha, m) == pytest.approx(w, rel=1e-10)


def test_channel_load_all_idle_limit():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    tiny = np.full(2, 1e-12)
    t_col = frame_times(PROTO, scn.nodes[0].link).collision
    assert channel_load(scn, [1.0, 1.0], tiny) == pytest.approx(
        PROTO.sigma / t_col, rel=1e-9)


def test_channel_load_single_node_identity():
    # X * T_col == (P_idle*sigma + P_succ*T_succ) / (1 - tau)
    scn = make_scenario([make_node()])
    times = frame_times(PROTO, scn.nodes[0].link)
    rng = np.random.default_rng(4)
    for _ in range(30):
        alpha = float(rng.uniform(0.01, 0.5))
        n = float(rng.uniform(1, 10))
        tau = tau_from_alpha(alpha)
        denom = (1 - tau) * PROTO.sigma + tau * times.success(n)
        x = channel_load(scn, [n], [alpha])
        assert x * times.collision == pytest.approx(denom / (1 - tau), rel=1e-12)


def test_channel_load_mean_slot_identity():
    # X * T_col == mean slot duration * prod(1 + alpha)
    rng = np.random.default_rng(5)
    for _ in range(30):
        nn = int(rng.integers(1, 6))
        scn = make_scenario([make_node(n_max=30,
                                       l=float(rng.integers(80, 2000)),
                                       rate=float(rng.choice([5.5e6, 11e6, 24e6])))
                             for _ in range(nn)])
        n = rng.uniform(1, 30, nn)
        alpha = rng.uniform(0.005, 0.5, nn)
        perf = evaluate(scn, n, alpha)
        t_col = frame_times(PROTO, scn.nodes[0].link).collision
        lhs = perf.channel_load * t_col
        rhs = perf.mean_slot_duration * np.prod(1 + alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_throughput_single_node_hand_formula():
    scn = make_scenario([make_node()])
    times = frame_times(PROTO, scn.nodes[0].link)
    tau = 1 / 3
    alpha = alpha_from_tau(tau)
    perf = evaluate(scn, [1.0], [alpha])
    expect = tau * 400.0 / ((1 - tau) * PROTO.sigma + tau * times.success(1.0))
    assert perf.throughput[0] == pytest.approx(expect, rel=1e-12)
    assert perf.throughput_renewal[0] == pytest.approx(expect, rel=1e-12)


def test_throughput_symmetric_nodes_equal():
    scn = make_scenario([make_node(), make_node(), make_node()])
    perf = evaluate(scn, [5.0, 5.0, 5.0], [0.2, 0.2, 0.2])
    assert np.ptp(perf.throughput) == pytest.approx(0.0, abs=1e-9)
    assert np.ptp(perf.airtime) == pytest.approx(0.0, abs=1e-15)


def test_reformulated_equals_renewal_randomized():
    rng = np.random.default_rng(6)
    for _ in range(60):
        nn = int(rng.integers(1, 7))
        scn = make_scenario([make_node(n_max=40,
                                       l=float(rng.integers(80, 4000)),
                                       rate=float(rng.uniform(1e6, 54e6)),
                                       h=int(rng.integers(1, 5)),
                                       g=int(rng.integers(1, 4)))
                             for _ in range(nn)])
        n = rng.uniform(1, 40, nn)
        alpha = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), nn))
        perf = evaluate(scn, n, alpha)
        assert perf.throughput == pytest.approx(perf.throughput_renewal,
                                                rel=1e-10)


def test_airtime_below_one_per_node_and_low_tau_sum():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nn = int(rng.integers(2, 7))
        scn = make_scenario([make_node(n_max=40) for _ in range(nn)])
        n = rng.uniform(1, 40, nn)
        alpha = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), nn))
        perf = evaluate(scn, n, alpha)
        assert np.all(perf.airtime < 1.0)
        if np.all(perf.tau < 0.05):
            assert perf.airtime.sum() <= 1.0


def test_throughput_increasing_in_own_n():
    rng = np.random.default_rng(8)
    for _ in range(25):
        nn = int(rng.integers(1, 6))
        scn = make_scenario([make_node(n_max=50) for _ in range(nn)])
        n = rng.uniform(1, 40, nn)
        alpha = np.exp(rng.uniform(np.log(1e-3), np.log(0.3), nn))
        i = int(rng.integers(0, nn))
        before = evaluate(scn, n, alpha).throughput[i]
        n2 = n.copy()
        n2[i] += 1e-4
        after = evaluate(scn, n2, alpha).throughput[i]
        assert after > before


def test_window_recovered_in_report():
    scn = make_scenario([make_node(h=3, g=2)])
    perf = evaluate(scn, [4.0], [0.05])
    m = 4 * 3 + 2
    assert perf.sleep_slots[0] == m
    assert perf.window[0] == pytest.approx(2 * 1.05 / 0.05 - 2 * m - 1, rel=1e-12)
