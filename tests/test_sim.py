import numpy as np
import pytest

from wpcsma import (InvalidParameterError, SimConfig, alpha_from_tau,
                    empirical_energy_check, evaluate, simulate,
                    stationary_distribution, tau_from_window)
from wpcsma.timing import frame_times

from conftest import PROTO, make_node, make_scenario


def analytical_at_integer_point(scn, n, w):
    m = np.array([node.duty.sleep_slots(v) for node, v in zip(scn.nodes, n)])
    taus = tau_from_window(np.asarray(w, dtype=float), m)
    return evaluate(scn, np.asarray(n, dtype=float), alpha_from_tau(taus))


def test_determinism():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    cfg = SimConfig(n_slots=60_000, seed=11, warmup_slots=1_000)
    a = simulate(scn, [5, 8], [8, 16], cfg)
    b = simulate(scn, [5, 8], [8, 16], cfg)
    assert np.array_equal(a.throughput, b.throughput)
    assert np.array_equal(a.energy_per_cycle, b.energy_per_cycle)
    assert a.total_time == b.total_time
    assert a.rng_name == "PCG64"


def test_conservation_of_time_and_bits():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    cfg = SimConfig(n_slots=50_000, seed=2, warmup_slots=0)
    st = simulate(scn, [5, 8], [4, 4], cfg)
    t_col = frame_times(PROTO, scn.nodes[0].link).collision
    t_succ = [frame_times(PROTO, node.link).success(k)
              for node, k in zip(scn.nodes, (5, 8))]
    n_idle = st.p_idle * st.slots
    n_succ = st.p_succ * st.slots
    n_col = st.p_col * st.slots
    rebuilt = n_idle * PROTO.sigma + float(np.sum(n_succ * t_succ)) + n_col * t_col
    assert rebuilt == pytest.approx(st.total_time, rel=1e-9)
    assert st.delivered_bits == pytest.approx(n_succ * [5 * 400, 8 * 400],
                                              rel=1e-12)
    assert st.p_idle + st.p_succ.sum() + st.p_col == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_single_node_minimal_cycle_is_deterministic():
    # W=1, m=2: wake, draw 0, transmit, sleep twice, repeat
    scn = make_scenario([make_node(h=1, g=1)])
    st = simulate(scn, [1], [1], SimConfig(n_slots=200_000, seed=5,
                                           warmup_slots=2_000))
    t_succ = frame_times(PROTO, scn.nodes[0].link).success(1)
    exact = 400.0 / (t_succ + 2 * PROTO.sigma)
    assert st.throughput[0] == pytest.approx(exact, rel=5e-3)
    perf = analytical_at_integer_point(scn, [1], [1])
    assert st.throughput[0] == pytest.approx(perf.throughput[0], rel=5e-3)
    assert st.p_col == 0.0


def test_two_symmetric_nodes_match_model_within_ci():
    scn = make_scenario([make_node(), make_node()])
    n, w = [5, 5], [8, 8]
    perf = analytical_at_integer_point(scn, n, w)
    st = simulate(scn, n, w, SimConfig(n_slots=400_000, seed=7,
                                       warmup_slots=5_000))
    z = 3.0 / 2.093  # 3 sigma in units of the 95% halfwidth
    assert abs(st.p_idle - perf.slot_probs.p_idle) <= z * st.ci_halfwidth["p_idle"]
    assert np.all(np.abs(st.p_succ - perf.slot_probs.p_succ)
                  <= z * st.ci_halfwidth["p_succ"])
    assert abs(st.p_col - perf.slot_probs.p_col) <= z * st.ci_halfwidth["p_col"]
    assert np.all(np.abs(st.throughput - perf.throughput)
                  / perf.throughput < 0.02)
    assert np.all(np.abs(st.airtime - perf.airtime) / perf.airtime < 0.02)


def test_heterogeneous_mixing_point_matches_model():
    # exp-1-like nodes at a window wide enough for phase mixing
    scn = make_scenario([make_node(n_max=nm) for nm in (10, 20, 30)])
    n, w = [10, 20, 30], [16, 16, 16]
    perf = analytical_at_integer_point(scn, n, w)
    st = simulate(scn, n, w, SimConfig(n_slots=1_000_000, seed=9,
                                       warmup_slots=10_000))
    assert np.all(np.abs(st.throughput - perf.throughput)
                  / perf.throughput < 0.02)
    assert np.all(np.abs(st.airtime - perf.airtime) / perf.airtime < 0.02)
    assert perf.airtime.sum() <= 1.0
    # the channel-load factor ties to the simulated mean slot duration
    # through X * T_col == mean_slot * prod(1 + alpha)
    t_col = frame_times(PROTO, scn.nodes[0].link).collision
    sim_mean_slot = st.total_time / st.slots
    prod = float(np.prod(1 + perf.tau / (1 - perf.tau)))
    assert perf.channel_load * t_col == pytest.approx(
        sim_mean_slot * prod, rel=0.02)


def test_single_node_occupancy_matches_stationary_chain():
    scn = make_scenario([make_node()])
    w, m_n = 8, 4  # m = 4*3+2 = 14
    st = simulate(scn, [m_n], [w], SimConfig(n_slots=300_000, seed=3,
                                             warmup_slots=5_000,
                                             track_occupancy=True))
    active, sleep = stationary_distribution(w, 14)
    counts_a = st.occupancy_active[0]
    counts_s = st.occupancy_sleep[0]
    total = counts_a.sum() + counts_s.sum()
    assert total == st.slots
    for emp, ana in ((counts_a, active), (counts_s, sleep)):
        for k in range(len(ana)):
            sd = np.sqrt(total * ana[k] * (1 - ana[k]))
            assert abs(emp[k] - total * ana[k]) <= 3.5 * sd


def test_energy_check_components():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    rows = empirical_energy_check(scn, [5, 8], [8, 8],
                                  SimConfig(n_slots=300_000, seed=5,
                                            warmup_slots=3_000))
    by = {(r.node, r.component): r for r in rows}
    for i in (0, 1):
        assert by[(i, "acq+proc+bg")].rel_error <= 1e-9
        assert by[(i, "backoff")].rel_error <= 0.05   # sampling noise only
        assert by[(i, "data")].rel_error <= 0.05      # reported, small here
        assert not by[(i, "data")].asserted


def test_trace_file(tmp_path):
    scn = make_scenario([make_node()])
    path = tmp_path / "trace.csv"
    cfg = SimConfig(n_slots=500, seed=1, warmup_slots=0,
                    trace_path=str(path))
    st = simulate(scn, [2], [2], cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "slot,type,transmitters"
    assert len(lines) == 501
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds <= {"idle", "success", "collision"}
    # tracing must not change the statistics
    st2 = simulate(scn, [2], [2], SimConfig(n_slots=500, seed=1,
                                            warmup_slots=0))
    assert np.array_equal(st.throughput, st2.throughput)


def test_trace_file_closed_when_run_raises(tmp_path, monkeypatch):
    # a write that fails mid-run (a full disk) must not leak the open file
    import wpcsma.sim as sim_mod

    opened = []

    class FailingFile:
        def __init__(self, path, mode):
            self.inner = open(path, mode)
            self.writes = 0
            opened.append(self)

        def write(self, text):
            self.writes += 1
            if self.writes > 3:
                raise OSError("no space left on device")
            return self.inner.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.inner.close()

    monkeypatch.setattr(sim_mod, "open", FailingFile, raising=False)
    scn = make_scenario([make_node()])
    cfg = SimConfig(n_slots=500, seed=1, warmup_slots=0,
                    trace_path=str(tmp_path / "trace.csv"))
    with pytest.raises(OSError):
        simulate(scn, [2], [2], cfg)
    assert len(opened) == 1 and opened[0].inner.closed


def test_rejects_bad_integers():
    scn = make_scenario([make_node()])
    cfg = SimConfig(n_slots=100, seed=1, warmup_slots=0)
    with pytest.raises(InvalidParameterError):
        simulate(scn, [1], [0], cfg)
    with pytest.raises(InvalidParameterError):
        simulate(scn, [0], [1], cfg)
    with pytest.raises(InvalidParameterError):
        SimConfig(n_slots=100, seed=1, warmup_slots=100)
