import itertools
import math

import numpy as np
import pytest

from wpcsma import (InvalidParameterError, SimConfig, alpha_from_tau,
                    bundled_scenario, empirical_energy_check, evaluate,
                    simulate, stationary_distribution, tau_from_window)
import wpcsma.sim as sim_mod
from wpcsma.timing import frame_times

from conftest import PROTO, make_node, make_scenario
from slot_loop_oracle import simulate_slot_loop


def analytical_at_integer_point(scn, n, w):
    m = np.array([v * node.duty.h + node.duty.g for node, v in zip(scn.nodes, n)])
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
    assert a.rng_name == "PCG64 per node (SeedSequence.spawn)"


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
    simulate(scn, [2], [2], cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "slot,type,transmitters"
    assert len(lines) == 501
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds <= {"idle", "success", "collision"}
    # tracing must not change the statistics: example1 at n = n_max has long
    # all-asleep runs, whose time is summed as k * sigma traced or not
    scn = bundled_scenario("example1")
    n = [node.duty.n_max for node in scn.nodes]
    common = dict(n_slots=200_000, seed=1, warmup_slots=10_000)
    for window in (16, 1):
        w = [window] * scn.n_nodes
        traced = simulate(scn, n, w, SimConfig(trace_path=str(path), **common))
        _assert_same_stats(traced, simulate(scn, n, w, SimConfig(**common)))


def test_node_streams_are_independent(tmp_path):
    # each node draws from its own stream, so a change to one node's window
    # moves none of the other nodes' transmissions
    scn = make_scenario([make_node(n_max=6) for _ in range(4)])
    n = [2, 3, 4, 5]

    def run(w):
        path = tmp_path / "trace.csv"
        st = simulate(scn, n, w, SimConfig(n_slots=20_000, seed=8, warmup_slots=500,
                                           trace_path=str(path)))
        sent = {i: [] for i in range(len(n))}
        for line in path.read_text().splitlines()[1:]:
            slot, _, who = line.split(",")
            for i in who.split("|") if who else ():
                sent[int(i)].append(int(slot))
        return st.cycles, sent

    cycles, sent = run([4, 9, 16, 7])
    for j, window in ((1, 30), (3, 1)):
        w = [4, 9, 16, 7]
        w[j] = window
        cycles_j, sent_j = run(w)
        assert sent_j[j] != sent[j]
        for i in range(len(n)):
            if i != j:
                assert sent_j[i] == sent[i], (j, i)
                assert cycles_j[i] == cycles[i], (j, i)


def test_trace_file_closed_when_run_raises(tmp_path, monkeypatch):
    # a write that fails mid-run (a full disk) must not leak the open file
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


def test_config_needs_a_measured_slot_per_batch():
    # fewer measured slots than the 20 batches left batches empty, and
    # their zero ratios entered the confidence intervals
    with pytest.raises(InvalidParameterError, match="one slot per batch"):
        SimConfig(n_slots=1_019, seed=1, warmup_slots=1_000)
    st = simulate(make_scenario([make_node()]), [2], [4],
                  SimConfig(n_slots=1_020, seed=1, warmup_slots=1_000))
    assert st.slots == 20


@pytest.mark.parametrize("kw", [
    {"n_slots": 50_000.5}, {"n_slots": 50_000.0}, {"n_slots": True},
    {"n_slots": "50000"}, {"warmup_slots": 1.5}, {"warmup_slots": False},
])
def test_config_rejects_non_integer_slots(kw):
    # unchecked, n_slots = 50000.5 measures 49,001 slots and True one slot
    with pytest.raises(InvalidParameterError):
        SimConfig(**{"n_slots": 50_000, "warmup_slots": 1_000, **kw})


def test_config_accepts_numpy_integers():
    cfg = SimConfig(n_slots=np.int64(2_000), warmup_slots=np.int32(100),
                    seed=np.uint32(5))
    assert simulate(make_scenario([make_node()]), [2], [4], cfg).slots == 1_900


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", np.float64(2.0)])
def test_config_rejects_bad_seed(seed):
    # -1 was a ValueError from default_rng at run time; 1.5 and True ran
    with pytest.raises(InvalidParameterError):
        SimConfig(n_slots=100, seed=seed, warmup_slots=0)


@pytest.mark.parametrize("n, w", [
    ([2.7], [4]), ([2], [3.9]), ([2.0], [4]), ([True], [4]), ([2], [True]),
    ([2], np.array([True])), ([2], np.array([4.0])), ([2], ["4"]),
])
def test_simulate_rejects_non_integer_points(n, w):
    # int() used to turn n = 2.7 into 2, W = 3.9 into 3 and True into 1
    scn = make_scenario([make_node()])
    with pytest.raises(InvalidParameterError):
        simulate(scn, n, w, SimConfig(n_slots=100, seed=1, warmup_slots=0))


def test_simulate_accepts_numpy_integer_points():
    scn = make_scenario([make_node(), make_node(n_max=20)])
    cfg = SimConfig(n_slots=5_000, seed=1, warmup_slots=0)
    _assert_same_stats(
        simulate(scn, np.array([2, 5], dtype=np.int32), [np.int64(4), np.uint8(8)], cfg),
        simulate(scn, [2, 5], [4, 8], cfg))


# --- the two-pass core against the original slot loop ----------------------

_EDGE_BOUNDS = [1, 2, 3, 2**31 + 1, 2**32, 2**32 + 1, 2**40 + 3]


@pytest.mark.parametrize("block", [1, 3, 1024])
@pytest.mark.parametrize("seed", range(5))
def test_bounded_draws_match_generator_integers(monkeypatch, seed, block):
    # a block of backoffs drawn by _next_wakes must equal as many scalar
    # integers(0, w) calls on the same stream, also where the bound changes
    # between blocks: w = 1 takes no random word, bounds up to 2**32 take
    # 32-bit halves (the bit generator keeps the other half for the next
    # call), and bounds above 2**32 take whole 64-bit outputs
    monkeypatch.setattr(sim_mod, "_BACKOFF_BLOCK", block)
    pick = np.random.default_rng(1000 + seed)
    calls = max(4000 // block, 4)
    bounds = [int(v) for v in pick.integers(1, 2**31, calls)]
    bounds += [int(v) for v in pick.integers(1, 40, calls)]
    bounds += _EDGE_BOUNDS * 3
    pick.shuffle(bounds)
    gen = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for w in bounds:
        # wake-ups at 0 with m = 0: each wake slot is the last plus 1 + d
        drawn = np.diff(sim_mod._next_wakes(gen, 0, w, 0, 2**62), prepend=0) - 1
        assert drawn.tolist() == [int(ref.integers(0, w)) for _ in range(block)], w


_SLOTS = 24_013   # measured slots of a case at the default piece rule


def _oracle_cases():
    cases = []
    rng = np.random.default_rng(77)
    for nn in (1, 2, 6, 24):
        for mixed in (False, True):
            n = rng.integers(1, 7, nn).tolist()
            w = rng.integers(1, 33, nn).tolist() if mixed else [1] * nn
            warmup = 0 if mixed else 1_237
            cases.append(pytest.param(nn, n, w, warmup, {}, True, _SLOTS,
                                      id=f"N{nn}-{'mixed' if mixed else 'W1'}-warmup{warmup}"))
    # mixed windows and a warmup that ends inside a piece of 7 or 64 slots
    cases.append(pytest.param(6, [1, 2, 3, 4, 5, 6], [3, 9, 17, 5, 30, 2], 1_237, {},
                              True, _SLOTS, id="N6-mixed-warmup1237"))
    # W = 1 and m = 2 * 3 + 400: every node sleeps through all-asleep runs
    # of about 400 slots, which span several pieces
    cases.append(pytest.param(1, [2], [1], 1_237, {"g": 400}, True, _SLOTS,
                              id="N1-W1-asleep-runs"))
    # backoffs longer than a batch row: transmissions carry across row edges
    cases.append(pytest.param(3, [2, 4, 6], [2_500, 4_999, 7], 0, {}, True, _SLOTS,
                              id="N3-row-carry"))
    # a window above 2**32: its draws take whole 64-bit outputs and its
    # backoff outlasts the run. Without occupancy, whose counts would need
    # one 64-bit counter per window value (32 GiB)
    cases.append(pytest.param(3, [2, 3, 4], [2**32 + 5, 9, 16], 611, {}, False, _SLOTS,
                              id="N3-W-above-2^32"))
    # windows near the top of int64, which the CLI accepts: a backoff this
    # long pushes the wake slots that follow past what int64 holds
    cases.append(pytest.param(3, [2, 3, 4], [2**62, 9, 16], 611, {}, False, _SLOTS,
                              id="N3-W-2^62"))
    cases.append(pytest.param(3, [2, 3, 4], [2**63 - 1, 9, 16], 611, {}, False, _SLOTS,
                              id="N3-W-2^63-1"))
    # W = 1 nodes beside drawing ones, all with m = 2: wake slots and
    # transmissions of several nodes coincide often
    cases.append(pytest.param(6, [1] * 6, [1, 2, 1, 3, 1, 2], 611, {"h": 1, "g": 1},
                              True, _SLOTS, id="N6-W1-beside-drawing-m2"))
    # every node at W = 1, so no node draws; at the default rule the dense
    # form's warmup ends inside its second piece of 8192 slots, and the
    # sparse form takes the warmup as one piece
    cases.append(pytest.param(3, [1, 2, 3], [1, 1, 1], 10_000, {"g": 400}, True, _SLOTS,
                              id="N3-W1-warmup10000"))
    # a sparse point with batch rows of 9,000 slots: at the default rule the
    # dense form's rows hold whole pieces of 8192 slots, and the sparse form's
    # pieces are whole rows
    cases.append(pytest.param(2, [2, 3], [1, 5], 611, {"g": 400}, True, 180_013,
                              id="N2-sparse-long-pieces"))
    for side, w in _CROSSOVER_WINDOWS.items():
        cases.append(pytest.param(2, [2, 3], w, 611, {}, True, _SLOTS,
                                  id=f"N2-{side}-crossover"))
    return cases


# windows of two nodes at n = 2 and 3 (m = 3n + 2 = 8 and 11) whose sum of
# tau, 0.143 and 0.161, lies each side of sim._SPARSE_BELOW
_CROSSOVER_WINDOWS = {"below": [10, 6], "above": [6, 4]}


def test_crossover_cases_straddle_the_form_switch():
    below, above = (float(np.sum(tau_from_window(np.array(w, dtype=float),
                                                 np.array([8, 11]))))
                    for w in _CROSSOVER_WINDOWS.values())
    assert sim_mod._sparse(below) and not sim_mod._sparse(above)


def _assert_same_stats(a, b):
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if name == "wall_time_s":
            continue
        if name == "ci_halfwidth":
            assert va.keys() == vb.keys()
            for key in va:
                assert np.array_equal(va[key], vb[key]), key
        elif name.startswith("occupancy_"):
            assert (va is None) == (vb is None), name
            for ca, cb in zip(va or [], vb or []):
                assert np.array_equal(ca, cb), name
        else:
            assert np.array_equal(va, vb), name


# Forced piece sizes of the two-pass core, each with the measured slots of
# its runs (one slot per piece costs a numpy pass per slot, so it runs
# shorter), then the default rule (None) at the case's own length.
_PIECES = ((1, 201), (7, 1_207), (64, _SLOTS), (None, None))
# The two forms of pass 2, each forced through the crossover constant: the
# dense form accounts every slot, the sparse form only the busy ones.
_FORMS = {"dense": 0.0, "sparse": math.inf}
# Backoffs a node draws at a time, each with the form it runs under: blocks
# of 1 and 3 run out inside pieces and at their edges, and every block
# equals the oracle's scalar draws. Every block runs under the dense form,
# and the blocks of 3 and the default under the sparse form too, whose
# piece edges differ from the dense form's at the default rule.
_BLOCK_FORMS = ((1, "dense"), (3, "dense"), (sim_mod._BACKOFF_BLOCK, "dense"),
                (3, "sparse"), (sim_mod._BACKOFF_BLOCK, "sparse"))


@pytest.mark.parametrize("nn, n, w, warmup, node_kw, occupancy, slots", _oracle_cases())
def test_event_core_matches_slot_loop(tmp_path, monkeypatch, nn, n, w, warmup,
                                      node_kw, occupancy, slots):
    scn = make_scenario([make_node(n_max=6, **node_kw) for _ in range(nn)])
    want = {}
    spans = {form: [] for form in _FORMS}
    rule = sim_mod._piece_slots
    for (piece, measured), (block, form) in itertools.product(_PIECES, _BLOCK_FORMS):
        monkeypatch.setattr(sim_mod, "_BACKOFF_BLOCK", block)
        monkeypatch.setattr(sim_mod, "_SPARSE_BELOW", _FORMS[form])
        if piece is None:
            measured = slots
            monkeypatch.setattr(sim_mod, "_piece_slots",
                                lambda rate, got=spans[form]: got.append(rule(rate)) or got[-1])
        else:
            monkeypatch.setattr(sim_mod, "_piece_slots", lambda rate, piece=piece: piece)
        for seed, traced in ((3, False), (4, True)):
            # not a multiple of the 20 batches
            common = dict(n_slots=warmup + measured, seed=seed, warmup_slots=warmup,
                          track_occupancy=occupancy)
            path = {k: str(tmp_path / f"{k}.csv") if traced else None
                    for k in ("event", "slot")}
            got = simulate(scn, n, w, SimConfig(trace_path=path["event"], **common))
            key = (measured, seed)
            if key not in want:
                want[key] = simulate_slot_loop(
                    scn, n, w, SimConfig(trace_path=path["slot"], **common))
                if traced:
                    want[key, "trace"] = (tmp_path / "slot.csv").read_bytes()
            _assert_same_stats(got, want[key])
            if traced:
                assert (tmp_path / "event.csv").read_bytes() == want[key, "trace"]
    if slots > _SLOTS:   # rows hold whole long pieces, or are whole pieces
        assert 4096 < spans["dense"][0] < slots // 20 <= spans["sparse"][0]


def test_event_slot_telemetry():
    # one node, W = 1, m = 14: a wake-up and a transmission every 15 slots
    scn = make_scenario([make_node()])
    cfg = SimConfig(n_slots=30_000, seed=2, warmup_slots=0)
    st = simulate(scn, [4], [1], cfg)
    assert st.event_slots == simulate_slot_loop(scn, [4], [1], cfg).event_slots
    assert st.event_slots == pytest.approx(2 * 30_000 / 15, abs=2)
    assert st.wall_time_s > 0.0
    dense = simulate(make_scenario([make_node() for _ in range(6)]),
                     [1] * 6, [4] * 6, cfg)
    assert st.event_slots < dense.event_slots <= cfg.n_slots
