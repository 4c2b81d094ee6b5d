"""Slot-level Monte Carlo simulator of the duty-cycled CSMA/CA model.

This is the independent oracle for the analytical model: nodes step through
the same (A, k)/(S, k) chain the model analyzes, but attempts collide for
real instead of being assumed independent across nodes. One MAC slot is one
step for every node; sleep counters decrement once per slot regardless of the
slot's wall-clock duration (the model's decoupling of chain steps from wall
time, kept deliberately). A node whose fresh backoff draw is 0 transmits in
the following slot. Collided packets are dropped and the node sleeps; there
are no retransmissions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .params import InvalidParameterError, Scenario, require
from .timing import frame_times
from . import energy as energy_model
from . import mac

_N_BATCHES = 20
_T_CRIT_19 = 2.093024054408263  # two-sided 95% Student t, 19 dof


@dataclass(frozen=True)
class SimConfig:
    n_slots: int = 1_000_000
    seed: int = 1
    warmup_slots: int = 10_000
    track_occupancy: bool = False
    trace_path: str | None = None   # per-slot CSV: slot,type,transmitters

    def __post_init__(self):
        require(self.warmup_slots >= 0, "warmup_slots must be >= 0")
        require(self.n_slots > self.warmup_slots,
                "n_slots must exceed warmup_slots")


@dataclass
class SimStats:
    """Empirical statistics over the post-warmup MAC slots."""

    throughput: np.ndarray        # bits/s per node
    airtime: np.ndarray           # fraction per node (collisions overlap)
    p_idle: float
    p_succ: np.ndarray            # per node
    p_col: float
    energy_per_cycle: np.ndarray  # J per node, mean over completed cycles
    energy_backoff: np.ndarray    # J per node, mean backoff component
    energy_data: np.ndarray       # J per node, mean exchange component
    total_time: float             # s of wall clock simulated (post warmup)
    delivered_bits: np.ndarray
    slots: int
    cycles: np.ndarray            # completed (transmitted) cycles per node
    ci_halfwidth: dict = field(default_factory=dict)
    occupancy_active: list | None = None   # per node: counts over (A, k)
    occupancy_sleep: list | None = None    # per node: counts over (S, k)
    rng_name: str = "PCG64"
    seed: int = 0


def simulate(scenario: Scenario, n, w, cfg: SimConfig) -> SimStats:
    """Run the slot-level simulation at an integer operating point.

    `n` and `w` are per-node integers (samples per cycle, backoff window);
    the sleep length is m = n*h + g. Deterministic for a given seed.
    """
    nn = scenario.n_nodes
    n = [int(v) for v in np.asarray(n)]
    w = [int(v) for v in np.asarray(w)]
    require(len(n) == nn and len(w) == nn, "n and w must have one entry per node")
    for i in range(nn):
        if w[i] < 1:
            raise InvalidParameterError(f"node {i}: window must be an integer >= 1")
        if n[i] < 1:
            raise InvalidParameterError(f"node {i}: samples must be an integer >= 1")
    p = scenario.protocol
    m = [int(node.duty.sleep_slots(ni)) for node, ni in zip(scenario.nodes, n)]

    # per-node constants of the run
    t_succ, bits, eps_succ, eps_col = [], [], [], []
    sigma_pl, difs_pl, cycle_const = [], [], []
    for i, node in enumerate(scenario.nodes):
        times = frame_times(p, node.link)
        t_succ.append(times.success(n[i]))
        bits.append(n[i] * node.link.l)
        eps_succ.append(energy_model.success_transmit_energy(p, node.power, times, n[i]))
        eps_col.append(energy_model.collision_transmit_energy(p, node.power, times))
        sigma_pl.append(p.sigma * node.power.p_listen)
        difs_pl.append(p.t_difs * node.power.p_listen)
        cycle_const.append(n[i] * node.power.p_acq * p.sigma
                           + n[i] * node.power.p_proc * node.duty.g * p.sigma
                           + node.power.e_bg)
    t_col = frame_times(p, scenario.nodes[0].link).collision
    sigma = p.sigma

    rng = np.random.default_rng(cfg.seed)
    # random sleep phase avoids synchronized starts; warmup does the rest
    active = [False] * nn
    counter = [int(rng.integers(0, m[i])) for i in range(nn)]
    drawn_backoff = [0] * nn

    total = cfg.n_slots
    warmup = cfg.warmup_slots
    meas = total - warmup
    batch_edges = [warmup + (meas * b) // _N_BATCHES for b in range(_N_BATCHES + 1)]

    b_bits = np.zeros((_N_BATCHES, nn))
    b_air = np.zeros((_N_BATCHES, nn))
    b_time = np.zeros(_N_BATCHES)
    b_idle = np.zeros(_N_BATCHES)
    b_succ = np.zeros((_N_BATCHES, nn))
    b_col = np.zeros(_N_BATCHES)
    b_slots = np.zeros(_N_BATCHES)
    b_energy = np.zeros((_N_BATCHES, nn))
    b_cycles = np.zeros((_N_BATCHES, nn))
    e_backoff_sum = np.zeros(nn)
    e_data_sum = np.zeros(nn)

    occ_a = [np.zeros(w[i], dtype=np.int64) for i in range(nn)] if cfg.track_occupancy else None
    occ_s = [np.zeros(m[i], dtype=np.int64) for i in range(nn)] if cfg.track_occupancy else None

    with (open(cfg.trace_path, "w") if cfg.trace_path
          else contextlib.nullcontext()) as trace:
        if trace:
            trace.write("slot,type,transmitters\n")

        slot = 0
        batch = 0
        while slot < total:
            measuring = slot >= warmup
            if measuring:
                while batch + 1 < _N_BATCHES and slot >= batch_edges[batch + 1]:
                    batch += 1

            # bulk-advance runs where every node sleeps with counter >= 1:
            # guaranteed idle slots with no draws and no wake-ups
            if trace is None and not any(active):
                min_c = min(counter)
                if min_c >= 1:
                    stop = warmup if not measuring else min(batch_edges[batch + 1], total)
                    delta = min(min_c, stop - slot)
                    if delta >= 1:
                        if measuring:
                            b_idle[batch] += delta
                            b_slots[batch] += delta
                            b_time[batch] += delta * sigma
                            if cfg.track_occupancy:
                                for i in range(nn):
                                    c = counter[i]
                                    occ_s[i][c - delta + 1:c + 1] += 1
                        for i in range(nn):
                            counter[i] -= delta
                        slot += delta
                        continue

            transmitters = [i for i in range(nn) if active[i] and counter[i] == 0]
            if measuring and cfg.track_occupancy:
                for i in range(nn):
                    if active[i]:
                        occ_a[i][counter[i]] += 1
                    else:
                        occ_s[i][counter[i]] += 1

            if trace:
                kind = ("idle", "success", "collision")[min(len(transmitters), 2)]
                trace.write(f"{slot},{kind},{'|'.join(map(str, transmitters))}\n")

            if len(transmitters) == 0:
                dur = sigma
                if measuring:
                    b_idle[batch] += 1
            elif len(transmitters) == 1:
                i = transmitters[0]
                dur = t_succ[i]
                if measuring:
                    b_succ[batch, i] += 1
                    b_bits[batch, i] += bits[i]
                    b_air[batch, i] += dur
            else:
                dur = t_col
                if measuring:
                    b_col[batch] += 1
                    for i in transmitters:
                        b_air[batch, i] += dur

            if measuring:
                b_slots[batch] += 1
                b_time[batch] += dur

            # state updates; transmitters sleep, others step their counters
            for i in range(nn):
                if active[i]:
                    if counter[i] == 0:
                        success = len(transmitters) == 1
                        if measuring:
                            e_bo = difs_pl[i] + drawn_backoff[i] * sigma_pl[i]
                            e_dat = eps_succ[i] if success else eps_col[i]
                            b_energy[batch, i] += cycle_const[i] + e_bo + e_dat
                            b_cycles[batch, i] += 1
                            e_backoff_sum[i] += e_bo
                            e_data_sum[i] += e_dat
                        active[i] = False
                        counter[i] = m[i] - 1
                    else:
                        counter[i] -= 1
                else:
                    if counter[i] == 0:
                        active[i] = True
                        drawn_backoff[i] = int(rng.integers(0, w[i]))
                        counter[i] = drawn_backoff[i]
                    else:
                        counter[i] -= 1
            slot += 1

    time_total = float(b_time.sum())
    slots_total = float(b_slots.sum())
    cycles = b_cycles.sum(axis=0)
    energy_sum = b_energy.sum(axis=0)
    safe_cycles = np.maximum(cycles, 1.0)

    def _ratio_ci(num, den):
        # batch-means CI of a ratio metric: per-batch ratios, t-interval
        vals = num / np.maximum(den, 1e-300)
        return _T_CRIT_19 * np.std(vals, axis=0, ddof=1) / np.sqrt(_N_BATCHES)

    stats = SimStats(
        throughput=b_bits.sum(axis=0) / time_total,
        airtime=b_air.sum(axis=0) / time_total,
        p_idle=float(b_idle.sum() / slots_total),
        p_succ=b_succ.sum(axis=0) / slots_total,
        p_col=float(b_col.sum() / slots_total),
        energy_per_cycle=energy_sum / safe_cycles,
        energy_backoff=e_backoff_sum / safe_cycles,
        energy_data=e_data_sum / safe_cycles,
        total_time=time_total,
        delivered_bits=b_bits.sum(axis=0),
        slots=int(slots_total),
        cycles=cycles,
        ci_halfwidth={
            "throughput": _ratio_ci(b_bits, b_time[:, None]),
            "airtime": _ratio_ci(b_air, b_time[:, None]),
            "p_idle": float(_ratio_ci(b_idle, b_slots)),
            "p_succ": _ratio_ci(b_succ, b_slots[:, None]),
            "p_col": float(_ratio_ci(b_col, b_slots)),
            "energy_per_cycle": _ratio_ci(b_energy, np.maximum(b_cycles, 1.0)),
        },
        occupancy_active=occ_a,
        occupancy_sleep=occ_s,
        rng_name="PCG64",
        seed=cfg.seed,
    )
    return stats


@dataclass
class EnergyCheckRow:
    node: int
    component: str
    analytical: float
    simulated: float
    rel_error: float
    asserted: bool   # independence-approximation components are reported only


def empirical_energy_check(scenario: Scenario, n, w, cfg: SimConfig,
                           stats: SimStats | None = None) -> list[EnergyCheckRow]:
    """Compare simulated per-cycle energy components to the analytical model.

    Acquisition/processing/background are deterministic per cycle and must
    match exactly; expected backoff listening is a pure uniform-draw mean;
    the exchange component inherits the analytical independence assumption
    across nodes, so its gap is reported, not asserted.
    """
    if stats is None:
        stats = simulate(scenario, n, w, cfg)
    p = scenario.protocol
    rows = []
    n = [int(v) for v in np.asarray(n)]
    w = [int(v) for v in np.asarray(w)]
    m = [int(node.duty.sleep_slots(ni)) for node, ni in zip(scenario.nodes, n)]
    taus = np.array([mac.tau_from_window(w[i], m[i]) for i in range(scenario.n_nodes)])
    for i, node in enumerate(scenario.nodes):
        times = frame_times(p, node.link)
        const = (n[i] * node.power.p_acq * p.sigma
                 + n[i] * node.power.p_proc * node.duty.g * p.sigma
                 + node.power.e_bg)
        e_bo = energy_model.backoff_energy(p, node.power, w[i])
        e_dat = energy_model.data_energy(p, node.power, times, n[i],
                                         np.delete(taus, i))
        sim_const = float(stats.energy_per_cycle[i] - stats.energy_backoff[i]
                          - stats.energy_data[i])
        for name, ana, simv, hard in (
                ("acq+proc+bg", const, sim_const, True),
                ("backoff", e_bo, float(stats.energy_backoff[i]), False),
                ("data", e_dat, float(stats.energy_data[i]), False),
                ("total", const + e_bo + e_dat,
                 float(stats.energy_per_cycle[i]), False)):
            rel = abs(simv - ana) / max(abs(ana), 1e-300)
            rows.append(EnergyCheckRow(node=i, component=name, analytical=ana,
                                       simulated=simv, rel_error=rel,
                                       asserted=hard))
    return rows
