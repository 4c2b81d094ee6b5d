"""The slot-by-slot simulator loop, kept as a reference for `wpcsma.sim`.

This is the simulator's original core: one Python iteration per MAC slot
with O(N) work in each, skipping ahead in bulk only while every node sleeps.
A traced run skips ahead the same way and writes an idle line per skipped
slot, so that tracing leaves the sums, and so the results, as they are.
`wpcsma.sim.simulate` replaces it with a two-pass core (numpy over each
node's wake-ups, then numpy over pieces of slots) that must give the same
`SimStats` bit for bit, and the same trace file byte for byte, for every
seed; `tests/test_sim.py` holds the two against each other. Each node draws
from a stream of its own, spawned from the seed, one scalar
`integers` call per draw: its sleep phase, then its backoffs in turn. The
core draws its backoffs a block at a time from the same streams, so the two
agree only if block draws equal scalar ones. The other addition to the
original loop is `event_slots`, the count of slots in which some node's
counter reads 0 (a node wakes or transmits there).
"""

from __future__ import annotations

import contextlib

import numpy as np

from wpcsma import energy as energy_model
from wpcsma import model
from wpcsma.params import InvalidParameterError, require
from wpcsma.sim import SimStats

_N_BATCHES = 20
_T_CRIT_19 = 2.093024054408263  # two-sided 95% Student t, 19 dof


def simulate_slot_loop(scenario, n, w, cfg) -> SimStats:
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
    # per-node constants of the run, as Python floats for the slot loop
    p = scenario.protocol
    md = model.build(scenario)
    n_arr = np.array(n)
    m = [int(v) for v in n_arr * md.duty.h + md.duty.g]
    t_succ = md.times.success(n_arr).tolist()
    bits = (n_arr * md.payload).tolist()
    eps_succ = energy_model.success_transmit_energy(p, md.power, md.times, n_arr).tolist()
    eps_col = energy_model.collision_transmit_energy(p, md.power, md.times).tolist()
    sigma_pl = (p.sigma * md.power.p_listen).tolist()
    difs_pl = (p.t_difs * md.power.p_listen).tolist()
    cycle_const = energy_model.fixed_energy(p, md.power, md.duty, n_arr)[2].tolist()
    t_col = md.t_col
    sigma = p.sigma

    rngs = [np.random.Generator(np.random.PCG64(c))
            for c in np.random.SeedSequence(cfg.seed).spawn(nn)]
    # random sleep phase avoids synchronized starts; warmup does the rest
    active = [False] * nn
    counter = [int(rngs[i].integers(0, m[i])) for i in range(nn)]
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

    event_slots = 0
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
            if not any(active):
                min_c = min(counter)
                if min_c >= 1:
                    stop = warmup if not measuring else min(batch_edges[batch + 1], total)
                    delta = min(min_c, stop - slot)
                    if delta >= 1:
                        if trace:
                            trace.write("".join(f"{s},idle,\n"
                                                for s in range(slot, slot + delta)))
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

            event_slots += 0 in counter
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
                        drawn_backoff[i] = int(rngs[i].integers(0, w[i]))
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
        rng_name="PCG64 per node (SeedSequence.spawn)",
        seed=cfg.seed,
        event_slots=event_slots,
    )
    return stats
