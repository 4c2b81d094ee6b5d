"""Slot-level Monte Carlo simulator of the duty-cycled CSMA/CA model.

This is the independent oracle for the analytical model: nodes step through
the same (A, k)/(S, k) chain the model analyzes, but attempts collide for
real instead of being assumed independent across nodes. One MAC slot is one
step for every node; sleep counters decrement once per slot regardless of the
slot's wall-clock duration (the model's decoupling of chain steps from wall
time, kept deliberately). A node whose fresh backoff draw is 0 transmits in
the following slot. Collided packets are dropped and the node sleeps; there
are no retransmissions.

Because every counter steps once per slot, the slot where a node's counter
reads 0 (where it wakes and draws a backoff, or transmits) is known as soon
as the counter is set. The core is an event loop over those slots: the
slots between them are idle and are accounted a run at a time.
"""

from __future__ import annotations

import contextlib
import heapq
import numbers
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .params import InvalidParameterError, Scenario, require
from .timing import frame_times
from . import energy as energy_model
from . import mac, model

_N_BATCHES = 20
_T_CRIT_19 = 2.093024054408263  # two-sided 95% Student t, 19 dof
_DRAW_BLOCK = 1024              # raw 64-bit outputs fetched per refill
_TRACE_CHUNK = 4096             # idle trace lines joined per write
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    n_slots: int = 1_000_000
    seed: int = 1
    warmup_slots: int = 10_000
    track_occupancy: bool = False
    trace_path: str | None = None   # per-slot CSV: slot,type,transmitters

    def __post_init__(self):
        for name in ("n_slots", "warmup_slots"):
            v = getattr(self, name)
            require(isinstance(v, numbers.Integral) and not isinstance(v, bool),
                    f"{name} must be an integer, got {v!r}")
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
    event_slots: int = 0          # slots where some node is due, warmup included
    wall_time_s: float = 0.0      # host seconds spent in `simulate`


def bounded_draws(rng: np.random.Generator):
    """Return `draw(w)`: an integer uniform on [0, w), `rng.integers(0, w)`'s value.

    Successive draws equal what successive `rng.integers(0, w)` calls on the
    same generator return. numpy reduces a bound w <= 2**32 with Lemire's
    multiply-and-reject on 32-bit values (Lemire, ACM TOMACS 2019); PCG64
    serves a 32-bit value as the low half of a fresh 64-bit output and keeps
    the high half for the next one. A larger bound takes whole 64-bit outputs
    and leaves a kept half in place, and w == 1 takes nothing. `draw` replays
    this on blocks of raw outputs (`random_raw`), at a fraction of the cost
    of a Generator call. The generator runs ahead of the draws, so it must
    not be used for anything else afterwards.
    """
    raw = rng.bit_generator.random_raw
    buf: list[int] = []   # halves of raw outputs: low, high, low, high, ...
    pos = 0               # next half; odd while an output's high half is kept

    def fill():
        nonlocal buf, pos
        words = raw(_DRAW_BLOCK)
        halves = np.empty(2 * _DRAW_BLOCK, dtype=np.uint64)
        halves[0::2] = words & _MASK32
        halves[1::2] = words >> 32
        # a kept high half stays next, after its output's (used) low half
        buf = buf[pos - (pos & 1):] + halves.tolist()
        pos &= 1

    def next64():
        nonlocal pos
        if pos + (pos & 1) + 2 > len(buf):
            fill()
        j = pos + (pos & 1)
        word = buf[j] | buf[j + 1] << 32
        if pos & 1:
            buf[j + 1] = buf[pos]   # the kept half moves past the used output
        pos += 2
        return word

    def draw(w: int) -> int:
        nonlocal pos
        if w == 1:
            return 0
        if w > 1 << 32:
            x = next64() * w
            if x & _MASK64 < w:
                t = ((1 << 64) - w) % w
                while x & _MASK64 < t:
                    x = next64() * w
            return x >> 64
        if pos == len(buf):
            fill()
        x = buf[pos] * w
        pos += 1
        if x & _MASK32 < w:
            t = ((1 << 32) - w) % w
            while x & _MASK32 < t:
                if pos == len(buf):
                    fill()
                x = buf[pos] * w
                pos += 1
        return x >> 32

    return draw


def simulate(scenario: Scenario, n, w, cfg: SimConfig) -> SimStats:
    """Run the slot-level simulation at an integer operating point.

    `n` and `w` are per-node integers (samples per cycle, backoff window);
    the sleep length is m = n*h + g. Deterministic for a given seed.
    """
    t_start = time.perf_counter()
    nn = scenario.n_nodes
    n = [int(v) for v in np.asarray(n)]
    w = [int(v) for v in np.asarray(w)]
    require(len(n) == nn and len(w) == nn, "n and w must have one entry per node")
    for i in range(nn):
        if w[i] < 1:
            raise InvalidParameterError(f"node {i}: window must be an integer >= 1")
        if n[i] < 1:
            raise InvalidParameterError(f"node {i}: samples must be an integer >= 1")
    # per-node constants of the run, as Python floats for the event loop
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

    total = cfg.n_slots
    warmup = cfg.warmup_slots
    meas = total - warmup
    # accounting rows: row 0 takes the warmup slots and is dropped, row b + 1
    # is batch b; row r covers the slots edges[r] .. edges[r + 1] - 1
    edges = [0] + [warmup + (meas * b) // _N_BATCHES for b in range(_N_BATCHES + 1)]
    rows = _N_BATCHES + 1
    r_time = [0.0] * rows
    r_idle = [0] * rows
    r_slots = [0] * rows
    r_col = [0] * rows
    r_bits = [[0.0] * nn for _ in range(rows)]
    r_air = [[0.0] * nn for _ in range(rows)]
    r_succ = [[0] * nn for _ in range(rows)]
    r_energy = [[0.0] * nn for _ in range(rows)]
    r_cycles = [[0] * nn for _ in range(rows)]
    e_backoff_sum = [0.0] * nn
    e_data_sum = [0.0] * nn

    occ_a = [np.zeros(w[i], dtype=np.int64) for i in range(nn)] if cfg.track_occupancy else None
    occ_s = [np.zeros(m[i], dtype=np.int64) for i in range(nn)] if cfg.track_occupancy else None

    def occupy(i, was_active, start, due):
        """Count node i's measured slots start..min(due, total-1) of one phase,
        in which its counter reads due - slot."""
        lo = max(start, warmup)
        hi = min(due, total - 1)
        if lo <= hi:
            (occ_a if was_active else occ_s)[i][due - hi:due - lo + 1] += 1

    # A node is due in the slot where its counter reads 0: asleep, it wakes
    # there and draws its backoff; in backoff, it transmits there. The heap
    # holds (due, node) packed as due * nn + node, so that nodes due in the
    # same slot pop in node order: the order of the backoff draws.
    draw = bounded_draws(np.random.default_rng(cfg.seed))
    # random sleep phase avoids synchronized starts; warmup does the rest
    heap = [draw(m[i]) * nn + i for i in range(nn)]
    heapq.heapify(heap)
    active = [False] * nn
    n_active = 0
    drawn_backoff = [0] * nn
    phase_start = [0] * nn
    event_slots = 0

    with (open(cfg.trace_path, "w") if cfg.trace_path
          else contextlib.nullcontext()) as trace:
        if trace:
            trace.write("slot,type,transmitters\n")

        def idle_run(a, b, n_active):
            """Account the slots a .. b-1, in which no node is due."""
            if trace:
                for c in range(a, b, _TRACE_CHUNK):
                    trace.write("".join(f"{s},idle,\n"
                                        for s in range(c, min(c + _TRACE_CHUNK, b))))
            while a < b:
                r = bisect_right(edges, a, 0, rows) - 1
                hi = min(edges[r + 1], b)
                if r:
                    k = hi - a
                    r_idle[r] += k
                    r_slots[r] += k
                    if n_active:
                        # sigma once per slot here, k * sigma at once while all
                        # sleep: the sums of the original slot loop
                        # (tests/slot_loop_oracle.py), so a seed's results keep
                        # their bits, traced or not
                        t = r_time[r]
                        for _ in range(k):
                            t += sigma
                        r_time[r] = t
                    else:
                        r_time[r] += k * sigma
                a = hi

        push, pop = heapq.heappush, heapq.heappop
        slot = 0        # every slot before this one is accounted
        next_edge = 0   # first slot past the current row; 0 finds row 0 or 1
        while True:
            s = heap[0] // nn
            if s >= total:
                break
            if s > slot:
                idle_run(slot, s, n_active)
            if s >= next_edge:
                row = bisect_right(edges, s, 0, rows) - 1
                next_edge = edges[row + 1]
                air, energy, n_cycles = r_air[row], r_energy[row], r_cycles[row]
            event_slots += 1

            # the nodes due now, each list in node order
            base = s * nn
            lim = base + nn
            transmitters = []
            waking = []
            while heap and heap[0] < lim:
                i = pop(heap) - base
                (transmitters if active[i] else waking).append(i)
            n_tx = len(transmitters)
            if n_tx == 0:
                dur = sigma
                r_idle[row] += 1
            elif n_tx == 1:
                i = transmitters[0]
                dur = t_succ[i]
                r_succ[row][i] += 1
                r_bits[row][i] += bits[i]
                air[i] += dur
            else:
                dur = t_col
                r_col[row] += 1
                for i in transmitters:
                    air[i] += dur
            r_slots[row] += 1
            r_time[row] += dur
            if trace:
                kind = ("idle", "success", "collision")[min(n_tx, 2)]
                trace.write(f"{s},{kind},{'|'.join(map(str, transmitters))}\n")

            # transmitters go to sleep, sleeping nodes wake and draw a backoff
            for i in transmitters:
                e_bo = difs_pl[i] + drawn_backoff[i] * sigma_pl[i]
                e_dat = eps_succ[i] if n_tx == 1 else eps_col[i]
                energy[i] += cycle_const[i] + e_bo + e_dat
                n_cycles[i] += 1
                if row:
                    e_backoff_sum[i] += e_bo
                    e_data_sum[i] += e_dat
                active[i] = False
                if occ_a is not None:
                    occupy(i, True, phase_start[i], s)
                    phase_start[i] = s + 1
                push(heap, (s + m[i]) * nn + i)
            for i in waking:
                drawn_backoff[i] = d = draw(w[i])
                active[i] = True
                if occ_a is not None:
                    occupy(i, False, phase_start[i], s)
                    phase_start[i] = s + 1
                push(heap, (s + 1 + d) * nn + i)
            n_active += len(waking) - n_tx
            slot = s + 1

        if slot < total:
            idle_run(slot, total, n_active)
    if occ_a is not None:
        for key in heap:
            due_at, i = divmod(key, nn)
            occupy(i, active[i], phase_start[i], due_at)

    b_bits = np.array(r_bits[1:])
    b_air = np.array(r_air[1:])
    b_time = np.array(r_time[1:])
    b_idle = np.array(r_idle[1:], dtype=float)
    b_succ = np.array(r_succ[1:], dtype=float)
    b_col = np.array(r_col[1:], dtype=float)
    b_slots = np.array(r_slots[1:], dtype=float)
    b_energy = np.array(r_energy[1:])
    b_cycles = np.array(r_cycles[1:], dtype=float)

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
        energy_backoff=np.array(e_backoff_sum) / safe_cycles,
        energy_data=np.array(e_data_sum) / safe_cycles,
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
        event_slots=event_slots,
        wall_time_s=time.perf_counter() - t_start,
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
        const = energy_model.fixed_energy(p, node.power, node.duty, n[i])[2]
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
