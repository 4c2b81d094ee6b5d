"""Slot-level Monte Carlo simulator of the duty-cycled CSMA/CA model.

An independent implementation of the analytical model: nodes step through
the same (A, k)/(S, k) chain the model analyzes, and attempts collide for
real. One MAC slot is one step for every node; sleep counters decrement once
per slot regardless of the slot's wall-clock duration (the model's
decoupling of chain steps from wall time, kept deliberately). A node whose
fresh backoff draw is 0 transmits in the following slot. Collided packets
are dropped and the node sleeps; there are no retransmissions. So the nodes
are independent chains, exactly as the model assumes: agreement with the
model checks the code of both, not the decoupling approximation.

Because every counter steps once per slot, a node's schedule does not depend
on the other nodes: it wakes where its sleep counter reads 0, draws a backoff
d, transmits d + 1 slots later and wakes again m slots after that. Each node
draws from a random stream of its own, so nothing couples the nodes, and the
core runs in two passes over each piece of slots, sized to hold about
`_PIECE_WAKE_UPS` expected wake-ups: numpy lays out each node's wake slots
from blocks of its backoff draws, then numpy arrays over the piece's slots
give the slot kinds, the counters and the float sums, each sum added in the
order of the original slot loop.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .params import InvalidParameterError, Scenario, require
from .timing import frame_times
from . import energy as energy_model
from . import mac, model

_N_BATCHES = 20
_T_CRIT_19 = 2.093024054408263  # two-sided 95% Student t, 19 dof
_BACKOFF_BLOCK = 1024           # backoffs a node draws at a time
_PIECE_WAKE_UPS = 4096          # expected wake-ups accounted per numpy pass


@dataclass(frozen=True)
class SimConfig:
    n_slots: int = 1_000_000
    seed: int = 1
    warmup_slots: int = 10_000
    track_occupancy: bool = False
    trace_path: str | None = None   # per-slot CSV: slot,type,transmitters

    def __post_init__(self):
        for name in ("n_slots", "warmup_slots", "seed"):
            v = getattr(self, name)
            require(isinstance(v, numbers.Integral) and not isinstance(v, bool),
                    f"{name} must be an integer, got {v!r}")
        require(self.seed >= 0, "seed must be >= 0")
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
    rng_name: str = "PCG64 per node (SeedSequence.spawn)"
    seed: int = 0
    event_slots: int = 0          # slots where some node is due, warmup included
    wall_time_s: float = 0.0      # host seconds spent in `simulate`


def _node_integers(name: str, values, nn: int) -> list[int]:
    """One Python int >= 1 per node; bools and non-integers are refused."""
    vals = np.asarray(values, dtype=object)
    require(vals.shape == (nn,), "n and w must have one entry per node")
    for i, v in enumerate(vals):
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise InvalidParameterError(
                f"node {i}: {name} must be an integer >= 1, got {v!r}")
    return [int(v) for v in vals]


def _add_time(terms, busy, run: int, sigma: float, row_goes_on: bool):
    """A row's time after a piece, and the length of an all-asleep run left
    open at the piece's end.

    `terms` holds the row's time so far and then each slot's term (an event
    slot's duration, sigma for an idle one), added strictly left to right.
    `busy` holds True at both ends and between them, per slot, whether it is
    not part of a run in which every node sleeps: a run of k such slots adds
    k * sigma once instead. `run` is the length of such a run that reached
    the piece's start; a run that reaches the piece's end is left open while
    the row goes on. Both arrays are overwritten.
    """
    flips = (busy[1:] != busy[:-1]).nonzero()[0]
    starts, stops = flips[0::2], flips[1::2]   # slot j is busy[j + 1], terms[j + 1]
    k = stops - starts
    if run:
        if starts.size and starts[0] == 0:
            k[0] += run
        else:
            terms[0] += run * sigma
    run = 0
    if row_goes_on and stops.size and stops[-1] == len(terms) - 1:
        run = int(k[-1])
        starts, k = starts[:-1], k[:-1]
    keep = busy[:-1]   # the row's time, the busy slots and each run's first
    keep[starts + 1] = True
    terms[starts + 1] = k * sigma
    return float(np.add.accumulate(terms[keep])[-1]), run


def _trace_text(p0: int, p1: int, x, ti) -> str:
    """Trace lines of the slots p0 .. p1-1, whose transmissions are made by
    the nodes `ti` at the slot offsets `x`."""
    lines = [f"{s},idle,\n" for s in range(p0, p1)]
    by_slot: dict[int, list[int]] = {}
    order = np.lexsort((ti, x))   # by slot, then node
    for off, i in zip(x[order].tolist(), ti[order].tolist()):
        by_slot.setdefault(off, []).append(i)
    for off, who in by_slot.items():
        kind = "success" if len(who) == 1 else "collision"
        lines[off] = f"{p0 + off},{kind},{'|'.join(map(str, who))}\n"
    return "".join(lines)


def _piece_slots(wake_rate: float) -> int:
    """Slots per piece at `wake_rate` expected wake-ups per slot: room for
    `_PIECE_WAKE_UPS` of them, but at most twice that many slots, which
    bounds the size of a piece's per-slot arrays."""
    return min(math.ceil(_PIECE_WAKE_UPS / wake_rate), 2 * _PIECE_WAKE_UPS)


def _next_wakes(gen: np.random.Generator, wake: int, w: int, m: int, d_max: int):
    """The `_BACKOFF_BLOCK` wake slots that follow a node's wake-up at `wake`.

    A node that wakes at s with backoff d wakes again at s + 1 + d + m. The
    backoffs, of `wake` and of each wake-up returned but the last, are the
    node's next draws from `gen`, `integers(0, w)` in turn, clipped at
    `d_max` so that no window overflows int64.
    """
    d = gen.integers(0, w, size=_BACKOFF_BLOCK)
    np.minimum(d, d_max, out=d)
    d += 1 + m
    d[0] += wake
    return np.cumsum(d, out=d)


def simulate(scenario: Scenario, n, w, cfg: SimConfig) -> SimStats:
    """Run the slot-level simulation at an integer operating point.

    `n` and `w` are per-node integers (samples per cycle, backoff window);
    the sleep length is m = n*h + g. Deterministic for a given seed.
    """
    t_start = time.perf_counter()
    nn = scenario.n_nodes
    n = _node_integers("samples", n, nn)
    w = _node_integers("window", w, nn)
    # per-node constants of the run, indexed by node
    p = scenario.protocol
    md = model.build(scenario)
    n_arr = np.array(n)
    m = [int(v) for v in n_arr * md.duty.h + md.duty.g]
    m_arr = np.array(m)
    t_succ = md.times.success(n_arr)
    bits = n_arr * md.payload
    eps_succ = energy_model.success_transmit_energy(p, md.power, md.times, n_arr)
    eps_col = energy_model.collision_transmit_energy(p, md.power, md.times)
    sigma_pl = p.sigma * md.power.p_listen
    difs_pl = p.t_difs * md.power.p_listen
    cycle_const = energy_model.fixed_energy(p, md.power, md.duty, n_arr)[2]
    t_col = md.t_col
    sigma = p.sigma

    total = cfg.n_slots
    warmup = cfg.warmup_slots
    meas = total - warmup
    # accounting rows: row 0 takes the warmup slots and is dropped, row b + 1
    # is batch b; row r covers the slots edges[r] .. edges[r + 1] - 1
    edges = [0] + [warmup + (meas * b) // _N_BATCHES for b in range(_N_BATCHES + 1)]
    rows = _N_BATCHES + 1
    r_time = np.zeros(rows)
    r_idle = np.zeros(rows, dtype=np.int64)
    r_col = np.zeros(rows, dtype=np.int64)
    r_slots = np.zeros(rows, dtype=np.int64)
    r_succ = np.zeros((rows, nn), dtype=np.int64)
    r_cycles = np.zeros((rows, nn), dtype=np.int64)
    r_sums = np.zeros((rows, 3, nn))   # per node: air time, bits, energy
    e_parts = np.zeros((2, nn))        # per node: e_backoff, e_data, rows >= 1

    occupancy = cfg.track_occupancy
    if occupancy:
        # per node, a histogram of the top counter value of its phases: a
        # phase that reads hi, hi-1, ..., 0 in measured slots adds 1 at hi,
        # and the count at k is the number of phases that reach k or above
        off_a = np.concatenate(([0], np.cumsum(w)))
        off_s = np.concatenate(([0], np.cumsum(m)))
        hist_a = np.zeros(off_a[-1], dtype=np.int64)
        hist_s = np.zeros(off_s[-1], dtype=np.int64)

    # Every node draws from a stream of its own: its sleep phase, which
    # avoids synchronized starts (the warmup does the rest), then its
    # backoffs. `pending[i]` holds node i's wake slots from the first one
    # not yet done with, the last of them with its backoff not yet drawn.
    gens = [np.random.Generator(np.random.PCG64(c))
            for c in np.random.SeedSequence(cfg.seed).spawn(nn)]
    pending = [np.array([gen.integers(0, m_i)]) for gen, m_i in zip(gens, m)]
    # a backoff of `total` slots or more ends past the run, whatever its
    # length; with occupancy a backoff open at the end needs its exact
    # length, and the histograms above already bound w
    d_max = max(w) if occupancy else total
    span = _piece_slots(float(np.sum(mac.tau_from_window(np.array(w, dtype=float), m_arr))))
    n_backoff = 0   # nodes in backoff as the piece starts
    run = 0         # an all-asleep run up to the piece's start, not yet summed
    event_slots = 0

    def pass1(p1: int):
        """The wake-ups below p1 not yet done with, node by node and each
        node's in slot order: wake slots, nodes and transmission slots,
        clipped at `total`. A wake-up that transmits at p1 or later stays
        pending for the next piece."""
        wakes, nexts, counts = [], [], []
        for i, (gen, w_i, m_i) in enumerate(zip(gens, w, m)):
            wk = pending[i]
            if wk[-1] < p1:
                blocks = [wk]
                while blocks[-1][-1] < p1:
                    blocks.append(_next_wakes(gen, int(blocks[-1][-1]), w_i, m_i, d_max))
                wk = np.concatenate(blocks)
            k = int(wk.searchsorted(p1))
            wakes.append(wk[:k])
            nexts.append(wk[1:k + 1])   # a transmission is the next wake-up minus m
            counts.append(k)
            pending[i] = wk[k - 1:] if k and wk[k] - m_i >= p1 else wk[k:]
        node = np.repeat(np.arange(nn), counts)
        return (np.concatenate(wakes), node,
                np.minimum(np.concatenate(nexts) - m_arr[node], total))

    def pass2(r: int, p0: int, p1: int) -> None:
        """Account the slots p0 .. p1-1 of row r, with their wake-ups from
        pass 1.

        Its arrays go when it returns, so that one piece's arrays are alive
        at a time.
        """
        nonlocal n_backoff, run, event_slots
        size = p1 - p0
        s, node, t = pass1(p1)
        fresh = s >= p0
        woke = s[fresh]
        if occupancy:
            fi, ft = node[fresh], t[fresh]
            hit = woke >= warmup
            np.add.at(hist_s, off_s[fi[hit]]
                      + np.minimum(m_arr[fi[hit]] - 1, woke[hit] - warmup), 1)
            hit = (ft < total) & (ft >= warmup)
            np.add.at(hist_a, off_a[fi[hit]]
                      + np.minimum(ft[hit] - woke[hit] - 1, ft[hit] - warmup), 1)
        due = t < p1
        ti, tt = node[due], t[due]
        td = tt - s[due] - 1
        x = tt - p0
        n_tx = np.bincount(x, minlength=size)
        event = n_tx > 0
        event[woke - p0] = True
        event_slots += int(np.count_nonzero(event))
        # a node is in backoff from the slot after its wake-up up to
        # the slot before its transmission
        in_backoff = n_backoff + np.cumsum(
            np.bincount(woke + 1 - p0, minlength=size + 1)[:size] - n_tx)
        n_backoff += len(woke) - len(tt)
        del s, node, t, fresh, due, woke   # freed before the sums' arrays

        if trace:
            trace.write(_trace_text(p0, p1, x, ti))
        if r == 0:
            return

        # the row's time, in the sums of the original slot loop
        # (tests/slot_loop_oracle.py), so that a seed's results keep
        # their bits, traced or not
        succ = n_tx[x] == 1
        air = np.where(succ, t_succ[ti], t_col)
        terms = np.full(size + 1, sigma)
        terms[0] = r_time[r]
        terms[x + 1] = air
        busy = np.ones(size + 2, dtype=bool)
        np.logical_or(in_backoff, event, out=busy[1:-1])
        r_time[r], run = _add_time(terms, busy, run, sigma, p1 < edges[r + 1])
        r_idle[r] += size - np.count_nonzero(n_tx)
        r_col[r] += np.count_nonzero(n_tx > 1)
        r_slots[r] += size
        del tt, x, n_tx, event, in_backoff, terms, busy

        # per node, the transmissions' sums in slot order: ti lists each
        # node's transmissions in slot order, and np.add.at adds in index order
        r_succ[r] += np.bincount(ti[succ], minlength=nn)
        r_cycles[r] += np.bincount(ti, minlength=nn)
        e_bo = difs_pl[ti] + td * sigma_pl[ti]
        e_dat = np.where(succ, eps_succ[ti], eps_col[ti])
        for acc, col in ((r_sums[r, 0], air), (r_sums[r, 1], np.where(succ, bits[ti], 0.0)),
                         (r_sums[r, 2], cycle_const[ti] + e_bo + e_dat),
                         (e_parts[0], e_bo), (e_parts[1], e_dat)):
            np.add.at(acc, ti, col)

    with (open(cfg.trace_path, "w") if cfg.trace_path
          else contextlib.nullcontext()) as trace:
        if trace:
            trace.write("slot,type,transmitters\n")
        for r in range(rows):
            for p0 in range(edges[r], edges[r + 1], span):
                p1 = min(p0 + span, edges[r + 1])
                pass2(r, p0, p1)

    occ_a = occ_s = None
    if occupancy:
        occ_a = [np.cumsum(h[::-1])[::-1].copy() for h in np.split(hist_a, off_a[1:-1])]
        occ_s = [np.cumsum(h[::-1])[::-1].copy() for h in np.split(hist_s, off_s[1:-1])]
        # the phases still open at the end, from each node's pending wake-ups
        for i, wk in enumerate(pending):
            if wk[0] < total:   # in backoff since wk[0], to transmit at wk[1] - m
                t_last = int(wk[1]) - m[i]
                lo, hi = t_last - total + 1, t_last - max(int(wk[0]) + 1, warmup)
                target = occ_a[i]
            else:
                due = int(wk[0])
                lo, hi = due - total + 1, min(m[i] - 1, due - warmup)
                target = occ_s[i]
            if lo <= hi:
                target[lo:hi + 1] += 1

    b_air, b_bits, b_energy = (r_sums[1:, j].copy() for j in range(3))
    b_time = r_time[1:]
    b_idle = r_idle[1:].astype(float)
    b_succ = r_succ[1:].astype(float)
    b_col = r_col[1:].astype(float)
    b_slots = r_slots[1:].astype(float)
    b_cycles = r_cycles[1:].astype(float)
    e_backoff_sum, e_data_sum = e_parts

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
    n = _node_integers("samples", n, scenario.n_nodes)
    w = _node_integers("window", w, scenario.n_nodes)
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
