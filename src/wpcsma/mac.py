"""Duty-cycle MAC model: per-node Markov chain, slot probabilities, throughput.

A node cycles through m sleep slots (acquiring and processing samples while
the radio is off) and then contends with a fixed backoff window W. One MAC
slot is one step of every node's chain; its wall-clock duration depends on
whether the slot is idle, a success, or a collision. The per-slot attempt
probability is tau = 2/(W + 2m + 1); the odds form alpha = tau/(1 - tau)
linearizes the throughput denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import InvalidStateError, Scenario, require
from .timing import frame_times


# --- attempt-rate conversions (single source of truth for both the
# --- optimizer path, which works in alpha, and the simulator path, which
# --- works in integer (W, m))

def tau_from_alpha(alpha):
    """Per-slot attempt probability from its odds form."""
    return alpha / (1.0 + alpha)


def alpha_from_tau(tau):
    """Odds form of the attempt probability."""
    return tau / (1.0 - tau)


def tau_from_window(w, m):
    """Attempt probability of the stationary chain with window w, sleep m."""
    return 2.0 / (w + 2.0 * m + 1.0)


def window_from_alpha(alpha, m):
    """Backoff window reproducing the attempt odds alpha at sleep length m.

    May be < 1 (even negative): the optimizer's alpha <= 0.5 box does not
    know about m, so the recovered window can leave the physical range.
    Callers that need a real window must clamp to >= 1.
    """
    return 2.0 * (1.0 + alpha) / alpha - 2.0 * m - 1.0


def stationary_distribution(w: int, m: int):
    """Stationary state occupancy of the single-node chain.

    Returns (active, sleep): active[k] is the probability of being in the
    backoff state with counter k, sleep[k] of the sleep state with counter k.
    The two arrays sum to 1.
    """
    require(w >= 1, "contention window must be >= 1")
    require(m >= 2, "sleep slots must be >= 2")
    b_a0 = 2.0 / (w + 2.0 * m + 1.0)
    active = b_a0 * (w - np.arange(w)) / w
    sleep = np.full(m, b_a0)
    return active, sleep


def attempt_probability(w: int, m: int) -> float:
    """Probability of transmitting in a slot: the occupancy of counter 0."""
    require(w >= 1, "contention window must be >= 1")
    require(m >= 2, "sleep slots must be >= 2")
    return tau_from_window(w, m)


@dataclass(frozen=True)
class SlotProbabilities:
    """What one MAC slot turns out to be, under independent attempts."""

    p_idle: float
    p_succ: np.ndarray      # per node: that node alone transmits
    p_col: float            # two or more transmit
    p_col_node: np.ndarray  # per node: it transmits and at least one other does


def slot_probabilities(taus) -> SlotProbabilities:
    """Slot-type probabilities for per-node attempt probabilities `taus`."""
    taus = np.asarray(taus, dtype=float)
    require(np.all((taus > 0.0) & (taus < 1.0)), "each tau must be in (0, 1)")
    quiet = 1.0 - taus
    p_idle = float(np.prod(quiet))
    # prod over j != i as prefix times suffix products (no division, which
    # would lose precision as tau_i -> 1)
    before = np.concatenate(([1.0], np.cumprod(quiet[:-1])))
    after = np.concatenate((np.cumprod(quiet[:0:-1])[::-1], [1.0]))
    prod_others = before * after
    p_succ = taus * prod_others
    p_col = 1.0 - p_idle - float(np.sum(p_succ))
    p_col_node = taus * (1.0 - prod_others)
    return SlotProbabilities(p_idle=p_idle, p_succ=p_succ,
                             p_col=max(p_col, 0.0), p_col_node=p_col_node)


def channel_load(scenario: Scenario, n, alpha) -> float:
    """Dimensionless channel-load factor of the throughput denominator.

    The mean wall-clock slot duration equals this factor times the collision
    duration times the all-idle probability; per-node throughput is
    attempts * payload / (factor * collision duration).
    """
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    require(np.all(alpha > 0.0), "each alpha must be > 0")
    require(np.all(n >= 1.0), "each n must be >= 1")
    p = scenario.protocol
    times = [frame_times(p, node.link) for node in scenario.nodes]
    t_col = times[0].collision
    per_sample = np.array([t.per_sample for t in times])
    succ_ovh = np.array([t.success_overhead for t in times])
    x = p.sigma / t_col
    x += float(np.sum(per_sample / t_col * n * alpha))
    x += float(np.sum((succ_ovh / t_col - 1.0) * alpha))
    x += float(np.prod(1.0 + alpha)) - 1.0
    return x


@dataclass(frozen=True)
class PerfReport:
    """Per-node performance at one decision point."""

    throughput: np.ndarray           # bits/s, reformulated expression
    throughput_renewal: np.ndarray   # bits/s, renewal-reward quotient
    airtime: np.ndarray              # fraction of wall-clock time transmitting
    channel_load: float
    slot_probs: SlotProbabilities
    mean_slot_duration: float        # s of wall clock per MAC slot
    tau: np.ndarray
    window: np.ndarray               # recovered real-valued backoff windows
    sleep_slots: np.ndarray          # m per node


def evaluate(scenario: Scenario, n, alpha) -> PerfReport:
    """Throughput, air-time and slot statistics at a decision point.

    Both throughput forms are returned; they agree to rounding error and the
    pair is the standing cross-check of the reformulation.
    """
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    p = scenario.protocol
    times = [frame_times(p, node.link) for node in scenario.nodes]
    t_col = times[0].collision

    tau = tau_from_alpha(alpha)
    probs = slot_probabilities(tau)
    t_succ = np.array([t.success(ni) for t, ni in zip(times, n)])
    mean_slot = (probs.p_idle * p.sigma + float(np.sum(probs.p_succ * t_succ))
                 + probs.p_col * t_col)

    payload = np.array([node.link.l for node in scenario.nodes])
    s_renewal = n * payload * probs.p_succ / mean_slot

    x = channel_load(scenario, n, alpha)
    s_reform = alpha * n * payload / (x * t_col)
    if np.any(s_reform <= 0.0):
        raise InvalidStateError("throughput must be positive")

    airtime = (probs.p_succ * t_succ + probs.p_col_node * t_col) / mean_slot

    m = np.array([node.duty.sleep_slots(ni)
                  for node, ni in zip(scenario.nodes, n)])
    return PerfReport(
        throughput=s_reform,
        throughput_renewal=s_renewal,
        airtime=airtime,
        channel_load=x,
        slot_probs=probs,
        mean_slot_duration=mean_slot,
        tau=tau,
        window=window_from_alpha(alpha, m),
        sleep_slots=m,
    )
