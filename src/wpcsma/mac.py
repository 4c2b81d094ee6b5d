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

from . import model
from .params import InvalidParameterError, InvalidStateError, Scenario, require


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


def integer_window(alpha, m):
    """(W, tau): W = max(1, rint(window_from_alpha(alpha, m))) and the attempt
    probability it realizes. A W past 64-bit integers is refused, not wrapped."""
    w = np.rint(window_from_alpha(alpha, m))
    too_wide = np.flatnonzero(~(w < 2.0 ** 63))
    if too_wide.size:
        i = too_wide[0]
        raise InvalidParameterError(
            f"node {i}: alpha {float(alpha[i])!r} gives the window {w[i]:.6g}, "
            f"which does not fit a 64-bit integer")
    w = np.maximum(1, w.astype(np.int64))
    return w, tau_from_window(w.astype(float), m)


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
    return model.load(model.build(scenario), n, alpha)


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
    md = model.build(scenario)

    tau = tau_from_alpha(alpha)
    probs = slot_probabilities(tau)
    require(np.all(n >= 1.0), "each n must be >= 1")
    t_succ = md.times.success(n)
    mean_slot = (probs.p_idle * scenario.protocol.sigma
                 + float(np.sum(probs.p_succ * t_succ)) + probs.p_col * md.t_col)
    s_renewal = n * md.payload * probs.p_succ / mean_slot

    x = model.load(md, n, alpha)
    s_reform = alpha * n * md.payload / (x * md.t_col)
    if np.any(s_reform <= 0.0):
        raise InvalidStateError("throughput must be positive")

    airtime = (probs.p_succ * t_succ + probs.p_col_node * md.t_col) / mean_slot

    m = n * md.duty.h + md.duty.g
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
