"""A scenario flattened into per-node arrays, and the formulas every layer shares.

`sleep_slots`, `others_quiet`, `load` (the throughput denominator) and
`slacks` (energy neutrality) are written only here; every other module reads
them. The power, duty and frame-time arrays keep the field names of
`PowerProfile`, `DutyCycle` and `FrameTimes`, so a formula written for one
node's parameters evaluates every node at once when given the model's.
"""

from __future__ import annotations

import numbers
from types import SimpleNamespace

import numpy as np

from .params import Scenario, require
from .timing import FrameTimes, frame_times


def _columns(records) -> dict:
    # one float array per dataclass field, over the records
    table = np.array([list(vars(r).values()) for r in records], dtype=float)
    return dict(zip(vars(records[0]), table.T))


def build(scenario: Scenario) -> SimpleNamespace:
    """Flatten a scenario; each public function builds it once per call.

    Fields: `n` nodes; `protocol` the scenario's ProtocolParams; `times`,
    `power`, `duty` the FrameTimes, PowerProfile and DutyCycle fields as
    arrays over the nodes; `payload` bits per sample;
    `t_col` the collision duration, the same for every node; `sigma_ratio`,
    `per_ratio`, `ovh_ratio` sigma, the per-sample duration and the success
    overhead over t_col (the last minus 1); `a`..`f`, `per_sample_acq`,
    `per_sample_proc` the fields of `energy.EnergyCoefficients`, for all
    nodes in one pass.
    """
    p = scenario.protocol
    times = FrameTimes(**_columns([frame_times(p, nd.link) for nd in scenario.nodes]))
    pw = SimpleNamespace(**_columns([nd.power for nd in scenario.nodes]))
    duty = SimpleNamespace(**_columns([nd.duty for nd in scenario.nodes]))
    t_col = float(times.collision[0])
    eps_acq = pw.p_acq * p.sigma
    eps_proc = pw.p_proc * duty.g * p.sigma
    return SimpleNamespace(
        n=scenario.n_nodes, protocol=p, times=times, power=pw, duty=duty,
        payload=np.array([nd.link.l for nd in scenario.nodes]),
        t_col=t_col, sigma_ratio=p.sigma / t_col,
        per_ratio=times.per_sample / t_col,
        ovh_ratio=times.success_overhead / t_col - 1.0,
        per_sample_acq=eps_acq, per_sample_proc=eps_proc,
        a=eps_acq + eps_proc - (pw.phi + pw.p_listen) * duty.h * p.sigma,
        b=p.sigma * pw.p_listen,
        c=times.per_sample * pw.p_tx,
        d=((p.t_cts + p.t_ack) * pw.p_rx
           + (2.0 * p.t_sifs - times.timeout) * pw.p_listen
           + times.overhead * pw.p_tx),
        f=(pw.phi * duty.g * p.sigma - pw.e_bg
           - (p.t_difs + times.timeout - duty.g * p.sigma) * pw.p_listen
           - p.t_rts * pw.p_tx),
    )


def at_point(scenario: Scenario, n, alpha, i=None):
    """(build(scenario), n, alpha), n and alpha as float arrays; raises
    InvalidParameterError unless each holds one value per node, every n >= 1,
    every alpha > 0, and i, when given, is a node index (`check_node`)."""
    md = build(scenario)
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    require(n.shape == alpha.shape == (md.n,),
            f"n and alpha must hold one value per node, {md.n} each")
    require(np.all(n >= 1.0), "each n must be >= 1")
    require(np.all(alpha > 0.0), "each alpha must be > 0")
    if i is not None:
        check_node(md, i)
    return md, n, alpha


def check_node(md, i) -> None:
    """Raise InvalidParameterError unless i is a node index of the model."""
    require(isinstance(i, numbers.Integral) and 0 <= i < md.n,
            f"node index must be in 0..{md.n - 1}, got {i!r}")


def sleep_slots(md, n):
    """Sleep length m = n*h + g in slots of every node, for n samples per cycle."""
    return n * md.duty.h + md.duty.g


def others_quiet(alpha):
    """prod_{j != i} 1/(1 + alpha_j) for every node i, over the last axis of
    (..., N) attempt odds: the full product divided out in O(N), for the
    optimizer. `mac.SlotProbabilities.p_quiet` is the reports' row product."""
    terms = 1.0 + alpha
    return terms / terms.prod(axis=-1, keepdims=True)


def load(md, n, alpha):
    """Channel-load factor X, the shared throughput denominator.

    Bianchi's renewal form of one slot over the collision duration: idle
    slots, successes with their overhead, and collisions. Takes (..., N)
    arrays and reduces over the nodes axis, which must be the last and
    contiguous for a row to give the bits of its 1-D call; a float for 1-D.
    """
    x = (md.sigma_ratio
         + (md.per_ratio * n * alpha).sum(-1)
         + (md.ovh_ratio * alpha).sum(-1)
         + (1.0 + alpha).prod(-1) - 1.0)
    return float(x) if x.ndim == 0 else x


def slacks(md, n, alpha) -> np.ndarray:
    """Energy-neutrality slack of every node (coefficient form)."""
    return md.f - md.a * n - md.b / alpha - (md.c * n + md.d) * others_quiet(alpha)
