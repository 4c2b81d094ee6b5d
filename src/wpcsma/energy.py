"""Per-cycle energy model and the coefficient form of energy neutrality.

A cycle consumes energy for sample acquisition, processing, DCF backoff
listening, the data exchange itself (success or collision) and background
tasks; it harvests phi * m * sigma while the radio sleeps. The constraint
"consumed <= harvested" rearranges exactly into

    a*n + b/alpha + (c*n + d) * prod_{j != i} 1/(1+alpha_j) <= f

which is the form the optimizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import model
from .mac import slot_probabilities, tau_from_alpha, window_from_alpha
from .params import DutyCycle, PowerProfile, ProtocolParams, Scenario
from .timing import FrameTimes


def _backoff(p, power, w):
    """Expected listening energy of one backoff: DIFS plus (w-1)/2 slots.

    Countdown deferred behind others' transmissions is carrier-sensed
    virtually and costs nothing. Also taken below w = 1, where the
    alpha-parametrized model extrapolates: negative for w < 1 - 2*DIFS/sigma.
    """
    return (p.t_difs + (w - 1.0) / 2.0 * p.sigma) * power.p_listen


def fixed_energy(p: ProtocolParams, power: PowerProfile, duty: DutyCycle, n):
    """Acquisition, processing, and those two plus background energy per cycle."""
    e_acq = n * power.p_acq * p.sigma
    e_proc = n * power.p_proc * duty.g * p.sigma
    return e_acq, e_proc, e_acq + e_proc + power.e_bg


def success_transmit_energy(p: ProtocolParams, power: PowerProfile,
                            times: FrameTimes, n: float) -> float:
    """Energy of a successful exchange: RTS+data at TX, CTS+ACK at RX, 2 SIFS."""
    return ((p.t_rts + times.amsdu(n)) * power.p_tx
            + (p.t_cts + p.t_ack) * power.p_rx
            + 2.0 * p.t_sifs * power.p_listen)


def collision_transmit_energy(p: ProtocolParams, power: PowerProfile,
                              times: FrameTimes) -> float:
    """Energy of a collided attempt: the RTS plus listening out the timeout."""
    return p.t_rts * power.p_tx + times.timeout * power.p_listen


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-cycle energy components of one node (of all, as arrays, from
    `_breakdown`), plus its harvest budget.

    e_backoff (and with it e_tx_total / e_total) extrapolates below zero when
    the recovered window is far under one slot; see `_backoff`.
    """

    e_acq: float
    e_proc: float
    e_backoff: float
    e_data: float
    e_tx_total: float
    e_bg: float
    e_total: float
    budget: float

    @property
    def slack(self) -> float:
        return self.budget - self.e_total


def _breakdown(md, n, w, probs) -> EnergyBreakdown:
    """Every node's breakdown at samples n, windows w and slot probabilities
    probs; node i's exchange succeeds if every other node stays quiet
    (`probs.p_quiet[i]`)."""
    p, p_quiet = md.protocol, probs.p_quiet
    e_acq, e_proc, e_fixed = fixed_energy(p, md.power, md.duty, n)
    e_bo = _backoff(p, md.power, w)
    e_data = (p_quiet * success_transmit_energy(p, md.power, md.times, n)
              + (1.0 - p_quiet) * collision_transmit_energy(p, md.power, md.times))
    e_tx = e_bo + e_data
    return EnergyBreakdown(e_acq=e_acq, e_proc=e_proc, e_backoff=e_bo,
                           e_data=e_data, e_tx_total=e_tx,
                           e_bg=md.power.e_bg, e_total=e_fixed + e_tx,
                           budget=md.power.phi * model.sleep_slots(md, n) * p.sigma)


def _row(cls, arrays, i: int):
    """Node i's `cls` record, as floats, from arrays over every node."""
    return cls(**{f.name: float(getattr(arrays, f.name)[i]) for f in fields(cls)})


def cycle_energy(scenario: Scenario, i: int, n, alpha) -> EnergyBreakdown:
    """Full per-cycle energy breakdown for node i at a decision point: row i
    of `_breakdown` at the windows and slot probabilities alpha recovers.
    Raises InvalidParameterError where an attempt probability rounds to 1,
    as `evaluate` does."""
    md, n, alpha = model.at_point(scenario, n, alpha, i)
    w = window_from_alpha(alpha, model.sleep_slots(md, n))
    probs = slot_probabilities(tau_from_alpha(alpha))
    return _row(EnergyBreakdown, _breakdown(md, n, w, probs), i)


@dataclass(frozen=True)
class EnergyCoefficients:
    """Coefficients of the rearranged energy-neutrality constraint.

    slack = f - a*n - b/alpha - (c*n + d) * prod_{j != i} 1/(1+alpha_j).
    a folds the per-sample costs against the per-sample harvest and listening
    credit; b is the backoff listening per unit of 1/alpha; c and d split the
    success-minus-collision energy gap into its n-proportional and fixed
    parts; f collects every decision-independent term.
    """

    a: float
    b: float
    c: float
    d: float
    f: float
    per_sample_acq: float
    per_sample_proc: float


def energy_coefficients(scenario: Scenario, i: int) -> EnergyCoefficients:
    """Constraint coefficients of node i (decision-independent); raises
    InvalidParameterError unless i is a node index."""
    md = model.build(scenario)
    model.check_node(md, i)
    return _row(EnergyCoefficients, md, i)


def constraint_slack(scenario: Scenario, i: int, n, alpha) -> float:
    """Energy-neutrality slack of node i; >= 0 iff the constraint holds.

    Equals budget minus total cycle energy, computed through the coefficient
    form.
    """
    return float(model.slacks(*model.at_point(scenario, n, alpha, i))[i])
