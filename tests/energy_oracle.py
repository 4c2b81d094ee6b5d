"""Per-node energy breakdown, kept as the oracle of `energy`'s all-node form.

`cycle_energy` and `data_energy` are the per-node functions that
`wpcsma.energy` held before its direct form was written once over all
nodes; `analytical_check` is the analytical side of the per-node loop that
`sim.empirical_energy_check` ran. Tests compare the program to them bit for
bit. Not collected by pytest (no `test_` prefix).
"""

from __future__ import annotations

import numpy as np

from wpcsma.energy import (EnergyBreakdown, _backoff, collision_transmit_energy,
                           fixed_energy, success_transmit_energy)
from wpcsma.mac import tau_from_alpha, tau_from_window, window_from_alpha
from wpcsma.params import PowerProfile, ProtocolParams, Scenario, require
from wpcsma.timing import FrameTimes, frame_times


def data_energy(p: ProtocolParams, power: PowerProfile, times: FrameTimes,
                n: float, taus_others) -> float:
    """Expected exchange energy: success if every other node stays quiet."""
    taus_others = np.asarray(taus_others, dtype=float)
    require(np.all((taus_others > 0.0) & (taus_others < 1.0)) or taus_others.size == 0,
            "each tau must be in (0, 1)")
    p_quiet = float(np.prod(1.0 - taus_others)) if taus_others.size else 1.0
    eps_succ = success_transmit_energy(p, power, times, n)
    eps_col = collision_transmit_energy(p, power, times)
    return p_quiet * eps_succ + (1.0 - p_quiet) * eps_col


def cycle_energy(scenario: Scenario, i: int, n, alpha) -> EnergyBreakdown:
    """Full per-cycle energy breakdown for node i at a decision point."""
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    require(np.all(n >= 1.0), "each n must be >= 1")
    require(np.all(alpha > 0.0), "each alpha must be > 0")
    p = scenario.protocol
    node = scenario.nodes[i]
    times = frame_times(p, node.link)

    m = float(n[i]) * node.duty.h + node.duty.g
    w = window_from_alpha(float(alpha[i]), m)
    taus_others = tau_from_alpha(np.delete(alpha, i))

    e_acq, e_proc, e_fixed = fixed_energy(p, node.power, node.duty, float(n[i]))
    e_bo = _backoff(p, node.power, w)
    e_data = data_energy(p, node.power, times, float(n[i]), taus_others)
    e_tx = e_bo + e_data
    e_total = e_fixed + e_tx
    budget = node.power.phi * m * p.sigma
    return EnergyBreakdown(e_acq=e_acq, e_proc=e_proc, e_backoff=e_bo,
                           e_data=e_data, e_tx_total=e_tx,
                           e_bg=node.power.e_bg, e_total=e_total,
                           budget=budget)


def analytical_check(scenario: Scenario, n, w) -> list[tuple[int, str, float]]:
    """(node, component, analytical) of `empirical_energy_check`'s rows, at
    integer n and w."""
    p = scenario.protocol
    rows = []
    m = [int(ni * node.duty.h + node.duty.g) for node, ni in zip(scenario.nodes, n)]
    taus = np.array([tau_from_window(w[i], m[i]) for i in range(scenario.n_nodes)])
    for i, node in enumerate(scenario.nodes):
        times = frame_times(p, node.link)
        const = fixed_energy(p, node.power, node.duty, n[i])[2]
        e_bo = _backoff(p, node.power, w[i])
        e_dat = data_energy(p, node.power, times, n[i], np.delete(taus, i))
        for name, ana in (("acq+proc+bg", const), ("backoff", e_bo),
                          ("data", e_dat), ("total", const + e_bo + e_dat)):
            rows.append((i, name, ana))
    return rows
