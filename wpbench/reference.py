"""Reference computations of the model, written from its equations.

They read only the fields of a `Scenario` (plain parameter containers) and
never call `wpcsma.timing`, `wpcsma.mac` or `wpcsma.energy`, so a fault in
those modules cannot cancel out of a check. All arrays run over nodes.

Model (per node i, decision n_i samples per cycle, attempt odds alpha_i):
  sleep      m = n*h + g slots, attempt probability tau = 2/(W + 2m + 1),
             alpha = tau/(1 - tau), so W = 2(1 + alpha)/alpha - 2m - 1
  durations  T_succ(n) = PHY hdr + (MAC hdr + FCS)/rate + RTS + CTS
                         + 3 SIFS + ACK + n (l + subframe hdr)/rate
             T_col     = RTS + SIFS + CTS + sigma
  slots      P_idle = prod(1 - tau), P_succ_i = tau_i prod_{j!=i}(1 - tau_j)
  throughput S_i = n_i l_i P_succ_i / E[slot]   (renewal reward)
             E[slot] = P_idle sigma + sum P_succ_i T_succ_i + P_col T_col
  energy     per cycle: n p_acq sigma + n p_proc g sigma + e_bg
             + (DIFS + (W - 1)/2 sigma) p_listen
             + q eps_succ + (1 - q) eps_col,   q = prod_{j!=i}(1 - tau_j)
             against the harvest phi m sigma.
"""

from __future__ import annotations

import math

import numpy as np


def node_arrays(scn) -> dict:
    """Per-node scenario fields as float arrays (SI units)."""
    nodes = scn.nodes
    col = lambda f: np.array([float(f(nd)) for nd in nodes])  # noqa: E731
    return {
        "l": col(lambda nd: nd.link.l), "rate": col(lambda nd: nd.link.rate),
        "h": col(lambda nd: nd.duty.h), "g": col(lambda nd: nd.duty.g),
        "n_max": col(lambda nd: nd.duty.n_max),
        "p_tx": col(lambda nd: nd.power.p_tx), "p_rx": col(lambda nd: nd.power.p_rx),
        "p_listen": col(lambda nd: nd.power.p_listen),
        "p_acq": col(lambda nd: nd.power.p_acq), "p_proc": col(lambda nd: nd.power.p_proc),
        "e_bg": col(lambda nd: nd.power.e_bg), "phi": col(lambda nd: nd.power.phi),
    }


def durations(scn, n) -> dict:
    """Per-node frame durations (s) at sample counts n."""
    p = scn.protocol
    a = node_arrays(scn)
    n = np.asarray(n, dtype=float)
    header = p.t_phy_hdr + (p.l_mac_hdr + p.l_fcs) / a["rate"]
    per_sample = (a["l"] + p.l_shdr) / a["rate"]
    timeout = p.t_sifs + p.t_cts + p.sigma
    return {
        "amsdu": header + n * per_sample,
        "success": header + p.t_rts + p.t_cts + 3.0 * p.t_sifs + p.t_ack + n * per_sample,
        "timeout": timeout,
        "collision": p.t_rts + timeout,
    }


def sleep_slots(scn, n) -> np.ndarray:
    a = node_arrays(scn)
    return np.asarray(n, dtype=float) * a["h"] + a["g"]


def tau_of_window(w, m) -> np.ndarray:
    return 2.0 / (np.asarray(w, dtype=float) + 2.0 * np.asarray(m, dtype=float) + 1.0)


def slot_probs(tau) -> dict:
    """Product-form slot-type probabilities under independent attempts."""
    tau = np.asarray(tau, dtype=float)
    quiet = 1.0 - tau
    others = np.array([math.prod(np.delete(quiet, i)) for i in range(tau.size)])
    p_idle = math.prod(quiet)
    p_succ = tau * others
    return {"p_idle": p_idle, "p_succ": p_succ,
            "p_col": 1.0 - p_idle - float(p_succ.sum()), "quiet_others": others}


def throughput(scn, n, tau) -> tuple[np.ndarray, dict]:
    """Renewal-reward throughput (bit/s) per node and the slot probabilities."""
    n = np.asarray(n, dtype=float)
    sp = slot_probs(tau)
    d = durations(scn, n)
    mean_slot = (sp["p_idle"] * scn.protocol.sigma + float(np.sum(sp["p_succ"] * d["success"]))
                 + sp["p_col"] * d["collision"])
    bits = n * node_arrays(scn)["l"]
    return bits * sp["p_succ"] / mean_slot, sp


def utility(scn, n, alpha) -> float:
    """Sum of log renewal-reward throughputs at (n, alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    s, _ = throughput(scn, n, alpha / (1.0 + alpha))
    return float(np.sum(np.log(s)))


def cycle_energy(scn, n, alpha) -> dict:
    """Per-node, per-cycle energy (J) and harvest budget at (n, alpha).

    The window is the real-valued one the odds imply; below one slot the
    backoff term is the model's extrapolation and may be negative.
    """
    p = scn.protocol
    a = node_arrays(scn)
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    m = sleep_slots(scn, n)
    w = 2.0 * (1.0 + alpha) / alpha - 2.0 * m - 1.0
    d = durations(scn, n)
    fixed = n * a["p_acq"] * p.sigma + n * a["p_proc"] * a["g"] * p.sigma + a["e_bg"]
    backoff = (p.t_difs + (w - 1.0) / 2.0 * p.sigma) * a["p_listen"]
    eps_succ = ((p.t_rts + d["amsdu"]) * a["p_tx"] + (p.t_cts + p.t_ack) * a["p_rx"]
                + 2.0 * p.t_sifs * a["p_listen"])
    eps_col = p.t_rts * a["p_tx"] + d["timeout"] * a["p_listen"]
    q = slot_probs(alpha / (1.0 + alpha))["quiet_others"]
    data = q * eps_succ + (1.0 - q) * eps_col
    total = fixed + backoff + data
    budget = a["phi"] * m * p.sigma
    return {"fixed": fixed, "backoff": backoff, "data": data, "total": total,
            "budget": budget, "slack": budget - total, "window": w,
            "eps_succ": eps_succ, "eps_col": eps_col}


def alpha_of_window(w, m) -> np.ndarray:
    tau = tau_of_window(w, m)
    return tau / (1.0 - tau)


def self_test() -> list[str]:
    """Check the references on one node whose figures are derived by hand.

    Protocol: sigma 10 us, SIFS 10, DIFS 30, ACK 40, RTS 50, CTS 40, PHY
    header 20 us; MAC header 24 B, subframe header 14 B, FCS 4 B. Node: 50 B
    samples at 1 Mbit/s (so 1 bit = 1 us), h = 3, g = 2, n = 2, W = 8;
    P_tx 20, P_rx 10, P_listen 5, P_acq 2, P_proc 4 mW, e_bg 1 uJ, phi 400 mW.
      m = 8, tau = 2/25 = 0.08, alpha = 2/23
      header 20 + 224 = 244 us, per sample 400 + 112 = 512 us
      T_succ(2) = 244 + 50 + 40 + 30 + 40 + 1024 = 1428 us, T_col = 110 us
      E[slot] = 0.92*10 + 0.08*1428 = 123.44 us
      S = 800 bit * 0.08 / 123.44 us = 518,470.52... bit/s
      energy: acq 0.04, proc 0.16, backoff (30 + 35) us * 5 mW = 0.325,
      exchange (50 + 1268) us * 20 mW + 80 us * 10 mW + 20 us * 5 mW
      = 27.26, background 1 -> 28.785 uJ against 400 mW * 80 us = 32 uJ.
    Returns the failed comparisons (empty when all hold).
    """
    from wpcsma.params import (DutyCycle, LinkParams, Node, PowerProfile,
                               ProtocolParams, Scenario)
    us, mw = 1e-6, 1e-3
    proto = ProtocolParams(sigma=10 * us, t_sifs=10 * us, t_difs=30 * us, t_ack=40 * us,
                           t_rts=50 * us, t_cts=40 * us, t_phy_hdr=20 * us,
                           l_mac_hdr=24 * 8, l_shdr=14 * 8, l_fcs=4 * 8)
    node = Node(link=LinkParams(l=400.0, rate=1e6), duty=DutyCycle(h=3, g=2, n_max=4),
                power=PowerProfile(p_tx=20 * mw, p_rx=10 * mw, p_listen=5 * mw,
                                   p_acq=2 * mw, p_proc=4 * mw, e_bg=1 * us, phi=400 * mw))
    scn = Scenario(protocol=proto, nodes=(node,), name="hand")
    n, alpha = [2.0], [2.0 / 23.0]
    d = durations(scn, n)
    s, sp = throughput(scn, n, [0.08])
    e = cycle_energy(scn, n, alpha)
    expect = [
        ("T_succ", float(d["success"][0]), 1428 * us),
        ("T_col", d["collision"], 110 * us),
        ("amsdu", float(d["amsdu"][0]), 1268 * us),
        ("tau(W=8,m=8)", float(tau_of_window(8, sleep_slots(scn, n))[0]), 0.08),
        ("P_idle", sp["p_idle"], 0.92),
        ("P_succ", float(sp["p_succ"][0]), 0.08),
        ("S", float(s[0]), 800 * 0.08 / (123.44 * us)),
        ("W(alpha)", float(e["window"][0]), 8.0),
        ("E_backoff", float(e["backoff"][0]), 0.325 * us),
        ("E_data", float(e["data"][0]), 27.26 * us),
        ("E_total", float(e["total"][0]), 28.785 * us),
        ("budget", float(e["budget"][0]), 32 * us),
    ]
    bad = [f"{name}: {got!r} != {want!r}" for name, got, want in expect
           if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-18)]
    if abs(sp["p_col"]) > 1e-15:
        bad.append(f"P_col: {sp['p_col']!r} != 0")
    return bad
