"""Seeded inputs of the benchmark: scenario documents and decision points.

Everything here is made from the workload seed with numpy's PCG64 and
handed to the program as scenario documents, `Scenario` objects built from
them, or point files; the program never sees the seed.
"""

from __future__ import annotations

import numpy as np

import reference

# The protocol block of the bundled scenarios.
PROTOCOL = {
    "sigma_us": 9, "t_sifs_us": 16, "t_difs_us": 34, "t_ack_us": 38.67,
    "t_rts_us": 46.67, "t_cts_us": 38.67, "t_phy_hdr_us": 20,
    "l_mac_hdr_bytes": 36, "l_shdr_bytes": 14, "l_fcs_bytes": 4,
}
_RATES_MBPS = (5.5, 6.0, 9.0, 11.0, 12.0, 18.0, 24.0)
_JITTER = 0.1          # each drawn parameter is its template value * U(0.9, 1.1)
_MARGIN = 0.05         # energy surplus (share of budget) required at the start point


def heterogeneous_doc(rng: np.random.Generator, n_nodes: int, name: str) -> dict:
    """Scenario document of nodes at spread distance ranks (example2's shape).

    Node k sits at rank r = k/(N-1): received RF power rises with r, receive
    and transmit power fall and the PHY rate rises; the CPU cap cycles
    through 10..60 as in example1. Payload and every power draw are drawn
    around that template, so no two nodes are alike.
    """
    nodes = []
    for k in range(n_nodes):
        r = k / max(n_nodes - 1, 1)
        jit = lambda: float(rng.uniform(1.0 - _JITTER, 1.0 + _JITTER))  # noqa: E731
        p_rx = (15.0 - 5.0 * r) * jit()
        nodes.append({
            "l_bytes": round(30.0 * jit(), 3),
            "rate_mbps": _RATES_MBPS[min(int(r * len(_RATES_MBPS)), len(_RATES_MBPS) - 1)],
            "n_max": 10 + 10 * (k % 6), "h_slots": 3, "g_slots": 2,
            "p_tx_mw": round(1.32 * p_rx, 4), "p_rx_mw": round(p_rx, 4),
            "p_listen_mw": round(9.0 * jit(), 4), "p_acq_mw": round(5.0 * jit(), 4),
            "p_proc_mw": round(6.0 * jit(), 4), "e_bg_uj": 0,
            "phi_mw": round((10.0 + 5.0 * r) * jit(), 4),
        })
    return {"name": name, "protocol": dict(PROTOCOL), "nodes": nodes}


def feasible_doc(rng: np.random.Generator, n_nodes: int, name: str, from_dict) -> dict:
    """A heterogeneous document whose optimizer start point is energy-feasible.

    The optimizer starts every node at alpha = 0.5 and needs, for each node,
    some n in [1, n_max] that is energy-neutral there. A node's slack is
    affine in its own n, so both ends are tried (by the reference energy);
    a node short of `_MARGIN` surplus has its RF power raised by 10% until
    it has it. `from_dict` is the program's scenario constructor.
    """
    doc = heterogeneous_doc(rng, n_nodes, name)
    for _ in range(100):
        scn = from_dict(doc)
        alpha = np.full(n_nodes, 0.5)
        ends = [reference.cycle_energy(scn, n, alpha)
                for n in (np.ones(n_nodes), reference.node_arrays(scn)["n_max"])]
        surplus = np.maximum(ends[0]["slack"] / ends[0]["budget"],
                             ends[1]["slack"] / ends[1]["budget"])
        short = np.nonzero(surplus < _MARGIN)[0]
        if short.size == 0:
            return doc
        for k in short:
            doc["nodes"][k]["phi_mw"] = round(doc["nodes"][k]["phi_mw"] * 1.1, 4)
    raise RuntimeError(f"{name}: could not make the start point feasible")
