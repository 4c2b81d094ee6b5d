import warnings

import numpy as np
import pytest

from wpcsma import (DutyCycle, LinkParams, Node, PowerProfile, ProtocolParams,
                    Scenario, bundled_scenario, solve_bcd)
from wpcsma.scenario_io import scenario_from_dict

# Table-style protocol constants used across the suite (SI)
PROTO = ProtocolParams(sigma=9e-6, t_sifs=16e-6, t_difs=34e-6, t_ack=38.67e-6,
                       t_rts=46.67e-6, t_cts=38.67e-6, t_phy_hdr=20e-6,
                       l_mac_hdr=36 * 8, l_shdr=14 * 8, l_fcs=4 * 8)


def make_node(l=400.0, rate=11e6, h=3, g=2, n_max=10, p_tx=15e-3,
              p_rx=11.37e-3, p_listen=10e-3, p_acq=5e-3, p_proc=6e-3,
              e_bg=0.0, phi=15e-3):
    return Node(link=LinkParams(l=l, rate=rate),
                duty=DutyCycle(h=h, g=g, n_max=n_max),
                power=PowerProfile(p_tx=p_tx, p_rx=p_rx, p_listen=p_listen,
                                   p_acq=p_acq, p_proc=p_proc, e_bg=e_bg,
                                   phi=phi))


def make_scenario(nodes, name="test"):
    return Scenario(protocol=PROTO, nodes=tuple(nodes), name=name)


_RATES_MBPS = (2, 5.5, 6, 9, 11, 12, 18, 24)


def random_scenario_doc(rng, n_nodes=None):
    """Unit-suffixed scenario document with parameters in sane ranges."""
    n_nodes = n_nodes or int(rng.integers(3, 7))
    sifs = float(rng.uniform(10, 16))
    sigma = float(rng.uniform(9, 20))
    proto = {
        "sigma_us": sigma,
        "t_sifs_us": sifs,
        "t_difs_us": sifs + 2 * sigma,
        "t_ack_us": float(rng.uniform(30, 45)),
        "t_rts_us": float(rng.uniform(40, 55)),
        "t_cts_us": float(rng.uniform(30, 45)),
        "t_phy_hdr_us": float(rng.uniform(16, 24)),
        "l_mac_hdr_bytes": int(rng.integers(24, 40)),
        "l_shdr_bytes": int(rng.integers(8, 20)),
        "l_fcs_bytes": 4,
    }
    nodes = []
    for _ in range(n_nodes):
        p_rx = float(rng.uniform(3, 12))
        nodes.append({
            "l_bytes": int(rng.integers(10, 80)),
            "rate_mbps": float(rng.choice(_RATES_MBPS)),
            "n_max": int(rng.integers(4, 21)),
            "h_slots": int(rng.integers(2, 6)),
            "g_slots": int(rng.integers(1, 4)),
            "p_tx_mw": float(rng.uniform(1.0, 1.6) * p_rx),
            "p_rx_mw": p_rx,
            "p_listen_mw": float(rng.uniform(3, 10)),
            "p_acq_mw": float(rng.uniform(2, 8)),
            "p_proc_mw": float(rng.uniform(3, 8)),
            "e_bg_uj": float(rng.choice([0.0, rng.uniform(0, 0.05)])),
            "phi_mw": float(rng.uniform(15, 60)),
        })
    return {"name": "random", "protocol": proto, "nodes": nodes}


def random_scenario(rng, n_nodes=None):
    return scenario_from_dict(random_scenario_doc(rng, n_nodes))


def random_point(rng, scn):
    """A box-feasible decision (energy feasibility not guaranteed)."""
    n = np.array([float(rng.uniform(1, node.duty.n_max))
                  for node in scn.nodes])
    alpha = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), scn.n_nodes))
    return n, alpha


def solve_quiet(scn, cfg=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_bcd(scn, cfg)


@pytest.fixture(scope="session")
def example1():
    return bundled_scenario("example1")


@pytest.fixture(scope="session")
def example2():
    return bundled_scenario("example2")


@pytest.fixture(scope="session")
def solved_example1(example1):
    return solve_quiet(example1)


@pytest.fixture(scope="session")
def solved_example2(example2):
    return solve_quiet(example2)
