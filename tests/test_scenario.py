import json

import numpy as np
import pytest

from wpcsma import InvalidParameterError, bundled_scenario, load_scenario, save_scenario
from wpcsma.scenario_io import scenario_from_dict, scenario_to_dict

from conftest import random_scenario, random_scenario_doc


def minimal_doc():
    return {
        "name": "t",
        "protocol": {"sigma_us": 9, "t_sifs_us": 16, "t_difs_us": 34,
                     "t_ack_us": 38.67, "t_rts_us": 46.67, "t_cts_us": 38.67,
                     "t_phy_hdr_us": 20, "l_mac_hdr_bytes": 36,
                     "l_shdr_bytes": 14, "l_fcs_bytes": 4},
        "nodes": [{"l_bytes": 50, "rate_mbps": 11, "n_max": 10, "h_slots": 3,
                   "g_slots": 2, "p_tx_mw": 15, "p_rx_mw": 11.37,
                   "p_listen_mw": 10, "p_acq_mw": 5, "p_proc_mw": 6,
                   "e_bg_uj": 0, "phi_mw": 15}],
    }


def test_example1_bundled_values():
    scn = bundled_scenario("example1")
    assert scn.n_nodes == 6
    assert scn.protocol.sigma == 9e-6
    assert scn.protocol.t_difs == pytest.approx(34e-6)
    assert scn.protocol.l_mac_hdr == 36 * 8
    assert [n.duty.n_max for n in scn.nodes] == [10, 20, 30, 40, 50, 60]
    for node in scn.nodes:
        assert node.link.l == 400.0
        assert node.link.rate == pytest.approx(11e6)
        assert node.power.p_tx == pytest.approx(15e-3)
        assert node.power.p_rx == pytest.approx(11.37e-3)
        assert node.power.p_listen == pytest.approx(10e-3)
        assert node.power.p_acq == pytest.approx(5e-3)
        assert node.power.p_proc == pytest.approx(6e-3)
        assert node.power.phi == pytest.approx(15e-3)
        assert node.power.e_bg == 0.0
        assert (node.duty.h, node.duty.g) == (3, 2)


def test_example2_bundled_values():
    scn = bundled_scenario("example2")
    assert scn.n_nodes == 6
    assert [n.power.phi for n in scn.nodes] == pytest.approx(
        [10e-3, 11e-3, 12e-3, 13e-3, 14e-3, 15e-3])
    assert [n.power.p_rx for n in scn.nodes] == pytest.approx(
        [15e-3, 14e-3, 13e-3, 12e-3, 11e-3, 10e-3])
    assert [n.link.rate for n in scn.nodes] == pytest.approx(
        [5.5e6, 5.5e6, 6e6, 9e6, 11e6, 12e6])
    for node in scn.nodes:
        assert node.power.p_tx == pytest.approx(1.32 * node.power.p_rx)
        assert node.link.l == 80.0
        assert node.duty.n_max == 10
        assert node.power.p_listen == pytest.approx(9e-3)


def test_missing_bundle_lists_names():
    with pytest.raises(InvalidParameterError, match="example1"):
        bundled_scenario("nonexistent")


def test_rejects_zero_sampling_period():
    doc = minimal_doc()
    doc["nodes"][0]["h_slots"] = 0
    with pytest.raises(InvalidParameterError, match=r"node 0.*duty\.h"):
        scenario_from_dict(doc)


def test_rejects_unknown_field():
    doc = minimal_doc()
    doc["nodes"][0]["p_weird_mw"] = 1
    with pytest.raises(InvalidParameterError, match="p_weird_mw"):
        scenario_from_dict(doc)


def test_rejects_missing_field():
    doc = minimal_doc()
    del doc["nodes"][0]["phi_mw"]
    with pytest.raises(InvalidParameterError, match="phi_mw"):
        scenario_from_dict(doc)


def test_rejects_bad_protocol():
    doc = minimal_doc()
    doc["protocol"]["t_difs_us"] = 10  # below SIFS
    with pytest.raises(InvalidParameterError, match="t_difs"):
        scenario_from_dict(doc)


def test_rejects_non_numeric():
    doc = minimal_doc()
    doc["nodes"][0]["phi_mw"] = "15"
    with pytest.raises(InvalidParameterError, match="phi_mw"):
        scenario_from_dict(doc)


def test_e_bg_optional_defaults_zero():
    doc = minimal_doc()
    del doc["nodes"][0]["e_bg_uj"]
    scn = scenario_from_dict(doc)
    assert scn.nodes[0].power.e_bg == 0.0


def test_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParameterError, match="JSON"):
        load_scenario(path)
    with pytest.raises(InvalidParameterError, match="read"):
        load_scenario(tmp_path / "missing.json")


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(20):
        doc = random_scenario_doc(rng)
        p1 = tmp_path / f"a{k}.json"
        p1.write_text(json.dumps(doc))
        s1 = load_scenario(p1)
        p2 = tmp_path / f"b{k}.json"
        save_scenario(s1, p2)
        s2 = load_scenario(p2)
        assert s1 == s2


def test_bundled_round_trip(tmp_path):
    for name in ("example1", "example2"):
        s1 = bundled_scenario(name)
        out = tmp_path / f"{name}.json"
        save_scenario(s1, out)
        assert load_scenario(out) == s1


def test_programmatic_emit_has_unit_fields():
    scn = scenario_from_dict(minimal_doc())
    bare = scn.__class__(protocol=scn.protocol, nodes=scn.nodes, name="bare")
    doc = scenario_to_dict(bare)
    assert doc["protocol"]["sigma_us"] == pytest.approx(9.0)
    assert doc["nodes"][0]["l_bytes"] == pytest.approx(50.0)
    assert doc["nodes"][0]["rate_mbps"] == pytest.approx(11.0)


def test_programmatic_round_trip_keeps_every_field():
    # scenarios built in code carry no unit document, so scenario_to_dict
    # converts every field back to its unit; counts stay JSON integers
    rng = np.random.default_rng(5)
    for _ in range(20):
        scn = random_scenario(rng, int(rng.integers(1, 25)))
        bare = scn.__class__(protocol=scn.protocol, nodes=scn.nodes, name="bare")
        doc = json.loads(json.dumps(scenario_to_dict(bare)))
        assert scenario_from_dict(doc) == bare
        for node in doc["nodes"]:
            assert all(isinstance(node[k], int)
                       for k in ("n_max", "h_slots", "g_slots"))
