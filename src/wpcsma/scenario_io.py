"""Scenario files: unit-suffixed JSON in, validated SI Scenario out.

Field names carry their unit (`sigma_us`, `p_tx_mw`, `rate_mbps`, `l_bytes`)
so published table values can be transcribed verbatim; conversion to SI
happens exactly once here. Saving a loaded scenario re-emits the original
numbers, so load -> save -> load is an identity.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .params import (DutyCycle, InvalidParameterError, LinkParams, Node,
                     PowerProfile, ProtocolParams, Scenario)

_PROTOCOL_FIELDS = {
    "sigma_us": ("sigma", 1e-6),
    "t_sifs_us": ("t_sifs", 1e-6),
    "t_difs_us": ("t_difs", 1e-6),
    "t_ack_us": ("t_ack", 1e-6),
    "t_rts_us": ("t_rts", 1e-6),
    "t_cts_us": ("t_cts", 1e-6),
    "t_phy_hdr_us": ("t_phy_hdr", 1e-6),
    "l_mac_hdr_bytes": ("l_mac_hdr", 8.0),
    "l_shdr_bytes": ("l_shdr", 8.0),
    "l_fcs_bytes": ("l_fcs", 8.0),
}

# key -> (record of Node, attribute, scale); scale None marks a count, which
# must be an integer and is emitted as one
_NODE_FIELDS = {
    "l_bytes": ("link", "l", 8.0),
    "rate_mbps": ("link", "rate", 1e6),
    "n_max": ("duty", "n_max", None),
    "h_slots": ("duty", "h", None),
    "g_slots": ("duty", "g", None),
    "p_tx_mw": ("power", "p_tx", 1e-3),
    "p_rx_mw": ("power", "p_rx", 1e-3),
    "p_listen_mw": ("power", "p_listen", 1e-3),
    "p_acq_mw": ("power", "p_acq", 1e-3),
    "p_proc_mw": ("power", "p_proc", 1e-3),
    "e_bg_uj": ("power", "e_bg", 1e-6),
    "phi_mw": ("power", "phi", 1e-3),
}
_NODE_OPTIONAL = {"e_bg_uj": 0.0}


def _number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise InvalidParameterError(f"{where}: missing field {key}")
    v = doc[key]
    # JSON also admits Infinity, NaN, 1e400 (read as inf) and integers
    # beyond the float range; none of them passes the comparison
    if (not isinstance(v, (int, float)) or isinstance(v, bool)
            or not abs(v) <= sys.float_info.max):
        raise InvalidParameterError(f"{where}: field {key} must be a finite number")
    return float(v)


def _check_keys(doc, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{where} must be an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise InvalidParameterError(
            f"{where}: unknown field(s) {sorted(unknown)}")


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate and convert a parsed unit-suffixed document."""
    _check_keys(doc, {"name", "comment", "protocol", "nodes"}, "scenario")
    if "protocol" not in doc or "nodes" not in doc:
        raise InvalidParameterError("scenario: missing protocol or nodes")

    pdoc = doc["protocol"]
    _check_keys(pdoc, _PROTOCOL_FIELDS, "protocol")
    proto = ProtocolParams(**{
        attr: _number(pdoc, key, "protocol") * scale
        for key, (attr, scale) in _PROTOCOL_FIELDS.items()
    })

    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise InvalidParameterError("scenario: nodes must be a non-empty list")
    nodes = []
    for idx, ndoc in enumerate(doc["nodes"]):
        where = f"node {idx}"
        _check_keys(ndoc, _NODE_FIELDS, where)
        records = {"link": {}, "duty": {}, "power": {}}
        for key, (record, attr, scale) in _NODE_FIELDS.items():
            if key in _NODE_OPTIONAL and key not in ndoc:
                v = _NODE_OPTIONAL[key]
            else:
                v = _number(ndoc, key, where)
            if scale is None:
                if v != int(v):
                    raise InvalidParameterError(f"{where}: {key} must be an integer")
                records[record][attr] = int(v)
            else:
                records[record][attr] = v * scale
        try:
            node = Node(link=LinkParams(**records["link"]),
                        duty=DutyCycle(**records["duty"]),
                        power=PowerProfile(**records["power"]))
        except InvalidParameterError as err:
            raise InvalidParameterError(f"{where}: {err}") from None
        nodes.append(node)

    return Scenario(protocol=proto, nodes=tuple(nodes),
                    name=str(doc.get("name", "scenario")), unit_doc=doc)


def scenario_to_dict(scn: Scenario) -> dict:
    """Unit-suffixed document for a Scenario (verbatim if it was loaded)."""
    if scn.unit_doc is not None:
        return scn.unit_doc
    doc = {"name": scn.name, "protocol": {}, "nodes": []}
    for key, (attr, scale) in _PROTOCOL_FIELDS.items():
        doc["protocol"][key] = getattr(scn.protocol, attr) / scale
    for node in scn.nodes:
        node_doc = {}
        for key, (record, attr, scale) in _NODE_FIELDS.items():
            v = getattr(getattr(node, record), attr)
            node_doc[key] = int(v) if scale is None else v / scale
        doc["nodes"].append(node_doc)
    return doc


def load_scenario(path) -> Scenario:
    """Load, validate and convert a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InvalidParameterError(f"cannot read scenario file: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidParameterError(f"scenario file is not valid JSON: {err}") from None
    return scenario_from_dict(doc)


def save_scenario(scn: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scn), indent=2) + "\n")


def bundled_scenario(name: str) -> Scenario:
    """One of the packaged example scenarios ('example1' or 'example2')."""
    root = Path(__file__).parent / "data"
    path = root / f"{name}.json"
    if not path.exists():
        raise InvalidParameterError(
            f"no bundled scenario named {name!r}; have "
            f"{sorted(p.stem for p in root.glob('*.json'))}")
    return load_scenario(path)
