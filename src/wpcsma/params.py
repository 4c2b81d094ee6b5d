"""Parameter containers and validation for duty-cycled RF-powered WLAN nodes.

Everything downstream of scenario loading works in SI units: seconds, watts,
joules, bits, bits/s. Scenario files use table-friendly units (us, mW, bytes,
Mbps) and are converted exactly once by `scenario_io`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InvalidParameterError(ValueError):
    """A parameter or argument violates a model invariant."""


class InvalidStateError(RuntimeError):
    """A computed quantity left its valid domain (e.g. nonpositive throughput)."""


class InfeasibleError(RuntimeError):
    """No feasible decision exists.

    `details` carries one human-readable message per offending node.
    """

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = list(details or [])


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


@dataclass(frozen=True)
class ProtocolParams:
    """Global 802.11 timing constants.

    Control-frame durations (ACK/RTS/CTS/PHY header) are fixed wall-clock
    values; header fields given as lengths (MAC header, subframe header, FCS)
    are clocked at each node's PHY rate when durations are derived.
    """

    sigma: float        # physical slot (s)
    t_sifs: float       # s
    t_difs: float       # s
    t_ack: float        # s
    t_rts: float        # s
    t_cts: float        # s
    t_phy_hdr: float    # s
    l_mac_hdr: float    # bits
    l_shdr: float       # bits, per-subframe aggregation header
    l_fcs: float        # bits

    def __post_init__(self):
        for name in ("sigma", "t_sifs", "t_difs", "t_ack", "t_rts", "t_cts",
                     "t_phy_hdr"):
            require(getattr(self, name) > 0, f"protocol.{name} must be > 0")
        for name in ("l_mac_hdr", "l_shdr", "l_fcs"):
            require(getattr(self, name) > 0, f"protocol.{name} must be > 0")
        require(self.t_difs > self.t_sifs,
                "protocol.t_difs must exceed protocol.t_sifs")


@dataclass(frozen=True)
class LinkParams:
    """Per-node payload size and PHY rate."""

    l: float      # payload bits per sample
    rate: float   # bits/s

    def __post_init__(self):
        require(self.l > 0, "link.l must be > 0")
        require(self.rate > 0, "link.rate must be > 0")


@dataclass(frozen=True)
class DutyCycle:
    """Static shape of a node's acquire/process/transmit cycle.

    The samples-per-cycle count n is a decision variable and is passed to the
    model separately; a cycle sleeps for m = n*h + g slots
    (`model.sleep_slots`) before the radio wakes.
    """

    h: int       # slots per sample acquisition
    g: int       # processing slots per cycle
    n_max: int   # CPU concurrency cap on samples per cycle

    def __post_init__(self):
        require(self.h >= 1, "duty.h must be >= 1")
        require(self.g >= 1, "duty.g must be >= 1")
        require(self.n_max >= 1, "duty.n_max must be >= 1")


@dataclass(frozen=True)
class PowerProfile:
    """Per-node power draws and received RF power (W / J)."""

    p_tx: float      # transmitting
    p_rx: float      # receiving/overhearing
    p_listen: float  # idle listening / carrier sensing
    p_acq: float     # sample acquisition
    p_proc: float    # sample processing
    e_bg: float      # background energy per cycle (J)
    phi: float       # received RF charging power

    def __post_init__(self):
        for name in ("p_tx", "p_rx", "p_listen", "p_acq", "p_proc", "e_bg"):
            require(getattr(self, name) >= 0, f"power.{name} must be >= 0")
        require(self.phi > 0, "power.phi must be > 0")


@dataclass(frozen=True)
class Node:
    """One sensor node: link, duty-cycle shape and power profile."""

    link: LinkParams
    duty: DutyCycle
    power: PowerProfile


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: protocol constants plus one or more nodes.

    `unit_doc` holds the original unit-suffixed document when the scenario was
    read from a file, so emitting it again is lossless. It never participates
    in equality.
    """

    protocol: ProtocolParams
    nodes: tuple[Node, ...]
    name: str = "scenario"
    unit_doc: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        require(len(self.nodes) >= 1, "scenario must contain at least one node")
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)
