"""Frame and event durations of the DCF + RTS/CTS + A-MSDU exchange.

All functions are pure and take SI inputs (seconds, bits, bits/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import LinkParams, ProtocolParams, require


def header_overhead(p: ProtocolParams, rate: float) -> float:
    """PHY preamble plus MAC header and FCS bits clocked at the node rate."""
    require(rate > 0, "rate must be > 0")
    return p.t_phy_hdr + (p.l_mac_hdr + p.l_fcs) / rate


def subheader_duration(p: ProtocolParams, rate: float) -> float:
    """Per-subframe aggregation header duration at the node rate."""
    require(rate > 0, "rate must be > 0")
    return p.l_shdr / rate


def success_overhead(p: ProtocolParams, rate: float) -> float:
    """Fixed cost of a successful exchange: headers, RTS/CTS, 3 SIFS, ACK."""
    return (header_overhead(p, rate) + p.t_rts + p.t_cts + 3.0 * p.t_sifs
            + p.t_ack)


def timeout_duration(p: ProtocolParams) -> float:
    """CTS timeout after an unanswered RTS: SIFS + CTS + one slot."""
    return p.t_sifs + p.t_cts + p.sigma


def collision_duration(p: ProtocolParams) -> float:
    """Time a collided attempt occupies the channel: RTS + CTS timeout."""
    return p.t_rts + timeout_duration(p)


@dataclass(frozen=True)
class FrameTimes:
    """Precomputed per-node durations; the shape every consumer needs.

    success(n) and amsdu(n) are affine in n with slope `per_sample`
    (payload bits plus subframe header at the node rate).
    """

    overhead: float          # headers only
    success_overhead: float  # headers + RTS/CTS + 3 SIFS + ACK
    per_sample: float        # l/rate + subheader
    timeout: float
    collision: float

    def amsdu(self, n: float) -> float:
        """Duration of an aggregate data frame carrying n equal subframes."""
        return self.overhead + n * self.per_sample

    def success(self, n: float) -> float:
        """Wall-clock duration of a successful n-subframe exchange."""
        return self.success_overhead + n * self.per_sample


def frame_times(p: ProtocolParams, link: LinkParams) -> FrameTimes:
    """Bundle every duration of one node's exchange."""
    return FrameTimes(
        overhead=header_overhead(p, link.rate),
        success_overhead=success_overhead(p, link.rate),
        per_sample=link.l / link.rate + subheader_duration(p, link.rate),
        timeout=timeout_duration(p),
        collision=collision_duration(p),
    )
