"""Frame and event durations of the DCF + RTS/CTS + A-MSDU exchange.

`frame_times` derives every one; it is pure and takes SI inputs (s, bits, bits/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import LinkParams, ProtocolParams


@dataclass(frozen=True)
class FrameTimes:
    """Precomputed per-node durations; the shape every consumer needs.

    success(n) and amsdu(n) are affine in n with slope `per_sample`
    (payload bits plus subframe header at the node rate).
    """

    overhead: float          # headers only: PHY preamble, MAC header + FCS at the rate
    success_overhead: float  # headers + RTS/CTS + 3 SIFS + ACK
    per_sample: float        # l/rate + subheader
    timeout: float           # CTS timeout after an unanswered RTS: SIFS + CTS + slot
    collision: float         # a collided attempt on the channel: RTS + timeout

    def amsdu(self, n: float) -> float:
        """Duration of an aggregate data frame carrying n equal subframes."""
        return self.overhead + n * self.per_sample

    def success(self, n: float) -> float:
        """Wall-clock duration of a successful n-subframe exchange."""
        return self.success_overhead + n * self.per_sample


def frame_times(p: ProtocolParams, link: LinkParams) -> FrameTimes:
    """Bundle every duration of one node's exchange."""
    overhead = p.t_phy_hdr + (p.l_mac_hdr + p.l_fcs) / link.rate
    timeout = p.t_sifs + p.t_cts + p.sigma
    return FrameTimes(
        overhead=overhead,
        success_overhead=overhead + p.t_rts + p.t_cts + 3.0 * p.t_sifs + p.t_ack,
        per_sample=link.l / link.rate + p.l_shdr / link.rate,
        timeout=timeout,
        collision=p.t_rts + timeout,
    )
