import numpy as np
import pytest

from wpcsma import InvalidParameterError, LinkParams, ProtocolParams, frame_times

from conftest import PROTO

LINK11 = LinkParams(l=400.0, rate=11e6)
T11 = frame_times(PROTO, LINK11)


def test_overhead_infinite_rate_limit():
    t = frame_times(PROTO, LinkParams(l=400.0, rate=1e18))
    assert t.overhead == pytest.approx(20e-6, rel=1e-9)


def test_overhead_at_11mbps():
    # 20us + (36+4) bytes at 11 Mb/s
    assert T11.overhead == pytest.approx(4.909090909090909e-05, rel=1e-12)


def test_overhead_at_5p5mbps():
    t = frame_times(PROTO, LinkParams(l=400.0, rate=5.5e6))
    assert t.overhead == pytest.approx(7.818181818181818e-05, rel=1e-12)


def test_overhead_rejects_bad_rate():
    # the one rate guard: no link with a rate <= 0 reaches frame_times
    with pytest.raises(InvalidParameterError, match="link.rate"):
        LinkParams(l=400.0, rate=0.0)
    with pytest.raises(InvalidParameterError, match="link.rate"):
        LinkParams(l=400.0, rate=-1.0)


def test_amsdu_empty_aggregate_is_overhead_only():
    assert T11.amsdu(0) == T11.overhead


def test_amsdu_single_subframe():
    expect = T11.overhead + (400 + 112) / 11e6
    assert T11.amsdu(1) == pytest.approx(expect, rel=1e-12)


def test_amsdu_payload_term_linear_in_n():
    base = T11.amsdu(0)
    one = T11.amsdu(7) - base
    two = T11.amsdu(14) - base
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_success_overhead_value():
    # headers + RTS + CTS + 3 SIFS + ACK at Table values, 11 Mb/s
    expect = 4.909090909090909e-05 + (46.67 + 38.67 + 3 * 16 + 38.67) * 1e-6
    assert T11.success_overhead == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(221.1e-6, rel=1e-3)


def test_success_minus_amsdu_is_handshake():
    for n in (1, 4, 9):
        gap = T11.success(n) - T11.amsdu(n)
        assert gap == pytest.approx(
            PROTO.t_rts + PROTO.t_cts + 3 * PROTO.t_sifs + PROTO.t_ack,
            rel=1e-12)


def test_success_strictly_increasing_in_n():
    durs = [T11.success(n) for n in range(1, 20)]
    assert np.all(np.diff(durs) > 0)


def test_collision_and_timeout_values():
    assert T11.timeout == pytest.approx(63.67e-6, rel=1e-12)
    assert T11.collision == pytest.approx(110.34e-6, rel=1e-12)
    assert T11.collision > T11.timeout


def test_collision_independent_of_rate_and_n():
    assert frame_times(PROTO, LINK11).collision == \
        frame_times(PROTO, LinkParams(l=8000.0, rate=1e6)).collision


def test_duration_ordering():
    rng = np.random.default_rng(0)
    for _ in range(50):
        link = LinkParams(l=float(rng.uniform(80, 12000)),
                          rate=float(rng.uniform(1e6, 54e6)))
        n = float(rng.uniform(1, 60))
        t = frame_times(PROTO, link)
        assert t.success(n) > t.amsdu(n) > t.overhead > 0
        assert t.collision > PROTO.sigma


def test_unit_scaling_consistency():
    # expressing all inputs in us instead of s scales every output by 1e6
    scale = 1e6
    proto_us = ProtocolParams(
        sigma=PROTO.sigma * scale, t_sifs=PROTO.t_sifs * scale,
        t_difs=PROTO.t_difs * scale, t_ack=PROTO.t_ack * scale,
        t_rts=PROTO.t_rts * scale, t_cts=PROTO.t_cts * scale,
        t_phy_hdr=PROTO.t_phy_hdr * scale, l_mac_hdr=PROTO.l_mac_hdr,
        l_shdr=PROTO.l_shdr, l_fcs=PROTO.l_fcs)
    t_us = frame_times(proto_us, LinkParams(l=400.0, rate=11e6 / scale))
    for n in (1, 5, 12):
        assert t_us.success(n) == pytest.approx(T11.success(n) * scale, rel=1e-12)
        assert t_us.amsdu(n) == pytest.approx(T11.amsdu(n) * scale, rel=1e-12)
    assert t_us.collision == pytest.approx(T11.collision * scale, rel=1e-12)


def test_affine_slope_in_n():
    t = frame_times(PROTO, LINK11)
    slope = t.success(8.0) - t.success(7.0)
    assert slope == pytest.approx(400 / 11e6 + 112 / 11e6, rel=1e-12)
    assert slope == pytest.approx(t.per_sample, rel=1e-12)
