"""What only the live channel host has: sender identity and the
validation of frames from untrusted peers.  Channel behaviour itself is
in ``test_channel.py``, over both drivers."""

import pytest

from .test_channel import LiveDriver, ids, message
from .test_service_codec import ILL_SHAPED_MESSAGES


class TestServiceTransport:
    def test_sender_identity_enforced(self):
        d = LiveDriver()
        with pytest.raises(ValueError, match="asked to send as"):
            d.transports[0].send(1, 0, message(0))

    def test_malformed_frames_ignored(self):
        d = LiveDriver(n=3)
        d.send(0, 1, 0)
        d.settle()
        transport = d.transports[0]
        sender = d.sender(0, 1)
        before = (sender.next_seq, dict(sender.unacked), sender.rto)
        bad = [
            {"k": "data"},                                    # no src
            {"k": "bogus", "src": 1},
            {"k": "ack", "src": 1},                           # no cum
            {"k": "ack", "src": 1, "cum": "9"},
            {"k": "ack", "src": 1, "cum": True},
            {"k": "data", "src": 1},                          # no seq, no m
            {"k": "data", "src": 1, "seq": "x", "m": {}},
            {"k": "data", "src": 1, "seq": 0, "m": {}},       # m is no message
            {"k": "data", "src": 99, "seq": 5, "m": {}},      # not a member
            {"k": "data", "src": 0, "seq": 0, "m": {}},       # this site itself
        ]
        # in sequence, from a member, well tagged - and not buildable
        bad += [{"k": "data", "src": 1, "seq": 0, "m": wire}
                for wire in ILL_SHAPED_MESSAGES]
        for frame in bad:
            transport.on_frame(frame)
        transport.on_frame({"k": "hello", "src": 1})          # not malformed
        d.settle()
        assert transport.malformed_frames == len(bad)
        assert ids(d, 0) == []
        assert (sender.next_seq, dict(sender.unacked), sender.rto) == before
        # a non-member never gets channel state, an ack or a dial
        assert sorted(transport._channels) == [(0, 1)]
        assert d.injector.decisions == 2  # the one data frame and its ack
