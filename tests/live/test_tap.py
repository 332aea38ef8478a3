"""LiveTap server keys: the one first-stripe rule."""

import numpy as np

from repro.live import RecordChunk
from repro.live.tap import first_stripe_server
from repro.util.units import KiB


def test_first_stripe_server_rule():
    stripe, servers = 64 * KiB, (2, 0, 1)
    offsets = [-1, -7, 0, stripe - 1, stripe, 10 ** 9]
    chunk = RecordChunk.build(pid=0, nbytes=512, start=np.arange(6.0),
                              end=np.arange(6.0) + 0.5, offset=offsets)
    # The server holding the first byte; unknown offsets are "?".
    expected = ["?" if offset < 0
                else f"server{servers[(offset // stripe) % len(servers)]}"
                for offset in offsets]
    assert first_stripe_server(servers, stripe)(chunk).tolist() == expected
