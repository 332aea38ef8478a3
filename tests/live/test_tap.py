"""LiveTap server keys: the columnar breakdown key matches the row key."""

from types import SimpleNamespace

import numpy as np

from repro.core.records import IORecord
from repro.live import RecordChunk
from repro.live.tap import _server_columns, _server_key
from repro.util.units import KiB


def test_server_columns_match_row_key():
    layout = SimpleNamespace(stripe_size=64 * KiB, servers=(2, 0, 1))
    offsets = [-1, 0, 1, 64 * KiB - 1, 64 * KiB, 130 * KiB, 5 * 64 * KiB,
               -7, 10 ** 9]
    records = [IORecord(pid=0, op="read", nbytes=512, start=float(k),
                        end=float(k) + 0.5, offset=offset)
               for k, offset in enumerate(offsets)]
    row_key = _server_key(layout)
    columns = _server_columns(layout)(RecordChunk.from_records(records))
    assert list(columns) == [row_key(r) for r in records]
    assert np.all(columns[np.array(offsets) < 0] == "?")
