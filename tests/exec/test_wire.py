"""Grid wire framing: checksums, bounds, and liveness resolution.

The frame layer is the grid protocol's integrity boundary — a flipped
payload byte or a corrupted length prefix must surface as
:class:`~repro.errors.FrameCorruptionError` before any allocation or
unpickle happens, never as garbage results.
"""

import pickle
import socket
import struct
import zlib

import pytest

from repro.errors import FrameCorruptionError, GridError
from repro.exec.backends import wire
from repro.exec.backends.wire import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LIVENESS_TIMEOUT,
    parse_hostport,
    recv_frame,
    resolve_liveness,
    send_frame,
    tokens_match,
)

_HEADER = struct.Struct(">II")


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        payload = {"kind": "job", "index": 3, "blob": list(range(100))}
        send_frame(a, payload)
        assert recv_frame(b) == payload

    def test_clean_close_is_eof(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)

    def test_flipped_payload_byte_fails_the_crc(self, pair):
        a, b = pair
        data = pickle.dumps({"poison": "x" * 200},
                            protocol=pickle.HIGHEST_PROTOCOL)
        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0xFF
        a.sendall(_HEADER.pack(len(data), zlib.crc32(data))
                  + bytes(corrupted))
        with pytest.raises(FrameCorruptionError,
                           match="checksum mismatch"):
            recv_frame(b)

    def test_corrupt_length_prefix_is_caught_before_allocation(
            self, pair):
        a, b = pair
        # A length beyond the bound must be rejected from the 8-byte
        # header alone — no payload bytes were ever sent.
        a.sendall(_HEADER.pack(1 << 31, 0))
        with pytest.raises(FrameCorruptionError,
                           match="corrupt length prefix"):
            recv_frame(b)

    def test_intact_crc_but_unpicklable_payload_is_quarantined(
            self, pair):
        a, b = pair
        data = b"this is not a pickle"
        a.sendall(_HEADER.pack(len(data), zlib.crc32(data)) + data)
        with pytest.raises(FrameCorruptionError,
                           match="would not unpickle"):
            recv_frame(b)

    def test_send_over_the_bound_is_a_caller_error(self, pair,
                                                   monkeypatch):
        a, _b = pair
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(GridError, match="exceeds 64"):
            send_frame(a, {"blob": "x" * 1000})

    def test_recv_respects_an_explicit_limit(self, pair, monkeypatch):
        a, b = pair
        send_frame(a, {"blob": "x" * 1000})
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameCorruptionError, match="exceeds 64"):
            recv_frame(b)


class TestLivenessResolution:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRID_HEARTBEAT", raising=False)
        monkeypatch.delenv("REPRO_GRID_LIVENESS", raising=False)

    def test_defaults(self):
        assert resolve_liveness() == (DEFAULT_HEARTBEAT_INTERVAL,
                                      DEFAULT_LIVENESS_TIMEOUT)

    def test_explicit_arguments_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT", "7.0")
        assert resolve_liveness(0.5, 3.0) == (0.5, 3.0)

    def test_env_vars_fill_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT", "1.5")
        monkeypatch.setenv("REPRO_GRID_LIVENESS", "9.0")
        assert resolve_liveness() == (1.5, 9.0)

    def test_non_positive_heartbeat_clamps_with_warning(self):
        with pytest.warns(RuntimeWarning, match="not positive"):
            heartbeat, _liveness = resolve_liveness(-1.0, 20.0)
        assert heartbeat == DEFAULT_HEARTBEAT_INTERVAL

    @pytest.mark.parametrize("clocks", [
        (float("nan"), None), (float("inf"), None),
        (None, float("nan")), (None, float("inf")),
    ])
    def test_non_finite_clock_clamps_with_warning(self, clocks):
        with pytest.warns(RuntimeWarning, match="not positive"):
            assert resolve_liveness(*clocks) == (
                DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LIVENESS_TIMEOUT)

    def test_non_finite_env_clock_clamps_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_LIVENESS", "nan")
        with pytest.warns(RuntimeWarning, match="not positive"):
            assert resolve_liveness() == (DEFAULT_HEARTBEAT_INTERVAL,
                                          DEFAULT_LIVENESS_TIMEOUT)

    def test_liveness_not_exceeding_heartbeat_clamps_to_double(self):
        with pytest.warns(RuntimeWarning, match="must exceed"):
            assert resolve_liveness(4.0, 2.0) == (4.0, 8.0)

    def test_non_numeric_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT", "soon")
        with pytest.warns(RuntimeWarning, match="not a number"):
            heartbeat, _liveness = resolve_liveness()
        assert heartbeat == DEFAULT_HEARTBEAT_INTERVAL


class TestSmallHelpers:
    def test_tokens_match_semantics(self):
        assert tokens_match(None, None)
        assert tokens_match("s", "s")
        assert not tokens_match("s", "t")
        assert not tokens_match("s", None)
        assert not tokens_match(None, "s")
        assert not tokens_match("s", 42)

    def test_parse_hostport(self):
        assert parse_hostport("10.1.2.3:9100") == ("10.1.2.3", 9100)
        assert parse_hostport(":9100")[1] == 9100
        with pytest.raises(GridError):
            parse_hostport("nohost-noport")
        with pytest.raises(GridError):
            parse_hostport("host:99999")
