"""Grid wire protocol: DuplexWorker's pipe framing, generalised to TCP.

The fork pool's transport is ``multiprocessing.Pipe`` — length-prefixed
pickled messages with EOF as the death signal.  This module is the same
idea over a socket so the *identical* message discipline (one job
outstanding per worker, results echo ``(index, attempt)``, EOF means
the executor is gone) works across hosts:

- every frame is an 8-byte header — a 4-byte big-endian payload length
  followed by the payload's CRC32 — and then the pickled payload.  The
  length is validated against :data:`MAX_FRAME_BYTES` **before** any
  payload byte is read, so a corrupt or hostile length prefix cannot
  balloon the reader; the checksum is validated before the payload is
  unpickled, so a flaky link that flips bits mid-frame produces a
  :class:`~repro.errors.FrameCorruptionError` quarantine, never a
  silently-wrong (or actively dangerous) deserialised object;
- the dispatcher opens the conversation with a ``hello`` carrying the
  protocol version, an optional shared token, and the
  :class:`~repro.exec.backends.task.GridTask` the worker should
  resolve; the worker answers ``welcome`` (or ``reject`` and hangs
  up);
- after the handshake: ``job`` / ``done`` / ``failed`` for work,
  ``ping`` / ``pong`` for liveness (either side may ping; any frame
  proves liveness), ``abort`` / ``aborted`` to reap a hung or
  straggling cell, ``bye`` to part cleanly.

Frames are **pickle**, exactly like the pipe transport, because grid
cells and their results (sweep specs, ``RunMeasurement`` with columnar
traces) round-trip bit-identically through pickle and nothing else in
the stdlib does.  Pickle over a socket executes what it is sent — this
protocol is for a cluster you own, not the open internet: bind workers
to private interfaces and set ``REPRO_GRID_TOKEN`` on both ends (the
token is compared constant-time and checked *before* the task is
resolved; the hello frame that carries it is still a pickle, so the
token narrows the honest-mistake window — wrong cluster, stale
dispatcher — rather than making the port safe to expose).  The CRC is
an integrity check against accidental corruption, not an
authenticator.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import struct
import warnings
import zlib

from repro.errors import FrameCorruptionError, GridError

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LIVENESS_TIMEOUT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "connect",
    "parse_hostport",
    "recv_frame",
    "resolve_liveness",
    "send_frame",
    "tokens_match",
]

#: v2 added the per-frame CRC32; v1 peers are rejected at handshake.
PROTOCOL_VERSION = 2

#: Hard per-frame bound.  Sweep results carry columnar traces — MBs at
#: corpus scale — but a GB-sized frame means a corrupt length prefix.
MAX_FRAME_BYTES = 1 << 30

#: Default liveness clocks (seconds), shared by the dispatcher and the
#: worker daemon so both ends of a half-open socket give up on it.
DEFAULT_HEARTBEAT_INTERVAL = 2.0
DEFAULT_LIVENESS_TIMEOUT = 10.0

_HEADER = struct.Struct(">II")  # payload length, payload CRC32


def send_frame(sock: socket.socket, obj) -> None:
    """Pickle ``obj`` and send it length-prefixed and checksummed."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise GridError(
            f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(_HEADER.pack(len(data), zlib.crc32(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Receive one frame; raises EOFError on a clean peer close.

    The length prefix is checked against the frame bound before the
    payload read begins (a corrupted 4-byte length must not trigger a
    gigabyte allocation), and the payload CRC is checked before
    unpickling.  Both failures raise
    :class:`~repro.errors.FrameCorruptionError` — after either, the
    stream offset can no longer be trusted, so callers must drop the
    connection rather than try to read the next frame.

    A partial frame followed by silence stalls until the socket
    timeout fires (``socket.timeout``/``TimeoutError``) — the caller's
    liveness machinery owns that clock.
    """
    length, checksum = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameCorruptionError(
            f"incoming frame of {length} bytes exceeds "
            f"{MAX_FRAME_BYTES} (corrupt length prefix?)")
    data = _recv_exact(sock, length)
    if zlib.crc32(data) != checksum:
        raise FrameCorruptionError(
            f"frame checksum mismatch over {length} bytes "
            f"(corrupted in transit)")
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 — quarantine, not crash
        raise FrameCorruptionError(
            f"frame payload would not unpickle despite an intact "
            f"checksum: {type(exc).__name__}: {exc}") from exc


def tokens_match(expected: str | None, presented) -> bool:
    """Constant-time shared-token check; both-absent passes."""
    if not expected and not presented:
        return True
    if not expected or not isinstance(presented, str):
        return False
    return hmac.compare_digest(expected, presented)


def resolve_liveness(heartbeat: float | None = None,
                     liveness: float | None = None,
                     ) -> tuple[float, float]:
    """Clamp-and-warn resolution of the two liveness clocks.

    Returns ``(heartbeat_interval, liveness_timeout)``.  ``None``
    falls back to the env vars ``REPRO_GRID_HEARTBEAT`` /
    ``REPRO_GRID_LIVENESS`` and then the defaults.  Out-of-range
    values degrade instead of aborting: a non-positive or non-finite
    clock is clamped to its default with a warning, and a liveness
    timeout not strictly greater than the heartbeat interval is
    clamped to twice the heartbeat (one ping must have a full interval
    to come back before the silence verdict lands).
    """

    def from_env(name: str) -> float | None:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return None
        try:
            return float(raw)
        except ValueError:
            warnings.warn(
                f"{name}={raw!r} is not a number; ignoring",
                RuntimeWarning, stacklevel=3)
            return None

    if heartbeat is None:
        heartbeat = from_env("REPRO_GRID_HEARTBEAT")
    if liveness is None:
        liveness = from_env("REPRO_GRID_LIVENESS")
    if heartbeat is None:
        heartbeat = DEFAULT_HEARTBEAT_INTERVAL
    elif not 0 < heartbeat < float("inf"):  # NaN fails too
        warnings.warn(
            f"heartbeat interval {heartbeat:g}s is not positive and "
            f"finite; clamping to {DEFAULT_HEARTBEAT_INTERVAL:g}s",
            RuntimeWarning, stacklevel=2)
        heartbeat = DEFAULT_HEARTBEAT_INTERVAL
    if liveness is None:
        liveness = max(DEFAULT_LIVENESS_TIMEOUT, 2.0 * heartbeat)
    elif not 0 < liveness < float("inf"):
        warnings.warn(
            f"liveness timeout {liveness:g}s is not positive and "
            f"finite; clamping to {DEFAULT_LIVENESS_TIMEOUT:g}s",
            RuntimeWarning, stacklevel=2)
        liveness = max(DEFAULT_LIVENESS_TIMEOUT, 2.0 * heartbeat)
    if liveness <= heartbeat:
        clamped = 2.0 * heartbeat
        warnings.warn(
            f"liveness timeout {liveness:g}s must exceed the "
            f"heartbeat interval {heartbeat:g}s; clamping to "
            f"{clamped:g}s", RuntimeWarning, stacklevel=2)
        liveness = clamped
    return heartbeat, liveness


def parse_hostport(text: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)``; bare ``:port`` means localhost."""
    host, sep, port_text = text.strip().rpartition(":")
    if not sep:
        raise GridError(
            f"worker address {text!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise GridError(
            f"worker address {text!r} has a non-numeric port") from None
    if not 0 <= port <= 65535:
        raise GridError(f"worker address {text!r} port out of range")
    return (host or "127.0.0.1", port)


def connect(address: tuple[str, int], *,
            timeout: float) -> socket.socket:
    """A connected TCP socket with TCP_NODELAY (frames are small)."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
