"""Forked duplex-pipe workers — the transport both process pools share.

The fork backend's pool workers (:mod:`repro.exec.backends.fork`) and
the grid-worker job child (:mod:`repro.exec.gridworker`) hold their
children the same way: one forked process per worker, one dedicated
duplex pipe, jobs and results exchanged as pickled messages, EOF on
the pipe as the crash signal.  :class:`DuplexWorker` is that shared
mechanism — fork, pipe bookkeeping, and the terminate/join/kill
retirement ladder — so each pool only implements its own protocol on
top.

Fork semantics matter here: the worker target and everything it closes
over are *inherited*, never pickled, so callers can hand closures over
live configuration (the pool's job function) straight to the child.
EOF works both ways: the child closes its inherited copy of the
parent's end before it runs the target, so a child blocked in
``recv`` sees EOF and exits when its parent dies, instead of living on
as an orphan.
"""

from __future__ import annotations

import multiprocessing
import signal
from multiprocessing import get_context
from typing import Callable


def fork_available() -> bool:
    """Whether fork-based worker pools can run at all on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _child_entry(parent_conn, target: Callable, child_conn, *args) -> None:
    """Drop the inherited parent end, then run ``target`` in the child."""
    # A parent that turns SIGTERM into KeyboardInterrupt (the grid
    # worker daemon) must still be able to terminate() its children.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_conn.close()
    target(child_conn, *args)


class DuplexWorker:
    """One forked child process with a dedicated duplex pipe.

    The child runs ``target(child_conn, *args)``; the parent keeps the
    other pipe end as :attr:`conn`.  A child that exits for any reason
    (crash, ``os._exit``, OOM-kill) surfaces as EOF/``OSError`` on
    :meth:`recv` or ``BrokenPipeError`` on :meth:`send` — the caller's
    signal to retire and respawn.
    """

    __slots__ = ("process", "conn")

    def __init__(self, target: Callable, args: tuple = (), *,
                 ctx=None) -> None:
        ctx = ctx or get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_child_entry,
                                   args=(parent_conn, target, child_conn,
                                         *args),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def send(self, message) -> None:
        self.conn.send(message)

    def recv(self):
        return self.conn.recv()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode

    def retire(self, *, terminate: bool,
               join_timeout: float = 5.0) -> None:
        """Stop tracking the child: terminate/join/kill, close the pipe."""
        if terminate and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=join_timeout)
        self.conn.close()
