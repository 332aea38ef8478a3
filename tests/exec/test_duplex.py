"""DuplexWorker: the child's pipe reads EOF once the parent's end closes."""

import pytest

from repro.exec.duplex import DuplexWorker, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method")


def _block_in_recv(conn):
    try:
        conn.recv()
    except EOFError:
        pass


def test_child_exits_when_parent_end_closes():
    worker = DuplexWorker(_block_in_recv)
    worker.conn.close()
    worker.process.join(timeout=5)
    orphaned = worker.process.is_alive()
    if orphaned:
        worker.process.kill()
        worker.process.join()
    assert not orphaned
