"""Checkpoint journal: durability, torn tails, tags, exact round-trips."""

import json

import pytest

from repro.core.analysis import RunMeasurement
from repro.core.records import IORecord, TraceCollection
from repro.errors import CheckpointError
from repro.exec.checkpoint import (
    CheckpointJournal,
    measurement_from_payload,
    measurement_to_payload,
)


class TestJournal:
    def test_record_and_resume_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        journal = CheckpointJournal(path, tag="sweep-a")
        journal.record("p0:s1", {"value": 1.5})
        journal.record("p0:s2", {"value": 2.5})
        journal.close()

        resumed = CheckpointJournal(path, tag="sweep-a")
        assert len(resumed) == 2
        assert "p0:s1" in resumed
        assert resumed.completed()["p0:s2"] == {"value": 2.5}
        assert not resumed.finalized
        resumed.close()

    def test_finalize_marks_run_complete(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.record("k", {"x": 1})
        journal.finalize()
        resumed = CheckpointJournal(path)
        assert resumed.finalized
        with pytest.raises(CheckpointError, match="finalized"):
            resumed.record("k2", {"x": 2})
        resumed.close()

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.record("a", {"v": 1})
        journal.record("b", {"v": 2})
        journal.close()
        # Simulate a crash mid-append: a half-written trailing entry.
        with open(path, "a") as handle:
            handle.write('{"kind": "entry", "key": "c", "pay')
        resumed = CheckpointJournal(path)
        assert sorted(resumed.completed()) == ["a", "b"]
        resumed.close()

    def test_corruption_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.record("a", {"v": 1})
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt journal"):
            CheckpointJournal(path)

    def test_tag_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        CheckpointJournal(path, tag="sweep-a").close()
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointJournal(path, tag="sweep-b")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"kind": "entry", "key": "a",
                                    "payload": {}}) + "\n")
        with pytest.raises(CheckpointError, match="missing header"):
            CheckpointJournal(path)

    def test_resume_false_starts_fresh(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.record("a", {"v": 1})
        journal.close()
        fresh = CheckpointJournal(path, resume=False)
        assert len(fresh) == 0
        fresh.close()


class TestMeasurementPayload:
    def make_measurement(self):
        trace = TraceCollection([
            IORecord(pid=1, op="read", nbytes=4096,
                     start=0.123456789012345, end=0.223456789012345,
                     file="/data/a", offset=8192),
            IORecord(pid=2, op="write", nbytes=1536,
                     start=1.0 / 3.0, end=2.0 / 3.0, success=False,
                     retries=2),
        ])
        return RunMeasurement(trace=trace, exec_time=7.0 / 11.0,
                              fs_bytes=123456,
                              label="point-a",
                              extras={"queue_depth": 4})

    def test_roundtrip_is_bit_identical(self):
        original = self.make_measurement()
        # Through actual JSON text, as the journal stores it.
        payload = json.loads(json.dumps(
            measurement_to_payload(original)))
        restored = measurement_from_payload(payload)
        assert restored.label == original.label
        assert restored.exec_time == original.exec_time
        assert restored.fs_bytes == original.fs_bytes
        assert restored.extras == original.extras
        assert [
            (r.pid, r.op, r.nbytes, r.start, r.end, r.file, r.offset,
             r.success, r.layer, r.retries) for r in restored.trace
        ] == [
            (r.pid, r.op, r.nbytes, r.start, r.end, r.file, r.offset,
             r.success, r.layer, r.retries) for r in original.trace
        ]

    def test_resumed_strings_are_exact(self):
        values = ["read\x00", "w\U0001F600"]
        trace = TraceCollection([
            IORecord(pid=1, op=value, nbytes=512, start=0.0, end=1.0,
                     file=value, layer=value)
            for value in values])
        original = RunMeasurement(trace=trace, exec_time=1.0, fs_bytes=0)
        payload = json.loads(json.dumps(
            measurement_to_payload(original)))
        restored = measurement_from_payload(payload).trace.to_columns()
        assert restored == trace.to_columns()
        assert restored["op"] == restored["file"] == values

    def test_payload_is_columnar(self):
        payload = measurement_to_payload(self.make_measurement())
        assert set(payload["columns"]) == {
            "pid", "op", "nbytes", "start", "end", "file", "offset",
            "success", "retries", "layer"}
        assert payload["columns"]["pid"] == [1, 2]
        assert payload["columns"]["op"] == ["read", "write"]

    def test_malformed_payload_raises(self):
        with pytest.raises(CheckpointError, match="malformed"):
            measurement_from_payload({"exec_time": 1.0, "fs_bytes": 0})
        with pytest.raises(CheckpointError, match="malformed"):
            measurement_from_payload({
                "exec_time": 1.0, "fs_bytes": 0,
                "columns": {"pid": [1], "nbytes": [4096, 512],
                            "start": [0.0], "end": [1.0]}})


class TestSigintSync:
    """Ctrl-C must never lose an acknowledged (journaled) cell."""

    def test_sigint_flushes_pending_group_commit(self, tmp_path):
        import signal
        path = tmp_path / "run.ckpt.jsonl"
        # Huge fsync window: every entry stays in the pending group.
        journal = CheckpointJournal(path, fsync_interval=3600.0)
        journal.record("p0:s1", {"value": 1.0})
        journal.record("p0:s2", {"value": 2.0})
        assert journal._pending_sync
        import os
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
        # The handler synced the group before the interrupt propagated.
        assert not journal._pending_sync
        journal.close()
        resumed = CheckpointJournal(path)
        assert len(resumed) == 2
        resumed.close()

    def test_sigint_mid_append_defers_until_consistent(self, tmp_path):
        import signal
        journal = CheckpointJournal(tmp_path / "run.ckpt.jsonl",
                                    fsync_interval=3600.0)
        journal.record("p0:s1", {"value": 1.0})
        # Simulate a signal landing inside an append: the handler may
        # not touch the (non-reentrant) file object, only set a flag.
        journal._in_append = True
        with pytest.raises(KeyboardInterrupt):
            journal._on_sigint(signal.SIGINT, None)
        assert journal._sync_requested
        assert journal._pending_sync
        journal._in_append = False
        # The next append's cleanup performs the deferred sync.
        journal.record("p0:s2", {"value": 2.0})
        assert not journal._sync_requested
        assert not journal._pending_sync
        journal.close()

    def test_previous_handler_restored_on_close(self, tmp_path):
        import signal
        before = signal.getsignal(signal.SIGINT)
        journal = CheckpointJournal(tmp_path / "run.ckpt.jsonl")
        assert signal.getsignal(signal.SIGINT) == journal._on_sigint
        journal.close()
        assert signal.getsignal(signal.SIGINT) == before

    def test_worker_thread_journal_skips_the_hook(self, tmp_path):
        import signal
        import threading
        before = signal.getsignal(signal.SIGINT)
        seen = {}

        def off_main():
            journal = CheckpointJournal(tmp_path / "t.ckpt.jsonl")
            seen["hooked"] = journal._sigint_hooked
            journal.record("k", {"value": 1.0})
            journal.close()

        thread = threading.Thread(target=off_main)
        thread.start()
        thread.join()
        assert seen["hooked"] is False
        assert signal.getsignal(signal.SIGINT) == before
