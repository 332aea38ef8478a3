"""Backend interface: job outcomes and grid tasks."""

import pytest

from repro.errors import SupervisionError
from repro.exec.backends import GridTask, JobOutcome, import_ref


class TestJobOutcome:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SupervisionError, match="unknown outcome kind"):
            JobOutcome("exploded", 0, 0)


class TestGridTask:
    def test_import_ref_rejects_bad_shapes(self):
        from repro.errors import GridError
        for bad in ("noseparator", ":attr", "mod:", "no.such.module:x",
                    "repro:nothing_here"):
            with pytest.raises(GridError):
                import_ref(bad)

    def test_import_ref_rejects_non_callable(self):
        from repro.errors import GridError
        with pytest.raises(GridError, match="non-callable"):
            import_ref("repro.exec.backends.wire:PROTOCOL_VERSION")

    def test_resolve_calls_factory(self):
        task = GridTask("repro.exec.backends.task:import_ref",
                        args=("repro.exec.backends.wire:parse_hostport",))
        fn = task.resolve()
        assert fn("h:1") == ("h", 1)
