"""Shared ``strict | salvage`` error policy for trace ingestion.

Production traces are partial, truncated, and occasionally corrupted —
one mangled line in a million-record capture should not abort the whole
analysis.  Every trace reader threads its per-line/per-record failures
through a :class:`SalvageSession`:

- in **strict** mode (the default everywhere) the first malformed
  input raises :class:`~repro.errors.TraceFormatError`, exactly the
  pre-salvage behaviour;
- in **salvage** mode malformed lines are *quarantined* — counted,
  their line numbers and reasons recorded in a
  :class:`QuarantineReport`, optionally copied verbatim to a
  quarantine file — and ingestion continues with the healthy records;
- a **max error ratio** bounds the damage: once the malformed fraction
  exceeds the budget the reader raises
  :class:`~repro.errors.SalvageError` — a file that is mostly garbage
  should fail fast, not produce a confidently wrong metric.  The check
  runs incrementally (so a gigabyte of noise is abandoned early) and
  again at end-of-file (so small files get an exact verdict).

The :class:`ErrorPolicy` instance passed to a reader receives the
read's :class:`QuarantineReport` as ``policy.report`` — the CLI prints
it after ``bps analyze --on-error salvage``.

:func:`check_storable` is the record rule the line readers share: a
record the trace columns cannot hold is malformed input like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.errors import AnalysisError, SalvageError, TraceFormatError

STRICT = "strict"
SALVAGE = "salvage"

#: Default malformed-line budget: past this fraction the file is
#: considered garbage and salvage gives up.
DEFAULT_MAX_ERROR_RATIO = 0.25

#: Incremental budget checks start once this many data lines were seen
#: (small prefixes are noisy; tiny files are judged exactly at EOF).
_FAST_FAIL_MIN_LINES = 50

#: Bounds of the int64 and int32 trace columns
#: (:class:`~repro.core.records.TraceCollection`).
_INT64, _INT32 = 1 << 63, 1 << 31
_INF = math.inf


def check_storable(record) -> None:
    """Reject a record the trace columns cannot hold.

    A NaN or infinite timestamp poisons every union and window it
    touches, and an integer outside its column's dtype overflows when
    the rows are consolidated.  Raises
    :class:`~repro.errors.AnalysisError`, which the readers report as
    ``bad record: ...`` like the record's own checks.
    """
    # One expression for the common case: this runs once per line.
    # With the record's own ``end >= start`` and non-negative sizes and
    # retries, it is false for every NaN or infinite timestamp and every
    # integer out of range.
    if -_INF < record.start and record.end < _INF \
            and -_INT64 <= record.pid < _INT64 and record.nbytes < _INT64 \
            and -_INT64 <= record.offset < _INT64 \
            and record.retries < _INT32:
        return
    if not (math.isfinite(record.start) and math.isfinite(record.end)):
        raise AnalysisError(
            f"non-finite timestamps [{record.start}, {record.end}]")
    for name, limit, dtype in (("pid", _INT64, "int64"),
                               ("nbytes", _INT64, "int64"),
                               ("offset", _INT64, "int64"),
                               ("retries", _INT32, "int32")):
        value = getattr(record, name)
        if not -limit <= value < limit:
            raise AnalysisError(f"{name} {value} does not fit in {dtype}")


@dataclass(frozen=True)
class QuarantineEntry:
    """One skipped input: where, why, and (truncated) what."""

    line_number: int
    reason: str
    text: str = ""


class QuarantineReport:
    """What salvage-mode ingestion skipped, and why."""

    def __init__(self, source: str, *, max_error_ratio: float,
                 quarantine_path: str | Path | None = None) -> None:
        self.source = source
        self.max_error_ratio = max_error_ratio
        self.quarantine_path = (Path(quarantine_path)
                                if quarantine_path else None)
        self.entries: list[QuarantineEntry] = []
        #: Data lines (or records) examined — comments/blanks excluded.
        self.lines_seen = 0
        self.records_kept = 0

    @property
    def skipped(self) -> int:
        return len(self.entries)

    @property
    def error_ratio(self) -> float:
        return self.skipped / self.lines_seen if self.lines_seen else 0.0

    def summary(self) -> str:
        """Human-readable digest (the CLI prints this)."""
        lines = [
            f"salvage: {self.source}: kept {self.records_kept} "
            f"record(s), quarantined {self.skipped} of "
            f"{self.lines_seen} line(s) "
            f"({self.error_ratio:.1%}, budget {self.max_error_ratio:.0%})"
        ]
        for entry in self.entries[:10]:
            lines.append(f"  line {entry.line_number}: {entry.reason}")
        if self.skipped > 10:
            lines.append(f"  ... and {self.skipped - 10} more")
        if self.quarantine_path is not None:
            lines.append(f"  quarantined lines written to "
                         f"{self.quarantine_path}")
        return "\n".join(lines)


class ErrorPolicy:
    """Ingestion error policy: mode, budget, quarantine destination.

    Pass one instance per read when you want the report back —
    ``policy.report`` is (re)bound by each read that uses the policy.
    """

    def __init__(self, mode: str = STRICT, *,
                 max_error_ratio: float = DEFAULT_MAX_ERROR_RATIO,
                 quarantine_path: str | Path | None = None) -> None:
        if mode not in (STRICT, SALVAGE):
            raise TraceFormatError(
                f"error policy mode must be {STRICT!r} or {SALVAGE!r}, "
                f"got {mode!r}")
        if not (0.0 < max_error_ratio <= 1.0):
            raise TraceFormatError(
                f"max_error_ratio must be in (0, 1], "
                f"got {max_error_ratio}")
        self.mode = mode
        self.max_error_ratio = max_error_ratio
        self.quarantine_path = quarantine_path
        self.report: QuarantineReport | None = None

    @property
    def salvage(self) -> bool:
        return self.mode == SALVAGE

    @classmethod
    def coerce(cls, errors: "ErrorPolicy | str | None") -> "ErrorPolicy":
        """Accept a policy, a mode string, or None (strict)."""
        if errors is None:
            return cls(STRICT)
        if isinstance(errors, str):
            return cls(errors)
        return errors


class SalvageSession:
    """One read's error accounting; every reader drives one of these."""

    def __init__(self, errors: ErrorPolicy | str | None,
                 name: str) -> None:
        self.policy = ErrorPolicy.coerce(errors)
        self.name = name
        self.report = QuarantineReport(
            name,
            max_error_ratio=self.policy.max_error_ratio,
            quarantine_path=(self.policy.quarantine_path
                             if self.policy.salvage else None))
        self.policy.report = self.report
        self._quarantine: IO[str] | None = None

    @property
    def salvage(self) -> bool:
        return self.policy.salvage

    def kept(self, count: int = 1) -> None:
        """``count`` healthy records ingested (one line each)."""
        self.report.lines_seen += count
        self.report.records_kept += count

    def bad(self, line_number: int, reason: str, text: str = "") -> None:
        """One malformed input: raise (strict) or quarantine (salvage)."""
        if not self.salvage:
            raise TraceFormatError(f"{self.name}:{line_number}: {reason}")
        self.report.lines_seen += 1
        self.report.entries.append(QuarantineEntry(
            line_number=line_number, reason=reason, text=text[:500]))
        if text and self.report.quarantine_path is not None:
            if self._quarantine is None:
                self._quarantine = open(self.report.quarantine_path, "w")
            self._quarantine.write(text.rstrip("\n") + "\n")
        if self.report.lines_seen >= _FAST_FAIL_MIN_LINES and \
                self.report.error_ratio > self.report.max_error_ratio:
            self._give_up()

    def finish(self) -> None:
        """End of input: close the quarantine, apply the exact budget."""
        if self._quarantine is not None:
            self._quarantine.close()
            self._quarantine = None
        if self.report.skipped and \
                self.report.error_ratio > self.report.max_error_ratio:
            self._give_up()

    def _give_up(self) -> None:
        if self._quarantine is not None:
            self._quarantine.close()
            self._quarantine = None
        report = self.report
        raise SalvageError(
            f"{self.name}: {report.skipped} of {report.lines_seen} "
            f"line(s) malformed ({report.error_ratio:.1%} > "
            f"{report.max_error_ratio:.0%} budget) — refusing to "
            f"salvage a garbage file; last reason: "
            f"{report.entries[-1].reason}")
