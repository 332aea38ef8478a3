"""I/O access records — step 1 of the BPS measurement methodology.

The paper (section III.B) captures one record per I/O access of a
process: process ID, I/O size, start time, end time.  Records are taken
at the I/O middleware layer (MPI-IO) or in the I/O function library
(POSIX), so applications need no modification; our middleware package
does exactly that via :class:`~repro.middleware.tracing.TraceRecorder`.

:class:`TraceCollection` is step 2: the global gather of all processes'
records, from which both ``B`` (total application blocks) and the time
pair collection (input to the union-time algorithm) are derived.

Storage layout
--------------

The collection is *columnar* (structure-of-arrays): one NumPy array per
record field (``pid``/``nbytes``/``start``/``end``/``offset``/
``success``) plus interned categorical columns for ``op``/``file``/
``layer`` (int32 codes into a per-collection string table).  Incoming
records land on a plain-list tail so the recording hot path stays O(1);
the tail is folded into the arrays the first time a columnar operation
needs them.  :class:`IORecord` remains the row-level API — iteration and
indexing materialise rows lazily — so middleware recording and the
trace readers work unchanged.

Derived results (interval arrays, union time, block totals, filtered
views) are memoised per collection and invalidated on any append; see
DESIGN.md §7 for the contract.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import AnalysisError
from repro.util.units import BLOCK_SIZE, bytes_to_blocks

#: Layer tags a record can carry.  ``app`` records are what BPS counts;
#: ``fs`` records (bytes actually moved below the middleware) exist so
#: bandwidth can be measured at the file-system boundary.
LAYER_APP = "app"
LAYER_FS = "fs"


@dataclass(frozen=True)
class IORecord:
    """One I/O access of one process.

    The paper's record is (process ID, I/O size in blocks, start, end) —
    32 bytes.  We additionally keep the operation, file, and offset for
    the offline toolkit, and a ``success`` flag: failed accesses are
    still counted in ``B`` (section III.A counts "all successful
    accesses, non-successful ones, and all concurrent ones").
    """

    pid: int
    op: str
    nbytes: int
    start: float
    end: float
    file: str = ""
    offset: int = -1
    success: bool = True
    layer: str = LAYER_APP
    #: Which retry attempt this record describes: 0 for the first issue
    #: of an operation, k for its k-th re-issue.  Middleware retry emits
    #: one record per attempt — each attempt occupies the I/O system, so
    #: each contributes to B and to the union time (section III.A counts
    #: non-successful accesses too).
    retries: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise AnalysisError(f"negative record size: {self.nbytes}")
        if self.end < self.start:
            raise AnalysisError(
                f"record ends before it starts: [{self.start}, {self.end}]"
            )
        if self.retries < 0:
            raise AnalysisError(f"negative retry count: {self.retries}")

    def blocks(self, block_size: int = BLOCK_SIZE) -> int:
        """Blocks this access contributes to B (partial blocks round up)."""
        return bytes_to_blocks(self.nbytes, block_size)

    @property
    def duration(self) -> float:
        """Response time of this access."""
        return self.end - self.start

    def shifted(self, delta: float) -> "IORecord":
        """A copy with both timestamps moved by ``delta``."""
        return replace(self, start=self.start + delta, end=self.end + delta)


class _Interner:
    """Append-only string <-> int32 code table for a categorical column."""

    __slots__ = ("values", "_index")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self.values: list[str] = list(values)
        self._index: dict[str, int] = {
            value: code for code, value in enumerate(self.values)
        }

    def code(self, value: str) -> int:
        code = self._index.get(value)
        if code is None:
            code = len(self.values)
            self.values.append(value)
            self._index[value] = code
        return code

    def lookup(self, value: str) -> int | None:
        """Code of ``value`` without interning it; None if absent."""
        return self._index.get(value)

    def remap_from(self, other: "_Interner") -> np.ndarray:
        """Array mapping ``other``'s codes to this table's codes."""
        if not other.values:
            return np.empty(0, dtype=np.int32)
        return np.fromiter((self.code(v) for v in other.values),
                           dtype=np.int32, count=len(other.values))


#: Column name -> dtype of the consolidated arrays.  ``op``/``file``/
#: ``layer`` are int32 codes into the collection's interners.
_COLUMN_DTYPES = {
    "pid": np.int64,
    "nbytes": np.int64,
    "start": np.float64,
    "end": np.float64,
    "offset": np.int64,
    "success": np.bool_,
    "retries": np.int32,
    "op": np.int32,
    "file": np.int32,
    "layer": np.int32,
}


class TraceCollection:
    """A gathered set of I/O records (the paper's global collection).

    Supports incremental building (the middleware appends as accesses
    complete), merging per-process collections, NumPy export of the
    (start, end) pairs for the union-time computation, and vectorised
    filtering/aggregation over the columnar backend.
    """

    def __init__(self, records: Iterable[IORecord] = ()) -> None:
        #: Consolidated columns (None until the first consolidation).
        self._cols: dict[str, np.ndarray] | None = None
        #: Appended-but-not-consolidated rows (the recording hot path).
        self._tail: list[IORecord] = list(records)
        self._ops = _Interner()
        self._files = _Interner()
        self._layers = _Interner((LAYER_APP, LAYER_FS))
        #: Categorical columns still held as raw string arrays (bulk
        #: ingest defers interning until codes are actually needed, so
        #: metric pipelines never pay for columns they don't read).
        self._raw_cats: set[str] = set()
        #: Memoised derived results; cleared by :meth:`_invalidate`.
        self._cache: dict = {}
        #: Set on cached views: (weakref to parent, cache key), so a
        #: mutated view detaches itself from the parent's cache.
        self._parent_ref: tuple[weakref.ref, object] | None = None

    # -- columnar plumbing -------------------------------------------------

    @classmethod
    def _from_columns(cls, cols: dict[str, np.ndarray],
                      ops: _Interner, files: _Interner,
                      layers: _Interner,
                      raw_cats: set[str] = frozenset()) -> "TraceCollection":
        view = cls.__new__(cls)
        view._cols = cols
        view._tail = []
        # Interners are append-only, so views share them: codes written
        # before the view was taken can never change meaning.
        view._ops = ops
        view._files = files
        view._layers = layers
        view._raw_cats = set(raw_cats)
        view._cache = {}
        view._parent_ref = None
        return view

    def _interner_for(self, name: str) -> _Interner:
        return {"op": self._ops, "file": self._files,
                "layer": self._layers}[name]

    def _materialise_cat(self, name: str) -> None:
        """Replace a raw string column with interned int32 codes."""
        if name not in self._raw_cats:
            return
        arr = self._cols[name]
        interner = self._interner_for(name)
        # Vectorised interning: unique the column once, intern only the
        # (few) distinct values, then expand codes by inverse.
        uniques, inverse = np.unique(arr, return_inverse=True)
        unique_codes = np.fromiter(
            (interner.code(str(value)) for value in uniques),
            np.int32, count=len(uniques))
        self._cols[name] = unique_codes[inverse]
        self._raw_cats.discard(name)

    def _consolidate(self) -> None:
        """Fold the row tail into the column arrays."""
        tail = self._tail
        if not tail:
            return
        if self._cols is not None:
            # Tail rows arrive as interned codes; any raw bulk-ingested
            # categorical columns must be coded before concatenation.
            for name in tuple(self._raw_cats):
                self._materialise_cat(name)
        n = len(tail)
        fresh = {
            "pid": np.fromiter((r.pid for r in tail), np.int64, count=n),
            "nbytes": np.fromiter((r.nbytes for r in tail), np.int64,
                                  count=n),
            "start": np.fromiter((r.start for r in tail), np.float64,
                                 count=n),
            "end": np.fromiter((r.end for r in tail), np.float64, count=n),
            "offset": np.fromiter((r.offset for r in tail), np.int64,
                                  count=n),
            "success": np.fromiter((r.success for r in tail), np.bool_,
                                   count=n),
            "retries": np.fromiter((r.retries for r in tail), np.int32,
                                   count=n),
            "op": np.fromiter((self._ops.code(r.op) for r in tail),
                              np.int32, count=n),
            "file": np.fromiter((self._files.code(r.file) for r in tail),
                                np.int32, count=n),
            "layer": np.fromiter((self._layers.code(r.layer) for r in tail),
                                 np.int32, count=n),
        }
        if self._cols is None:
            self._cols = fresh
        else:
            self._cols = {
                name: np.concatenate((self._cols[name], fresh[name]))
                for name in _COLUMN_DTYPES
            }
        self._tail = []

    def _col(self, name: str) -> np.ndarray:
        self._consolidate()
        if self._cols is None:
            return np.empty(0, dtype=_COLUMN_DTYPES[name])
        return self._cols[name]

    def _invalidate(self) -> None:
        self._cache.clear()
        if self._parent_ref is not None:
            parent_ref, key = self._parent_ref
            parent = parent_ref()
            # Detach from the parent's view cache — but only if the
            # parent still caches *this* view (it may have been
            # invalidated and rebuilt since).
            if parent is not None and parent._cache.get(key) is self:
                del parent._cache[key]
            self._parent_ref = None

    def _memo(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    def _mask_view(self, mask: np.ndarray) -> "TraceCollection":
        self._consolidate()
        if self._cols is None:
            return TraceCollection()
        cols = {name: arr[mask] for name, arr in self._cols.items()}
        return TraceCollection._from_columns(
            cols, self._ops, self._files, self._layers, self._raw_cats)

    def _cached_mask_view(self, key, make_mask) -> "TraceCollection":
        def build():
            view = self._mask_view(make_mask())
            view._parent_ref = (weakref.ref(self), key)
            return view
        return self._memo(key, build)

    # -- building ---------------------------------------------------------

    def add(self, record: IORecord) -> None:
        """Append one record."""
        self._tail.append(record)
        self._invalidate()

    def extend(self, records: Iterable[IORecord]) -> None:
        """Append many records."""
        self._tail.extend(records)
        self._invalidate()

    def merge(self, other: "TraceCollection") -> "TraceCollection":
        """New collection containing both sets of records (step 2 gather)."""
        return TraceCollection.gather((self, other))

    @classmethod
    def gather(cls, collections: Iterable["TraceCollection"]) -> "TraceCollection":
        """Gather many per-process collections into one global one."""
        result = cls()
        for collection in collections:
            result._append_collection(collection)
        return result

    def _append_collection(self, other: "TraceCollection") -> None:
        other._consolidate()
        if other._cols is not None:
            for name in tuple(other._raw_cats):
                other._materialise_cat(name)
            cols = dict(other._cols)
            # Remap the other collection's categorical codes into this
            # collection's tables (cheap: tables are tiny).
            for name, interner, theirs in (
                ("op", self._ops, other._ops),
                ("file", self._files, other._files),
                ("layer", self._layers, other._layers),
            ):
                mapping = interner.remap_from(theirs)
                cols[name] = mapping[cols[name]]
            self._consolidate()  # flush own tail first to keep order
            if self._cols is None:
                self._cols = cols
            else:
                for name in tuple(self._raw_cats):
                    self._materialise_cat(name)
                self._cols = {
                    name: np.concatenate((self._cols[name], cols[name]))
                    for name in _COLUMN_DTYPES
                }
        self._invalidate()

    @classmethod
    def from_arrays(
        cls,
        *,
        pid,
        nbytes,
        start,
        end,
        op="read",
        file="",
        offset=-1,
        success=True,
        retries=0,
        layer=LAYER_APP,
    ) -> "TraceCollection":
        """Build a collection directly from columns (array-native ingest).

        Scalar ``op``/``file``/``layer``/``offset``/``success`` broadcast
        over all rows; sequences must match the length of ``pid``.  This
        is the fast path for synthetic traces and bulk loaders — no
        per-row :class:`IORecord` objects are created.
        """
        pid_arr = np.asarray(pid, dtype=np.int64)
        n = pid_arr.shape[0] if pid_arr.ndim else 0
        if pid_arr.ndim != 1:
            raise AnalysisError("from_arrays needs 1-D columns")

        def numeric(values, dtype):
            arr = np.asarray(values, dtype=dtype)
            if arr.ndim == 0:
                return np.full(n, arr[()], dtype=dtype)
            if arr.shape[0] != n:
                raise AnalysisError(
                    f"column length {arr.shape[0]} != {n}")
            return arr

        nbytes_arr = numeric(nbytes, np.int64)
        start_arr = numeric(start, np.float64)
        end_arr = numeric(end, np.float64)
        retries_arr = numeric(retries, np.int32)
        if np.any(nbytes_arr < 0):
            raise AnalysisError("negative record size in nbytes column")
        if np.any(retries_arr < 0):
            raise AnalysisError("negative retry count in retries column")
        finite = np.isfinite(start_arr) & np.isfinite(end_arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise AnalysisError(
                f"record {bad} has non-finite timestamps: "
                f"[{start_arr[bad]}, {end_arr[bad]}]"
            )
        if np.any(end_arr < start_arr):
            bad = int(np.argmax(end_arr < start_arr))
            raise AnalysisError(
                f"record {bad} ends before it starts: "
                f"[{start_arr[bad]}, {end_arr[bad]}]"
            )

        result = cls()

        def categorical(name, values, interner) -> np.ndarray:
            if isinstance(values, str):
                return np.full(n, interner.code(values), dtype=np.int32)
            # Sequence: keep the raw string array and defer interning
            # until codes are actually needed (queries that never read
            # this column never pay for it).  A Python sequence becomes
            # an object array: a NumPy ``<U`` array drops trailing NULs.
            arr = values if isinstance(values, np.ndarray) \
                else np.asarray(values, dtype=object)
            if arr.shape != (n,):
                raise AnalysisError(
                    f"column length {arr.shape} != ({n},)")
            result._raw_cats.add(name)
            return arr

        result._cols = {
            "pid": pid_arr,
            "nbytes": nbytes_arr,
            "start": start_arr,
            "end": end_arr,
            "offset": numeric(offset, np.int64),
            "success": numeric(success, np.bool_),
            "retries": retries_arr,
            "op": categorical("op", op, result._ops),
            "file": categorical("file", file, result._files),
            "layer": categorical("layer", layer, result._layers),
        }
        return result

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        n = 0 if self._cols is None else self._cols["pid"].shape[0]
        return n + len(self._tail)

    def _cat_at(self, name: str, index: int) -> str:
        if name in self._raw_cats:
            return str(self._cols[name][index])
        return self._interner_for(name).values[self._cols[name][index]]

    def _row(self, index: int) -> IORecord:
        cols = self._cols
        return IORecord(
            pid=int(cols["pid"][index]),
            op=self._cat_at("op", index),
            nbytes=int(cols["nbytes"][index]),
            start=float(cols["start"][index]),
            end=float(cols["end"][index]),
            file=self._cat_at("file", index),
            offset=int(cols["offset"][index]),
            success=bool(cols["success"][index]),
            layer=self._cat_at("layer", index),
            retries=int(cols["retries"][index]),
        )

    def __iter__(self) -> Iterator[IORecord]:
        self._consolidate()
        for index in range(len(self)):
            yield self._row(index)

    def __getitem__(self, index: int) -> IORecord:
        self._consolidate()
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self._row(index)

    # -- pickling (parallel sweep results cross process boundaries) ----------

    def __getstate__(self) -> dict:
        self._consolidate()
        return {
            "cols": self._cols,
            "ops": self._ops.values,
            "files": self._files.values,
            "layers": self._layers.values,
            "raw_cats": sorted(self._raw_cats),
        }

    def __setstate__(self, state: dict) -> None:
        self._cols = state["cols"]
        self._tail = []
        self._ops = _Interner(state["ops"])
        self._files = _Interner(state["files"])
        self._layers = _Interner(state["layers"])
        self._raw_cats = set(state["raw_cats"])
        self._cache = {}
        self._parent_ref = None

    # -- views ---------------------------------------------------------------

    def filter(self, predicate: Callable[[IORecord], bool]) -> "TraceCollection":
        """Records satisfying ``predicate``, as a new collection.

        The generic escape hatch: materialises each row.  Prefer the
        vectorised :meth:`for_pid` / :meth:`for_op` / :meth:`for_layer` /
        :meth:`for_pid_range` views on hot paths.
        """
        return TraceCollection(r for r in self if predicate(r))

    def for_pid(self, pid: int) -> "TraceCollection":
        """Records of one process (vectorised boolean-mask view)."""
        return self._cached_mask_view(
            ("view", "pid", pid), lambda: self._col("pid") == pid)

    def for_pid_range(self, pids: range) -> "TraceCollection":
        """Records whose pid falls in a contiguous ``range`` (step 1)."""
        if pids.step != 1:
            raise AnalysisError("for_pid_range needs a step-1 range")
        return self._cached_mask_view(
            ("view", "pid_range", pids.start, pids.stop),
            lambda: (self._col("pid") >= pids.start)
                    & (self._col("pid") < pids.stop))

    def _cat_mask(self, name: str, value: str) -> np.ndarray:
        column = self._col(name)  # consolidates, interning tail values
        if name in self._raw_cats:
            # One C-level pass, no interning.  NumPy casts a str scalar
            # to ``<U``, which drops trailing NULs, so an object column
            # is compared with an object scalar.
            if column.dtype == object:
                value = np.array(value, dtype=object)
            return column == value
        code = self._interner_for(name).lookup(value)
        if code is None:
            return np.zeros(column.shape[0], dtype=bool)
        return column == code

    def for_op(self, op: str) -> "TraceCollection":
        """Records of one operation type ('read' / 'write')."""
        return self._cached_mask_view(
            ("view", "op", op), lambda: self._cat_mask("op", op))

    def for_layer(self, layer: str) -> "TraceCollection":
        """Records of one measurement layer ('app' / 'fs')."""
        return self._cached_mask_view(
            ("view", "layer", layer), lambda: self._cat_mask("layer", layer))

    def app_records(self) -> "TraceCollection":
        """Application-layer records only (what BPS counts)."""
        return self.for_layer(LAYER_APP)

    def fs_records(self) -> "TraceCollection":
        """File-system-layer records only (what bandwidth sees)."""
        return self.for_layer(LAYER_FS)

    def pids(self) -> list[int]:
        """Distinct process IDs, sorted."""
        return self._memo(
            "pids", lambda: [int(p) for p in np.unique(self._col("pid"))])

    # -- aggregates -------------------------------------------------------------

    def total_bytes(self) -> int:
        """Sum of record sizes in bytes."""
        return self._memo(
            "total_bytes", lambda: int(self._col("nbytes").sum()))

    def total_blocks(self, block_size: int = BLOCK_SIZE) -> int:
        """B of the BPS equation: per-record blocks, summed.

        Per-record rounding (not one division of the byte total) matters:
        two 100-byte accesses are two blocks, not one.
        """
        if block_size <= 0:
            raise AnalysisError(
                f"block size must be positive, got {block_size}")
        def build():
            nbytes = self._col("nbytes")
            return int(np.sum(-(-nbytes // block_size)))
        return self._memo(("total_blocks", block_size), build)

    def total_retries(self) -> int:
        """Total re-issues across all records (sum of ``retries``).

        Recovery-traffic summary: 0 on a clean run; every middleware
        retry adds 1 (each retried attempt carries its attempt index, so
        the sum over per-attempt records is the re-issue count).
        """
        return self._memo(
            "total_retries", lambda: int(self._col("retries").sum()))

    def failed_records(self) -> int:
        """Number of records whose access did not succeed."""
        return self._memo(
            "failed_records",
            lambda: int(np.count_nonzero(~self._col("success"))))

    def column_array(self, name: str) -> np.ndarray:
        """One consolidated column as a NumPy array.

        Numeric columns come back as the stored arrays (treat as
        read-only); categorical columns (``op``/``file``/``layer``) come
        back *decoded* to their string values — the layout
        :class:`~repro.live.chunk.RecordChunk` consumes, so the chunked
        streaming path never materialises row objects.
        """
        if name not in _COLUMN_DTYPES:
            known = ", ".join(sorted(_COLUMN_DTYPES))
            raise AnalysisError(
                f"unknown column {name!r}; known: {known}")
        column = self._col(name)
        if name not in ("op", "file", "layer") or name in self._raw_cats:
            return column
        values = self._interner_for(name).values
        if not values:
            return np.empty(0, dtype=object)
        table = np.asarray(values, dtype=object)
        return table[column]

    def to_columns(self) -> dict[str, list]:
        """Plain-Python columns, the JSON-able inverse of
        :meth:`from_arrays`.

        Numeric columns come back as Python ints/floats/bools (exact —
        float64 → float survives a JSON round trip bit-for-bit);
        categorical columns come back as their string values.  The
        checkpoint journal stores traces this way: one list per column
        is far cheaper to serialise than one dict per record.
        """
        self._consolidate()
        if self._cols is None:
            return {name: [] for name in _COLUMN_DTYPES}
        columns = {
            name: self._cols[name].tolist()
            for name in ("pid", "nbytes", "start", "end", "offset",
                         "success", "retries")
        }
        for name in ("op", "file", "layer"):
            if name in self._raw_cats:
                columns[name] = [str(v) for v in self._cols[name]]
            else:
                values = self._interner_for(name).values
                columns[name] = [values[code]
                                 for code in self._cols[name].tolist()]
        return columns

    def intervals(self) -> np.ndarray:
        """(n, 2) float array of (start, end) pairs, in record order.

        The array is memoised and returned read-only; copy before
        mutating.
        """
        def build():
            arr = np.column_stack((self._col("start"), self._col("end")))
            arr = arr.reshape(-1, 2)  # keep (0, 2) shape when empty
            arr.setflags(write=False)
            return arr
        return self._memo("intervals", build)

    def sorted_intervals(self) -> np.ndarray:
        """Intervals stably sorted by start time (read-only, memoised).

        This is the shared input of :func:`~repro.core.intervals.union_time`
        and :func:`~repro.core.intervals.merge_intervals` — computing it
        once means repeated metric queries never re-sort.
        """
        def build():
            arr = self.intervals()
            order = np.argsort(arr[:, 0], kind="stable")
            out = arr[order]
            out.setflags(write=False)
            return out
        return self._memo("sorted_intervals", build)

    def union_time(self, *, impl: str = "numpy") -> float:
        """Memoised union I/O time of this collection's intervals.

        ``impl`` is "numpy" (vectorised, default) or "paper" (the pure-
        Python Fig. 3 port); results are cached per impl and invalidated
        on append.
        """
        from repro.core import intervals as _iv
        if impl == "numpy":
            return self._memo(
                ("union_time", "numpy"),
                lambda: _iv.union_time(self.sorted_intervals(),
                                       assume_sorted=True))
        if impl == "paper":
            return self._memo(
                ("union_time", "paper"),
                lambda: _iv.union_time_paper(self.intervals()))
        raise AnalysisError(f"unknown union-time impl {impl!r}")

    def merged_intervals(self) -> np.ndarray:
        """Memoised disjoint union of this collection's intervals."""
        from repro.core import intervals as _iv
        def build():
            merged = _iv.merge_intervals(self.sorted_intervals(),
                                         assume_sorted=True)
            merged.setflags(write=False)
            return merged
        return self._memo("merged_intervals", build)

    def concurrency_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Memoised (times, depth) concurrency step function."""
        from repro.core import intervals as _iv
        return self._memo(
            "concurrency_profile",
            lambda: _iv.concurrency_profile(self.intervals()))

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end); raises on an empty collection."""
        def build():
            if len(self) == 0:
                raise AnalysisError("span of an empty trace")
            return (float(self._col("start").min()),
                    float(self._col("end").max()))
        return self._memo("span", build)

    def response_times(self) -> np.ndarray:
        """Per-record durations, in record order (read-only, memoised)."""
        def build():
            arr = self._col("end") - self._col("start")
            arr.setflags(write=False)
            return arr
        return self._memo("response_times", build)

    def estimated_record_bytes(self) -> int:
        """Space-overhead estimate at the paper's 32 bytes per record.

        Section III.C: 65535 operations ≈ 3 MB (the paper's arithmetic
        is generous; 65535 × 32 B = 2 MiB — we report the 32 B/record
        figure it states).
        """
        return 32 * len(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceCollection n={len(self)} "
            f"pids={len(self.pids())}>"
        )
