"""Columnar trace storage: the scale-out representation of a trace.

A day of trace activity at ``scale >= 10`` is millions of records; a
Python object per record costs ~150 bytes plus allocator churn, and a
whole-day list is the single biggest RSS line item in a replay.  This
module stores the same stream as *columns* -- one flat array per field
per record kind, plus a global time-sorted order index -- so that:

* generation appends plain value rows (no dataclass construction),
* sorting is an ``argsort`` over one float array instead of an object
  sort,
* replay materializes :class:`~repro.trace.records.TraceRecord`
  objects chunk-at-a-time (transient, bounded memory) or never, and
* shard math (remapping a group's ids into a disjoint global id space,
  merging group streams into one time-ordered stream) is vectorized
  array arithmetic.

Byte-identity contract: materializing a columnar trace yields records
whose types and field values are exactly what the classic list path
produced -- columns round-trip ``float``/``int``/``bool`` losslessly
(float64/int64 carry every value the generator emits) and the sort is
stable with emission order as the tie-break, matching the classic
``list.sort(key=time)`` on an emission-ordered list.

NumPy is used when available (it is in the supported toolchain); every
operation has a pure-Python fallback so the module imports and works
without it, just slower and fatter.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Iterator, Sequence

from repro.common.errors import TraceError
from repro.common.gcpause import gc_paused
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    CreateRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    TruncateRecord,
    WriteRunRecord,
)

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

#: Pinned kind order: the codec-visible layout of a columnar trace.
#: Append only -- positions are part of the payload format.
RECORD_CLASSES: tuple[type[TraceRecord], ...] = (
    OpenRecord,
    CloseRecord,
    ReadRunRecord,
    WriteRunRecord,
    RepositionRecord,
    CreateRecord,
    DeleteRecord,
    TruncateRecord,
    SharedReadRecord,
    SharedWriteRecord,
    DirectoryReadRecord,
)

_KIND_INDEX: dict[type[TraceRecord], int] = {
    cls: index for index, cls in enumerate(RECORD_CLASSES)
}

_MODES: tuple[AccessMode, ...] = tuple(AccessMode)
_MODE_CODES: dict[AccessMode, int] = {mode: i for i, mode in enumerate(_MODES)}

#: dtype code per annotated field type ('f8' float64, 'i8' int64,
#: 'b1' bool, 'u1' enum code).
_DTYPE_BY_ANNOTATION = {
    "float": "f8",
    "int": "i8",
    "bool": "b1",
    "AccessMode": "u1",
}


def _field_specs(cls: type[TraceRecord]) -> tuple[tuple[str, str], ...]:
    specs = []
    for item in dataclass_fields(cls):
        annotation = item.type if isinstance(item.type, str) else item.type.__name__
        dtype = _DTYPE_BY_ANNOTATION.get(annotation)
        if dtype is None:  # pragma: no cover - future field types
            raise TraceError(
                f"{cls.__name__}.{item.name}: no columnar dtype for "
                f"field type {annotation!r}"
            )
        specs.append((item.name, dtype))
    return tuple(specs)


_SPECS: tuple[tuple[tuple[str, str], ...], ...] = tuple(
    _field_specs(cls) for cls in RECORD_CLASSES
)

_new = object.__new__
_set = object.__setattr__


def _make_filler(kind_index: int):
    """exec-codegen a per-kind object builder.

    ``fill(out, positions, cols)`` materializes ``len(positions)``
    records from parallel Python-list columns and stores them at the
    given positions of ``out`` -- the same ``object.__new__`` +
    ``object.__setattr__`` trick the artifact codec uses (no
    ``__init__``, no default processing, one C call per field).
    """
    cls = RECORD_CLASSES[kind_index]
    specs = _SPECS[kind_index]
    unpack = ", ".join(f"c{i}" for i in range(len(specs)))
    lines = [
        "def fill(out, positions, cols):",
        f"    {unpack}{',' if len(specs) == 1 else ''} = cols",
        "    j = 0",
        "    for pos in positions:",
        "        r = _new(_cls)",
    ]
    for i, (name, dtype) in enumerate(specs):
        if dtype == "u1":
            lines.append(f"        _set(r, {name!r}, _MODES[c{i}[j]])")
        else:
            lines.append(f"        _set(r, {name!r}, c{i}[j])")
    lines.append("        out[pos] = r")
    lines.append("        j += 1")
    namespace = {"_new": _new, "_set": _set, "_cls": cls, "_MODES": _MODES}
    exec("\n".join(lines), namespace)
    return namespace["fill"]


_FILLERS = tuple(_make_filler(i) for i in range(len(RECORD_CLASSES)))


# --- small array-shim helpers (numpy when present, lists otherwise) -------


def _as_column(values: list[Any], dtype: str):
    if _np is None:
        return values
    return _np.asarray(values, dtype=dtype)


def _column_list(column) -> list:
    """A full Python-value copy of a column."""
    if _np is None:
        return list(column)
    return column.tolist()


def _gather_list(column, indexes) -> list:
    """Python values of ``column`` at ``indexes`` (in index order)."""
    if _np is None:
        return [column[i] for i in indexes]
    return column[indexes].tolist()


def _column_len(column) -> int:
    return len(column)


class _Table:
    """Sealed per-kind columns (parallel arrays, one per field)."""

    __slots__ = ("kind_index", "columns", "count")

    def __init__(self, kind_index: int, columns: list, count: int) -> None:
        self.kind_index = kind_index
        self.columns = columns  # aligned with _SPECS[kind_index]
        self.count = count


class ColumnarTraceBuilder:
    """Row sink the emitter appends into; ``seal`` produces the trace.

    Rows are plain value tuples in dataclass field order; a global
    sequence number per row preserves emission order for the stable
    sort's tie-break.
    """

    __slots__ = ("_rows", "_seqs", "_count")

    def __init__(self) -> None:
        self._rows: list[list[tuple]] = [[] for _ in RECORD_CLASSES]
        self._seqs: list[list[int]] = [[] for _ in RECORD_CLASSES]
        self._count = 0

    def append(self, cls: type[TraceRecord], row: tuple) -> None:
        index = _KIND_INDEX[cls]
        self._rows[index].append(row)
        self._seqs[index].append(self._count)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def emission_order_records(self) -> list[TraceRecord]:
        """All rows as records, in emission order (the classic
        ``emitter.records`` view; unfiltered, unsorted)."""
        out: list[TraceRecord] = [None] * self._count  # type: ignore[list-item]
        for index, cls in enumerate(RECORD_CLASSES):
            for seq, row in zip(self._seqs[index], self._rows[index]):
                out[seq] = cls(*row)
        return out

    def seal(self, duration: float | None = None) -> "ColumnarTrace":
        """Freeze rows into columns, drop records outside
        ``[0, duration)`` when given, and time-sort (stable, emission
        order as tie-break)."""
        tables: list[_Table | None] = []
        times_parts: list = []
        seqs_parts: list = []
        kind_parts: list = []
        row_parts: list = []
        for index in range(len(RECORD_CLASSES)):
            rows = self._rows[index]
            if not rows:
                tables.append(None)
                continue
            specs = _SPECS[index]
            transposed = list(zip(*rows))
            columns = []
            for (name, dtype), raw in zip(specs, transposed):
                if dtype == "u1":
                    raw = [_MODE_CODES[value] for value in raw]
                columns.append(_as_column(list(raw), dtype))
            count = len(rows)
            tables.append(_Table(index, columns, count))
            times_parts.append(columns[0])  # field 0 is always `time`
            seqs_parts.append(_as_column(self._seqs[index], "i8"))
            if _np is not None:
                kind_parts.append(_np.full(count, index, dtype="u1"))
                row_parts.append(_np.arange(count, dtype="i8"))
            else:
                kind_parts.append([index] * count)
                row_parts.append(list(range(count)))

        if not times_parts:
            return ColumnarTrace(tables, _as_column([], "u1"), _as_column([], "i8"), _as_column([], "f8"))

        if _np is not None:
            times = _np.concatenate(times_parts)
            seqs = _np.concatenate(seqs_parts)
            kinds = _np.concatenate(kind_parts)
            rows = _np.concatenate(row_parts)
            if duration is not None:
                mask = (times >= 0.0) & (times < duration)
                times, seqs, kinds, rows = (
                    times[mask], seqs[mask], kinds[mask], rows[mask],
                )
            order = _np.lexsort((seqs, times))
            return ColumnarTrace(tables, kinds[order], rows[order], times[order])

        times_l = [t for part in times_parts for t in part]
        seqs_l = [s for part in seqs_parts for s in part]
        kinds_l = [k for part in kind_parts for k in part]
        rows_l = [r for part in row_parts for r in part]
        selected = range(len(times_l))
        if duration is not None:
            selected = [
                i for i in selected if 0.0 <= times_l[i] < duration
            ]
        order = sorted(selected, key=lambda i: (times_l[i], seqs_l[i]))
        return ColumnarTrace(
            tables,
            [kinds_l[i] for i in order],
            [rows_l[i] for i in order],
            [times_l[i] for i in order],
        )


class ColumnarTrace:
    """A sealed, time-sorted trace in columnar form.

    Iteration materializes records chunk-at-a-time; the live set is one
    chunk, never the whole day.
    """

    #: Default materialization chunk (records); ~64k records of mixed
    #: kinds is a few MB of transient objects.
    DEFAULT_CHUNK = 65536

    __slots__ = ("tables", "kind_idx", "row_idx", "times")

    def __init__(self, tables, kind_idx, row_idx, times) -> None:
        self.tables = tables      # list aligned with RECORD_CLASSES (None = empty)
        self.kind_idx = kind_idx  # u1 per sorted position
        self.row_idx = row_idx    # i8 row within the kind's table
        self.times = times        # f8 per sorted position (sorted ascending)

    def __len__(self) -> int:
        return _column_len(self.kind_idx)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()

    # --- materialization ---------------------------------------------------

    def _materialize_slice(self, lo: int, hi: int) -> list[TraceRecord]:
        kind_slice = self.kind_idx[lo:hi]
        row_slice = self.row_idx[lo:hi]
        out: list[TraceRecord] = [None] * (hi - lo)  # type: ignore[list-item]
        if _np is not None:
            for index in _np.unique(kind_slice).tolist():
                positions = _np.nonzero(kind_slice == index)[0]
                rows = row_slice[positions]
                table = self.tables[index]
                cols = [column[rows].tolist() for column in table.columns]
                _FILLERS[index](out, positions.tolist(), cols)
        else:
            by_kind: dict[int, list[int]] = {}
            for j, index in enumerate(kind_slice):
                by_kind.setdefault(index, []).append(j)
            for index, positions in by_kind.items():
                rows = [row_slice[j] for j in positions]
                table = self.tables[index]
                cols = [_gather_list(column, rows) for column in table.columns]
                _FILLERS[index](out, positions, cols)
        return out

    def iter_chunks(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[list[TraceRecord]]:
        """Materialize the stream as bounded record lists, in time order."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        total = len(self)
        for lo in range(0, total, chunk_size):
            yield self._materialize_slice(lo, min(lo + chunk_size, total))

    def iter_records(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[TraceRecord]:
        """The record stream, materialized chunk-at-a-time."""
        for chunk in self.iter_chunks(chunk_size):
            yield from chunk

    def materialize(self) -> list[TraceRecord]:
        """The whole trace as a record list (the classic representation).

        Built with the cyclic GC paused: records are acyclic, so the
        collections their allocation would trigger find nothing.  The
        streaming paths (:meth:`iter_chunks`) leave GC alone -- pausing
        per transient chunk raises their peak RSS.
        """
        if len(self) == 0:
            return []
        with gc_paused():
            return self._materialize_slice(0, len(self))

    # --- shard math --------------------------------------------------------

    def max_file_id(self) -> int:
        """Largest file id referenced by any record (-1 when none) --
        what the scale-out id-space guard checks against the paging
        binaries' reserved range."""
        largest = -1
        for table in self.tables:
            if table is None:
                continue
            specs = _SPECS[table.kind_index]
            for (name, _), column in zip(specs, table.columns):
                if name == "file_id" and _column_len(column):
                    if _np is not None:
                        largest = max(largest, int(column.max()))
                    else:
                        largest = max(largest, max(column))
        return largest

    def remap_group(
        self, group: int, groups: int, client_base: int
    ) -> "ColumnarTrace":
        """Relabel a group-local trace into its global id space.

        File, open, and user ids are strided (``local * groups +
        group``) so every group owns a disjoint residue class --
        ``file_id % groups`` recovers the owning group.  Negative file
        ids (directory-read sentinels) pass through; client ids shift
        by ``client_base``.  Times and order are untouched, so the
        result is still sorted.
        """
        if not 0 <= group < groups:
            raise ValueError(f"group {group} out of range for {groups} groups")
        tables: list[_Table | None] = []
        for table in self.tables:
            if table is None:
                tables.append(None)
                continue
            specs = _SPECS[table.kind_index]
            columns = []
            for (name, _), column in zip(specs, table.columns):
                if name in ("open_id", "user_id"):
                    if _np is not None:
                        column = column * groups + group
                    else:
                        column = [v * groups + group for v in column]
                elif name == "file_id":
                    if _np is not None:
                        column = _np.where(
                            column >= 0, column * groups + group, column
                        )
                    else:
                        column = [
                            v * groups + group if v >= 0 else v for v in column
                        ]
                elif name == "client_id":
                    if _np is not None:
                        column = column + client_base
                    else:
                        column = [v + client_base for v in column]
                columns.append(column)
            tables.append(_Table(table.kind_index, columns, table.count))
        return ColumnarTrace(tables, self.kind_idx, self.row_idx, self.times)

    @staticmethod
    def merge(
        traces: Sequence["ColumnarTrace"],
        ranks: Sequence[int] | None = None,
    ) -> "ColumnarTrace":
        """Merge sorted traces into one sorted trace.

        Ties are broken by ``rank`` (the trace's global group index,
        defaulting to its position) and then within-trace order, so the
        merged order is a strict total order: merging any *subset* of
        the traces yields exactly the full merge restricted to that
        subset.  That restriction property is what makes partitioned
        replay's dispatch order provably consistent with the
        unpartitioned replay's.
        """
        if ranks is None:
            ranks = list(range(len(traces)))
        if len(ranks) != len(traces):
            raise ValueError("ranks and traces must align")
        if len(traces) == 1:
            return traces[0]
        if not traces:
            return ColumnarTraceBuilder().seal()

        # Concatenate per-kind tables, tracking each trace's row offset.
        merged_tables: list[_Table | None] = []
        offsets = [[0] * len(RECORD_CLASSES) for _ in traces]
        for index in range(len(RECORD_CLASSES)):
            parts = []
            running = 0
            for t, trace in enumerate(traces):
                offsets[t][index] = running
                table = trace.tables[index]
                if table is not None:
                    parts.append(table)
                    running += table.count
            if not parts:
                merged_tables.append(None)
                continue
            if len(parts) == 1:
                merged_tables.append(parts[0])
            else:
                columns = []
                for c in range(len(parts[0].columns)):
                    if _np is not None:
                        columns.append(
                            _np.concatenate([p.columns[c] for p in parts])
                        )
                    else:
                        joined: list = []
                        for p in parts:
                            joined.extend(p.columns[c])
                        columns.append(joined)
                merged_tables.append(_Table(index, columns, running))

        if _np is not None:
            times = _np.concatenate([t.times for t in traces])
            rank_arr = _np.concatenate(
                [
                    _np.full(len(t), rank, dtype="i8")
                    for t, rank in zip(traces, ranks)
                ]
            )
            pos_arr = _np.concatenate(
                [_np.arange(len(t), dtype="i8") for t in traces]
            )
            kind_all = _np.concatenate([t.kind_idx for t in traces])
            row_parts = []
            for t_index, trace in enumerate(traces):
                shift = _np.asarray(offsets[t_index], dtype="i8")
                row_parts.append(trace.row_idx + shift[trace.kind_idx])
            row_all = _np.concatenate(row_parts)
            order = _np.lexsort((pos_arr, rank_arr, times))
            return ColumnarTrace(
                merged_tables, kind_all[order], row_all[order], times[order]
            )

        entries = []
        for t_index, (trace, rank) in enumerate(zip(traces, ranks)):
            for pos in range(len(trace)):
                kind = trace.kind_idx[pos]
                entries.append(
                    (
                        trace.times[pos],
                        rank,
                        pos,
                        kind,
                        trace.row_idx[pos] + offsets[t_index][kind],
                    )
                )
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return ColumnarTrace(
            merged_tables,
            [e[3] for e in entries],
            [e[4] for e in entries],
            [e[0] for e in entries],
        )

    # --- wire format -------------------------------------------------------

    def to_payload(self) -> dict:
        """A marshal-compatible payload (the codec's ``C`` artifact body)."""
        kinds = []
        for table in self.tables:
            if table is None:
                kinds.append(None)
                continue
            specs = _SPECS[table.kind_index]
            columns = []
            for (name, dtype), column in zip(specs, table.columns):
                if _np is not None:
                    columns.append((dtype, _np.ascontiguousarray(column).tobytes()))
                else:
                    columns.append((dtype, list(column)))
            kinds.append((table.count, columns))
        if _np is not None:
            order = (
                _np.ascontiguousarray(self.kind_idx).tobytes(),
                _np.ascontiguousarray(self.row_idx).tobytes(),
                _np.ascontiguousarray(self.times).tobytes(),
            )
        else:
            order = (list(self.kind_idx), list(self.row_idx), list(self.times))
        return {"version": 1, "kinds": kinds, "order": order}

    @staticmethod
    def _column_from_payload(dtype: str, data):
        if isinstance(data, bytes):
            if _np is None:  # pragma: no cover - numpy removed between runs
                raise TraceError(
                    "columnar payload was written with numpy; numpy is "
                    "required to read it"
                )
            return _np.frombuffer(data, dtype=dtype)
        return _as_column(list(data), dtype)

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnarTrace":
        if payload.get("version") != 1:
            raise TraceError(
                f"unknown columnar payload version {payload.get('version')!r}"
            )
        tables: list[_Table | None] = []
        for index, entry in enumerate(payload["kinds"]):
            if entry is None:
                tables.append(None)
                continue
            count, columns_payload = entry
            columns = [
                cls._column_from_payload(dtype, data)
                for dtype, data in columns_payload
            ]
            tables.append(_Table(index, columns, count))
        kind_data, row_data, time_data = payload["order"]
        return ColumnarTrace(
            tables,
            cls._column_from_payload("u1", kind_data),
            cls._column_from_payload("i8", row_data),
            cls._column_from_payload("f8", time_data),
        )

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "ColumnarTrace":
        """Columnar view of an existing (time-sorted) record list."""
        builder = ColumnarTraceBuilder()
        for record in records:
            row = tuple(
                getattr(record, name)
                for name, _ in _SPECS[_KIND_INDEX[type(record)]]
            )
            builder.append(type(record), row)
        return builder.seal()
