"""Fast artifact serialization for the cache.

Plain pickling is correct but slow for trace-shaped artifacts: a day
trace is ~100k tiny frozen dataclass records, and pickle spends several
microseconds per object rebuilding each one.  Loading a cached trace
that way costs a substantial fraction of regenerating it, which would
cap the warm-cache speedup well below what the hardware allows.

This codec stores record streams row-packed instead: per-class field
tables plus one primitive tuple per record, serialized with
:mod:`marshal` (C-speed for primitives), and rebuilt on load by
generated per-class constructors that write fields directly with
``object.__setattr__`` -- skipping ``__init__`` and ``__post_init__``,
which already ran when the artifact was first built.  Loads run with
the cyclic GC paused; the rebuilt graphs are trees.

Payloads are tagged by their first byte:

* ``T`` -- a :class:`~repro.workload.SyntheticTrace` (row-packed records,
  pickled profile/users/validation).
* ``I`` -- a per-trace ``list[Access]`` in *index form*: open/close
  records stored as indexes into the owning trace's record list, which
  the caller supplies as decode context (the records are then shared
  with the already-decoded trace instead of rebuilt).
* ``A`` -- a per-trace ``list[Access]`` standalone (row-packed open and
  close records); the fallback when no trace context is available.
* ``R`` -- a :class:`~repro.fs.cluster.ClusterResult` (row-packed
  counter snapshots, pickled config).
* ``O`` -- a :class:`~repro.obs.sampler.CounterTimeseries` (per-machine
  sample tables, pure marshal -- no pickle at all).
* ``C`` -- a columnar-only :class:`~repro.workload.SyntheticTrace`
  (``materialize=False`` scale-out generation): the
  :class:`~repro.trace.columnar.ColumnarTrace` payload marshal-packed,
  profile/users/validation pickled.  Decoding never materializes a
  record list.
* ``P`` -- anything else, plain pickle.
"""

from __future__ import annotations

import enum
import gc
import marshal
import pickle
import typing
from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Callable, Sequence

from repro.analysis.episodes import Access, LogicalRun
from repro.fs.cluster import ClusterResult
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.obs.sampler import CounterTimeseries
from repro.trace.records import TraceRecord
from repro.workload.generator import SyntheticTrace

_TAG_PICKLE = b"P"
_TAG_TRACE = b"T"
_TAG_ACCESSES = b"A"
_TAG_ACCESSES_INDEXED = b"I"
_TAG_REPLAY = b"R"
_TAG_OBS = b"O"
_TAG_COLUMNAR_TRACE = b"C"

#: marshal format version (stable, supported by every CPython we target).
_MARSHAL_VERSION = 2


# --------------------------------------------------------------------------
# row packing
# --------------------------------------------------------------------------


class _RowPacker:
    """Accumulates per-class field tables and packs instances to rows."""

    def __init__(self) -> None:
        self.tables: list[tuple[str, tuple[str, ...], tuple[int, ...]]] = []
        self._index: dict[type, int] = {}
        self._specs: list[tuple[tuple[str, ...], tuple[int, ...]]] = []

    def row_for(self, record: TraceRecord) -> tuple:
        cls = type(record)
        index = self._index.get(cls)
        if index is None:
            names = tuple(f.name for f in fields(cls))
            enum_cols = tuple(
                i
                for i, name in enumerate(names)
                if isinstance(getattr(record, name), enum.Enum)
            )
            index = len(self.tables)
            self._index[cls] = index
            self.tables.append((cls.kind, names, enum_cols))
            self._specs.append((names, enum_cols))
        names, enum_cols = self._specs[index]
        row = [index]
        row.extend(getattr(record, name) for name in names)
        for col in enum_cols:
            row[col + 1] = row[col + 1].value
        return tuple(row)


def _make_maker(
    cls: type, names: Sequence[str], enum_cols: Sequence[int], offset: int = 1
) -> Callable[[tuple], Any]:
    """Generate ``make(row) -> cls`` writing fields via object.__setattr__.

    ``offset`` is where the first field sits in the row (row[0] is the
    class index for record rows, absent for run rows).
    """
    enum_types: dict[int, type] = {}
    if enum_cols:
        hints = typing.get_type_hints(cls)
        enum_types = {col: hints[names[col]] for col in enum_cols}
    lines = [
        "def make(row, _new=_new, _cls=_cls, _osa=_osa"
        + "".join(f", _E{col}=_E{col}" for col in enum_cols)
        + "):",
        "    obj = _new(_cls)",
    ]
    for i, name in enumerate(names):
        value = f"row[{i + offset}]"
        if i in enum_types:
            value = f"_E{i}({value})"
        lines.append(f"    _osa(obj, {name!r}, {value})")
    lines.append("    return obj")
    namespace: dict[str, Any] = {
        "_new": object.__new__,
        "_cls": cls,
        "_osa": object.__setattr__,
        **{f"_E{col}": enum_type for col, enum_type in enum_types.items()},
    }
    exec("\n".join(lines), namespace)
    return namespace["make"]


def _record_makers(
    tables: Sequence[tuple[str, tuple[str, ...], tuple[int, ...]]],
) -> list[Callable[[tuple], TraceRecord]]:
    makers = []
    for kind, names, enum_cols in tables:
        cls = TraceRecord._registry.get(kind)
        if cls is None:
            raise ValueError(f"packed artifact references unknown kind {kind!r}")
        makers.append(_make_maker(cls, names, enum_cols))
    return makers


@contextmanager
def _gc_paused():
    """Pause cyclic GC while allocating large acyclic object graphs."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------
#
# Traces pack *columnar*: per record class, a tuple of original positions
# plus one column tuple per field.  The decode loop for a class is a
# single generated function that zips the columns back together, so the
# per-record cost is just the field writes -- no per-record dispatch,
# call, or row-tuple allocation.


def _make_filler(
    cls: type, names: Sequence[str], enum_cols: Sequence[int]
) -> Callable[[Sequence[int], Sequence[tuple], list], None]:
    """Generate ``fill(positions, cols, out)`` rebuilding one class's
    records into their original slots of ``out``."""
    enum_types: dict[int, type] = {}
    if enum_cols:
        hints = typing.get_type_hints(cls)
        enum_types = {col: hints[names[col]] for col in enum_cols}
    lines = [
        "def fill(positions, cols, out, _new=_new, _cls=_cls, _osa=_osa, _zip=zip"
        + "".join(f", _E{col}=_E{col}" for col in enum_cols)
        + "):",
        "    for pos, vals in _zip(positions, _zip(*cols)):",
        "        obj = _new(_cls)",
    ]
    for i, name in enumerate(names):
        value = f"vals[{i}]"
        if i in enum_types:
            value = f"_E{i}({value})"
        lines.append(f"        _osa(obj, {name!r}, {value})")
    lines.append("        out[pos] = obj")
    namespace: dict[str, Any] = {
        "_new": object.__new__,
        "_cls": cls,
        "_osa": object.__setattr__,
        **{f"_E{col}": enum_type for col, enum_type in enum_types.items()},
    }
    exec("\n".join(lines), namespace)
    return namespace["fill"]


def _encode_trace(trace: SyntheticTrace) -> bytes:
    tables: list[tuple[str, tuple[str, ...], tuple[int, ...]]] = []
    groups: list[tuple[list[int], list[TraceRecord]]] = []
    index_of: dict[type, int] = {}
    for position, record in enumerate(trace.records):
        cls = type(record)
        index = index_of.get(cls)
        if index is None:
            names = tuple(f.name for f in fields(cls))
            enum_cols = tuple(
                i
                for i, name in enumerate(names)
                if isinstance(getattr(record, name), enum.Enum)
            )
            index = len(tables)
            index_of[cls] = index
            tables.append((cls.kind, names, enum_cols))
            groups.append(([], []))
        positions, members = groups[index]
        positions.append(position)
        members.append(record)
    packed = []
    for (kind, names, enum_cols), (positions, members) in zip(tables, groups):
        enum_set = set(enum_cols)
        cols = tuple(
            tuple(getattr(r, name).value for r in members)
            if i in enum_set
            else tuple(getattr(r, name) for r in members)
            for i, name in enumerate(names)
        )
        packed.append((tuple(positions), cols))
    body = pickle.dumps(
        {
            "records": marshal.dumps(
                (tables, len(trace.records), packed), _MARSHAL_VERSION
            ),
            "profile": trace.profile,
            "seed": trace.seed,
            "scale": trace.scale,
            "users": trace.users,
            "validation": trace.validation,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _TAG_TRACE + body


def _decode_trace(body: bytes) -> SyntheticTrace:
    state = pickle.loads(body)
    tables, count, packed = marshal.loads(state["records"])
    records: list[TraceRecord | None] = [None] * count
    with _gc_paused():
        for (kind, names, enum_cols), (positions, cols) in zip(tables, packed):
            cls = TraceRecord._registry.get(kind)
            if cls is None:
                raise ValueError(
                    f"packed artifact references unknown kind {kind!r}"
                )
            _make_filler(cls, names, enum_cols)(positions, cols, records)
    if any(record is None for record in records):
        raise ValueError("packed trace has gaps")
    return SyntheticTrace(
        profile=state["profile"],
        seed=state["seed"],
        scale=state["scale"],
        records=records,
        users=state["users"],
        validation=state["validation"],
    )


def _encode_columnar_trace(trace: SyntheticTrace) -> bytes:
    assert trace.columnar is not None
    body = pickle.dumps(
        {
            "columnar": marshal.dumps(
                trace.columnar.to_payload(), _MARSHAL_VERSION
            ),
            "profile": trace.profile,
            "seed": trace.seed,
            "scale": trace.scale,
            "users": trace.users,
            "validation": trace.validation,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _TAG_COLUMNAR_TRACE + body


def _decode_columnar_trace(body: bytes) -> SyntheticTrace:
    from repro.trace.columnar import ColumnarTrace

    state = pickle.loads(body)
    return SyntheticTrace(
        profile=state["profile"],
        seed=state["seed"],
        scale=state["scale"],
        records=[],
        users=state["users"],
        validation=state["validation"],
        columnar=ColumnarTrace.from_payload(marshal.loads(state["columnar"])),
    )


# --------------------------------------------------------------------------
# accesses
# --------------------------------------------------------------------------

_RUN_FIELDS = tuple(f.name for f in fields(LogicalRun))
_ACCESS_FIELDS = ("open_record", "close_record", "runs", "reposition_count")


def _encode_accesses(accesses: Sequence[Access]) -> bytes:
    packer = _RowPacker()
    entries = []
    for access in accesses:
        entries.append(
            (
                packer.row_for(access.open_record),
                packer.row_for(access.close_record),
                [
                    (run.is_write, run.offset, run.length, run.end_time)
                    for run in access.runs
                ],
                access.reposition_count,
            )
        )
    blob = marshal.dumps((packer.tables, entries), _MARSHAL_VERSION)
    return _TAG_ACCESSES + pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)


def _encode_accesses_indexed(
    accesses: Sequence[Access], records: Sequence[TraceRecord]
) -> bytes | None:
    """Pack accesses as indexes into ``records``, or None if they don't
    all resolve (then the standalone form is used instead).

    Records are matched by equality, not identity: when the stage ran in
    a worker process the Access objects came back through pickle and no
    longer alias the parent's trace records.
    """
    index_of: dict[TraceRecord, int] = {
        record: index for index, record in enumerate(records)
    }
    entries = []
    for access in accesses:
        open_index = index_of.get(access.open_record)
        close_index = index_of.get(access.close_record)
        if open_index is None or close_index is None:
            return None
        entries.append(
            (
                open_index,
                close_index,
                [
                    (run.is_write, run.offset, run.length, run.end_time)
                    for run in access.runs
                ],
                access.reposition_count,
            )
        )
    return _TAG_ACCESSES_INDEXED + marshal.dumps(entries, _MARSHAL_VERSION)


def _decode_accesses_indexed(
    body: bytes, records: Sequence[TraceRecord]
) -> list[Access]:
    entries = marshal.loads(body)
    make_run = _make_maker(LogicalRun, _RUN_FIELDS, (), offset=0)
    _new, _osa = object.__new__, object.__setattr__
    out: list[Access] = []
    with _gc_paused():
        for open_index, close_index, run_rows, repositions in entries:
            access = _new(Access)
            _osa(access, "open_record", records[open_index])
            _osa(access, "close_record", records[close_index])
            _osa(access, "runs", [make_run(row) for row in run_rows])
            _osa(access, "reposition_count", repositions)
            out.append(access)
    return out


def _decode_accesses(body: bytes) -> list[Access]:
    tables, entries = marshal.loads(pickle.loads(body))
    makers = _record_makers(tables)
    make_run = _make_maker(LogicalRun, _RUN_FIELDS, (), offset=0)
    _new, _osa = object.__new__, object.__setattr__
    out: list[Access] = []
    with _gc_paused():
        for open_row, close_row, run_rows, repositions in entries:
            access = _new(Access)
            _osa(access, "open_record", makers[open_row[0]](open_row))
            _osa(access, "close_record", makers[close_row[0]](close_row))
            _osa(access, "runs", [make_run(row) for row in run_rows])
            _osa(access, "reposition_count", repositions)
            out.append(access)
    return out


# --------------------------------------------------------------------------
# cluster replays
# --------------------------------------------------------------------------

# Counter rows are the counters' own declaration-order value tuples
# (``as_row``), which is exactly the field order the dataclass-era
# codec marshalled -- the wire layout is unchanged.


def _encode_replay(result: ClusterResult) -> bytes:
    counters = marshal.dumps(
        (
            result.server_counters.as_row(),
            {cid: c.as_row() for cid, c in result.final_counters.items()},
            {
                cid: [
                    (s.time, s.client_id, s.counters.as_row()) for s in snaps
                ]
                for cid, snaps in result.snapshots.items()
            },
            tuple(c.as_row() for c in result.per_server_counters),
        ),
        _MARSHAL_VERSION,
    )
    body = pickle.dumps(
        {
            "config": result.config,
            "duration": result.duration,
            "records_replayed": result.records_replayed,
            "counters": counters,
            "server_ids": result.server_ids,
            "construction_seconds": result.construction_seconds,
            "tick_events": result.tick_events,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _TAG_REPLAY + body


def _decode_replay(body: bytes) -> ClusterResult:
    state = pickle.loads(body)
    server_row, final_rows, snapshot_rows, per_server_rows = marshal.loads(
        state["counters"]
    )
    make_client = ClientCounters.from_row
    make_server = ServerCounters.from_row
    _new, _osa = object.__new__, object.__setattr__
    with _gc_paused():
        snapshots: dict[int, list[CounterSnapshot]] = {}
        for cid, rows in snapshot_rows.items():
            per_client = snapshots[cid] = []
            for time, client_id, counter_row in rows:
                snap = _new(CounterSnapshot)
                _osa(snap, "time", time)
                _osa(snap, "client_id", client_id)
                _osa(snap, "counters", make_client(counter_row))
                per_client.append(snap)
        final_counters = {
            cid: make_client(row) for cid, row in final_rows.items()
        }
    return ClusterResult(
        config=state["config"],
        duration=state["duration"],
        snapshots=snapshots,
        final_counters=final_counters,
        server_counters=make_server(server_row),
        records_replayed=state["records_replayed"],
        per_server_counters=tuple(
            make_server(row) for row in per_server_rows
        ),
        server_ids=tuple(state["server_ids"]),
        construction_seconds=state["construction_seconds"],
        tick_events=state["tick_events"],
    )


# --------------------------------------------------------------------------
# counter timeseries (repro.obs)
# --------------------------------------------------------------------------


def _encode_timeseries(timeseries: CounterTimeseries) -> bytes:
    # The payload is primitives all the way down (field-name tuples,
    # time lists, value-row tuples), so marshal carries it whole.
    return _TAG_OBS + marshal.dumps(timeseries.to_payload(), _MARSHAL_VERSION)


def _decode_timeseries(body: bytes) -> CounterTimeseries:
    return CounterTimeseries.from_payload(marshal.loads(body))


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def encode_artifact(artifact: Any, context: dict[str, Any] | None = None) -> bytes:
    """Serialize an artifact to a tagged payload.

    ``context`` may carry the owning trace's record list (``"records"``),
    letting access lists pack as record *indexes* rather than copies.
    """
    if isinstance(artifact, SyntheticTrace):
        if not artifact.records and artifact.columnar is not None:
            return _encode_columnar_trace(artifact)
        return _encode_trace(artifact)
    if isinstance(artifact, ClusterResult):
        return _encode_replay(artifact)
    if isinstance(artifact, CounterTimeseries):
        return _encode_timeseries(artifact)
    if (
        isinstance(artifact, list)
        and artifact
        and all(isinstance(item, Access) for item in artifact)
    ):
        if context is not None and context.get("records") is not None:
            payload = _encode_accesses_indexed(artifact, context["records"])
            if payload is not None:
                return payload
        return _encode_accesses(artifact)
    return _TAG_PICKLE + pickle.dumps(
        artifact, protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_artifact(payload: bytes, context: dict[str, Any] | None = None) -> Any:
    """Inverse of :func:`encode_artifact`.

    Index-form access payloads need the same ``context`` they were
    encoded with; without it they fail to decode (a cache miss, never an
    error, at the cache layer).
    """
    tag, body = payload[:1], payload[1:]
    if tag == _TAG_TRACE:
        return _decode_trace(body)
    if tag == _TAG_COLUMNAR_TRACE:
        return _decode_columnar_trace(body)
    if tag == _TAG_REPLAY:
        return _decode_replay(body)
    if tag == _TAG_ACCESSES_INDEXED:
        if context is None or context.get("records") is None:
            raise ValueError("index-form access payload needs trace records")
        return _decode_accesses_indexed(body, context["records"])
    if tag == _TAG_ACCESSES:
        return _decode_accesses(body)
    if tag == _TAG_OBS:
        return _decode_timeseries(body)
    if tag == _TAG_PICKLE:
        with _gc_paused():
            return pickle.loads(body)
    raise ValueError(f"unknown artifact tag {tag!r}")
